"""The run greedy of `greedy_oracles.greedy_steps` against the heaps it replaced.

`greedy_oracles.class_greedy_steps` keeps one heap entry per class of ranks
cached at the same helper set, and `greedy_oracles.lazy_greedy_steps` one
entry per (rank, helper) pair.  Both must return the trajectory of
`greedy_steps`, (helper, rank, gain) ties included, compared with `==`.
Random instances mix gamma = 0 (every rank tied), tied link rates, duplicated
helpers (equal coverage weights), helpers without users, and capacities from
0 past the catalog size.
"""

import collections
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from graph_oracles import graph_from_rates
from greedy_oracles import class_greedy_steps, greedy_steps, lazy_greedy_steps

from helpercache import placement_uncoded
from helpercache import rng as hrng
from helpercache.macro_sim import MacroConfig, experiment_popularity, plan_deployment
from helpercache.placement_uncoded import _DORMANT, HelperSpecs, _Runs, _clear_winner
from helpercache.popularity import zipf_model

# Few distinct levels so that tied link rates are common.
RATE_LEVELS = np.array([2e6, 5e6, 5e6, 1.2e7, 3e7])
GAMMAS = (0.0, 0.3, 0.8, 1.5, None)  # None: drawn from U(0, 1.5)

# The greedy calls of the benchmark's macro sweeps: `sweep-helpers` over its
# helper counts at the default capacity, and `sweep-capacity` over its cache
# sizes at 32 helpers.
SWEEP_POINTS = [(c, 2000) for c in (0, 2, 4, 8, 10, 16, 24, 32)] + [
    (32, cap) for cap in (0, 250, 500, 1000, 2000, 4000)
]


def random_instance(rng):
    n, H, m = int(rng.integers(0, 9)), int(rng.integers(0, 7)), int(rng.integers(1, 14))
    rates = np.where(
        rng.random((n, H)) < 0.6, rng.choice(RATE_LEVELS, size=(n, H)), 0.0
    )
    if H >= 2 and rng.random() < 0.3:
        rates[:, 1] = rates[:, 0]  # two helpers with equal coverage weights
    if H and rng.random() < 0.3:
        rates[:, int(rng.integers(H))] = 0.0  # a helper with no users
    bs = rng.choice([1e6, 1.5e6, 1.9e6], size=n)
    gamma = GAMMAS[int(rng.integers(len(GAMMAS)))]
    if gamma is None:
        gamma = float(rng.uniform(0.0, 1.5))
    caps = tuple(int(rng.integers(0, m + 2)) for _ in range(H))
    graph = graph_from_rates(rates.reshape(n, H), bs)
    return graph, zipf_model(gamma, m), HelperSpecs(caps)


def test_class_greedy_equals_lazy_greedy_on_random_instances(monkeypatch):
    scored_alone = []
    item_step = placement_uncoded._item_step

    def counted(*args):
        scored_alone.append(args)
        return item_step(*args)

    monkeypatch.setattr(placement_uncoded, "_item_step", counted)
    rng = hrng.stream(606, "greedy-classes")
    seen = {"gamma0": 0, "zero_cap": 0, "big_cap": 0, "idle_helper": 0}
    for _ in range(1200):
        graph, pop, specs = random_instance(rng)
        # At 1e-316 the gains are subnormal and distinct coverage weights
        # can round to equal gains, which go to the lower helper index.
        for file_bits in (2.4e8, 1.0, 1e-316):
            steps = greedy_steps(graph, pop, specs, file_bits)
            assert steps == class_greedy_steps(graph, pop, specs, file_bits)
            assert steps == lazy_greedy_steps(graph, pop, specs, file_bits)
        seen["gamma0"] += pop.gamma == 0.0
        seen["zero_cap"] += 0 in specs.capacities
        seen["big_cap"] += any(c > pop.m for c in specs.capacities)
        seen["idle_helper"] += any(
            h not in graph.helper for h in range(graph.n_helpers)
        )
    assert min(seen.values()) >= 50, seen
    # Items whose helper depends on the rank (no clear winner, or a gain that
    # is not a normal float) take the per-item path.
    assert len(scored_alone) >= 50


def test_class_greedy_equals_lazy_greedy_on_the_default_cell():
    config = MacroConfig()
    pop = experiment_popularity(config, 0)
    _, graph = plan_deployment(16, config, 0)
    specs = HelperSpecs.uniform(16, 2000)
    steps = greedy_steps(graph, pop, specs, config.file_bits)
    assert len(steps) > 10_000
    assert steps == class_greedy_steps(graph, pop, specs, config.file_bits)
    assert steps == lazy_greedy_steps(graph, pop, specs, config.file_bits)


def test_merged_greedy_equals_the_heaps_on_the_sweep_points():
    config = MacroConfig()
    for seed in (0, 1, 2):
        pop = experiment_popularity(config, seed)
        for count, capacity in SWEEP_POINTS:
            _, graph = plan_deployment(count, config, seed)
            specs = HelperSpecs.uniform(count, capacity)
            steps = greedy_steps(graph, pop, specs, config.file_bits)
            assert steps == class_greedy_steps(graph, pop, specs, config.file_bits)
            # The lazy greedy costs seconds per call at 24 or 32 helpers with
            # large caches, so it checks the smaller points of one seed.
            if seed == 0 and count * capacity <= 8000:
                assert steps == lazy_greedy_steps(graph, pop, specs, config.file_bits)


def count_events(monkeypatch) -> collections.Counter:
    """Count the events that end a batch of the run greedy (a fill, a class
    made at a chain end, an item scored on its own, a dormant class woken),
    and the batches committed while a class's pending members lay in several
    rank runs."""
    seen = collections.Counter()
    runs = placement_uncoded._Runs

    def spy(name, count):
        method = getattr(runs, name)

        def counted(self, *args):
            before = count(self)
            result = method(self, *args)
            seen[name] += count(self) - before
            return result

        monkeypatch.setattr(runs, name, counted)

    spy("close", lambda run: -int(run.is_open.sum()))  # a helper fills
    spy("extend", lambda run: len(run.by_row))  # the classes it makes
    spy("choose", lambda run: -int((run.best == _DORMANT).sum()))  # one wakes
    commit = runs.commit

    def split(self, counts):
        pending = self.row[self.lo < self.hi]
        seen["split"] += len(set(pending.tolist())) < pending.size
        return commit(self, counts)

    monkeypatch.setattr(runs, "commit", split)
    item_step = placement_uncoded._item_step

    def alone(*args):
        seen["alone"] += 1
        return item_step(*args)

    monkeypatch.setattr(placement_uncoded, "_item_step", alone)
    return seen


def test_run_greedy_equals_the_class_heap_on_a_large_catalog(monkeypatch):
    # 12,000 files: long rank runs, cut by fills and by classes made at the
    # ends of chains.
    seen = count_events(monkeypatch)
    for gamma in (0.0, 0.6, 1.2):
        config = MacroConfig(catalog_size=12_000, gamma=gamma)
        pop = experiment_popularity(config, 0)
        for count, capacity in ((8, 3000), (32, 100)):
            _, graph = plan_deployment(count, config, 0)
            specs = HelperSpecs.uniform(count, capacity)
            steps = greedy_steps(graph, pop, specs, config.file_bits)
            assert steps == class_greedy_steps(graph, pop, specs, config.file_bits)
    assert seen["close"] >= 100 and seen["extend"] >= 50, seen


def test_every_event_of_the_runs_fires_on_instances_equal_to_the_class_heap(monkeypatch):
    # Each kind of event: a helper fills, a chain end makes its class, an
    # item is scored on its own, a rank wakes a dormant class; and classes
    # whose pending members lie in several rank runs.
    seen = count_events(monkeypatch)
    rng = hrng.stream(610, "run-events")
    for _ in range(300):
        graph, pop, specs = random_instance(rng)
        for file_bits in (2.4e8, 1.0, 1e-316):
            steps = greedy_steps(graph, pop, specs, file_bits)
            assert steps == class_greedy_steps(graph, pop, specs, file_bits)
    for kind in ("close", "extend", "alone"):
        assert seen[kind] >= 200, seen
    assert seen["split"] >= 50 and seen["choose"] >= 5, seen


def test_clear_winner_keeps_its_helper_while_it_stays_open():
    rng = hrng.stream(607, "clear-winner")
    kept = 0
    for _ in range(2000):
        H = int(rng.integers(1, 9))
        # Few levels, so that exact ties are common; zeros and negatives too.
        s = rng.choice([-0.5, 0.0, 0.0, 1.0, 1.0 + 1e-13, 2.0, 3.0], size=H)
        s = s * float(rng.choice([1.0, 1e-300, 1e200]))
        ok = rng.random(H) < 0.8
        first = _clear_winner(s, ok)
        if first >= 0:
            w = float(rng.choice([2.4e8, 1.0, 1e-9]))
            gains = np.where(ok, w * s, -1.0)
            if np.finfo(float).tiny <= gains[first] < np.inf:
                assert int(gains.argmax()) == first
        for h in rng.permutation(H).tolist():
            if not ok[h]:
                continue
            ok[h] = False
            now = _clear_winner(s, ok)
            if first == -2:
                assert now == -2
            elif first >= 0 and ok[first]:
                assert now == first
                kept += 1
    assert kept >= 200


def test_one_greedy_at_32_helpers_stays_within_its_memory_bound():
    # 2.0 MB measured: the pending runs are a few small arrays, and only the
    # committed steps are built item by item.
    config = MacroConfig()
    pop = experiment_popularity(config, 0)
    _, graph = plan_deployment(32, config, 0)
    specs = HelperSpecs.uniform(32, 2000)
    placement_uncoded._greedy(graph, pop, specs, config.file_bits)
    tracemalloc.start()
    try:
        helpers, _, _ = placement_uncoded._greedy(graph, pop, specs, config.file_bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert helpers.size > 30_000
    assert peak < 6e6


def place_in_a_child(tmp_path, *argv) -> tuple[float, int]:
    """Seconds in `main` and peak RSS bytes of `place *argv` run in a child
    process under a 4 GB address-space limit."""
    probe = (
        "import resource, sys, time; from helpercache.cli import main; "
        "t = time.perf_counter(); code = main(sys.argv[1:]); "
        "print(code, time.perf_counter() - t, "
        "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    src = str(Path(placement_uncoded.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    limit = 4 << 30
    done = subprocess.run(
        [sys.executable, "-c", probe, "place", *argv, "--out", str(tmp_path / "place.json")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    code, seconds, peak_kib = done.stdout.split()
    assert (int(code), done.stderr) == (0, "")
    return float(seconds), int(peak_kib) * 1024


def test_greedy_at_a_million_files_stays_within_its_time_and_memory(tmp_path):
    # `place --m 10^6 --helpers 100 --capacity 10^4` commits 10^6 steps;
    # measured at 0.69-0.94 s in `main` and a 172-173 MB peak in the child
    # (2-core Xeon).  The bounds are about twice that, under a 4 GB limit.
    seconds, peak = place_in_a_child(
        tmp_path, "--m", "1000000", "--helpers", "100", "--capacity", "10000"
    )
    assert seconds < 1.6
    assert peak < 350e6


def test_greedy_at_the_helper_cap_stays_within_its_time_and_memory(tmp_path):
    # `place --helpers 10^4 --n 1000`, the widest deployment the cap allows:
    # measured at 3.2-4.6 s in `main` and a 359 MB peak in the child (2-core
    # Xeon shared with other jobs).  The bounds are about twice that, under a
    # 4 GB limit.
    seconds, peak = place_in_a_child(tmp_path, "--helpers", "10000", "--n", "1000")
    assert seconds < 8.0
    assert peak < 700e6


def place_defaults(helpers, **overrides):
    """The graph, popularity and specs `place --helpers N` plans on (m 100,
    capacity 3, 24 users, gamma 0.8), at seed 0 unless overridden."""
    seed = overrides.pop("seed", 0)
    capacity = overrides.pop("capacity", 3)
    config = MacroConfig(**{"catalog_size": 100, "gamma": 0.8, **overrides})
    _, graph = plan_deployment(helpers, config, seed)
    pop = experiment_popularity(config, seed)
    return graph, pop, HelperSpecs.uniform(helpers, capacity), config.file_bits


@pytest.mark.parametrize("helpers", [128, 256])
def test_runs_equal_the_class_heap_at_the_place_defaults(helpers):
    # Helpers fill after three files each, so fills come every few steps.
    graph, pop, specs, file_bits = place_defaults(helpers)
    steps = greedy_steps(graph, pop, specs, file_bits)
    assert len(steps) > 300
    assert steps == class_greedy_steps(graph, pop, specs, file_bits)


def test_runs_equal_the_class_heap_when_helpers_fill_often():
    rng = hrng.stream(608, "greedy-fills")
    filled = 0
    for _ in range(10):
        helpers = int(rng.integers(32, 257))
        graph, pop, specs, file_bits = place_defaults(
            helpers,
            seed=int(rng.integers(1000)),
            capacity=int(rng.integers(1, 6)),
            catalog_size=int(rng.integers(20, 150)),
            n_users=int(rng.integers(8, 41)),
            gamma=float(rng.choice([0.0, 0.5, 0.8, 1.2])),
            helper_mode=str(rng.choice(["grid", "uniform"])),
        )
        steps = greedy_steps(graph, pop, specs, file_bits)
        assert steps == class_greedy_steps(graph, pop, specs, file_bits)
        used = np.bincount([h for h, _, _ in steps], minlength=specs.n_helpers)
        filled += int(np.sum(used == np.array(specs.capacities)))
    assert filled >= 500


def test_one_greedy_at_1024_helpers_stays_within_its_memory_bound():
    # Each made class keeps a coverage weight per helper (8 KB at 1024
    # helpers); 3.4 MB measured for 665 steps and 259 classes.
    graph, pop, specs, file_bits = place_defaults(1024)
    placement_uncoded._greedy(graph, pop, specs, file_bits)
    tracemalloc.start()
    try:
        helpers, _, _ = placement_uncoded._greedy(graph, pop, specs, file_bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert helpers.size > 600
    assert peak < 10e6


def test_coverage_weights_equal_the_sum_over_each_helpers_users():
    # Helpers are summed in blocks of equal user count // 8 (below 128) or
    # equal user count, padded with zeros; every weight must still be the
    # numpy sum over the helper's own users, bit for bit.
    rng = hrng.stream(609, "coverage-weights")
    counts = list(range(0, 20)) + [23, 24, 31, 32, 33, 64, 127, 128, 129, 200, 300]
    n_users = max(counts)
    rates = np.zeros((n_users, len(counts)))
    for h, k in enumerate(counts):
        users = rng.permutation(n_users)[:k]
        rates[users, h] = rng.choice(RATE_LEVELS, size=k) * rng.uniform(0.5, 2.0, k)
    graph = graph_from_rates(rates, rng.uniform(1e6, 2e6, n_users))
    specs = HelperSpecs.uniform(len(counts), 2)
    run = _Runs(graph, zipf_model(0.8, 50), specs, 2.4e8)
    root = run.by_row[0]
    row = run.successor(0, int(np.argmax(root.s)))
    for c in (root, run.by_row[row]):
        for h in range(len(counts)):
            users = np.flatnonzero(rates[:, h] > 0)
            want = np.maximum(0.0, c.cur[users] - 1.0 / rates[users, h]).sum()
            assert c.s[h] == (want if c.cand[h] else 0.0), (h, counts[h])
