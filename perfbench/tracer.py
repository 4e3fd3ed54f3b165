"""Span recorder for the traced benchmark run.

The recorder wraps public helpercache functions under the names their callers
look them up by (for example `macro_sim.greedy_place`, which is the binding
`sweep_helper_count` resolves at call time) and records one span per call:
name, start, end and the index of the enclosing span.  Spans stay in memory
until the run ends.  Counters are computed only from the wrapped calls'
arguments and return values, never by re-running any work.

A layer's self time is the sum, over its spans, of each span's duration minus
the durations of its direct children.  Every span belongs to exactly one
layer, and the benchmark opens a root `cli.main` span around each CLI call, so
the layers' self times add up to the traced wall time of the calls.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "popularity",
    "topology",
    "placement_uncoded",
    "placement_coded",
    "simplex",
    "macro_sim",
    "d2d",
    "cli",
)

ROOT_SPAN = "cli.main"

_FLOAT_BYTES = 8  # one float64 tableau entry


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_samples(counters, args, kwargs, result):
    counters["popularity.samples"] += int(_arg(args, kwargs, 2, "size"))


def _count_connectivity(counters, args, kwargs, result):
    counters["topology.connectivity_calls"] += 1


def _count_greedy(counters, args, kwargs, result):
    counters["placement_uncoded.greedy_calls"] += 1
    counters["placement_uncoded.greedy_selected"] += sum(len(c) for c in result.caches)


def _count_lp(counters, args, kwargs, result):
    A = result.A
    counters["placement_coded.lp_rows"] += A.shape[0]
    counters["placement_coded.lp_cols"] += A.shape[1]
    counters["placement_coded.lp_nnz"] += int(np.count_nonzero(A))


def _count_objective(counters, args, kwargs, result):
    counters.objectives.append(float(result[1].objective))


def _count_simplex(counters, args, kwargs, result):
    nrows, ncols = _arg(args, kwargs, 1, "A").shape
    tableau = nrows * (ncols + nrows) * _FLOAT_BYTES
    counters["simplex.iterations"] += result.iterations
    counters["simplex.bytes_computed"] += tableau * result.iterations
    counters.maxima["simplex.tableau_mb"] = max(
        counters.maxima.get("simplex.tableau_mb", 0.0), tableau / 1e6
    )


def _count_snapshot(counters, args, kwargs, result):
    n = len(result.download_time)
    counters["macro_sim.snapshots"] += 1
    counters["macro_sim.requests"] += n
    counters["macro_sim.helper_served"] += result.helper_served_fraction * n


def _count_mc(counters, args, kwargs, result):
    scenario = _arg(args, kwargs, 0, "scenario")
    counters["d2d.mc_user_draws"] += int(_arg(args, kwargs, 3, "reps")) * scenario.n


def _count_analytic(counters, args, kwargs, result):
    counters["d2d.analytic_calls"] += 1


def _strategy(args, kwargs) -> str:
    return _arg(args, kwargs, 0, "scenario").strategy


@dataclass(frozen=True)
class Probe:
    """One wrapped binding: calls to `module.attr` become spans of `layer`.

    The span is named after the binding.  `stem` names the metric the span
    feeds; when `split` is given, the span name and the stem both get a
    suffix computed from the call's arguments.  `count` adds counters from
    the arguments and the result.
    """

    module: str
    attr: str
    layer: str
    stem: str
    count: object = None
    split: object = None

    def names(self, args, kwargs) -> tuple[str, str]:
        name = f"{self.module}.{self.attr}"
        if self.split is None:
            return name, self.stem
        suffix = self.split(args, kwargs)
        return f"{name}/{suffix}", f"{self.stem}/{suffix}"


PROBES = (
    Probe("cli", "sweep_helper_count", "macro_sim", "macro_sim.sweep"),
    Probe("cli", "sweep_capacity", "macro_sim", "macro_sim.sweep"),
    Probe("cli", "sweep_r", "d2d", "d2d.sweep"),
    Probe("cli", "sweep_gamma1", "d2d", "d2d.sweep"),
    Probe("cli", "scaling_check", "d2d", "d2d.sweep"),
    Probe("macro_sim", "experiment_popularity", "popularity", "popularity.fit"),
    Probe("macro_sim", "sample_requests", "popularity", "popularity.sample", _count_samples),
    Probe("macro_sim", "place_uniform", "topology", "topology.layout"),
    Probe("macro_sim", "place_helpers", "topology", "topology.layout"),
    Probe("macro_sim", "build_connectivity", "topology", "topology.connectivity", _count_connectivity),
    Probe("macro_sim", "greedy_place", "placement_uncoded", "placement_uncoded.greedy", _count_greedy),
    Probe("macro_sim", "most_popular_place", "placement_uncoded", "placement_uncoded.most_popular"),
    Probe("macro_sim", "solve_grouped", "placement_coded", "placement_coded.grouped", _count_objective),
    Probe("placement_coded", "build_lp", "placement_coded", "placement_coded.build_lp", _count_lp),
    Probe("placement_coded", "solve_lp_detailed", "placement_coded", "placement_coded.solve"),
    Probe("placement_coded", "simplex_solve", "simplex", "simplex.solve", _count_simplex),
    Probe("macro_sim", "simulate_snapshot", "macro_sim", "macro_sim.snapshot", _count_snapshot),
    Probe("d2d", "sample_requests", "popularity", "popularity.sample", _count_samples),
    Probe("d2d", "simulate_active_clusters", "d2d", "d2d.mc", _count_mc, _strategy),
    Probe("d2d", "expected_active_analytic", "d2d", "d2d.analytic", _count_analytic),
)


class Counters(defaultdict):
    """Summed counters, plus maxima and the LP optima seen in this pass."""

    def __init__(self):
        super().__init__(float)
        self.maxima: dict[str, float] = {}
        self.objectives: list[float] = []


@dataclass
class Recorder:
    """In-memory spans `(name, start, end, parent)`; parent -1 marks a root."""

    spans: list = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    kind_of: dict = field(default_factory=lambda: {ROOT_SPAN: ("cli", "cli.main")})
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def install(self, modules: dict, probes=PROBES):
        """Wrap each probe's binding; bindings that no longer exist are listed
        in `missing` so a renamed function shows up instead of failing."""
        self.missing = []
        for probe in probes:
            module = modules[probe.module]
            original = getattr(module, probe.attr, None)
            if original is None:
                self.missing.append(f"{probe.module}.{probe.attr}")
                continue
            setattr(module, probe.attr, self._wrapper(probe, original))
            self._patched.append((module, probe.attr, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrapper(self, probe: Probe, original):
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name, stem = probe.names(args, kwargs)
            recorder.kind_of.setdefault(name, (probe.layer, stem))
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if probe.count is not None:
                probe.count(recorder.counters, args, kwargs, result)
            return result

        return wrapper

    def reset(self):
        self.spans = []
        self.counters = Counters()
        self._stack = []


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def stem_totals(spans, kind_of) -> tuple[dict, dict, dict]:
    """Summed self time and summed duration per metric stem, and self time
    per layer."""
    self_s: dict = defaultdict(float)
    total_s: dict = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _), mine in zip(spans, self_times(spans)):
        layer, stem = kind_of[name]
        self_s[stem] += mine
        total_s[stem] += end - start
        layer_self[layer] += mine
    return self_s, total_s, layer_self


def layer_metrics(recorder: Recorder) -> dict:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    self_s, total_s, layer_self = stem_totals(recorder.spans, recorder.kind_of)
    c = recorder.counters
    snapshots = c["macro_sim.snapshots"]
    mc_s = total_s["d2d.mc/deterministic"] + total_s["d2d.mc/random-zipf"]
    out = {f"{layer}.self_s": value for layer, value in layer_self.items()}
    out.update(
        {
            "popularity.sample_s": self_s["popularity.sample"],
            "popularity.samples": c["popularity.samples"],
            "popularity.fit_s": total_s["popularity.fit"],
            "topology.connectivity_s": self_s["topology.connectivity"],
            "topology.connectivity_calls": c["topology.connectivity_calls"],
            "topology.layout_s": self_s["topology.layout"],
            "placement_uncoded.greedy_s": self_s["placement_uncoded.greedy"],
            "placement_uncoded.greedy_calls": c["placement_uncoded.greedy_calls"],
            "placement_uncoded.greedy_selected": c["placement_uncoded.greedy_selected"],
            "placement_uncoded.most_popular_s": self_s["placement_uncoded.most_popular"],
            "placement_coded.build_lp_s": self_s["placement_coded.build_lp"],
            "placement_coded.solve_s": self_s["placement_coded.solve"],
            "placement_coded.lp_rows": c["placement_coded.lp_rows"],
            "placement_coded.lp_cols": c["placement_coded.lp_cols"],
            "placement_coded.lp_nnz": c["placement_coded.lp_nnz"],
            "simplex.solve_s": self_s["simplex.solve"],
            "simplex.iterations": c["simplex.iterations"],
            "simplex.tableau_mb": c.maxima.get("simplex.tableau_mb", 0.0),
            "simplex.bytes_computed": c["simplex.bytes_computed"],
            "macro_sim.snapshot_s": self_s["macro_sim.snapshot"],
            "macro_sim.snapshots": snapshots,
            "macro_sim.snapshot_us": (
                total_s["macro_sim.snapshot"] / snapshots * 1e6 if snapshots else 0.0
            ),
            "macro_sim.helper_served_frac": (
                c["macro_sim.helper_served"] / c["macro_sim.requests"]
                if c["macro_sim.requests"]
                else 0.0
            ),
            "macro_sim.sweep_self_s": self_s["macro_sim.sweep"],
            "d2d.mc_det_s": self_s["d2d.mc/deterministic"],
            "d2d.mc_random_s": self_s["d2d.mc/random-zipf"],
            "d2d.mc_user_draws": c["d2d.mc_user_draws"],
            "d2d.mc_ns_per_draw": (
                mc_s / c["d2d.mc_user_draws"] * 1e9 if c["d2d.mc_user_draws"] else 0.0
            ),
            "d2d.analytic_s": self_s["d2d.analytic"],
            "d2d.analytic_calls": c["d2d.analytic_calls"],
        }
    )
    return out
