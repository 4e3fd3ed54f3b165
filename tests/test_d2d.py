import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from d2d_oracles import cache_random, cluster_active, cvc_deterministic

from helpercache import d2d
from helpercache.d2d import (
    D2DScenario,
    _random_caches,
    expected_active_analytic,
    grid_side,
    scaling_check,
    simulate_active_clusters,
    sweep_gamma1,
    sweep_r,
)
from helpercache.errors import InvalidParameterError
from helpercache.popularity import catalog_size, sample_requests, zipf_model
from helpercache.rng import stream


class TestScenarioValidation:
    def test_accepts_a_plain_deterministic_setup(self):
        sc = D2DScenario(n=100, m=50, M=2, r=0.2, gamma=0.8)
        assert sc.popularity().m == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"m": 0},
            {"M": -1},
            {"r": 0.0},
            {"r": 1.2},
            {"gamma": -0.1},
            {"gamma": math.nan},
            {"strategy": "popular"},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(n=10, m=10, M=1, r=0.5, gamma=0.8)
        base.update(kwargs)
        with pytest.raises(InvalidParameterError):
            D2DScenario(**base)

    def test_random_strategy_needs_gamma1(self):
        with pytest.raises(InvalidParameterError):
            D2DScenario(n=10, m=10, M=1, r=0.5, gamma=0.8, strategy="random-zipf")
        with pytest.raises(InvalidParameterError):
            D2DScenario(
                n=10, m=10, M=1, r=0.5, gamma=0.8, strategy="random-zipf", gamma1=-1.0
            )
        with pytest.raises(InvalidParameterError):
            D2DScenario(
                n=10, m=10, M=12, r=0.5, gamma=0.8, strategy="random-zipf", gamma1=0.5
            )

    def test_deterministic_strategy_rejects_gamma1(self):
        with pytest.raises(InvalidParameterError):
            D2DScenario(n=10, m=10, M=1, r=0.5, gamma=0.8, gamma1=0.5)


class TestGridSide:
    def test_exact_tilings(self):
        assert grid_side(1.0, exact=True) == (1, True)
        assert grid_side(0.25, exact=True) == (4, True)
        # float thirds are close enough to count as a tiling
        assert grid_side(1.0 / 3.0, exact=True) == (3, True)

    def test_non_tiling_r(self):
        with pytest.raises(InvalidParameterError):
            grid_side(0.3, exact=True)
        assert grid_side(0.3, exact=False) == (3, False)
        assert grid_side(0.7, exact=False) == (1, False)


class TestDeterministicCaches:
    def test_blocks_partition_the_most_popular_files(self):
        assert cvc_deterministic(0, 3, 10) == ()
        assert cvc_deterministic(2, 1, 10) == (frozenset({1}), frozenset({2}))
        assert cvc_deterministic(3, 2, 4) == (
            frozenset({1, 2}),
            frozenset({3, 4}),
            frozenset(),
        )

    def test_union_is_a_prefix_without_repetition(self):
        caches = cvc_deterministic(5, 3, 11)
        union = set().union(*caches)
        assert union == set(range(1, 12))
        assert sum(len(c) for c in caches) == len(union)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            cvc_deterministic(-1, 1, 5)
        with pytest.raises(InvalidParameterError):
            cvc_deterministic(1, -1, 5)
        with pytest.raises(InvalidParameterError):
            cvc_deterministic(1, 1, 0)


class TestRandomCaches:
    def test_full_catalog_consumes_no_randomness(self):
        rng = stream(42, "nc")
        assert cache_random(3, 1.5, 3, rng) == frozenset({1, 2, 3})
        fresh = stream(42, "nc")
        np.testing.assert_array_equal(rng.random(4), fresh.random(4))

    def test_empty_cache(self):
        assert cache_random(0, 1.0, 5, stream(1, "e")) == frozenset()

    def test_rows_hold_distinct_ranks(self):
        rows = _random_caches(500, 3, zipf_model(1.0, 6), stream(5, "d"))
        assert rows.shape == (500, 3)
        assert np.all((rows >= 1) & (rows <= 6))
        for row in rows:
            assert len(set(row.tolist())) == 3

    def test_flat_exponent_is_uniform(self):
        rows = _random_caches(100_000, 1, zipf_model(0.0, 10), stream(13, "u"))
        freq = np.bincount(rows[:, 0], minlength=11)[1:] / 100_000
        np.testing.assert_allclose(freq, 0.1, atol=0.01)

    def test_oversized_cache_rejected(self):
        with pytest.raises(InvalidParameterError):
            _random_caches(1, 4, zipf_model(0.5, 3), stream(1, "x"))


class TestClusterActive:
    def test_needs_a_foreign_holder(self):
        assert not cluster_active((), ())
        assert not cluster_active((frozenset({1}),), [1])
        assert cluster_active((frozenset({1}), frozenset({2})), [2, 5])
        assert not cluster_active((frozenset({1}), frozenset({2})), [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            cluster_active((frozenset({1}),), [1, 2])


class TestAnalyticModel:
    def test_matches_exhaustive_enumeration(self):
        # Independent oracle: enumerate all K^n cluster assignments and all
        # request combinations per occupied cluster, scoring activity with
        # cluster_active on the deterministic caches.
        n, side, m, M, gamma = 3, 2, 4, 1, 0.8
        K = side * side
        pop = zipf_model(gamma, m)
        total = 0.0
        for assign in itertools.product(range(K), repeat=n):
            for c in range(K):
                users = [u for u in range(n) if assign[u] == c]
                k = len(users)
                if k < 2:
                    continue
                caches = cvc_deterministic(k, M, m)
                for reqs in itertools.product(range(1, m + 1), repeat=k):
                    if cluster_active(caches, reqs):
                        total += math.prod(pop.pmf[r - 1] for r in reqs)
        brute = total / K**n
        sc = D2DScenario(n=n, m=m, M=M, r=0.5, gamma=gamma)
        stats = expected_active_analytic(sc, pop)
        assert stats.expected_active == pytest.approx(brute, abs=1e-12)
        assert stats.K == K
        assert stats.stderr == 0.0

    def test_degenerate_cases_are_zero(self):
        pop = zipf_model(0.8, 10)
        lonely = D2DScenario(n=1, m=10, M=2, r=0.5, gamma=0.8)
        assert expected_active_analytic(lonely, pop).expected_active == 0.0
        empty = D2DScenario(n=50, m=10, M=0, r=0.5, gamma=0.8)
        assert expected_active_analytic(empty, pop).expected_active == 0.0

    def test_single_file_catalog_closed_form(self):
        # m=M=1: only the cluster's first user holds the file, so a cluster
        # is active exactly when it has two or more users
        n, side = 40, 2
        K = side * side
        p = 1.0 / K
        closed = K * (1 - (1 - p) ** n - n * p * (1 - p) ** (n - 1))
        sc = D2DScenario(n=n, m=1, M=1, r=0.5, gamma=0.7)
        stats = expected_active_analytic(sc, zipf_model(0.7, 1))
        assert stats.expected_active == pytest.approx(closed, abs=1e-9)

    def test_certain_activity_when_one_cluster_covers_all(self):
        # r=1, two users, flat popularity over two files, one file each:
        # P(active) = 1 - P(both request their own file) - cross misses
        sc = D2DScenario(n=2, m=2, M=1, r=1.0, gamma=0.0)
        stats = expected_active_analytic(sc, zipf_model(0.0, 2))
        assert stats.expected_active == pytest.approx(0.75, abs=1e-12)

    def test_monotone_in_cache_size(self):
        pop = zipf_model(0.7, 40)
        base = D2DScenario(n=60, m=40, M=0, r=1.0 / 3.0, gamma=0.7)
        values = [
            expected_active_analytic(replace(base, M=M), pop).expected_active
            for M in (0, 1, 2, 4, 8, 40)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] <= base.n

    def test_rejects_unsupported_inputs(self):
        pop = zipf_model(0.8, 10)
        with pytest.raises(InvalidParameterError):
            expected_active_analytic(
                D2DScenario(n=10, m=10, M=1, r=0.3, gamma=0.8), pop
            )
        rz = D2DScenario(
            n=10, m=10, M=1, r=0.5, gamma=0.8, strategy="random-zipf", gamma1=0.5
        )
        with pytest.raises(InvalidParameterError):
            expected_active_analytic(rz, pop)
        with pytest.raises(InvalidParameterError):
            expected_active_analytic(
                D2DScenario(n=10, m=12, M=1, r=0.5, gamma=0.8), pop
            )


class TestMonteCarlo:
    def test_matches_analytic_within_three_sigma(self):
        sc = D2DScenario(n=100, m=120, M=2, r=0.2, gamma=0.8)
        pop = zipf_model(0.8, 120)
        exact = expected_active_analytic(sc, pop)
        assert exact.expected_active == pytest.approx(15.753278718001665, rel=1e-12)
        mc = simulate_active_clusters(sc, pop, stream(321, "oracle"), 20_000)
        assert mc.K == exact.K == 25
        assert abs(mc.expected_active - exact.expected_active) <= 3 * mc.stderr

    def test_matches_a_plain_python_rerun_exactly(self):
        # Reference loop drawing positions then requests in the same order;
        # equal means prove the vectorized bucketing assigns blocks by user
        # arrival order, not merely something statistically similar.
        sc = D2DScenario(n=12, m=20, M=2, r=1.0 / 3.0, gamma=0.9)
        pop = zipf_model(0.9, 20)
        reps, side = 25, 3
        rng = stream(9, "mirror")
        pos = rng.random((2, reps * sc.n)).T  # one block: x row, then y row
        requests = sample_requests(pop, rng, reps * sc.n)
        counts = []
        for rep in range(reps):
            base = rep * sc.n
            cx = np.minimum((pos[base : base + sc.n, 0] * side).astype(int), side - 1)
            cy = np.minimum((pos[base : base + sc.n, 1] * side).astype(int), side - 1)
            cid = cx * side + cy
            active = 0
            for c in range(side * side):
                users = np.flatnonzero(cid == c)
                if users.size == 0:
                    continue
                caches = cvc_deterministic(int(users.size), sc.M, sc.m)
                reqs = [int(requests[base + u]) for u in users]
                active += cluster_active(caches, reqs)
            counts.append(active)
        got = simulate_active_clusters(sc, pop, stream(9, "mirror"), reps)
        assert got.expected_active == np.mean(counts)
        assert got.stderr == pytest.approx(
            np.std(counts, ddof=1) / math.sqrt(reps), abs=1e-15
        )

    def test_random_strategy_matches_a_plain_rerun(self):
        # with M=1 the cache draw is a single batch from the child stream,
        # mirrored exactly here
        sc = D2DScenario(
            n=10, m=15, M=1, r=0.5, gamma=0.6, strategy="random-zipf", gamma1=0.8
        )
        pop = zipf_model(0.6, 15)
        reps, side = 30, 2
        rng = stream(13, "mirror")
        caching = rng.spawn(1)[0]
        pos = rng.random((2, reps * sc.n)).T
        requests = sample_requests(pop, rng, reps * sc.n)
        holder = sample_requests(zipf_model(sc.gamma1, sc.m), caching, reps * sc.n)
        counts = []
        for rep in range(reps):
            base = rep * sc.n
            cx = np.minimum((pos[base : base + sc.n, 0] * side).astype(int), side - 1)
            cy = np.minimum((pos[base : base + sc.n, 1] * side).astype(int), side - 1)
            cid = cx * side + cy
            active = 0
            for c in range(side * side):
                users = np.flatnonzero(cid == c)
                if users.size == 0:
                    continue
                caches = tuple(frozenset({int(holder[base + u])}) for u in users)
                reqs = [int(requests[base + u]) for u in users]
                active += cluster_active(caches, reqs)
            counts.append(active)
        got = simulate_active_clusters(sc, pop, stream(13, "mirror"), reps)
        assert got.expected_active == np.mean(counts)

    def test_no_caches_means_no_active_clusters(self):
        # With M = 0 nothing is drawn: no request, no position, no child stream.
        for gamma1 in (None, 1.0):
            sc = D2DScenario(
                n=50, m=10, M=0, r=0.25, gamma=0.8,
                strategy="deterministic" if gamma1 is None else "random-zipf",
                gamma1=gamma1,
            )
            rng = stream(3, "z")
            state = rng.bit_generator.state
            (stats,) = d2d._monte_carlo(
                sc, zipf_model(0.8, 10), rng, 200, [0.25, 0.1], [gamma1]
            )
            assert [(st.expected_active, st.stderr) for st in stats] == [(0.0, 0.0)] * 2
            assert rng.bit_generator.state == state
            assert rng.bit_generator.seed_seq.n_children_spawned == 0

    def test_full_blocks_draw_alike_whatever_reps_is(self, monkeypatch):
        # Replications go in blocks of _BLOCK_USERS // n, so the first block
        # of a longer run scores what a run of one block does.
        scored = []
        real = d2d._score_block

        def spy(*args):
            scored.append(real(*args))
            return scored[-1]

        monkeypatch.setattr(d2d, "_score_block", spy)
        sc = D2DScenario(n=4000, m=50, M=2, r=0.1, gamma=0.8)
        step = d2d._BLOCK_USERS // sc.n
        simulate_active_clusters(sc, sc.popularity(), stream(2, "b"), step)
        simulate_active_clusters(sc, sc.popularity(), stream(2, "b"), 2 * step + 1)
        assert [counts.size for counts in scored] == [step, step, step, 1]
        assert scored[0].sum() > 0
        np.testing.assert_array_equal(scored[0], scored[1])

    def test_full_caches_ignore_the_caching_exponent(self):
        # M=m stores everything, so no cache randomness is consumed and the
        # count reduces to clusters with at least two users
        sc = D2DScenario(
            n=60, m=5, M=5, r=0.25, gamma=0.9, strategy="random-zipf", gamma1=0.0
        )
        pop = zipf_model(0.9, 5)
        K, p = 16, 1.0 / 16.0
        closed = K * (1 - (1 - p) ** 60 - 60 * p * (1 - p) ** 59)
        a = simulate_active_clusters(sc, pop, stream(77, "full"), 4000)
        b = simulate_active_clusters(
            replace(sc, gamma1=2.0), pop, stream(77, "full"), 4000
        )
        assert a == b
        assert abs(a.expected_active - closed) <= 3 * a.stderr

    def test_non_tiling_r_warns_and_coarsens(self, caplog):
        sc = D2DScenario(n=30, m=10, M=1, r=0.3, gamma=0.8)
        with caplog.at_level("WARNING", logger="helpercache.d2d"):
            stats = simulate_active_clusters(sc, zipf_model(0.8, 10), stream(5, "w"), 50)
        assert "does not tile" in caplog.text
        assert stats.K == 9

    def test_seeded_runs_reproduce(self):
        sc = D2DScenario(n=40, m=30, M=2, r=0.25, gamma=1.0)
        pop = zipf_model(1.0, 30)
        assert simulate_active_clusters(
            sc, pop, stream(8, "rep"), 300
        ) == simulate_active_clusters(sc, pop, stream(8, "rep"), 300)

    def test_validation(self):
        sc = D2DScenario(n=10, m=10, M=1, r=0.5, gamma=0.8)
        with pytest.raises(InvalidParameterError):
            simulate_active_clusters(sc, zipf_model(0.8, 10), stream(1, "v"), 0)
        with pytest.raises(InvalidParameterError):
            simulate_active_clusters(sc, zipf_model(0.8, 12), stream(1, "v"), 10)

    def test_score_cap_fires_before_any_draw(self):
        sc = D2DScenario(n=10, m=10, M=1, r=0.5, gamma=0.8)
        rng = stream(3, "cap")
        state = rng.bit_generator.state
        reps = d2d.MAX_SCORES // 2 + 1
        with pytest.raises(InvalidParameterError, match=f"reps={reps} over 2 "):
            d2d._monte_carlo(sc, sc.popularity(), rng, reps, [0.5, 0.25], [None])
        assert rng.bit_generator.state == state

    def test_random_caches_bounded_over_the_whole_run(self):
        # About 1e4 expected draws per device passes the per-device bound; 500
        # devices over 101 replications pass 5e8 and are refused undrawn.
        sc = D2DScenario(
            n=500, m=1000, M=2, r=0.1, gamma=0.6, strategy="random-zipf", gamma1=13.29
        )
        rng = stream(3, "run-bound")
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match="reps=101"):
            simulate_active_clusters(sc, sc.popularity(), rng, 101)
        assert rng.bit_generator.state == state


class TestSweeps:
    def test_r_sweep_has_an_interior_maximum(self):
        # too-small clusters rarely host a pair; too-large clusters waste
        # spatial reuse: the product peaks strictly inside the range
        sc = D2DScenario(n=100, m=300, M=1, r=1.0, gamma=0.6)
        pop = zipf_model(0.6, 300)
        rows = sweep_r(
            sc,
            [1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 0.02],
            pop,
            reps=1,
            root_seed=0,
            mode="analytic",
        )
        means = [row.mean_active for row in rows]
        peak = means.index(max(means))
        assert 0 < peak < len(means) - 1
        assert all(row.mode == "analytic" and row.stderr == 0.0 for row in rows)
        assert rows[0].K == 1 and means[0] <= 1.0

    def test_auto_mode_picks_analytic_only_for_tilings(self):
        sc = D2DScenario(n=20, m=10, M=1, r=1.0, gamma=0.8)
        rows = sweep_r(
            sc, [0.5, 0.3], zipf_model(0.8, 10), reps=40, root_seed=2, mode="auto"
        )
        assert [row.mode for row in rows] == ["analytic", "mc"]
        assert rows[1].K == 9

    def test_sweep_reruns_identically(self):
        sc = D2DScenario(n=30, m=20, M=1, r=1.0, gamma=0.7)
        pop = zipf_model(0.7, 20)
        first = sweep_r(sc, [0.5, 0.25], pop, reps=60, root_seed=4, mode="mc")
        again = sweep_r(sc, [0.5, 0.25], pop, reps=60, root_seed=4, mode="mc")
        assert first == again

    def test_mode_validation(self):
        sc = D2DScenario(n=10, m=10, M=1, r=0.5, gamma=0.8)
        with pytest.raises(InvalidParameterError):
            sweep_r(sc, [0.5], zipf_model(0.8, 10), reps=1, root_seed=0, mode="fast")

    def test_gamma1_sweep_needs_the_random_strategy(self):
        sc = D2DScenario(n=10, m=10, M=1, r=0.5, gamma=0.8)
        with pytest.raises(InvalidParameterError):
            sweep_gamma1(sc, [0.5], [0.5], zipf_model(0.8, 10), reps=1, root_seed=0)

    def test_gamma1_sweep_is_flat_when_caches_are_full(self):
        sc = D2DScenario(
            n=40, m=4, M=4, r=0.5, gamma=0.8, strategy="random-zipf", gamma1=0.0
        )
        pop = zipf_model(0.8, 4)
        rows = sweep_gamma1(sc, [0.0, 1.0, 2.5], [0.5, 0.25], pop, 200, root_seed=6)
        assert len(rows) == 6
        for r in (0.5, 0.25):
            group = [row for row in rows if row.r == r]
            assert len({(row.mean_active, row.stderr) for row in group}) == 1
        assert [row.gamma1 for row in rows[:3]] == [0.0, 1.0, 2.5]


class TestScalingCheck:
    def test_single_cell_size_row(self):
        rows = scaling_check(1.2, n_values=(250,), mode="analytic")
        assert len(rows) == 1
        row = rows[0]
        assert row.n == 250
        assert row.m == catalog_size(250, scale=50.0) == 276
        side = round(1.0 / row.r)
        assert 1 <= side <= math.ceil(2 * math.sqrt(250))
        assert row.K == side * side
        assert row.ratio == pytest.approx(row.mean_active / 250.0)
        assert row.mode == "analytic" and row.stderr == 0.0
        assert row.mean_active > 0

    def test_mode_validation(self):
        with pytest.raises(InvalidParameterError):
            scaling_check(0.6, n_values=(100,), mode="exact")

