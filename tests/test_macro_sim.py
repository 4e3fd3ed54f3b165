import math
import tracemalloc
import warnings

import numpy as np
import pytest
from delays import delay_savings
from graph_oracles import graph_from_rates, rates_of
from placement_oracles import whole_files
from snapshot import simulate_snapshot

from helpercache.errors import InvalidParameterError
from helpercache.macro_sim import (
    WHOLE_FILE_TOL,
    MacroConfig,
    _deliver,
    experiment_popularity,
    make_placement,
    plan_deployment,
    sweep_capacity,
    sweep_helper_count,
)
from helpercache.placement_uncoded import (
    HelperSpecs,
    Placement,
    most_popular_place,
)
from helpercache.popularity import fit_zipf, sample_requests, zipf_model
from helpercache.rng import stream
from helpercache.topology import (
    MACRO_LINK,
    build_connectivity,
    fetch_fastest_first,
    link_rate,
    place_helpers,
    place_uniform,
)

B = 2.4e8
QOS = 200.0


def build_graph(helpers, users, helper_radius=150.0):
    return build_connectivity(
        np.asarray(helpers, dtype=float).reshape(-1, 2),
        np.asarray(users, dtype=float).reshape(-1, 2),
        helper_radius,
    )


def count_satisfied(outcome, threshold):
    """Users whose download finishes within `threshold` seconds (inclusive)."""
    return int((outcome.download_time <= threshold).sum())


def one_file_pop():
    # m=1 makes every request deterministic: rank 1.
    return zipf_model(0.0, 1)


class TestSnapshotBasics:
    def test_single_user_no_helpers_downloads_from_bs(self):
        graph = build_graph(np.empty((0, 2)), [[100.0, 0.0]])
        placement = whole_files((), (), 1)
        out = simulate_snapshot(
            graph,
            placement,
            one_file_pop(),
            B,
            QOS,
            stream(3, "reqs"),
        )
        assert out.download_time.shape == (1,)
        assert out.download_time[0] == pytest.approx(B / graph.bs_rate[0])
        assert out.helper_served_fraction == 0.0
        assert out.satisfied_count == (1 if out.download_time[0] <= 200.0 else 0)

    def test_bs_is_shared_equally(self):
        # three users, no helpers: each download takes 3x its solo time
        users = [[50.0, 0.0], [0.0, 250.0], [-390.0, 0.0]]
        graph = build_graph(np.empty((0, 2)), users)
        placement = whole_files((), (), 1)
        out = simulate_snapshot(
            graph,
            placement,
            one_file_pop(),
            B,
            QOS,
            stream(3, "reqs"),
        )
        expected = 3.0 * B / graph.bs_rate
        np.testing.assert_allclose(out.download_time, expected)

    def test_helper_with_whole_catalog_serves_in_range_users(self):
        # helper at the origin, one user inside its disc and one outside
        users = [[10.0, 0.0], [350.0, 0.0]]
        graph = build_graph([[0.0, 0.0]], users)
        placement = whole_files((frozenset({1}),), (1,), 1)
        out = simulate_snapshot(
            graph,
            placement,
            one_file_pop(),
            B,
            QOS,
            stream(3, "reqs"),
        )
        assert out.helper_served_fraction == 0.5
        assert out.download_time[0] == pytest.approx(B / rates_of(graph)[0, 0])
        # the far user is alone on the base station
        assert out.download_time[1] == pytest.approx(B / graph.bs_rate[1])
        assert out.satisfied_count == 2

    def test_helper_served_user_picks_fastest_holder(self):
        # two holders at different distances; radius widened so rates differ
        users = [[0.0, 0.0]]
        helpers = [[200.0, 0.0], [10.0, 0.0]]
        graph = build_graph(helpers, users, helper_radius=300.0)
        rates = rates_of(graph)
        assert rates[0, 0] < rates[0, 1]
        placement = whole_files((frozenset({1}), frozenset({1})), (1, 1), 1)
        out = simulate_snapshot(
            graph,
            placement,
            one_file_pop(),
            B,
            QOS,
            stream(3, "reqs"),
        )
        assert out.download_time[0] == pytest.approx(B / rates[0, 1])

    def test_uncached_request_falls_back_to_bs(self):
        # helper in range but holding the wrong file
        pop = zipf_model(0.0, 2)
        graph = build_graph([[0.0, 0.0]], [[10.0, 0.0]])
        placement = whole_files((frozenset({2}),), (2,), 2)
        rng = stream(9, "reqs")
        # find a seed draw that asks for rank 1
        out = simulate_snapshot(
            graph, placement, pop, B, QOS, rng
        )
        requested = 2 if out.helper_served_fraction == 1.0 else 1
        if requested == 1:
            assert out.download_time[0] == pytest.approx(B / graph.bs_rate[0])

    def test_count_satisfied_thresholds(self):
        graph = build_graph(np.empty((0, 2)), [[100.0, 0.0], [200.0, 0.0]])
        placement = whole_files((), (), 1)
        out = simulate_snapshot(
            graph,
            placement,
            one_file_pop(),
            B,
            QOS,
            stream(3, "reqs"),
        )
        assert count_satisfied(out, math.inf) == 2
        assert count_satisfied(out, 0.0) == 0
        # inclusive at the exact download time
        assert count_satisfied(out, float(out.download_time[0])) >= 1

    def test_satisfied_count_matches_qos_threshold(self):
        users = place_uniform(12, 400.0, stream(21, "users"))
        graph = build_graph([[0.0, 0.0]], users)
        placement = whole_files((frozenset({1}),), (1,), 1)
        out = simulate_snapshot(
            graph, placement, one_file_pop(), B, 40.0, stream(21, "reqs")
        )
        assert out.satisfied_count == count_satisfied(out, 40.0)

    def test_seeded_runs_reproduce(self):
        users = place_uniform(10, 400.0, stream(31, "users"))
        graph = build_graph([[0.0, 0.0], [150.0, 150.0]], users)
        pop = zipf_model(0.8, 50)
        placement = most_popular_place(HelperSpecs.uniform(2, 5), pop)
        first = simulate_snapshot(graph, placement, pop, B, QOS, stream(31, "reqs"))
        again = simulate_snapshot(graph, placement, pop, B, QOS, stream(31, "reqs"))
        np.testing.assert_array_equal(first.download_time, again.download_time)
        assert first.satisfied_count == again.satisfied_count


class TestSnapshotCoded:
    def _two_helper_graph(self):
        # distinct in-range rates: 10 m is capped, 200 m is not
        graph = build_graph(
            [[10.0, 0.0], [200.0, 0.0]], [[0.0, 0.0]], helper_radius=300.0
        )
        rates = rates_of(graph)
        assert rates[0, 0] > rates[0, 1] > 0
        return graph

    def test_fractions_summing_to_one_serve_fastest_first(self):
        graph = self._two_helper_graph()
        placement = Placement(rho=np.array([[0.4, 0.6]]), capacities=(1, 1))
        out = simulate_snapshot(
            graph,
            placement,
            one_file_pop(),
            B,
            QOS,
            stream(5, "reqs"),
        )
        assert out.helper_served_fraction == 1.0
        rates = rates_of(graph)
        expected = B * (0.4 / rates[0, 0] + 0.6 / rates[0, 1])
        assert out.download_time[0] == pytest.approx(expected)

    def test_surplus_fractions_drawn_from_fastest_helpers(self):
        graph = self._two_helper_graph()
        placement = Placement(rho=np.array([[0.8, 0.4]]), capacities=(1, 1))
        out = simulate_snapshot(
            graph,
            placement,
            one_file_pop(),
            B,
            QOS,
            stream(5, "reqs"),
        )
        # 0.8 from the fast helper, only the missing 0.2 from the slow one
        rates = rates_of(graph)
        expected = B * (0.8 / rates[0, 0] + 0.2 / rates[0, 1])
        assert out.download_time[0] == pytest.approx(expected)

    def test_incomplete_fractions_fall_back_to_bs_for_whole_file(self):
        graph = self._two_helper_graph()
        placement = Placement(rho=np.array([[0.6, 0.3]]), capacities=(1, 1))
        out = simulate_snapshot(
            graph,
            placement,
            one_file_pop(),
            B,
            QOS,
            stream(5, "reqs"),
        )
        assert out.helper_served_fraction == 0.0
        assert out.download_time[0] == pytest.approx(B / graph.bs_rate[0])

    def test_whole_file_at_one_helper_matches_uncoded_time(self):
        graph = self._two_helper_graph()
        coded = Placement(rho=np.array([[0.0, 1.0]]), capacities=(1, 1))
        uncoded = whole_files((frozenset(), frozenset({1})), (1, 1), 1)
        a = simulate_snapshot(graph, coded, one_file_pop(), B, QOS, stream(5, "r"))
        b = simulate_snapshot(graph, uncoded, one_file_pop(), B, QOS, stream(5, "r"))
        assert a.download_time[0] == pytest.approx(b.download_time[0])


class TestSnapshotValidation:
    def test_uncoded_helper_count_mismatch(self):
        graph = build_graph([[0.0, 0.0]], [[10.0, 0.0]])
        placement = whole_files((frozenset(), frozenset()), (1, 1), 1)
        with pytest.raises(InvalidParameterError):
            simulate_snapshot(
                graph,
                placement,
                one_file_pop(),
                B,
                QOS,
                stream(1, "r"),
            )

    def test_coded_catalog_mismatch(self):
        graph = build_graph([[0.0, 0.0]], [[10.0, 0.0]])
        placement = Placement(rho=np.ones((2, 1)), capacities=(2,))
        with pytest.raises(InvalidParameterError):
            simulate_snapshot(
                graph,
                placement,
                one_file_pop(),
                B,
                QOS,
                stream(1, "r"),
            )

    def test_unknown_placement_type_rejected(self):
        graph = build_graph(np.empty((0, 2)), [[10.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            simulate_snapshot(
                graph,
                {"not": "a placement"},
                one_file_pop(),
                B,
                QOS,
                stream(1, "r"),
            )

    def test_snapshot_rejects_bad_file_bits_and_qos(self):
        graph = build_graph(np.empty((0, 2)), [[10.0, 0.0]])
        placement = whole_files((), (), 1)
        for file_bits, qos_s, name in [
            (0.0, QOS, "file_bits"),
            (-B, QOS, "file_bits"),
            (math.nan, QOS, "file_bits"),
            (B, 0.0, "qos_s"),
            (B, math.inf, "qos_s"),
        ]:
            with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
                simulate_snapshot(
                    graph, placement, one_file_pop(), file_bits, qos_s, stream(1, "r")
                )


class TestMacroConfig:
    def test_defaults_are_consistent(self):
        config = MacroConfig()
        assert (config.n_users, config.file_bits, config.qos_s) == (24, 2.4e8, 200.0)
        # The planning graph links exactly the users within the configured
        # helper radius, and the base station uses the default macro model.
        helpers, graph = plan_deployment(16, config, root_seed=3)
        users = place_uniform(
            config.n_users, config.cell_radius_m, stream(3, "plan-users")
        )
        np.testing.assert_array_equal(helpers, place_helpers(16, 400.0))
        diff = users[:, None, :] - helpers[None, :, :]
        dists = np.hypot(diff[..., 0], diff[..., 1])
        linked = rates_of(graph) > 0
        np.testing.assert_array_equal(linked, dists <= config.helper_radius_m)
        assert linked.any()
        np.testing.assert_array_equal(
            graph.bs_rate,
            link_rate(np.hypot(users[:, 0], users[:, 1]), MACRO_LINK),
        )

    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidParameterError):
            MacroConfig(n_users=0)
        with pytest.raises(InvalidParameterError):
            MacroConfig(helper_mode="ring")
        with pytest.raises(InvalidParameterError):
            MacroConfig(gamma=-0.5)
        with pytest.raises(InvalidParameterError):
            MacroConfig(qos_s=0.0)
        with pytest.raises(InvalidParameterError):
            MacroConfig(coded_groups=0)

    def test_pinned_gamma_skips_fitting(self):
        config = MacroConfig(gamma=1.1, catalog_size=100)
        pop = experiment_popularity(config, root_seed=7)
        reference = zipf_model(1.1, 100)
        np.testing.assert_allclose(pop.pmf, reference.pmf)

    def test_fitted_gamma_tracks_the_trace_exponent(self):
        config = MacroConfig(catalog_size=500, trace_gamma=0.8, trace_samples=100_000)
        pop = experiment_popularity(config, root_seed=11)
        assert pop.m == 500
        assert abs(pop.gamma - 0.8) < 0.1

    @pytest.mark.parametrize("seed", range(4))
    def test_fitted_gamma_is_the_fit_of_the_sampled_ranks(self, seed):
        config = MacroConfig()
        source = zipf_model(config.trace_gamma, config.catalog_size)
        ranks = sample_requests(source, stream(seed, "fit-trace"), config.trace_samples)
        gamma_hat, _ = fit_zipf(np.bincount(ranks))
        assert experiment_popularity(config, seed).gamma == max(gamma_hat, 0.0)

    def test_fitting_trace_holds_no_ranks(self):
        # A million int64 ranks would take 8 MB; the fit counts them a
        # block at a time.  The peak is the guide table's construction.  A
        # first call is made untraced, so that lazy imports are not counted.
        experiment_popularity(MacroConfig(trace_samples=10), 0)
        config = MacroConfig(trace_samples=10**6)
        tracemalloc.start()
        try:
            experiment_popularity(config, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_make_placement_rejects_unknown_policy(self):
        config = MacroConfig(catalog_size=20, capacity=2, gamma=0.8)
        pop = experiment_popularity(config, 1)
        graph = build_graph([[0.0, 0.0]], [[10.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            make_placement("random", graph, pop, HelperSpecs.uniform(1, 2), config)


class TestLayoutGrowthMonotonicity:
    def test_adding_helpers_never_hurts_under_fixed_caches(self):
        # With identical caches everywhere, growing the helper set by prefixes
        # shortens every user's download: new holders can only raise the best
        # helper rate, and a smaller base-station pool speeds up the rest.
        cap = 10
        pop = zipf_model(0.8, 100)
        all_helpers = place_uniform(12, 400.0, stream(5, "helpers"))
        users = place_uniform(20, 400.0, stream(5, "users"))
        previous_times = None
        counts = []
        for c in [0, 4, 8, 12]:
            graph = build_graph(all_helpers[:c], users)
            placement = most_popular_place(HelperSpecs.uniform(c, cap), pop)
            out = simulate_snapshot(graph, placement, pop, B, QOS, stream(5, "reqs"))
            if previous_times is not None:
                assert np.all(out.download_time <= previous_times + 1e-9)
            previous_times = out.download_time
            counts.append(out.satisfied_count)
        assert counts == sorted(counts)


SMALL = MacroConfig(
    n_users=12,
    catalog_size=100,
    capacity=10,
    gamma=0.8,
    coded_groups=4,
)


class TestSweeps:
    def test_zero_helpers_identical_across_policies(self):
        results = {
            policy: sweep_helper_count([0], SMALL, policy, reps=3, root_seed=13)
            for policy in ("greedy", "most-popular", "coded")
        }
        base = results["greedy"][0]
        assert base.x == 0.0
        for policy in ("most-popular", "coded"):
            assert results[policy][0].mean_satisfied == base.mean_satisfied
            assert results[policy][0].stderr == base.stderr

    def test_disjoint_coverage_makes_greedy_most_popular(self):
        # Two grid helpers sit 400 m apart, beyond twice the 150 m radius, so
        # no user sees both and the greedy choice degenerates rank by rank.
        # Seed 3 gives both helpers a covered planning user outside the
        # base station's full-rate zone; a helper nobody profits from would
        # stay empty under greedy while most-popular fills it regardless.
        greedy = sweep_helper_count([2], SMALL, "greedy", reps=6, root_seed=3)
        popular = sweep_helper_count([2], SMALL, "most-popular", reps=6, root_seed=3)
        assert greedy[0].mean_satisfied == popular[0].mean_satisfied
        assert greedy[0].stderr == popular[0].stderr

    def test_greedy_beats_most_popular_on_the_planning_graph(self):
        # the two policies only promise an ordering on the layout the
        # placement was optimized for; fresh user draws can reshuffle them
        pop = experiment_popularity(SMALL, 3)
        helpers = place_helpers(8, 400.0)
        users = place_uniform(SMALL.n_users, 400.0, stream(3, "plan-users"))
        graph = build_graph(helpers, users)
        specs = HelperSpecs.uniform(8, SMALL.capacity)
        greedy = make_placement("greedy", graph, pop, specs, SMALL)
        popular = make_placement("most-popular", graph, pop, specs, SMALL)
        assert greedy.caches != popular.caches
        gain = delay_savings(greedy, graph, pop, SMALL.file_bits)
        reference = delay_savings(popular, graph, pop, SMALL.file_bits)
        assert gain >= reference > 0

    def test_capacity_sweep_is_monotone_under_shared_streams(self):
        # replications reuse the same user/request draws at every capacity and
        # most-popular caches grow by prefixes, so the means are ordered
        # sample by sample, not merely in expectation
        points = sweep_capacity(
            [0, 10, 100], SMALL, "most-popular", reps=8, root_seed=23, helper_count=8
        )
        assert [p.x for p in points] == [0.0, 10.0, 100.0]
        means = [p.mean_satisfied for p in points]
        assert means == sorted(means)

    def test_zero_capacity_equals_zero_helpers(self):
        no_cache = sweep_capacity(
            [0], SMALL, "most-popular", reps=4, root_seed=29, helper_count=6
        )
        no_helpers = sweep_helper_count([0], SMALL, "most-popular", reps=4, root_seed=29)
        assert no_cache[0].mean_satisfied == no_helpers[0].mean_satisfied

    def test_sweep_validation(self):
        with pytest.raises(InvalidParameterError):
            sweep_helper_count([2], SMALL, "greedy", reps=0, root_seed=1)
        with pytest.raises(InvalidParameterError):
            sweep_helper_count([-1], SMALL, "greedy", reps=1, root_seed=1)
        with pytest.raises(InvalidParameterError):
            sweep_capacity([-2], SMALL, "greedy", reps=1, root_seed=1, helper_count=2)
        with pytest.raises(InvalidParameterError):
            sweep_capacity([1], SMALL, "greedy", reps=1, root_seed=1, helper_count=-1)
        with pytest.raises(InvalidParameterError):
            sweep_helper_count([2], SMALL, "nearest", reps=1, root_seed=1)


def test_base_station_time_whose_product_overflows_stays_finite():
    # Draw 0 sends all three users to the base station: 1e308 bits times 3
    # users passes the float range, though each time is at most 1.5e308 s.
    # Draw 1's helper serves two users and leaves one to the base station.
    bits = 1e308
    rates = np.zeros((2, 3, 1))
    rates[1, :2, 0] = 1e6
    bs_rate = np.array([[2.0, 4.0, 8.0], [2.0, 4.0, 8.0]])
    wanted = (rates > 0).astype(float)
    # The two draws are one flat graph of six users, each draw its own cell.
    graph = graph_from_rates(rates.reshape(6, 1), bs_rate.ravel())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        times = _deliver(graph, wanted, bits)
    collected, _ = fetch_fastest_first(graph, wanted.reshape(6, 1))
    served = (collected >= 1.0 - WHOLE_FILE_TOL).reshape(2, 3)
    assert served.tolist() == [[False, False, False], [True, True, False]]
    assert times[0].tolist() == [bits * (3 / rate) for rate in (2.0, 4.0, 8.0)]
    assert times[1].tolist() == [bits * (1.0 / 1e6)] * 2 + [bits * (1 / 8.0)]


def test_the_graph_grows_with_its_links_not_its_pairs():
    # The planning graph of `place --helpers 10000 --n 1000`: 10^7 pairs, of
    # which about 1.19e6 are links.  A dense rate matrix over the pairs would
    # take about 67 bytes per link.
    config = MacroConfig(n_users=1000, catalog_size=100, gamma=0.8)
    _, graph = plan_deployment(10000, config, 0)
    held = sum(a.nbytes for a in (graph.user, graph.helper, graph.rate, graph.bs_rate))
    assert graph.rate.size > 10**6
    assert held <= 24 * graph.rate.size + 8 * graph.n_users
