import hashlib
import math

import numpy as np
import pytest
from graph_oracles import graph_from_rates, rates_of

from helpercache import rng as hrng
from helpercache.errors import InvalidParameterError
from helpercache.topology import (
    HELPER_LINK,
    MACRO_LINK,
    build_connectivity,
    link_rate,
    place_helpers,
    place_uniform,
)

# sha256 of the 1e-6-rounded coordinate bytes of place_uniform(32, 400, stream(7, "helpers")),
# generated once and kept as a regression pin.
UNIFORM32_SHA256 = "ca1e9ae8b272a46a80c5b09883f174b2c5e00e5a7575719271f7bda8af464b2b"


# Both links are capped at 30 Mb/s.
RATE_CAP = 30e6


def test_rate_is_capped_at_zero_distance():
    assert link_rate(0.0, HELPER_LINK) == RATE_CAP


def test_rate_at_reference_distance():
    bandwidth, snr_1m = MACRO_LINK
    expected = min(RATE_CAP, bandwidth * math.log2(1.0 + snr_1m))
    assert link_rate(1.0, MACRO_LINK) == pytest.approx(expected, rel=1e-12)


def test_rate_formula_oracle():
    # The log-distance Shannon rate with exponent 3.5 from 1 m, capped at
    # 30 Mb/s, in plain math on scalars; inside 1 m the rate is the 1 m one.
    for link in (HELPER_LINK, MACRO_LINK):
        bandwidth, snr_1m = link
        for d in (0.0, 0.5, 1.0, 10.0, 55.5, 150.0, 400.0, 2000.0):
            snr = snr_1m * max(d, 1.0) ** -3.5
            expected = min(RATE_CAP, bandwidth * math.log2(1 + snr))
            assert link_rate(d, link) == pytest.approx(expected, rel=1e-12)
        d = np.array([0.5, 150.0, 400.0])
        np.testing.assert_array_equal(link_rate(d, link), [link_rate(x, link) for x in d])


def test_rate_monotone_non_increasing():
    d = np.linspace(0.0, 1000.0, 501)
    rates = link_rate(d, HELPER_LINK)
    assert np.all(np.diff(rates) <= 0)


def test_helper_rate_dominates_bs_rate_in_range():
    # Within any coverage radius used by the experiments the helper link sits
    # at its 30 Mb/s cap, while the BS rate never exceeds that cap; the coded
    # LP weights rely on this ordering.
    d = np.linspace(0.0, 150.0, 301)
    helper = link_rate(d, HELPER_LINK)
    np.testing.assert_allclose(helper, RATE_CAP, rtol=0)
    d_bs = np.linspace(0.0, 400.0, 401)
    assert np.all(link_rate(d_bs, MACRO_LINK) <= RATE_CAP)


def test_place_uniform_empty_and_deterministic():
    assert place_uniform(0, 400.0, hrng.stream(0, "u")).shape == (0, 2)
    a = place_uniform(50, 400.0, hrng.stream(3, "u"))
    b = place_uniform(50, 400.0, hrng.stream(3, "u"))
    np.testing.assert_array_equal(a, b)


def test_place_uniform_disc_moments():
    pts = place_uniform(100_000, 400.0, hrng.stream(9, "moments"))
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert radii.max() <= 400.0
    assert radii.mean() / 400.0 == pytest.approx(2 / 3, abs=0.01)


def test_uniform_helper_layout_regression():
    pts = place_uniform(32, 400.0, hrng.stream(7, "helpers"))
    digest = hashlib.sha256(np.round(pts, 6).tobytes()).hexdigest()
    assert digest == UNIFORM32_SHA256
    np.testing.assert_allclose(pts[0], [-229.55784843, -256.12704597], atol=1e-6)
    np.testing.assert_allclose(pts[-1], [99.15217836, -320.68723181], atol=1e-6)


def test_grid_single_helper_at_center():
    np.testing.assert_array_equal(place_helpers(1, 400.0), [[0.0, 0.0]])


def test_grid_four_helpers_form_square():
    pts = place_helpers(4, 400.0)
    assert pts.shape == (4, 2)
    dists = sorted(
        float(np.hypot(*(pts[i] - pts[j])))
        for i in range(4)
        for j in range(i + 1, 4)
    )
    sides, diagonals = dists[:4], dists[4:]
    assert all(s == pytest.approx(sides[0], rel=1e-12) for s in sides)
    assert all(d == pytest.approx(sides[0] * math.sqrt(2), rel=1e-12) for d in diagonals)


def test_grid_32_fills_clipped_lattice():
    # 6x6 lattice over the 400 m cell loses exactly its 4 corners to the disc.
    pts = place_helpers(32, 400.0)
    assert pts.shape == (32, 2)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    assert norms.max() <= 400.0
    seen = {(round(x, 6), round(y, 6)) for x, y in pts}
    assert len(seen) == 32
    for x, y in list(seen):
        assert (round(-x, 6), round(y, 6)) in seen
        assert (round(y, 6), round(x, 6)) in seen


def test_grid_16_keeps_outer_rings():
    pts = place_helpers(16, 400.0)
    norms = np.sort(np.round(np.hypot(pts[:, 0], pts[:, 1]), 2))
    expected = [226.27] * 4 + [320.0] * 4 + [357.77] * 8
    np.testing.assert_allclose(norms, expected, atol=0.01)


def test_place_helpers_validation():
    assert place_helpers(0, 400.0).shape == (0, 2)
    with pytest.raises(InvalidParameterError):
        place_helpers(-1, 400.0)
    # 2 * 1e308 overflows: no draw or lattice point fits an infinite cell.
    with pytest.raises(InvalidParameterError, match="finite diameter"):
        place_helpers(4, 1e308)
    with pytest.raises(InvalidParameterError, match="finite diameter"):
        place_uniform(4, 1e308, hrng.stream(0, "wide"))


def connect(helpers, users, helper_radius=60.0):
    return build_connectivity(
        np.array(helpers, dtype=float).reshape(-1, 2),
        np.array(users, dtype=float).reshape(-1, 2),
        helper_radius,
    )


def test_connectivity_colocated_and_boundary():
    helpers = [[0.0, 0.0], [200.0, 0.0]]
    users = [[0.0, 0.0], [60.0, 0.0], [260.0000001, 0.0]]
    graph = connect(helpers, users)
    rates = rates_of(graph)
    assert rates[0, 0] == RATE_CAP
    # exactly at the 60 m radius: edge kept
    assert rates[1, 0] > 0
    # sixty metres plus epsilon from the second helper: no edge
    assert rates[2, 1] == 0.0
    assert np.all(graph.bs_rate > 0)
    # No users, no helpers, or neither: no links, and the right counts.
    for h, u in (([], []), (helpers, []), ([], users)):
        empty = connect(h, u)
        assert (empty.n_users, empty.n_helpers) == (len(u), len(h))
        assert empty.rate.dtype == float and empty.rate.size == 0
        np.testing.assert_array_equal(empty.bs_rate, graph.bs_rate[: len(u)])


def test_connectivity_conflict_fixture_adjacency():
    # two helpers with one dual-covered user between them
    graph = connect(
        [[-50.0, 0.0], [50.0, 0.0]],
        [[-80.0, 0.0], [-45.0, 20.0], [0.0, 0.0], [80.0, 0.0]],
    )
    rates = rates_of(graph)
    adjacency = [set(np.flatnonzero(rates[u] > 0).tolist()) for u in range(4)]
    assert adjacency == [{0}, {0}, {0, 1}, {1}]
    assert graph.user[graph.helper == 0].tolist() == [0, 1, 2]
    assert graph.user[graph.helper == 1].tolist() == [2, 3]


def test_boundary_perturbation_toggles_only_own_edges():
    helpers = [[0.0, 0.0]]
    g_in = connect(helpers, [[59.9, 0.0], [10.0, 10.0]])
    g_out = connect(helpers, [[60.1, 0.0], [10.0, 10.0]])
    r_in, r_out = rates_of(g_in), rates_of(g_out)
    assert r_in[0, 0] > 0 and r_out[0, 0] == 0
    assert r_in[1, 0] == r_out[1, 0]


def test_graph_accessors_validate():
    graph = graph_from_rates(np.zeros((2, 1)), np.array([1e6, 2e6]))
    assert graph.n_users == 2 and graph.n_helpers == 1
    with pytest.raises(InvalidParameterError):
        graph_from_rates(np.zeros((2, 1)), np.array([1e6, 0.0]))
