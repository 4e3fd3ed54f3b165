"""The analytic D2D model's occupancy window and hit table, with `==`.

`d2d._occupancies` keeps the occupancies k >= 2 of probability at least
1e-18 from a window around n/K; the former sum scanned every k from 2 to n.
`scaling_check` reads one `_Hits` table per n for all its sides;
`d2d_oracles.scaling_check_by_side` calls `expected_active_analytic` once
per side, and `d2d_oracles.expected_active_by_k` takes one all-miss product
per occupancy.  Kept pairs, expectations and rows must be equal.
"""

import math

import numpy as np
import pytest
from d2d_oracles import expected_active_by_k, scaling_check_by_side

from helpercache import cli, d2d
from helpercache.d2d import (
    D2DScenario,
    _binomial_pmf,
    _log_factorials,
    _occupancies,
    expected_active_analytic,
    scaling_check,
)
from helpercache.popularity import catalog_size, zipf_model

N_VALUES = [2, 3, 250, 8000]


def _sides(n):
    return sorted({1, 2, math.ceil(2.0 * math.sqrt(n))})


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("window", [d2d._WINDOW, 0.25])
def test_window_keeps_the_pairs_of_the_full_range(n, window, monkeypatch):
    # A first window of a quarter standard deviation must double until it
    # holds every kept occupancy.
    monkeypatch.setattr(d2d, "_WINDOW", window)
    for side in _sides(n):
        K = side * side
        ks = np.arange(2, n + 1)
        pk = _binomial_pmf(n, 1.0 / K, ks)
        kept = pk >= 1e-18
        got_ks, got_pk = _occupancies(n, K)
        assert np.array_equal(got_ks, ks[kept]), (n, side)
        assert np.array_equal(got_pk, pk[kept]), (n, side)


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("M", [1, 2, 3, "m"])
def test_window_sum_equals_the_per_k_sum(n, M):
    m = catalog_size(n, scale=50.0)
    M = m if M == "m" else M
    pop = zipf_model(1.5, m)
    for side in _sides(n):
        sc = D2DScenario(n=n, m=m, M=M, r=1.0 / side, gamma=1.5)
        assert expected_active_analytic(sc, pop) == expected_active_by_k(sc, pop), sc


@pytest.mark.parametrize("M", [1, 2, 3])
def test_scaling_rows_equal_the_per_side_loop(M):
    n_values = (2, 3, 250, 2000)
    assert scaling_check(1.5, n_values=n_values, M=M) == scaling_check_by_side(
        1.5, n_values, M=M
    )


def test_scaling_rows_equal_the_per_side_loop_on_the_benchmark_call():
    n_values = (250, 500, 1000, 2000, 4000, 8000)
    assert scaling_check(1.5, n_values=n_values) == scaling_check_by_side(1.5, n_values)


def test_scaling_check_at_large_n(tmp_path):
    # The sum over all 1265 sides scanned every occupancy up to n = 4e5 and
    # took about 18 s; the window takes well under a second.
    out = tmp_path / "scaling.csv"
    assert cli.main(["scaling-check", "--n-values", "400000", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[1] == (
        "400000,645,0.002544529262086514,154449,84694.62887895071,"
        "0.21173657219737677,0.0,analytic"
    )


def test_log_factorials_come_from_cached_blocks():
    # The range B - 3 .. 2B + 5 reaches blocks 0, 1 and 2, each computed
    # once, read-only and equal to lgamma(k + 1) to its edges.  A window of
    # n = 10^7 reads only the blocks of its k, of n - k and of n.
    B = d2d._ANALYTIC_BLOCK
    d2d._log_factorial_block.cache_clear()
    got = _log_factorials(B - 3, 2 * B + 5)
    assert got.tolist() == [math.lgamma(k + 1.0) for k in range(B - 3, 2 * B + 6)]
    assert _log_factorials(B + 1, B + 7).tolist() == got[4:11].tolist()
    info = d2d._log_factorial_block.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    assert not any(d2d._log_factorial_block(b).flags.writeable for b in range(3))
    n, p = 10**7, 1e-3
    ks = np.arange(9900, 10101)
    d2d._log_factorial_block.cache_clear()
    pk = _binomial_pmf(n, p, ks)
    assert d2d._log_factorial_block.cache_info().currsize == len({0, 609, 610})
    want = [
        math.exp(
            math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
            + k * math.log(p) + (n - k) * math.log1p(-p)
        )
        for k in ks.tolist()
    ]
    np.testing.assert_allclose(pk, want, rtol=1e-9)
