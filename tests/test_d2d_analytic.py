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


def test_one_log_factorial_table_grows_on_demand(monkeypatch):
    # Blocks of 16 entries.  n = 1000 with the occupancies 300..340 reads the
    # blocks of 300..340, of n - k = 660..700 and of n; those blocks, and no
    # other, must hold lgamma(k + 1) to their edges, also after the table
    # grows past blocks filled for a smaller n.
    B = 16
    monkeypatch.setattr(d2d, "_ANALYTIC_BLOCK", B)
    monkeypatch.setattr(d2d, "_LOG_FACTORIALS", np.zeros(0))
    monkeypatch.setattr(d2d, "_FILLED", np.zeros(0, dtype=bool))
    small = _log_factorials(10, np.arange(2, 11))
    assert small.size == 11 and d2d._FILLED.tolist() == [True]
    large = _log_factorials(1000, np.arange(300, 341))
    assert large.size == 1001 and d2d._LOG_FACTORIALS.size == 63 * B
    blocks = [0, *range(300 // B, 340 // B + 1), *range(660 // B, 700 // B + 1), 1000 // B]
    assert np.flatnonzero(d2d._FILLED).tolist() == blocks
    again = _log_factorials(300, np.arange(2, 4))
    assert again.base is d2d._LOG_FACTORIALS and d2d._LOG_FACTORIALS.size == 63 * B
    assert np.flatnonzero(d2d._FILLED).tolist() == blocks  # 300 is in block 18
    for b in blocks:
        ks = range(b * B, (b + 1) * B)
        assert d2d._LOG_FACTORIALS[b * B : (b + 1) * B].tolist() == [
            math.lgamma(k + 1.0) for k in ks
        ], b
    assert small.tolist() == [math.lgamma(k + 1.0) for k in range(11)]
    assert not small.flags.writeable and not large.flags.writeable
    assert not again.flags.writeable
