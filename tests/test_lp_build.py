"""The vectorized `build_lp` against the loop-built LP it replaced.

`loop_build` below is the former in-package assembly (one Python loop per
edge, one per matrix entry) followed by the row equilibration that
`solve_lp_detailed` used to apply: every row divided by its largest absolute
entry.  The shipped build writes the rows already scaled, so its A, b and c
must equal the oracle's bit for bit, which pins the kept (user, helper) links
and their order, with the same count of dropped slow links.  Its A comes in CSC form, entry for
entry in the order `scipy.sparse.csc_array` gives the dense matrix, which is
the order the solver has always been handed.
"""

import logging
import re

import numpy as np
import pytest
from graph_oracles import graph_from_rates, rates_of
from scipy.sparse import csc_array

from helpercache import rng as hrng
from helpercache.placement_coded import build_lp, group_files
from helpercache.placement_uncoded import HelperSpecs
from helpercache.popularity import zipf_model
from helpercache.topology import (
    build_connectivity,
    place_helpers,
    place_uniform,
)


def loop_build(graph, pmf, specs, file_units):
    """(A, b, c, dropped count), rows scaled."""
    m, H = pmf.size, graph.n_helpers
    units = np.asarray(file_units, float)
    edges = []
    dropped = 0
    rates = rates_of(graph)
    for u in range(graph.n_users):
        bs = graph.bs_rate[u]
        for h in np.flatnonzero(rates[u] > 0):
            rate = rates[u, h]
            w = 1.0 / bs - 1.0 / rate
            if w < 0:
                dropped += 1
                continue
            edges.append((u, int(h), float(w)))

    n_rho = m * H
    n_edges = len(edges)
    ncols = n_rho + n_edges * m
    covered = sorted({u for u, _, _ in edges})
    edge_ids_of_user = {u: [] for u in covered}
    for e, (u, _, _) in enumerate(edges):
        edge_ids_of_user[u].append(e)
    nrows = n_edges * m + len(covered) * m + H
    A = np.zeros((nrows, ncols))
    b = np.zeros(nrows)

    row = 0
    for e, (_, h, _) in enumerate(edges):
        for f in range(1, m + 1):
            A[row, n_rho + e * m + (f - 1)] = 1.0
            A[row, (f - 1) * H + h] = -1.0
            row += 1
    for u in covered:
        for f in range(1, m + 1):
            for e in edge_ids_of_user[u]:
                A[row, n_rho + e * m + (f - 1)] = 1.0
            b[row] = 1.0
            row += 1
    for h in range(H):
        cols = (np.arange(m)) * H + h
        A[row, cols] = units
        b[row] = float(specs.capacities[h])
        row += 1
    assert row == nrows

    c = np.zeros(ncols)
    for e, (u, _, w) in enumerate(edges):
        c[n_rho + e * m : n_rho + (e + 1) * m] = pmf * w

    if c.size:
        row_scale = np.maximum(np.abs(A).max(axis=1), 1e-300)
        A = A / row_scale[:, None]
        b = b / row_scale
    return A, b, c, dropped


def assert_csc_order(matrix):
    reference = csc_array(np.asarray(matrix))
    assert matrix.start.dtype == matrix.index.dtype == np.int32
    assert matrix.start.tolist() == reference.indptr.tolist()
    assert matrix.index.tolist() == reference.indices.tolist()
    assert matrix.value.tolist() == reference.data.tolist()


def dropped_in(caplog) -> int:
    found = re.search(r"dropped (\d+) helper links", caplog.text)
    return int(found.group(1)) if found else 0


def assert_same_lp(graph, pmf, specs, caplog, file_units):
    A, b, c, dropped = loop_build(graph, pmf, specs, file_units)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="helpercache.placement_coded"):
        instance = build_lp(graph, pmf, specs, file_units)
    assert np.array_equal(np.asarray(instance.A), A)
    assert_csc_order(instance.A)
    assert np.array_equal(instance.b, b)
    assert np.array_equal(instance.c, c)
    assert dropped_in(caplog) == dropped
    return dropped


def random_case(rng):
    n_users = int(rng.integers(1, 8))
    n_helpers = int(rng.integers(0, 7))
    m = int(rng.integers(1, 6))
    bs = rng.uniform(1e6, 4e6, n_users)
    # links from 5e5 (slower than any base station) to 3e7 b/s
    rates = np.where(
        rng.random((n_users, n_helpers)) < 0.6,
        rng.uniform(5e5, 3e7, (n_users, n_helpers)),
        0.0,
    )
    if n_users > 1 and rng.random() < 0.3:
        rates[int(rng.integers(n_users))] = 0.0  # a user with no link
    graph = graph_from_rates(rates, bs)
    pmf = zipf_model(float(rng.uniform(0.0, 1.8)), m).pmf
    specs = HelperSpecs(tuple(int(c) for c in rng.integers(0, m + 1, n_helpers)))
    units = rng.integers(1, 6, m) if rng.random() < 0.5 else np.ones(m)
    return graph, pmf, specs, units


def test_vectorized_build_matches_loop_build_on_random_instances(caplog):
    rng = hrng.stream(4711, "lp-build")
    dropped_total = 0
    for _ in range(300):
        graph, pmf, specs, units = random_case(rng)
        dropped_total += assert_same_lp(graph, pmf, specs, caplog, units)
    assert dropped_total > 0  # the slow-link path was exercised


@pytest.mark.parametrize("groups", [6, 16])
def test_vectorized_build_matches_loop_build_on_grouped_cell(caplog, groups):
    # the CLI's coded path: 32 grid helpers, 24 users, bucketed catalog
    users = place_uniform(24, 400.0, hrng.stream(5, "lp-build-users"))
    graph = build_connectivity(place_helpers(32, 400.0), users, 150.0)
    sizes, pmf = group_files(zipf_model(0.8, 1000), groups)
    assert_same_lp(graph, pmf, HelperSpecs.uniform(32, 30), caplog, sizes)


def test_capacity_rows_are_prescaled():
    graph = graph_from_rates(np.array([[2e7, 0.0]]), np.array([1e6]))
    instance = build_lp(graph, zipf_model(0.8, 3).pmf, HelperSpecs((4, 0)), [4, 2, 1])
    A = np.asarray(instance.A)
    np.testing.assert_array_equal(A[-2:, :6].max(axis=1), [1.0, 1.0])
    np.testing.assert_array_equal(instance.b[-2:], [1.0, 0.0])
    assert np.all(np.abs(A).max(axis=1) == 1.0)
