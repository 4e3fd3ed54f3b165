"""Each library refusal raises its error type with its message."""

import math

import numpy as np
import pytest
from graph_oracles import graph_from_rates

from helpercache.errors import InfeasiblePlacementError, InvalidParameterError
from helpercache.macro_sim import MAX_HELPERS, MacroConfig, sweep_helper_count
from helpercache.placement_coded import build_lp
from helpercache.placement_uncoded import HelperSpecs, brute_force_place, greedy_place
from helpercache.popularity import PopularityModel, catalog_size, sample_requests, zipf_model
from helpercache.rng import stream
from helpercache.topology import ConnectivityGraph, place_uniform

GRAPH = graph_from_rates(np.array([[2e7, 0.0], [1e7, 3e7]]), np.array([1e6, 1e6]))
POP = zipf_model(0.8, 3)
TWO = HelperSpecs.uniform(2, 1)
THREE = HelperSpecs.uniform(3, 1)

CASES = {
    "pmf-m": (
        lambda: PopularityModel(gamma=0.0, m=0, pmf=np.zeros(0)),
        InvalidParameterError, "catalog size m must be >= 1",
    ),
    "pmf-length": (
        lambda: PopularityModel(gamma=0.0, m=2, pmf=np.ones(1)),
        InvalidParameterError, "pmf length must equal m",
    ),
    "pmf-positive": (
        lambda: PopularityModel(gamma=0.0, m=2, pmf=np.array([1.0, 0.0])),
        InvalidParameterError, "pmf entries must be positive",
    ),
    "pmf-sum": (
        lambda: PopularityModel(gamma=0.0, m=2, pmf=np.array([0.5, 0.4])),
        InvalidParameterError, "pmf must sum to 1 within 1e-12",
    ),
    "pmf-order": (
        lambda: PopularityModel(gamma=0.0, m=2, pmf=np.array([0.4, 0.6])),
        InvalidParameterError, "pmf must be non-increasing in rank",
    ),
    "graph-dimensions": (
        lambda: ConnectivityGraph([[0]], [[0]], [[1.0]], np.ones(1), 1),
        InvalidParameterError, "links and bs_rate must be 1-D, links alike",
    ),
    "graph-bs-dimensions": (
        lambda: ConnectivityGraph([0], [0], [1.0], np.ones((1, 1)), 1),
        InvalidParameterError, "links and bs_rate must be 1-D, links alike",
    ),
    "graph-link-lengths": (
        lambda: ConnectivityGraph([0, 1], [0], [1.0], np.ones(2), 1),
        InvalidParameterError, "links and bs_rate must be 1-D, links alike",
    ),
    "graph-bs-length": (
        lambda: ConnectivityGraph([0, 2], [0, 0], [1.0, 1.0], np.ones(2), 1),
        InvalidParameterError, "a link's user or helper is out of range",
    ),
    "graph-helper-range": (
        lambda: ConnectivityGraph([0], [-1], [1.0], np.ones(1), 1),
        InvalidParameterError, "a link's user or helper is out of range",
    ),
    "graph-link-repeat": (
        lambda: ConnectivityGraph([0, 0], [1, 1], [1.0, 1.0], np.ones(1), 2),
        InvalidParameterError, "links must be distinct, by (user, helper)",
    ),
    "graph-link-order": (
        lambda: ConnectivityGraph([0, 0], [1, 0], [1.0, 1.0], np.ones(1), 2),
        InvalidParameterError, "links must be distinct, by (user, helper)",
    ),
    "graph-user-order": (
        lambda: ConnectivityGraph([1, 0], [0, 1], [1.0, 1.0], np.ones(2), 2),
        InvalidParameterError, "links must be distinct, by (user, helper)",
    ),
    "graph-link-rates": (
        lambda: ConnectivityGraph([0], [0], [-1.0], np.ones(1), 1),
        InvalidParameterError, "link rates must be finite and > 0",
    ),
    "graph-link-rate-zero": (
        lambda: ConnectivityGraph([0], [0], [0.0], np.ones(1), 1),
        InvalidParameterError, "link rates must be finite and > 0",
    ),
    "graph-link-rate-nan": (
        lambda: ConnectivityGraph([0], [0], [math.nan], np.ones(1), 1),
        InvalidParameterError, "link rates must be finite and > 0",
    ),
    "graph-bs-rates": (
        lambda: ConnectivityGraph([0], [0], [1.0], np.array([math.inf]), 1),
        InvalidParameterError, "base-station rates must be finite and > 0",
    ),
    "specs-capacity": (
        lambda: HelperSpecs((1, -1)),
        InvalidParameterError, "capacities must be >= 0",
    ),
    "greedy-helpers": (
        lambda: greedy_place(GRAPH, POP, THREE, 1.0),
        InfeasiblePlacementError, "specs/graph helper counts differ",
    ),
    "brute-force-helpers": (
        lambda: brute_force_place(GRAPH, POP, THREE, 1.0),
        InfeasiblePlacementError, "specs/graph helper counts differ",
    ),
    "lp-helpers": (
        lambda: build_lp(GRAPH, POP.pmf, THREE, np.ones(3)),
        InfeasiblePlacementError, "specs/graph helper counts differ",
    ),
    "greedy-file-bits": (
        lambda: greedy_place(GRAPH, POP, TWO, math.nan),
        InvalidParameterError, "file_bits must be finite and > 0",
    ),
    "lp-file-units": (
        lambda: build_lp(GRAPH, POP.pmf, TWO, np.array([1.0, 0.0, 1.0])),
        InvalidParameterError, "file_units must be positive, one per file",
    ),
    "sample-size": (
        lambda: sample_requests(POP, stream(0), -1),
        InvalidParameterError, "size must be >= 0",
    ),
    "uniform-count": (
        lambda: place_uniform(-1, 400.0, stream(0)),
        InvalidParameterError, "count must be >= 0",
    ),
    "catalog-scale": (
        lambda: catalog_size(100, math.nan),
        InvalidParameterError, "scale must be finite and > 0",
    ),
    "stream-key": (
        lambda: stream(0, 2**32),
        InvalidParameterError, "stream key ints must be uint32",
    ),
    "config-catalog": (
        lambda: MacroConfig(catalog_size=0),
        InvalidParameterError, "catalog_size must be >= 1",
    ),
    "config-capacity": (
        lambda: MacroConfig(capacity=-1),
        InvalidParameterError, "capacity must be >= 0",
    ),
    "sweep-helpers-cap": (
        lambda: sweep_helper_count(
            [MAX_HELPERS + 1], MacroConfig(catalog_size=10, capacity=1), "most-popular", 1, 0
        ),
        InvalidParameterError, f"helpers={MAX_HELPERS + 1} exceeds the cap of {MAX_HELPERS}",
    ),
    "config-trace-samples": (
        lambda: MacroConfig(trace_samples=1),
        InvalidParameterError, "trace_samples must be >= 2",
    ),
}


@pytest.mark.parametrize("call,error,message", CASES.values(), ids=CASES.keys())
def test_refusal_raises_its_type_and_message(call, error, message):
    with pytest.raises(Exception) as caught:
        call()
    assert caught.type is error
    assert str(caught.value) == message
