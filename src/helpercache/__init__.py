"""Cache placement and delivery simulation for helper-assisted wireless cells
and device-to-device cluster networks."""

from .d2d import (
    ClusterStats,
    D2DScenario,
    expected_active_analytic,
    scaling_check,
    simulate_active_clusters,
    sweep_gamma1,
    sweep_r,
)
from .errors import (
    ConfigError,
    DegenerateInstanceError,
    InfeasiblePlacementError,
    InstanceTooLargeError,
    InsufficientDataError,
    InvalidParameterError,
)
from .macro_sim import (
    MacroConfig,
    sweep_capacity,
    sweep_helper_count,
)
from .placement_coded import (
    build_lp,
    group_files,
    solve_grouped,
)
from .placement_uncoded import (
    HelperSpecs,
    Placement,
    brute_force_place,
    greedy_place,
    most_popular_place,
)
from .popularity import (
    PopularityModel,
    catalog_size,
    fit_zipf,
    sample_requests,
    zipf_model,
)
from .rng import stream
from .topology import (
    ConnectivityGraph,
    LinkRateModel,
    build_connectivity,
    place_helpers,
    place_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterStats",
    "ConfigError",
    "ConnectivityGraph",
    "D2DScenario",
    "DegenerateInstanceError",
    "HelperSpecs",
    "InfeasiblePlacementError",
    "InstanceTooLargeError",
    "InsufficientDataError",
    "InvalidParameterError",
    "LinkRateModel",
    "MacroConfig",
    "Placement",
    "PopularityModel",
    "brute_force_place",
    "build_connectivity",
    "build_lp",
    "catalog_size",
    "expected_active_analytic",
    "fit_zipf",
    "greedy_place",
    "group_files",
    "most_popular_place",
    "place_helpers",
    "place_uniform",
    "sample_requests",
    "scaling_check",
    "simulate_active_clusters",
    "solve_grouped",
    "stream",
    "sweep_capacity",
    "sweep_gamma1",
    "sweep_helper_count",
    "sweep_r",
    "zipf_model",
]
