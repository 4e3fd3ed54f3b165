"""Dense cell-graph references that only tests use.

`dense_connectivity` is the former body of `topology.build_connectivity`: a
difference, a distance and a link rate for every user-helper pair.
`argsort_fastest_first` is the former `ConnectivityGraph.fastest_first`:
every user's helpers argsorted by decreasing rate (stable, so ties keep
helper-index order) and cut to the graph's degree.  The library's versions
must match them bit for bit.
"""

import numpy as np

from helpercache.topology import (
    HELPER_LINK,
    MACRO_LINK,
    ConnectivityGraph,
    link_rate,
)


def dense_connectivity(helpers, users, helper_radius) -> ConnectivityGraph:
    diff = users[..., :, None, :] - helpers
    dists = np.hypot(diff[..., 0], diff[..., 1])
    rates = np.where(dists <= helper_radius, link_rate(dists, HELPER_LINK), 0.0)
    d_bs = np.hypot(users[..., 0], users[..., 1])
    bs = np.reshape(link_rate(d_bs, MACRO_LINK), users.shape[:-1])
    return ConnectivityGraph(rates=rates, bs_rate=bs)


def argsort_fastest_first(graph: ConnectivityGraph):
    """`(order, seconds_per_bit, linked)`, each `(..., n_users, degree)`;
    an unlinked column holds some out-of-range helper in `order`."""
    degree = int((graph.rates > 0).sum(axis=-1).max(initial=0))
    order = np.argsort(-graph.rates, axis=-1, kind="stable")[..., :degree]
    with np.errstate(divide="ignore"):
        inv_rates = np.where(graph.rates > 0, 1.0 / graph.rates, np.inf)
    inv = np.take_along_axis(inv_rates, order, axis=-1)
    linked = np.isfinite(inv)
    return order, np.where(linked, inv, 0.0), linked
