"""Dense cell-graph references and converters that only tests use.

`graph_from_rates` builds the link graph of a dense (users, helpers) rate
matrix, 0.0 meaning no link, and `rates_of` gives a graph's dense matrix
back.  `dense_connectivity` is the former body of
`topology.build_connectivity`: a difference, a distance and a link rate for
every user-helper pair.  `argsort_fastest_first` is the former
`ConnectivityGraph.fastest_first`: every user's helpers argsorted by
decreasing rate (stable, so ties keep helper-index order) and cut to the
graph's degree.  The library's versions must match them bit for bit.
"""

import numpy as np

from helpercache.topology import (
    HELPER_LINK,
    MACRO_LINK,
    ConnectivityGraph,
    link_rate,
)


def graph_from_rates(rates, bs_rate) -> ConnectivityGraph:
    """The graph whose links are the positive entries of `rates`, a dense
    (users, helpers) matrix, in row-major order."""
    rates = np.asarray(rates, dtype=float)
    user, helper = np.nonzero(rates > 0)
    return ConnectivityGraph(
        user, helper, rates[user, helper], bs_rate, rates.shape[1]
    )


def rates_of(graph: ConnectivityGraph) -> np.ndarray:
    """The dense (users, helpers) rate matrix of `graph`, 0.0 off its links."""
    rates = np.zeros((graph.n_users, graph.n_helpers))
    rates[graph.user, graph.helper] = graph.rate
    return rates


def dense_connectivity(helpers, users, helper_radius) -> ConnectivityGraph:
    diff = users[:, None, :] - helpers
    dists = np.hypot(diff[..., 0], diff[..., 1])
    rates = np.where(dists <= helper_radius, link_rate(dists, HELPER_LINK), 0.0)
    bs = link_rate(np.hypot(users[:, 0], users[:, 1]), MACRO_LINK)
    return graph_from_rates(rates, bs)


def argsort_fastest_first(graph: ConnectivityGraph):
    """`(order, seconds_per_bit, linked)`, each `(n_users, degree)`; an
    unlinked column holds some out-of-range helper in `order`."""
    rates = rates_of(graph)
    degree = int((rates > 0).sum(axis=-1).max(initial=0))
    order = np.argsort(-rates, axis=-1, kind="stable")[..., :degree]
    with np.errstate(divide="ignore"):
        inv_rates = np.where(rates > 0, 1.0 / rates, np.inf)
    inv = np.take_along_axis(inv_rates, order, axis=-1)
    linked = np.isfinite(inv)
    return order, np.where(linked, inv, 0.0), linked
