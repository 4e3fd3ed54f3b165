"""Helper and user positions in a disc cell, the two fixed link-rate curves
(helper and base station), the cell graph as its list of user-helper links
(one per pair within the helper coverage radius) with every user's
base-station rate, and the fastest-first fetch rule every delivery model
shares."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError


# Each link is a (bandwidth in Hz, linear SNR at 1 m) pair; `link_rate`
# holds what both share.  Desk-scale calibration: the helper link stays at its
# cap out to the 150 m default coverage radius; the base-station rate falls
# from the same cap near the center to ~3 Mb/s at a 400 m cell edge, so an
# in-range helper is never slower than the base station (required for
# non-negative delay-savings weights).
HELPER_LINK = (20e6, 1e8)
MACRO_LINK = (10e6, 3e8)


def check_cell_radius(cell_radius: float) -> None:
    """Refuse a cell radius that is not positive or whose diameter is not
    finite: no lattice point or uniform draw fits a cell of infinite width."""
    if not (cell_radius > 0 and math.isfinite(2.0 * cell_radius)):
        raise InvalidParameterError(
            f"cell_radius={cell_radius!r} must be > 0 with a finite diameter"
        )


def link_rate(distance_m, link: tuple[float, float]):
    """Rate in bit/s at the given distance(s), scalar or array, over `link`:

    rate(d) = min(30e6, bandwidth * log2(1 + snr_1m * max(d, 1)**-3.5)).
    """
    bandwidth, snr_1m = link
    d = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
    rate = np.minimum(30e6, bandwidth * np.log2(1.0 + snr_1m * d**-3.5))
    if rate.ndim == 0:
        return float(rate)
    return rate


def _in_cell(points: np.ndarray, cell_radius: float) -> np.ndarray:
    """Which of the (..., 2) `points` lie in the disc cell, up to a relative
    1e-9 of its radius, so that lattice points on the edge stay in at any
    radius."""
    return np.hypot(points[..., 0], points[..., 1]) <= cell_radius * (1 + 1e-9)


def place_uniform(count: int, cell_radius: float, rng: np.random.Generator) -> np.ndarray:
    """`count` i.i.d. uniform points on the disc, by rejection from the square."""
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    check_cell_radius(cell_radius)
    out = np.empty((count, 2))
    have = 0
    while have < count:
        batch = max(16, int(1.35 * (count - have)) + 8)
        pts = rng.uniform(-cell_radius, cell_radius, size=(batch, 2))
        keep = pts[np.hypot(pts[:, 0], pts[:, 1]) <= cell_radius]
        take = min(count - have, keep.shape[0])
        out[have : have + take] = keep[:take]
        have += take
    return out


def place_helpers(count: int, cell_radius: float) -> np.ndarray:
    """`count` helper positions on a centered square lattice.

    The layout is deterministic: the lattice pitch shrinks until at least
    `count` cell centers fall inside the disc, then the `count` farthest from
    the center are kept (ties broken lexicographically by (x, y)).  Dropping
    the innermost lattice points keeps the outer rings complete, where the
    base station signal is weakest.
    """
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    check_cell_radius(cell_radius)
    if count == 0:
        return np.zeros((0, 2))
    side = max(1, math.isqrt(count - 1) + 1)
    while True:
        pitch = 2.0 * cell_radius / side
        coords = -cell_radius + pitch * (np.arange(side) + 0.5)
        xx, yy = np.meshgrid(coords, coords, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        inside = pts[_in_cell(pts, cell_radius)]
        if inside.shape[0] >= count:
            order = np.lexsort(
                (inside[:, 1], inside[:, 0], -np.hypot(inside[:, 0], inside[:, 1]))
            )
            return inside[order[:count]]
        side += 1


@dataclass(frozen=True, eq=False)
class ConnectivityGraph:
    """A cell's user/helper links plus every user's base-station rate.

    Link i joins user `user[i]` to helper `helper[i]` at `rate[i]` bit/s; the
    links, one per in-range pair, are in (user, helper) order.  The graph
    has `bs_rate.size` users, user u at base-station rate `bs_rate[u]`.
    """

    user: np.ndarray  # (n_links,)
    helper: np.ndarray  # (n_links,)
    rate: np.ndarray  # (n_links,)
    bs_rate: np.ndarray  # (n_users,)
    n_helpers: int

    def __post_init__(self):
        user = np.asarray(self.user, dtype=np.intp)
        helper = np.asarray(self.helper, dtype=np.intp)
        rate, bs = np.asarray(self.rate, float), np.asarray(self.bs_rate, float)
        if not (bs.ndim == user.ndim == 1 and user.shape == helper.shape == rate.shape):
            raise InvalidParameterError("links and bs_rate must be 1-D, links alike")
        for index, top in ((user, bs.size), (helper, self.n_helpers)):
            if np.any((index < 0) | (index >= top)):
                raise InvalidParameterError("a link's user or helper is out of range")
        # The LP's rows and the greedy's sums follow the link order.
        if np.any(np.diff(user * self.n_helpers + helper) <= 0):
            raise InvalidParameterError("links must be distinct, by (user, helper)")
        for name, a in (("link rates", rate), ("base-station rates", bs)):
            if not np.all(np.isfinite(a) & (a > 0)):
                raise InvalidParameterError(f"{name} must be finite and > 0")
        for name, a in zip(("user", "helper", "rate"), (user, helper, rate)):
            object.__setattr__(self, name, a)
        object.__setattr__(self, "bs_rate", bs)

    @property
    def n_users(self) -> int:
        return self.bs_rate.size

    @cached_property
    def fastest_first(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`(order, seconds_per_bit, linked)`, each `(n_users, degree)`.

        Each user's helpers by decreasing rate (ties by index), cut to the
        graph's degree (the most links any user has), with their seconds per
        bit; columns past a user's own links are unlinked and cost 0.  An
        unlinked column's `order` entry is 0 and is never read, for
        `fetch_fastest_first` masks it by `linked`.
        """
        # Sorting the links by (user, -rate) moves them only within a user's
        # run, and lexsort is stable, so equal rates keep helper-index order.
        by = np.lexsort((-self.rate, self.user))
        counts = np.bincount(self.user, minlength=self.n_users)
        degree = int(counts.max(initial=0))
        slot = self.user, np.arange(by.size) - (np.cumsum(counts) - counts)[self.user]
        order = np.zeros((self.n_users, degree), dtype=np.intp)
        inv = np.zeros((self.n_users, degree))
        linked = np.zeros((self.n_users, degree), dtype=bool)
        order[slot] = self.helper[by]
        inv[slot] = 1.0 / self.rate[by]
        linked[slot] = True
        return order, inv, linked


def fetch_fastest_first(
    graph: ConnectivityGraph, fractions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collect files from in-range helpers, fastest link first.

    `fractions[u, h]` is the share of user u's file that helper h stores.
    Each user takes what its helpers hold, fastest first, until the file is
    complete.  Returns, per user, `(collected, seconds_per_bit)`: the
    fraction gathered from helpers, capped at 1, and the helper-side download
    time per file bit.  What the base station serves is the caller's rule.

    Helper seconds are added left to right, fastest link first.  Every user
    is padded to the degree of the whole graph, and a pad column adds exactly
    0.0, so a user's sum does not depend on the graph it is scored in.
    """
    order, inv, linked = graph.fastest_first
    degree = order.shape[1]
    picked = np.take_along_axis(fractions, order, axis=1)
    # A leading zero column keeps users without any link in the same shape.
    cum = np.zeros((graph.n_users, degree + 1))
    cum[:, 1:] = np.where(linked, picked, 0.0)
    cum = np.clip(np.cumsum(cum, axis=1), 0.0, 1.0)
    steps = np.diff(cum, axis=1) * inv
    helper = np.zeros(graph.n_users)
    for k in range(degree):
        helper += steps[:, k]
    return cum[:, -1], helper


def build_connectivity(
    helpers: np.ndarray, users: np.ndarray, helper_radius: float
) -> ConnectivityGraph:
    """Connect every user to the helpers within `helper_radius` metres.

    `helpers` is `(n_helpers, 2)` and `users` `(n_users, 2)`.  An edge at
    exactly the radius is kept.  Helper links use `HELPER_LINK`;
    base-station rates use `MACRO_LINK` and the distance to the base station
    at the origin.
    """
    dx = users[:, None, 0] - helpers[:, 0]
    dy = users[:, None, 1] - helpers[:, 1]
    # Only the pairs that pass a squared-distance screen get the exact test
    # and a rate; every other pair is no link.  The screen never drops an
    # in-range pair.  Let u = 2**-53.  If fl(hypot(dx, dy)) <= R, hypot being
    # within an ulp, the exact distance d has d**2 <= R**2 (1 + 2u)**2, so
    # the screened fl(fl(dx*dx) + fl(dy*dy)) <= d**2 (1 + u)**2 <=
    # R**2 (1 + 7u).  The bound `limit` = fl(fl(R * fl(1 + 1e-9))**2) >=
    # R**2 (1 + 1e-9)**2 (1 - u)**5 >= R**2 (1 + 2e-9 - 6u) is larger by far.
    # The relative bounds hold while the squares are normal floats.  With a
    # normal `limit`, a square that underflows is off by at most
    # 2**-1074 <= 2u * limit, and one that overflows is of a pair farther
    # than R (1 + 1e-9).  When `limit` overflows or underflows itself, or R
    # is not a number, every pair is kept.
    reach = float(helper_radius) * (1 + 1e-9)
    limit = reach * reach
    if sys.float_info.min <= limit < math.inf:
        with np.errstate(over="ignore"):
            squares = dx * dx
            squares += dy * dy
        near = np.flatnonzero(squares <= limit)
        del squares
    else:
        near = np.arange(dx.size)
    dists = np.hypot(dx.ravel()[near], dy.ravel()[near])
    rate = np.where(dists <= helper_radius, link_rate(dists, HELPER_LINK), 0.0)
    # The flat indices are row-major, so the links come in (user, helper)
    # order; a rate that rounds to 0 (past about 7e6 m) is no link.
    user, helper = np.divmod(near[rate > 0], len(helpers))
    bs = link_rate(np.hypot(users[:, 0], users[:, 1]), MACRO_LINK)
    return ConnectivityGraph(user, helper, rate[rate > 0], bs, len(helpers))
