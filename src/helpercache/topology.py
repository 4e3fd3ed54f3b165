"""Helper and user positions in a disc cell, the link-rate models, the
connectivity graph built from positions and one helper coverage radius, and
the fastest-first fetch rule every delivery model shares."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class LinkRateModel:
    """Log-distance Shannon rate with a hard cap.

    rate(d) = min(max_rate_bps,
                  bandwidth_hz * log2(1 + reference_snr * (max(d, d0_m)/d0_m)**-alpha))

    `reference_snr` is the linear SNR at the reference distance `d0_m`.
    """

    bandwidth_hz: float
    reference_snr: float
    d0_m: float
    pathloss_exponent: float
    max_rate_bps: float

    def __post_init__(self):
        for name in (
            "bandwidth_hz",
            "reference_snr",
            "d0_m",
            "pathloss_exponent",
            "max_rate_bps",
        ):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise InvalidParameterError(f"{name} must be finite and > 0")


# Desk-scale calibration defaults.  The helper link stays at its cap out to the
# 150 m default coverage radius; the base-station rate falls from the same cap
# near the center to ~3 Mb/s at a 400 m cell edge, so an in-range helper is
# never slower than the base station (required for non-negative delay-savings
# weights).
DEFAULT_HELPER_MODEL = LinkRateModel(
    bandwidth_hz=20e6,
    reference_snr=1e8,
    d0_m=1.0,
    pathloss_exponent=3.5,
    max_rate_bps=30e6,
)
DEFAULT_MACRO_MODEL = LinkRateModel(
    bandwidth_hz=10e6,
    reference_snr=3e8,
    d0_m=1.0,
    pathloss_exponent=3.5,
    max_rate_bps=30e6,
)


def check_cell_radius(cell_radius: float) -> None:
    """Refuse a cell radius that is not positive or whose diameter is not
    finite: no lattice point or uniform draw fits a cell of infinite width."""
    if not (cell_radius > 0 and math.isfinite(2.0 * cell_radius)):
        raise InvalidParameterError(
            f"cell_radius={cell_radius!r} must be > 0 with a finite diameter"
        )


def link_rate(distance_m, model: LinkRateModel):
    """Rate in bit/s at the given distance(s).  Accepts scalars or arrays."""
    d = np.maximum(np.asarray(distance_m, dtype=float), model.d0_m)
    snr = model.reference_snr * (d / model.d0_m) ** (-model.pathloss_exponent)
    rate = np.minimum(model.max_rate_bps, model.bandwidth_hz * np.log2(1.0 + snr))
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
    """Bipartite user/helper link rates plus the per-user base-station rate.

    rates[..., u, h] is the helper link rate in bit/s, or 0.0 when user u is
    out of helper h's coverage.  bs_rate[..., u] is always positive.  Leading
    axes, when present, stack independent user draws over the same helpers.
    """

    rates: np.ndarray  # (..., n_users, n_helpers)
    bs_rate: np.ndarray  # (..., n_users)

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        bs = np.asarray(self.bs_rate, dtype=float)
        if rates.ndim < 2:
            raise InvalidParameterError("rates must have at least 2 dimensions")
        if bs.shape != rates.shape[:-1]:
            raise InvalidParameterError("bs_rate length must match the user count")
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise InvalidParameterError("link rates must be finite and >= 0")
        if not np.all(np.isfinite(bs)) or np.any(bs <= 0):
            raise InvalidParameterError("base-station rates must be finite and > 0")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "bs_rate", bs)

    @property
    def n_users(self) -> int:
        return self.rates.shape[-2]

    @property
    def n_helpers(self) -> int:
        return self.rates.shape[-1]

    @cached_property
    def inv_rates(self) -> np.ndarray:
        """Seconds per bit on each link; inf where the user is out of range."""
        with np.errstate(divide="ignore"):
            return np.where(self.rates > 0, 1.0 / self.rates, np.inf)

    @cached_property
    def fastest_first(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`(order, seconds_per_bit, linked)`, each `(..., n_users, degree)`.

        Each user's helpers by decreasing rate (ties by index), cut to the
        graph's degree (the most links any user of any stacked draw has),
        with their seconds per bit; columns past a user's own links are
        unlinked and cost 0.  An unlinked column's `order` entry is 0 and is
        never read, for `fetch_fastest_first` masks it by `linked`.
        """
        lead = self.rates.shape[:-1]
        rows = math.prod(lead)
        rates = self.rates.reshape(rows, self.n_helpers)
        # nonzero lists the links user after user, each user's by helper
        # index.  Sorting by (user, -rate) moves links only within a user's
        # run, and lexsort is stable, so equal rates keep helper-index order.
        user, helper = np.nonzero(rates > 0)
        rate = rates[user, helper]
        by = np.lexsort((-rate, user))
        helper, rate = helper[by], rate[by]
        counts = np.bincount(user, minlength=rows)
        degree = int(counts.max(initial=0))
        slot = np.arange(user.size) - (np.cumsum(counts) - counts)[user]
        order = np.zeros((rows, degree), dtype=np.intp)
        inv = np.zeros((rows, degree))
        linked = np.zeros((rows, degree), dtype=bool)
        order[user, slot] = helper
        inv[user, slot] = 1.0 / rate
        linked[user, slot] = True
        shape = lead + (degree,)
        return order.reshape(shape), inv.reshape(shape), linked.reshape(shape)

    def users_of(self, helper: int) -> np.ndarray:
        """Indices of users inside helper `helper`'s coverage (unstacked graph)."""
        return np.flatnonzero(self.rates[:, helper] > 0)


def fetch_fastest_first(
    graph: ConnectivityGraph, fractions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collect files from in-range helpers, fastest link first.

    `fractions[..., u, ..., h]` is the share of a file wanted by user u that
    helper h stores (one file per user, or one row per file); its leading
    axes are the graph's.  Each user takes what its helpers hold in
    decreasing rate order until the file is complete.  Returns
    `(collected, seconds_per_bit)`, both shaped `fractions.shape[:-1]`: the
    fraction gathered from helpers, capped at 1, and the helper-side download
    time per file bit.  What the base station serves is the caller's rule.

    Helper seconds are added left to right, fastest link first.  Every user
    is padded to the degree of the whole graph, and a pad column adds exactly
    0.0, so a user's sum does not depend on the graph it is scored in.
    """
    order, inv, linked = graph.fastest_first
    degree = order.shape[-1]
    files = (1,) * (np.ndim(fractions) - graph.rates.ndim)
    shape = graph.rates.shape[:-1] + files + (degree,)
    order, inv, linked = (a.reshape(shape) for a in (order, inv, linked))
    picked = np.take_along_axis(fractions, order, axis=-1)
    # A leading zero column keeps users without any link in the same shape.
    cum = np.zeros(picked.shape[:-1] + (degree + 1,))
    cum[..., 1:] = np.where(linked, picked, 0.0)
    cum = np.clip(np.cumsum(cum, axis=-1), 0.0, 1.0)
    steps = np.diff(cum, axis=-1) * inv
    helper = np.zeros(steps.shape[:-1])
    for k in range(degree):
        helper += steps[..., k]
    return cum[..., -1], helper


def build_connectivity(
    helpers: np.ndarray, users: np.ndarray, helper_radius: float
) -> ConnectivityGraph:
    """Connect every user to the helpers within `helper_radius` metres.

    `helpers` is `(n_helpers, 2)` and `users` `(..., n_users, 2)`.  An edge
    at exactly the radius is kept.  Helper links use `DEFAULT_HELPER_MODEL`;
    base-station rates use `DEFAULT_MACRO_MODEL` and the distance to the base
    station at the origin.  Stacked user draws give a stacked graph with the
    same leading axes.
    """
    dx = users[..., :, None, 0] - helpers[:, 0]
    dy = users[..., :, None, 1] - helpers[:, 1]
    # Only the pairs that pass a squared-distance screen get the exact test
    # and a rate; every other rate is 0.0.  The screen never drops an
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
    linked = dists <= helper_radius
    rates = np.zeros(dx.shape)
    rates.ravel()[near[linked]] = link_rate(dists[linked], DEFAULT_HELPER_MODEL)
    d_bs = np.hypot(users[..., 0], users[..., 1])
    bs = np.reshape(link_rate(d_bs, DEFAULT_MACRO_MODEL), users.shape[:-1])
    return ConnectivityGraph(rates=rates, bs_rate=bs)
