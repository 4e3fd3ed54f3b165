"""The placement type, and the whole-file greedy, most-popular and brute-force
policies.

Every policy returns a `Placement`: the stored fraction of each file at each
helper, as an (m, H) matrix.  A whole-file placement is its boolean case, so
the macro snapshot and the LP's fractional placements read the same type.
A user's download rate for a file is the best rate among the base station
and the in-range helpers that cache it, so the expected-delay objective is a
weighted coverage function of the chosen (file, helper) pairs: monotone and
submodular, which makes the greedy a 1/2-approximation under the per-helper
capacity constraint.

The gain of caching rank f at helper h is `fl(file_bits * pmf[f-1])` times a
coverage weight `s_h(S)` that depends only on the set S of helpers already
caching f, so ranks with equal S form a class.  `_greedy` sorts these
gains in segments instead of popping a heap once per cached file: between two
helper fills each class hands its members down a fixed chain of classes, along
which the gain never grows, so a heap's pop order is the order of the merge
key (-gain, rank, level on the chain).  Its trajectory, ties included, is that
of the pairwise lazy greedy.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasiblePlacementError,
    InstanceTooLargeError,
    InvalidParameterError,
)
from .popularity import PopularityModel
from .topology import ConnectivityGraph

BRUTE_FORCE_GUARD = 10**6
# How far outside [0, 1] a stored fraction, and past its capacity a helper's
# column sum, may stray before a placement is refused.
RHO_TOL = 1e-9


@dataclass(frozen=True)
class HelperSpecs:
    """Per-helper cache capacities, in whole files."""

    capacities: tuple[int, ...]

    def __post_init__(self):
        caps = tuple(int(c) for c in self.capacities)
        if any(c < 0 for c in caps):
            raise InvalidParameterError("capacities must be >= 0")
        object.__setattr__(self, "capacities", caps)

    @property
    def n_helpers(self) -> int:
        return len(self.capacities)

    @classmethod
    def uniform(cls, n_helpers: int, capacity: int) -> "HelperSpecs":
        return cls(capacities=(int(capacity),) * int(n_helpers))


@dataclass(frozen=True, eq=False)
class Placement:
    """Stored fraction of each file at each helper, an (m, n_helpers) matrix.

    Row f - 1 is file rank f.  A whole-file placement is the boolean case,
    True where a helper caches the file; a fractional one holds floats in
    [0, 1] (entries within `RHO_TOL` outside are clipped).  Every helper's
    column sums to at most its capacity in files.  `caches`, one frozenset
    of ranks per helper, is built on first access.
    """

    rho: np.ndarray
    capacities: tuple[int, ...]

    def __post_init__(self):
        rho = np.asarray(self.rho)
        caps = tuple(int(c) for c in self.capacities)
        if rho.ndim != 2 or rho.shape[1] != len(caps):
            raise InfeasiblePlacementError("rho must be (m, n_helpers)")
        if rho.dtype != bool:
            rho = rho.astype(float, copy=False)
            if not np.all((rho >= -RHO_TOL) & (rho <= 1 + RHO_TOL)):
                raise InfeasiblePlacementError("rho entries must lie in [0, 1]")
            rho = np.clip(rho, 0.0, 1.0)
        # A column holds at most m files, so a larger capacity is clipped to
        # m and any capacity fits a float.
        room = np.array([min(c, rho.shape[0]) for c in caps], dtype=float)
        used = rho.sum(axis=0)
        over = np.flatnonzero(used > room + RHO_TOL)
        if over.size:
            h = int(over[0])
            raise InfeasiblePlacementError(
                f"helper {h} stores {used[h]:.12g} file units, capacity {caps[h]}"
            )
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "capacities", caps)

    @property
    def m(self) -> int:
        return self.rho.shape[0]

    @property
    def n_helpers(self) -> int:
        return self.rho.shape[1]

    @functools.cached_property
    def caches(self) -> tuple[frozenset[int], ...]:
        """One frozenset per helper of the ranks it stores (any fraction)."""
        return tuple(frozenset(_ranks(column)) for column in self.rho.T)


def _ranks(column: np.ndarray) -> list[int]:
    """The ranks (1-based, ascending) whose entry in `column` is nonzero."""
    return (np.flatnonzero(column) + 1).tolist()


def most_popular_place(specs: HelperSpecs, pop: PopularityModel) -> Placement:
    """Every helper independently caches the min(capacity, m) most popular files."""
    counts = np.array([min(cap, pop.m) for cap in specs.capacities], dtype=np.int64)
    return Placement(np.arange(pop.m)[:, None] < counts, specs.capacities)


class _Class:
    """The ranks cached at exactly the helper set `held` (a bit mask).

    `cur` is every user's best seconds per bit over the base station and the
    helpers in `held`.  `s[h]` is the coverage weight of adding helper h, so
    caching member f at h gains `weights[f - 1] * s[h]`.  `cand` marks the
    helpers a member can go to: not in `held`, with users, and open when the
    class was made.  `best` is the class's `_clear_winner` over its open
    candidates, or `_STALE` until it is next needed; `row` is the class's row
    in the chain tables of `_Segments`.
    """

    __slots__ = ("held", "cur", "cand", "s", "best", "row")

    def __init__(self, held, cur, cand, users_of, edge_inv, row):
        self.held, self.cur, self.cand, self.row = held, cur, cand, row
        self.s = np.zeros(cand.size)
        for h in cand.nonzero()[0].tolist():
            # The gathered array and the numpy sum the gain of one (rank,
            # helper) pair has always used, so every float is bit-equal.
            self.s[h] = np.maximum(0.0, cur[users_of[h]] - edge_inv[h]).sum()
        self.best = _STALE


# Relative margin by which a class's best `s` must beat every other open
# candidate's before the class caches that helper (see `_clear_winner`).
_CLEAR_WIN = 1e-12
_STALE = -3  # `_Class.best` until `_clear_winner` runs on the open helpers

# A segment of the greedy takes the first items of at most `_SEGMENT_RANKS`
# ranks, and at most `_SEGMENT_ITEMS` items in all.
_SEGMENT_RANKS = 1024
_SEGMENT_ITEMS = 4096


def _clear_winner(s: np.ndarray, ok: np.ndarray) -> int:
    """The first argmax of `s` over `ok` if every other candidate's `s` either
    equals it or trails it by more than `_CLEAR_WIN`; -1 if one trails it by
    less; -2 if nothing is `ok`.

    A clear winner keeps the first argmax of the rounded gains `fl(w * s)` for
    every weight w whose gain is a normal float, and keeps it while helpers
    drop out of `ok`, so a class may cache it until it fills.
    """
    s = np.where(ok, s, -1.0)
    top = s.max()
    if top < 0.0:
        return -2
    h = int(s.argmax())
    s[s == top] = -1.0
    return h if top > (1.0 + _CLEAR_WIN) * s.max() else -1


def _item_step(c: _Class, w: float, is_open: np.ndarray) -> tuple[int, float]:
    """Helper and gain of caching one member of class `c`, of weight `w`: the
    first argmax of the rounded gains over the open candidates."""
    gains = np.where(c.cand & is_open, w * c.s, -1.0)
    h = int(gains.argmax())
    return h, float(gains[h])


class _Segments:
    """One run of the greedy, advanced a segment of items at a time.

    A class with a clear winner b hands each member cached at b on to the
    class `held | b`; these hand-offs make each class's chain.  Row `c.row` of
    the chain tables holds the chain that starts at class `c`, a column per
    class on it: `sig`, the class's largest open `s`; `hlp`, its helper, or
    -1 where that depends on the rank; `nxt`, the row of the class after it,
    or -1 while that class is not made.  A chain ends at a class whose helper
    depends on the rank, before a class with no open candidate (`dead`), or
    at a class whose successor is not made yet (`ends_open`).  A row goes
    stale (`valid`) when a helper on it fills, when any helper fills if it
    ends at a class without a clear winner, and when its open end is made.
    """

    def __init__(self, graph, pop, specs, file_bits):
        n_helpers = graph.n_helpers
        self.users_of = [graph.users_of(h) for h in range(n_helpers)]
        self.edge_inv = [
            graph.inv_rates[self.users_of[h], h] for h in range(n_helpers)
        ]
        self.weights = file_bits * pop.pmf
        # No helper holds more than the catalog, so a larger capacity acts
        # as the catalog size (and any capacity fits int64).
        self.room = np.array(
            [min(c, pop.m) for c in specs.capacities], dtype=np.int64
        )
        self.is_open = self.room > 0
        self.classes: dict[int, _Class] = {}
        self.by_row: list[_Class] = []
        self.width = max(n_helpers, 1)  # a chain adds a helper per class
        self.sig = np.zeros((0, self.width))
        self.hlp = np.zeros((0, self.width), dtype=np.int64)
        self.nxt = np.zeros((0, self.width), dtype=np.int64)
        self.length = np.zeros(0, dtype=np.int64)
        self.valid = np.zeros(0, dtype=bool)
        self.dead = np.zeros(0, dtype=bool)
        self.ends_open = np.zeros(0, dtype=bool)
        has_users = np.array([u.size > 0 for u in self.users_of], dtype=bool)
        self._add(0, 1.0 / graph.bs_rate, self.is_open & has_users)

    def _add(self, held: int, cur: np.ndarray, cand: np.ndarray) -> _Class:
        row = len(self.by_row)
        if row == self.length.size:
            more = max(row, 8)

            def grown(a, fill):
                block = np.full((more,) + a.shape[1:], fill, a.dtype)
                return np.concatenate([a, block])

            self.sig, self.hlp, self.nxt = (
                grown(self.sig, 0.0), grown(self.hlp, -2), grown(self.nxt, -1)
            )
            self.length = grown(self.length, 0)
            self.valid, self.dead, self.ends_open = (
                grown(self.valid, False), grown(self.dead, False),
                grown(self.ends_open, False),
            )
        c = self.classes[held] = _Class(
            held, cur, cand, self.users_of, self.edge_inv, row
        )
        self.by_row.append(c)
        return c

    def successor(self, c: _Class, h: int) -> _Class:
        """The class of a member of `c` once cached at helper `h`, made when
        first needed; the rows that reached `c` then go stale."""
        nxt = self.classes.get(c.held | (1 << h))
        if nxt is None:
            users = self.users_of[h]
            cur = c.cur.copy()
            cur[users] = np.minimum(cur[users], self.edge_inv[h])
            cand = c.cand & self.is_open
            cand[h] = False
            rows = len(self.by_row)
            self.valid[:rows] &= ~(self.nxt[:rows] == c.row).any(axis=1)
            self.valid[c.row] = False
            nxt = self._add(c.held | (1 << h), cur, cand)
        return nxt

    def chain(self, c: _Class) -> None:
        """Make the row of `c`, and the rows of the classes on its chain,
        valid.  Every row ends where its last class's does."""
        path = []
        while not self.valid[c.row]:
            if c.best == _STALE:
                c.best = _clear_winner(c.s, c.cand & self.is_open)
            if c.best == -2:
                self.dead[c.row] = self.valid[c.row] = True
                break
            path.append(c)
            if c.best == -1:
                break
            c = self.classes.get(c.held | (1 << c.best))
            if c is None:
                break
        for c in reversed(path):
            r, size = c.row, 1
            if c.best == -1:
                self.sig[r, 0] = np.where(c.cand & self.is_open, c.s, -1.0).max()
                self.nxt[r, 0], self.ends_open[r] = -1, False
            else:
                self.sig[r, 0] = c.s[c.best]
                nxt = self.classes.get(c.held | (1 << c.best))
                self.nxt[r, 0], self.ends_open[r] = -1, nxt is None
                if nxt is not None:
                    n = self.nxt[r, 0] = nxt.row
                    if not self.dead[n]:
                        tail = self.length[n]
                        self.sig[r, 1 : tail + 1] = self.sig[n, :tail]
                        self.hlp[r, 1 : tail + 1] = self.hlp[n, :tail]
                        self.nxt[r, 1 : tail + 1] = self.nxt[n, :tail]
                        self.ends_open[r] = self.ends_open[n]
                        size += tail
            self.hlp[r, 0] = c.best
            self.hlp[r, size:], self.nxt[r, size:] = -2, -1
            self.length[r], self.valid[r] = size, True

    def close(self, filled: np.ndarray) -> None:
        """Helpers `filled` ran out of room: the classes that chose one of
        them, or no clear winner, choose again when next needed, and every
        row through such a class goes stale."""
        self.is_open[filled] = False
        gone = set(filled.tolist()) | {-1}
        for c in self.by_row:
            if c.best in gone:
                c.best = _STALE
        # Indexed by a table entry: helpers 0..H-1, then -2 (past the chain)
        # and -1 (no clear winner).
        hit = np.zeros(self.width + 2, dtype=bool)
        hit[filled] = hit[-1] = True
        rows = len(self.by_row)
        self.valid[:rows] &= ~hit[self.hlp[:rows]].any(axis=1)

    def extend(self, c: _Class, w: float, floor: float) -> None:
        """Make the classes on the chain after `c` where a member of weight
        `w` still gains at least `floor`, so a segment need not stop there."""
        while True:
            if c.best == _STALE:
                c.best = _clear_winner(c.s, c.cand & self.is_open)
            if c.best < 0 or w * c.s[c.best] < floor:
                return
            c = self.successor(c, c.best)

    def items(self, w: np.ndarray, rows: np.ndarray, beyond: float):
        """The segment's items, sorted by key; None if `w` holds too few ranks.

        An item is a rank (an index into `w`; its class row is in `rows`) at
        a level of that class's chain, and its key is (-gain, rank, level).
        The segment takes every item whose key is at most a limit: the first
        items of at most `_SEGMENT_RANKS` ranks pass it, and at most
        `_SEGMENT_ITEMS` items do.  Every other item's key is larger, that of
        every rank after those in `w` too: their gains are at most `beyond`
        (-1 if there are none).  Returns (rank index, level, gain) arrays.
        """
        n = w.size
        at, gain = np.arange(n), w * self.sig[rows, 0]
        limit = (-1.0, n, 0)  # admits every item: gains are >= 0
        if beyond >= 0.0 and n <= _SEGMENT_RANKS:
            return None
        if n > _SEGMENT_RANKS:
            top = np.partition(gain, n - _SEGMENT_RANKS)[n - _SEGMENT_RANKS]
            if top < beyond:
                return None
            keep = gain > top
            ties = (gain == top).nonzero()[0][: _SEGMENT_RANKS - keep.sum()]
            keep[ties] = True
            limit = (top, ties[-1], 0)
            at = keep.nonzero()[0]
            gain = gain[at]
        parts = [(at, np.zeros(at.size, dtype=np.int64), gain)]
        count = at.size
        size = self.length[rows]
        deeper, d = at[size[at] > 1], 1
        while deeper.size:
            # The gain does not grow along a chain, so a rank's item at level
            # d passes the limit only if its item at level d - 1 did.
            g = w[deeper] * self.sig[rows[deeper], d]
            lv = np.full(deeper.size, d)
            keep = _within(g, deeper, lv, limit)
            deeper, lv, g = deeper[keep], lv[keep], g[keep]
            parts.append((deeper, lv, g))
            count += deeper.size
            if count > _SEGMENT_ITEMS:
                at, level, gain = (np.concatenate(p) for p in zip(*parts))
                limit = _kth_key(gain, at, level, _SEGMENT_ITEMS)
                keep = _within(gain, at, level, limit)
                parts = [(at[keep], level[keep], gain[keep])]
                count = _SEGMENT_ITEMS
                deeper = deeper[_within(g, deeper, lv, limit)]
            d += 1
            deeper = deeper[size[deeper] > d]
        return _sorted(*(np.concatenate(p) for p in zip(*parts)))

    def run(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The greedy's (helpers, ranks, gains), one entry per cached file."""
        weights, room = self.weights, self.room
        n_helpers = room.size
        live = np.arange(weights.size)  # 0-based ranks that may still be cached
        row_of = np.zeros(weights.size, dtype=np.int64)  # each rank's class row
        window = 4 * _SEGMENT_RANKS  # how many live ranks a segment looks at
        out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        while True:
            head = live[:window]
            rows = row_of[head]
            stale = ~self.valid[rows]
            if stale.any():
                todo = np.zeros(len(self.by_row), dtype=bool)
                todo[rows[stale]] = True
                for r in todo.nonzero()[0].tolist():
                    self.chain(self.by_row[r])
            alive = ~self.dead[rows]
            if not alive.all():
                head, rows = head[alive], rows[alive]
                live = np.concatenate([head, live[window:]])
            if not live.size:
                break
            # Every class descends from the root, and the best `s` does not
            # grow down a chain or as helpers fill, so no rank after the
            # window gains more than this at its first level.
            beyond = -1.0
            if live.size > head.size:
                beyond = weights[live[head.size]] * self.sig[0, 0]
            found = self.items(weights[head], rows, beyond)
            if found is None:
                window *= 2
                continue
            at, level, gain = found
            row = rows[at]
            helper = self.hlp[row, level]

            # Cut before the first item that ends the greedy (gain <= 0) or
            # is scored on its own, and after the first that fills a helper or
            # ends its chain open, whichever comes first.
            alone = (gain < sys.float_info.min) | (gain == math.inf) | (helper < 0)
            cut = int(alone.argmax()) if alone.any() else gain.size
            last = level[:cut] == self.length[row[:cut]] - 1
            ends = self.ends_open[row[:cut]] & last
            if ends.any():
                cut = int(ends.argmax()) + 1
            counts = np.bincount(helper[:cut], minlength=n_helpers)
            for h in (counts >= np.maximum(room, 1)).nonzero()[0].tolist():
                cut = min(cut, int((helper == h).nonzero()[0][room[h] - 1]) + 1)
            if cut:
                out.append((helper[:cut], head[at[:cut]], gain[:cut]))
                room -= np.bincount(helper[:cut], minlength=n_helpers)
                # A rank's items in the segment are its first levels, so it
                # moves to the class after the deepest one, made if need be.
                depth = np.bincount(at[:cut], minlength=head.size)
                moved = depth.nonzero()[0]
                src, depth = rows[moved], depth[moved] - 1
                target = self.nxt[src, depth]
                for j in (target < 0).nonzero()[0].tolist():
                    r, d = int(src[j]), int(depth[j])
                    c = self.by_row[r if d == 0 else self.nxt[r, d - 1]]
                    target[j] = self.successor(c, int(self.hlp[r, d])).row
                row_of[head[moved]] = target
            elif gain[0] <= 0.0:
                break
            else:
                f = head[at[0]]
                c = self.by_row[row_of[f]]
                h, g = _item_step(c, weights[f], self.is_open)
                out.append((np.array([h]), np.array([f]), np.array([g])))
                room[h] -= 1
                row_of[f] = self.successor(c, h).row
            filled = (self.is_open & (room == 0)).nonzero()[0]
            if filled.size:
                self.close(filled)
            if ends.any() and cut == ends.argmax() + 1:
                f = head[at[cut - 1]]
                self.extend(self.by_row[row_of[f]], weights[f], gain[-1])
        if not out:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
        helpers, ranks, gains = (np.concatenate(a) for a in zip(*out))
        return helpers, ranks + 1, gains


def _kth_key(gain, at, level, k):
    """The k-th smallest key (-gain, at, level), as (gain, at, level)."""
    top = np.partition(gain, gain.size - k)[gain.size - k]
    ties = (gain == top).nonzero()[0]
    j = ties[np.lexsort((level[ties], at[ties]))[k - np.count_nonzero(gain > top) - 1]]
    return top, at[j], level[j]


def _within(gain, at, level, limit):
    """Which items' keys (-gain, at, level) are at most `limit`'s."""
    top, i, d = limit
    return (gain > top) | (gain == top) & ((at < i) | (at == i) & (level <= d))


def _sorted(at, level, gain):
    """The items in key order (-gain, at, level)."""
    order = np.argsort(-gain)
    if np.any(gain[order[1:]] == gain[order[:-1]]):
        order = np.lexsort((level, at, -gain))
    return at[order], level[order], gain[order]


def _greedy(graph, pop, specs, file_bits):
    """Run the greedy; its trajectory as (helpers, ranks, gains) arrays.

    Each step caches the (rank, helper) pair of largest exact marginal delay
    reduction; the gains are non-increasing.  Ties break toward lower file
    rank, then lower helper index.  Selection stops at the capacities or at
    the first non-positive marginal gain, whichever comes first.

    The gain of (f, h) is `w_f * s_h(S)`, with `w_f = fl(file_bits * pmf[f-1])`
    and S the set of helpers already caching f; ranks with equal S form a
    class.  A class whose `_clear_winner` is helper b caches its members at b
    and hands them to class S | b, so each class starts a chain S, S | b, ...
    Along a chain the gain `fl(w_f * sigma)` never rises, sigma being the
    class's best open `s`: `s` cannot grow as S grows (submodularity; each
    sum keeps its order, and rounded sums and products are monotone), and
    the clear winner of S beats every helper still open further down.  A rank
    sits in one class at a time, and pmf does not increase with rank.  So,
    until the next helper fills, a heap holding each class's lowest rank at
    its best helper pops exactly the items (rank f, level l of f's chain) in
    the order of the merge key (-gain, f, l); at equal gain and rank, the
    parent class comes first.

    The greedy therefore advances a segment at a time: it takes the items of
    smallest key (at most `_SEGMENT_ITEMS`, from the first items of at most
    `_SEGMENT_RANKS` ranks; every item left out has a larger key), sorts
    them, cuts at the first non-positive gain, which ends the greedy, and
    after the item that fills a helper, and commits what precedes the cuts.
    Each rank moves to the class after its last committed item, and only the
    classes whose helper filled, or that had no clear winner, run
    `_clear_winner` again.  Two kinds of item are scored on their own, as a
    heap entry is (`_item_step`), because their helper depends on the rank:
    those of a class without a clear winner, and those whose gain is not a
    normal float, where rounding can tie helpers whose `s` differ.  A segment
    stops before such an item, which then makes a segment by itself.
    """
    if specs.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError("specs/graph helper counts differ")
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    if graph.n_users == 0 or all(c == 0 for c in specs.capacities):
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    return _Segments(graph, pop, specs, file_bits).run()


def greedy_place(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    file_bits: float,
) -> Placement:
    """Greedy placement (1/2-approximation of the optimal delay savings)."""
    helpers, ranks, _ = _greedy(graph, pop, specs, file_bits)
    rho = np.zeros((pop.m, specs.n_helpers), dtype=bool)
    rho[ranks - 1, helpers] = True
    return Placement(rho, specs.capacities)


def brute_force_place(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    file_bits: float,
) -> Placement:
    """Exhaustively optimal placement for tiny instances.

    Guarded: the product over helpers of C(m, capacity) must not exceed
    BRUTE_FORCE_GUARD.  Candidate caches are enumerated per helper by (size
    ascending, then lexicographic), and the first placement achieving the
    minimum delay is returned, so full ties resolve to empty caches.
    """
    if specs.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError("specs/graph helper counts differ")
    m = pop.m
    space = 1
    for cap in specs.capacities:
        space *= math.comb(m, min(cap, m))
        if space > BRUTE_FORCE_GUARD:
            raise InstanceTooLargeError(
                "brute-force search space exceeds the guard of "
                f"{BRUTE_FORCE_GUARD}"
            )

    ranks = range(1, m + 1)
    per_helper: list[list[tuple[int, ...]]] = [
        [
            combo
            for size in range(min(cap, m) + 1)
            for combo in itertools.combinations(ranks, size)
        ]
        for cap in specs.capacities
    ]

    inv_bs_mat = np.repeat((1.0 / graph.bs_rate)[:, None], m, axis=1)
    idx_lists = [
        [np.asarray(combo, dtype=np.int64) - 1 for combo in combos]
        for combos in per_helper
    ]

    pmf = pop.pmf
    best = {"delay": math.inf, "choice": None}

    def recurse(h: int, acc: np.ndarray, chosen: tuple[tuple[int, ...], ...]):
        if h == len(per_helper):
            delay = float(file_bits * (acc @ pmf).sum()) if acc.size else 0.0
            if delay < best["delay"]:
                best["delay"] = delay
                best["choice"] = chosen
            return
        col = graph.inv_rates[:, h][:, None]
        for combo, idx in zip(per_helper[h], idx_lists[h]):
            if combo:
                nxt = acc.copy()
                nxt[:, idx] = np.minimum(nxt[:, idx], col)
            else:
                nxt = acc
            recurse(h + 1, nxt, chosen + (combo,))

    recurse(0, inv_bs_mat, ())
    assert best["choice"] is not None
    rho = np.zeros((m, specs.n_helpers), dtype=bool)
    for h, combo in enumerate(best["choice"]):
        rho[[f - 1 for f in combo], h] = True
    return Placement(rho, specs.capacities)


def placement_to_json(placement: Placement) -> str:
    """JSON export: helper id (0-based, as a string key) to sorted rank list."""
    import json

    doc = {str(h): _ranks(column) for h, column in enumerate(placement.rho.T)}
    return json.dumps(doc, indent=2, sort_keys=True)
