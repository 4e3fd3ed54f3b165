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
gains in segments instead of popping a heap once per cached file: each class
hands its members down a chain of classes, along which the gain never grows,
so a heap's pop order is the order of the merge key (-gain, rank, depth on
the chain).  A segment keeps at most a fixed number of items, and ends only
when they run out; a helper that fills or a class that is made re-routes
just the items whose chains it changes.
Its trajectory, ties included, is that of the pairwise lazy greedy.
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
        return tuple(frozenset((np.flatnonzero(c) + 1).tolist()) for c in self.rho.T)


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
    class was made.  `row` is the class's index in the per-class arrays of
    `_Segments`.
    """

    __slots__ = ("held", "cur", "cand", "s", "row")

    def __init__(self, held, cur, cand, s, row):
        self.held, self.cur, self.cand, self.s, self.row = held, cur, cand, s, row


# Relative margin by which a class's best `s` must beat every other open
# candidate's before the class caches that helper (see `_clear_winner`).
_CLEAR_WIN = 1e-12
_DORMANT = -3  # `best` of a class that chooses again when next reached

# A segment of the greedy takes the first items of at most `_SEGMENT_RANKS`
# ranks, and keeps at most `_SEGMENT_ITEMS` items in all (`_budgeted`).
_SEGMENT_RANKS = 2048
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
    h = int(s.argmax())
    top = s[h]
    if top < 0.0:
        return -2
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

    Each class has a row in the per-class arrays: `best`, its `_clear_winner`
    over the open helpers; `sig`, its largest open `s` (-inf if none is
    open); `nxt`, the row of class `held | best`, or -1 while that class is
    not made or is dormant; `depth`, how many helpers it holds.  A class with
    a clear winner b caches its members at b and hands them on to `nxt`, so
    following `nxt` from a rank's class walks the rank's chain.  A chain ends
    at a class without a clear winner, before a class with no open
    candidate, or where `nxt` is -1.  When a helper that a class may choose
    fills, the class chooses again at once if an item is pending at it, and
    otherwise goes dormant (`_DORMANT`) until a rank reaches it; no `nxt`
    points to a dormant class.

    A segment's pending items are the columns of one int64 array, sorted by
    key; its rows are `_RANK`, `_DEPTH`, `_GAIN` (the float's bits), `_ROW`
    (the class), `_HELPER` (the class's `best`) and `_STOP` (1 if the chain
    ends at the item open, or if the item is scored on its own).  Each item
    names its class, so a change to some classes finds the items it touches
    with one gather.
    """

    def __init__(self, graph, pop, specs, file_bits):
        n_helpers = graph.n_helpers
        self.users_of = [graph.users_of(h) for h in range(n_helpers)]
        self.edge_inv = [
            graph.inv_rates[self.users_of[h], h] for h in range(n_helpers)
        ]
        # The helpers by user count, each a row of its users padded to the
        # largest count: one row sum over each count's block gives every
        # helper's `s` bit-equal to the numpy sum over its own users.
        sizes = np.array([u.size for u in self.users_of], dtype=np.int64)
        self.order = np.argsort(sizes, kind="stable")
        self.pad_users = np.zeros((n_helpers, int(sizes.max(initial=0))), np.int64)
        self.pad_inv = np.full(self.pad_users.shape, np.inf)  # padding gains 0
        for i, h in enumerate(self.order.tolist()):
            self.pad_users[i, : sizes[h]] = self.users_of[h]
            self.pad_inv[i, : sizes[h]] = self.edge_inv[h]
        # numpy sums fewer than 128 numbers in blocks of 8 and then one by
        # one, so zeros padded after the last block leave a sum unchanged:
        # user counts below 128 with equal count // 8 share a block.
        group = np.where(sizes < 128, sizes // 8, sizes + 16)[self.order]
        _, first = np.unique(group, return_index=True)
        bounds = np.append(first, n_helpers).tolist()
        self.blocks = [
            (lo, hi, int(sizes[self.order[hi - 1]]))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if sizes[self.order[hi - 1]] > 0
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
        self.best = np.zeros(0, dtype=np.int64)
        self.sig = np.zeros(0)
        self.nxt = np.zeros(0, dtype=np.int64)
        self.depth = np.zeros(0, dtype=np.int64)
        # Each rank's class, as depth << 32 | row.
        self.place = np.zeros(pop.m, dtype=np.int64)
        # Scratch of `repair`: a depth per rank (a depth is at most H < 2^31).
        self.cutoff = np.full(pop.m, _NO_CUT, dtype=np.int32)
        self._add(0, 0, 1.0 / graph.bs_rate, self.is_open & (sizes > 0))

    def _add(self, held: int, depth: int, cur: np.ndarray, cand: np.ndarray) -> int:
        """Make the class of helper set `held`, `depth` helpers; its row."""
        row = len(self.by_row)
        if row == self.best.size:
            more = max(row, 8)
            self.best = np.append(self.best, np.zeros(more, np.int64))
            self.sig = np.append(self.sig, np.zeros(more))
            self.nxt = np.append(self.nxt, np.full(more, -1))
            self.depth = np.append(self.depth, np.zeros(more, np.int64))
        gap = np.maximum(0.0, cur[self.pad_users] - self.pad_inv)
        s = np.zeros(cand.size)
        for lo, hi, n in self.blocks:
            s[self.order[lo:hi]] = gap[lo:hi, :n].sum(axis=1)
        s[~cand] = 0.0
        c = self.classes[held] = _Class(held, cur, cand, s, row)
        self.by_row.append(c)
        self.depth[row] = depth
        self.choose(row)
        return row

    def successor(self, row: int, h: int) -> tuple[int, bool]:
        """The row of the class a member of class `row` joins once cached at
        helper `h`, made if need be (a dormant one is woken by `repair`); and
        whether the chain of `row`, which ended there, now goes on to it."""
        c = self.by_row[row]
        nxt = self.classes.get(c.held | (1 << h))
        if nxt is None:
            users = self.users_of[h]
            cur = c.cur.copy()
            cur[users] = np.minimum(cur[users], self.edge_inv[h])
            cand = c.cand & self.is_open
            cand[h] = False
            target = self._add(c.held | (1 << h), self.depth[row] + 1, cur, cand)
        else:
            target = nxt.row
        linked = self.best[row] == h and self.nxt[row] < 0
        if linked:
            self.nxt[row] = target
        return target, linked

    def choose(self, r: int) -> None:
        """Run `_clear_winner` for class row `r` over the open helpers."""
        c = self.by_row[r]
        ok = c.cand & self.is_open
        b = self.best[r] = _clear_winner(c.s, ok)
        self.nxt[r] = -1
        if b >= 0:
            self.sig[r] = c.s[b]
            nxt = self.classes.get(c.held | (1 << b))
            if nxt is not None and self.best[nxt.row] != _DORMANT:
                self.nxt[r] = nxt.row
        elif b == -1:
            self.sig[r] = np.where(ok, c.s, -1.0).max()
        else:
            self.sig[r] = -math.inf  # no item: no key passes any limit

    def wake(self, rows) -> None:
        """Let the dormant classes among `rows` choose again."""
        for r in set(np.asarray(rows).tolist()):
            if self.best[r] == _DORMANT:
                self.choose(r)

    def close(self, filled: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Helpers `filled` ran out of room.  The classes that chose one of
        them, or had no clear winner and could choose one, choose again if
        one of the pending `items` is at them (their rows are returned) and
        go dormant otherwise: the chains into them end before them, so the
        items at their end stop."""
        self.is_open[filled] = False
        n = len(self.by_row)
        # Indexed by `best`: helpers 0..H-1, then dormant (-3), dead (-2), -1.
        gone = np.zeros(self.is_open.size + 3, dtype=bool)
        gone[filled] = gone[-1] = True
        rows = [
            r
            for r in gone[self.best[:n]].nonzero()[0].tolist()
            if self.best[r] >= 0 or self.by_row[r].cand[filled].any()
        ]
        used = np.zeros(n, dtype=bool)
        used[items[_ROW]] = True
        now = [r for r in rows if used[r]]
        for r in now:
            self.choose(r)
        later = [r for r in rows if not used[r]]
        if later:
            self.best[later] = _DORMANT
            asleep = np.zeros(n + 1, dtype=bool)  # the last entry: nxt -1
            asleep[later] = True
            ends = asleep[self.nxt[:n]].nonzero()[0]
            self.nxt[ends] = -1
            asleep[:] = False
            asleep[ends] = True
            items[_STOP, asleep[items[_ROW]]] = 1
        return np.array(now, dtype=np.int64)

    def walk(self, ranks, rows, limit):
        """The items of key at most `limit` on the chains of `ranks` from
        class rows `rows`, unsorted."""
        parts = []
        top, i, d = limit
        while ranks.size:
            gain = self.weights[ranks] * self.sig[rows]
            keep = gain > top
            if top >= 0.0 and (gain == top).any():
                keep |= (gain == top) & (
                    (ranks < i) | (ranks == i) & (self.depth[rows] <= d)
                )
            if not keep.all():
                ranks, rows, gain = ranks[keep], rows[keep], gain[keep]
            parts.append((ranks, rows, gain))
            # The gain does not grow along a chain, so a rank's next item
            # passes the limit only if this one did.
            nxt = self.nxt[rows]
            on = nxt >= 0
            ranks, rows = ranks[on], nxt[on]
        if len(parts) == 1:
            ranks, rows, gain = parts[0]
        else:
            ranks, rows, gain = (np.concatenate(a) for a in zip(*parts))
        helper = self.best[rows]
        alone = (gain < sys.float_info.min) | (gain == math.inf) | (helper < 0)
        stop = alone | (self.nxt[rows] < 0)
        return np.concatenate(
            (ranks, self.depth[rows], gain.view(np.int64), rows, helper, stop)
        ).reshape(6, -1)

    def items(self, head: np.ndarray, rows: np.ndarray, beyond: float):
        """The segment's items sorted by key, and the limit of their keys;
        None if `head` holds too few ranks.

        An item is a rank at a class of its chain; its key is (-gain, rank,
        depth of the class).  The segment takes every item whose key is at
        most a limit that the first items of at most `_SEGMENT_RANKS` ranks
        pass, then keeps the first `_SEGMENT_ITEMS` (`_budgeted`).  Every
        other item's key is larger, that of every rank after those in `head`
        too: their gains are at most `beyond` (-1 if there are none).  Items
        are the columns of one int64 array, see `_RANK`.
        """
        n = head.size
        limit = (-1.0, 0, 0)  # admits every item: gains are >= 0
        if beyond >= 0.0 and n <= _SEGMENT_RANKS:
            return None
        if n > _SEGMENT_RANKS:
            gain = self.weights[head] * self.sig[rows]
            top = np.partition(gain, n - _SEGMENT_RANKS)[n - _SEGMENT_RANKS]
            if top < beyond:
                return None
            keep = gain > top
            ties = (gain == top).nonzero()[0][: _SEGMENT_RANKS - keep.sum()]
            keep[ties] = True
            limit = (top, head[ties[-1]], self.depth[rows[ties[-1]]])
            head, rows = head[keep], rows[keep]
        return _budgeted(_sorted(self.walk(head, rows, limit)), limit)

    def repair(self, items, limit, changed, link=None, moved=None):
        """The pending `items` and their limit after a step changed classes.

        Each rank's items from its first at a `changed` class on are walked
        again from there.  `link` (Y, X) says that the chains ending at class
        Y now go on to class X: the ranks with an item at Y walk on from X.
        `moved` (f, X, drop) says that rank f joined class X, which its items
        did not reach: they walk on from X, after dropping f's items if
        `drop`.
        """
        starts = []
        # A class reached by this step may have gone dormant at its fill.
        self.wake([x[1] for x in (moved, link) if x is not None])
        if moved is not None:
            f, x, drop = moved
            if drop:
                items = np.compress(items[_RANK] != f, items, axis=1)
            starts.append((np.array([f]), np.array([x])))
        if link is not None and not np.any(changed == link[0]):
            at = (items[_ROW] == link[0]).nonzero()[0]
            # Their chains go on: they stop only if scored on their own.
            gain = items[_GAIN, at].view(np.float64)
            items[_STOP, at] = (gain < sys.float_info.min) | (gain == math.inf)
            at = items[_RANK, at]
            starts.append((at, np.full(at.size, link[1])))
        if changed.size:
            hit = np.zeros(len(self.by_row), dtype=bool)
            hit[changed] = True
            bad = hit[items[_ROW]].nonzero()[0]
            if bad.size:
                # Each rank walks again from its shallowest bad item.
                rank, depth = items[_RANK], items[_DEPTH]
                np.minimum.at(self.cutoff, rank[bad], depth[bad].astype(np.int32))
                cutoff = self.cutoff[rank]
                first = bad[depth[bad] == cutoff[bad]]
                self.cutoff[rank[bad]] = _NO_CUT
                starts.append((rank[first], items[_ROW, first]))
                items = np.compress(depth < cutoff, items, axis=1)
        if starts:
            if len(starts) > 1:
                ranks, rows = (np.concatenate(a) for a in zip(*starts))
            else:
                ranks, rows = starts[0]
            walked = self.walk(ranks, rows, limit)
            items = _sorted(np.concatenate((items, walked), axis=1))
        return _budgeted(items, limit)

    def drain(self, items, limit, out, moves) -> bool:
        """Commit the segment's `items` in key order, steps to `out` and
        each committed rank's new class row to `moves`; False once a gain
        is not positive, which ends the greedy."""
        room = self.room
        n_helpers = room.size
        while items.shape[1]:
            rank, _, gain, rows, helper, stop = items  # row views
            # Commit up to the first item that ends the greedy (gain <= 0)
            # or is scored on its own, and through the first that fills a
            # helper or ends its chain at a class not made yet.
            cut = int(stop.argmax())
            if not stop[cut]:
                cut = stop.size
            elif helper[cut] >= 0 and _normal(gain[cut : cut + 1]):
                cut += 1
            counts = np.bincount(helper[:cut], minlength=n_helpers)
            full = counts >= np.maximum(room, 1)
            if full.any():
                for h in full.nonzero()[0].tolist():
                    cut = min(cut, int((helper == h).nonzero()[0][room[h] - 1]) + 1)
                counts = np.bincount(helper[:cut], minlength=n_helpers)
            link = moved = None
            if cut:
                out.append(items[_STEP, :cut])
                room -= counts
                target = self.nxt[rows[:cut]]
                if target[-1] < 0:
                    # The chain ended here, at the item's helper: linked.
                    f, y = int(rank[cut - 1]), int(rows[cut - 1])
                    target[-1], _ = self.successor(y, int(helper[cut - 1]))
                    link, moved = (y, target[-1]), (f, target[-1], False)
                moves.append((rank[:cut], target))
                items = items[:, cut:]
                filled = ((room == 0) & (counts > 0)).nonzero()[0]
            else:
                f, y = int(rank[0]), int(rows[0])
                if items[_GAIN, :1].view(np.float64)[0] <= 0.0:
                    return False
                h, g = _item_step(self.by_row[y], self.weights[f], self.is_open)
                out.append(np.array([[h], [f], [np.float64(g).view(np.int64)]]))
                room[h] -= 1
                x, linked = self.successor(y, h)
                moved = (f, x, True)
                if linked:
                    link = (y, x)
                moves.append((np.array([f]), np.array([x])))
                filled = np.array([h]) if room[h] == 0 else _NONE
            changed = self.close(filled, items) if filled.size else _NONE
            if moved is not None or changed.size:
                items, limit = self.repair(items, limit, changed, link, moved)
        return True

    def run(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The greedy's (helpers, ranks, gains), one entry per cached file."""
        live = np.arange(self.weights.size)  # 0-based ranks that may still be cached
        window = 4 * _SEGMENT_RANKS  # how many live ranks a segment looks at
        out: list[np.ndarray] = []
        while True:
            head = live[:window]
            rows = self.place[head] & 0xFFFFFFFF
            self.wake(np.append(rows[self.best[rows] == _DORMANT], 0))
            alive = self.best[rows] != -2
            if not alive.all():
                head, rows = head[alive], rows[alive]
                live = np.concatenate([head, live[window:]])
            if not live.size:
                break
            # Every class descends from the root, and the best `s` does not
            # grow down a chain or as helpers fill, so no rank after the
            # window gains more than this at its first item (0 once the
            # root has no open candidate).
            beyond = -1.0
            if live.size > head.size:
                beyond = self.weights[live[head.size]] * max(self.sig[0], 0.0)
            found = self.items(head, rows, beyond)
            if found is None:
                window *= 2
                continue
            moves: list[tuple[np.ndarray, np.ndarray]] = []
            if not self.drain(*found, out, moves):
                break
            if moves:
                # A rank's class gains a helper with every move, so its
                # deepest move is its last.
                ranks, rows = (np.concatenate(a) for a in zip(*moves))
                np.maximum.at(self.place, ranks, self.depth[rows] << 32 | rows)
        if not out:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
        helpers, ranks, gains = np.concatenate(out, axis=1)
        return helpers, ranks + 1, gains.view(np.float64)


# The rows of an item array, one column per item.
_RANK, _DEPTH, _GAIN, _ROW, _HELPER, _STOP = range(6)
_STEP = [_HELPER, _RANK, _GAIN]  # the rows of a committed step
_NO_CUT = np.iinfo(np.int32).max
_NONE = np.zeros(0, np.int64)


def _normal(bits: np.ndarray) -> bool:
    """Whether the one gain whose bits are `bits` is a normal float."""
    g = bits.view(np.float64)[0]
    return sys.float_info.min <= g < math.inf


def _budgeted(items, limit):
    """The first `_SEGMENT_ITEMS` of the sorted `items`, and their limit,
    lowered to the key of the last one kept if any are dropped."""
    k = _SEGMENT_ITEMS
    if items.shape[1] <= k:
        return items, limit
    gain = items[_GAIN, k - 1 : k].view(np.float64)[0]
    return items[:, :k], (gain, items[_RANK, k - 1], items[_DEPTH, k - 1])


def _sorted(items):
    """The item array in key order (-gain, rank, depth).

    Gains are not negative, so their bits as int64 sort like them.  A stable
    sort merges sorted runs (a segment's pending items, then its re-walked
    ones) in about linear time; equal gains fall back to the whole key.
    """
    key = -items[_GAIN]
    if np.all(key[1:] > key[:-1]):
        return items
    order = key.argsort(kind="stable")
    k = key[order]
    if np.any(k[1:] == k[:-1]):
        order = np.lexsort((items[_DEPTH], items[_RANK], key))
    return np.take(items, order, axis=1)


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

    The greedy therefore advances a segment at a time.  A segment takes the
    items of smallest key (from the first items of at most `_SEGMENT_RANKS`
    ranks; every item left out has a larger key), sorts them and commits
    them in key order.  It ends when its items run out, or at the first
    non-positive gain, which ends the greedy.  Three kinds of step change
    chains while it runs; after each, only the items it touches are walked
    again, from the changed class, and merged back into the sorted items:

    - a helper fills: the classes that chose it, or had no clear winner, run
      `_clear_winner` again (at once if an item is pending at them, else
      when a rank next reaches them), and each rank's items from its first
      at such a class on are re-routed;
    - an item ends its chain at a class whose successor is not made: the
      successor is made (a class is made only when a committed item reaches
      it), and every rank with an item at that class walks on into it;
    - an item is scored on its own, as a heap entry is (`_item_step`),
      because its helper depends on the rank: items of a class without a
      clear winner, and items whose gain is not a normal float, where
      rounding can tie helpers whose `s` differ.  Its rank walks again from
      the class it joins.

    One rule keeps a segment within `_SEGMENT_ITEMS` items, when it is taken
    and after every re-route: it keeps its first `_SEGMENT_ITEMS` sorted
    items and lowers its limit to the key of the last one kept.
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

