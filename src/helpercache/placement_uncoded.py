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
caching f, so ranks with equal S form a class.  Each class hands its members
down a chain of classes, along which the gain never grows, so a heap's pop
order is the order of the merge key (-gain, rank, depth on the chain).
`_greedy` holds its pending work as runs of consecutive ranks at one class,
and commits every item before the next event (a helper fills, a chain ends,
an item is scored on its own) run by run; an event re-routes only the runs
of the classes it changes.  Its trajectory, ties included, is that of the
pairwise lazy greedy.
"""

from __future__ import annotations

import bisect
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
    `_Runs`.
    """

    __slots__ = ("held", "cur", "cand", "s", "row")

    def __init__(self, held, cur, cand, s, row):
        self.held, self.cur, self.cand, self.s, self.row = held, cur, cand, s, row


# Relative margin by which a class's best `s` must beat every other open
# candidate's before the class caches that helper (see `_clear_winner`).
_CLEAR_WIN = 1e-12
_DORMANT = -3  # `best` of a class that chooses again when next reached


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


class _Runs:
    """One run of the greedy, advanced a batch at a time (see `_greedy`).

    Per class row: `best`, its `_clear_winner` over the open helpers; `sig`,
    its largest open `s` (-inf if none is open); `nxt`, the row of class
    `held | best`, or -1 while that class is not made or is dormant
    (`_DORMANT`); `depth`, how many helpers it holds; `head` and `tail`, the
    ranks between which its gains are normal floats (0 and 0 without a clear
    winner).  Per run i: the items of ranks `lo[i]` to `hi[i] - 1` (0-based)
    at class `row[i]`; `up[i]`, the run it was walked from (-1 if none);
    `bare[i]`, whether none was walked from it since its class last chose.
    """

    def __init__(self, graph, pop, specs, file_bits):
        n_helpers = graph.n_helpers
        # Each helper's users, ascending: a stable sort of the links by helper.
        by = np.argsort(graph.helper, kind="stable")
        sizes = np.bincount(graph.helper, minlength=n_helpers)
        cut = np.cumsum(sizes)[:-1]
        self.users_of = np.split(graph.user[by], cut)
        self.edge_inv = np.split(1.0 / graph.rate[by], cut)
        # The helpers by user count, each a row of its users padded to the
        # largest count: one row sum over each count's block gives every
        # helper's `s` bit-equal to the numpy sum over its own users.
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
        self.neg = -self.weights  # ascending, for `np.searchsorted`
        # No helper holds more than the catalog, so a larger capacity acts
        # as the catalog size (and any capacity fits int64).
        self.room = np.array([min(c, pop.m) for c in specs.capacities], np.int64)
        self.is_open = self.room > 0
        self.classes: dict[int, _Class] = {}
        self.by_row: list[_Class] = []
        self.best, self.nxt, self.depth, self.head, self.tail = (
            np.zeros(0, np.int64) for _ in range(5)
        )
        self.sig, self.bare = np.zeros(0), np.ones(1, dtype=bool)
        self.lo, self.hi = np.zeros(1, np.int64), np.full(1, pop.m)
        self.row, self.up = np.zeros(1, np.int64), np.full(1, -1)
        # Committed (helper, rank, gain bits), grown in place: kept as many
        # pieces instead, they pinned the heap memory the classes free.
        self.steps = np.empty((min(int(self.room.sum()), pop.m), 3), np.int64)
        self.count = 0
        self._add(0, 0, 1.0 / graph.bs_rate, self.is_open & (sizes > 0))

    def _add(self, held: int, depth: int, cur: np.ndarray, cand: np.ndarray) -> int:
        """Make the class of helper set `held`, `depth` helpers; its row."""
        row = len(self.by_row)
        if row == self.best.size:
            more = max(row, 8)
            for name in ("best", "nxt", "depth", "head", "tail", "sig"):
                a = getattr(self, name)
                setattr(self, name, np.concatenate((a, np.zeros(more, a.dtype))))
        s = np.zeros(cand.size)
        pick = cand[self.order]  # the padded rows of the candidates
        for lo, hi, n in self.blocks:
            rows = lo + pick[lo:hi].nonzero()[0]
            gap = cur[self.pad_users[rows, :n]]
            gap -= self.pad_inv[rows, :n]
            s[self.order[rows]] = np.maximum(gap, 0.0, out=gap).sum(axis=1)
        c = self.classes[held] = _Class(held, cur, cand, s, row)
        self.by_row.append(c)
        self.depth[row] = depth
        self.choose(row)
        return row

    def successor(self, row: int, h: int) -> int:
        """The row of the class a member of class `row` joins once cached at
        helper `h`, made if need be and woken if dormant; the chain of `row`,
        if it ended there, now goes on to it."""
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
            if self.best[target] == _DORMANT:
                self.choose(target)
        if self.best[row] == h and self.nxt[row] < 0:
            self.nxt[row] = target
        return target

    def extend(self, row: int) -> None:
        """The chain of class `row` ends there, and its next committed item
        is there: make or wake the class that the item joins."""
        self.successor(row, int(self.best[row]))

    def choose(self, r: int) -> None:
        """Run `_clear_winner` for class row `r` over the open helpers."""
        c = self.by_row[r]
        ok = c.cand & self.is_open
        b = self.best[r] = _clear_winner(c.s, ok)
        self.nxt[r], self.head[r], self.tail[r] = -1, 0, 0
        if b >= 0:
            sig = self.sig[r] = c.s[b]
            nxt = self.classes.get(c.held | (1 << b))
            if nxt is not None and self.best[nxt.row] != _DORMANT:
                self.nxt[r] = nxt.row
            self.head[r] = self._from_rank(sig, math.inf)
            self.tail[r] = self._from_rank(sig, sys.float_info.min)
        elif b == -1:
            self.sig[r] = np.where(ok, c.s, -1.0).max()
        else:
            self.sig[r] = -math.inf  # no item

    def _from_rank(self, sig, limit: float) -> int:
        """The first rank whose gain `w * sig` is below `limit` (the gains
        fall with rank)."""
        w = self.weights
        if w[0] * sig < limit or not w[-1] * sig < limit:
            return 0 if w[0] * sig < limit else w.size
        return bisect.bisect_left(range(w.size), True, key=lambda f: w[f] * sig < limit)

    def walk(self):
        """Walk runs on until every item before the first barrier (an item
        scored on its own or at a chain end) is in a run; each run's `bar`,
        its barrier's rank or `hi`, and the first barrier's key (gain, rank,
        depth, run) or None.  A first chain end no fill precedes is passed."""
        w = self.weights
        while True:
            row, lo, hi = self.row, self.lo, self.hi
            sig, tail, nxt = self.sig[row], self.tail[row], self.nxt[row]
            normal = (lo >= self.head[row]) & (lo < tail)
            go = normal & (nxt >= 0)
            stop = np.minimum(tail, hi)
            bar = np.where(go, stop, lo)
            at = (bar < hi).nonzero()[0]
            grow = (self.bare & go).nonzero()[0]
            depth = self.depth[row]
            key = _first(w[bar[at]] * sig[at], bar[at], depth[at], at)
            if grow.size and key is not None:
                first = w[lo[grow]] * sig[grow]
                grow = grow[_before(first, lo[grow], depth[grow], key)]
            elif key is not None and normal[key[3]] and not go[key[3]]:
                if _earlier(_first(*self.bound(np.where(normal, stop, lo))[:4]), key):
                    return bar, key
                y = int(row[key[3]])
                self.extend(y)
                grow = ((row == y) & self.bare).nonzero()[0]
            if not grow.size:
                return bar, key
            self.grow(grow)

    def grow(self, at: np.ndarray) -> None:
        """Walk on from runs `at`: their ranks at the next class of the chain."""
        self.bare[at] = False
        to = self.nxt[self.row[at]]
        live = self.best[to] != -2  # a class with no open helper has no item
        self._append(self.lo[at[live]], self.hi[at[live]], to[live], at[live])

    def _append(self, lo, hi, row, up) -> None:  # new runs are bare
        for name, add in zip(("lo", "hi", "row", "up"), (lo, hi, row, up)):
            setattr(self, name, np.concatenate((getattr(self, name), add)))
        self.bare = np.concatenate((self.bare, np.ones(len(lo), dtype=bool)))

    def bound(self, bar: np.ndarray):
        """Per helper that may fill if runs stop at `bar`, a key its filling
        item does not come before (of k runs, one holds room / k items up to
        it): arrays of gain, rank, depth, run, and whether it is that item."""
        row, lo = self.row, self.lo
        at = (bar > lo).nonzero()[0]
        helper = self.best[row[at]]
        runs = np.bincount(helper, minlength=self.room.size)[helper]
        pos = lo[at] - 1 - (-self.room[helper] // runs)
        ok = (pos < bar[at]).nonzero()[0]
        at, pos = at[ok], pos[ok]
        gain = self.weights[pos] * self.sig[row[at]]
        return gain, pos, self.depth[row[at]], at, runs[ok] == 1

    def counts(self, bar: np.ndarray, key) -> np.ndarray:
        """How many items of each run (ranks from `lo` on, before `bar`) come
        before `key` (gain, rank, depth, run); all with None."""
        n = bar - self.lo
        if key is None:
            return n
        g, f, d, i = key
        if not sys.float_info.min <= g < math.inf:
            return n if g < math.inf else n * 0
        n[i] = 0  # its own run: the items before it
        at = n.nonzero()[0]
        n[i] = f - self.lo[i]
        lo, bar, row = self.lo[at], bar[at], self.row[at]
        sig = self.sig[row]
        gt = np.minimum(np.maximum(self._edge(sig, g, np.greater), lo), bar)
        n[at] = gt - lo
        tie = (gt < bar).nonzero()[0]
        tie = tie[self.weights[gt[tie]] * sig[tie] == g]
        if tie.size:  # gains equal to g, from gt to ge: ranks and depths decide
            at, gt, row = at[tie], gt[tie], row[tie]
            ge = np.minimum(self._edge(sig[tie], g, np.greater_equal), bar[tie])
            n[at] += np.minimum(np.maximum(f - gt, 0), ge - gt)
            n[at] += (gt <= f) & (f < ge) & (self.depth[row] < d)
        return n

    def _edge(self, sig: np.ndarray, g: float, above) -> np.ndarray:
        """For each `sig`, the first rank whose gain `fl(w * sig)` is not
        `above` g.  `g / sig` finds it to within a few weights; the rounded
        products settle it."""
        w, neg, last = self.weights, self.neg, self.weights.size - 1
        p = np.searchsorted(neg, -(g / sig), "left" if above is np.greater else "right")
        while True:
            a, b = np.maximum(p - 1, 0), np.minimum(p, last)
            back = ~above(w[a] * sig, g) & (p > 0)
            on = above(w[b] * sig, g) & (p <= last)
            if not (back | on).any():
                return p
            # Step over a whole group of equal weights, whose gains are equal.
            p = np.where(back, np.searchsorted(neg, neg[a], "left"), p)
            p = np.where(on, np.searchsorted(neg, neg[b], "right"), p)

    def fill(self, bar: np.ndarray, key):
        """The key (gain, rank, depth, run) of the first item that fills a
        helper, among the items before `bar` and `key`; None if none does."""
        gain, rank, depth, at, one = self.bound(bar)
        first = _first(gain, rank, depth, at)
        if not _earlier(first, key) or one.all():
            return first if _earlier(first, key) else None
        # A helper with several runs: its room-th item is among the first
        # room items of each of them that come before `key`.
        row, room = self.row, self.room
        counts = self.counts(bar, key)
        helper = self.best[row]
        many = np.zeros(room.size + 1, dtype=bool)  # the last entry: best -1
        many[helper[at[~one]]] = True
        of = (many[helper] & (counts > 0)).nonzero()[0]
        total = np.bincount(helper[of], counts[of], minlength=room.size)
        of = of[total[helper[of]] >= room[helper[of]]]
        take = np.minimum(counts[of], room[helper[of]])
        ranks, of = _spans(self.lo[of], take), np.repeat(of, take)
        g = self.weights[ranks] * self.sig[row[of]]
        h, d = helper[of], self.depth[row[of]]
        order = np.lexsort((d, ranks, -g, h))
        start = np.diff(h[order], prepend=-1).nonzero()[0]
        pick = order[start + room[h[order[start]]] - 1]
        pairs = zip((gain, rank, depth, at), (g, ranks, d, of))
        first = _first(*(np.concatenate((a[one], b[pick])) for a, b in pairs))
        return first if _earlier(first, key) else None

    def commit(self, counts: np.ndarray) -> None:
        """Commit the first `counts[i]` items of each run i, in key order."""
        at = counts.nonzero()[0]
        n, row = counts[at], self.row[at]
        ranks = _spans(self.lo[at], n)
        gain = self.weights[ranks] * np.repeat(self.sig[row], n)
        helper = np.repeat(self.best[row], n)
        if at.size > 1:
            order = _key_order(gain, ranks, np.repeat(self.depth[row], n))
            helper, ranks, gain = helper[order], ranks[order], gain[order]
        self.record(helper, ranks, gain)
        self.lo[at] += n
        np.subtract.at(self.room, self.best[row], n)

    def record(self, helper, ranks, gain: np.ndarray) -> None:  # to `steps`
        start, self.count = self.count, self.count + gain.size
        if self.count > len(self.steps):
            self.steps.resize((2 * self.count, 3), refcheck=False)
        for j, part in enumerate((helper, ranks, gain.view(np.int64))):
            self.steps[start : self.count, j] = part

    def alone(self, i: int) -> bool:
        """Score the first item of run i on its own, as a heap entry is
        (`_item_step`); its rank goes on as a run of its own.  False if its
        gain is not positive, which ends the greedy."""
        f, y = int(self.lo[i]), int(self.row[i])
        w = self.weights[f]
        if not w * self.sig[y] > 0.0:
            return False
        h, g = _item_step(self.by_row[y], w, self.is_open)
        self.record(h, f, np.array([g]))
        self.room[h] -= 1
        x = self.successor(y, h)
        self.cut(np.array([i]))
        self.lo[i] += 1
        same = (self.row == x) & (self.hi == f) & (self.up < 0) & self.bare
        if same.any():  # a run of the ranks before f that went the same way
            self.hi[same.argmax()] += 1
        else:
            self._append([f], [f + 1], [x], [-1])
        if not self.room[h]:
            self.close(h)
        return True

    def close(self, h: int) -> None:
        """Helper `h` ran out of room.  The classes that chose it, or had no
        clear winner and could choose it, choose again if a run is pending at
        them, and the runs walked from theirs are cut; the others go dormant,
        and the chains into them end before them."""
        self.is_open[h] = False
        n = len(self.by_row)
        best = self.best[:n]
        rows = ((best == h) | (best == -1)).nonzero()[0].tolist()
        rows = [r for r in rows if best[r] == h or self.by_row[r].cand[h]]
        hit = np.zeros(n, dtype=bool)
        hit[self.row[self.lo < self.hi]] = True
        for r in rows:
            if hit[r]:
                self.choose(r)
            else:
                self.best[r] = _DORMANT
        asleep = np.append(self.best[:n] == _DORMANT, False)  # the last: nxt -1
        self.nxt[:n][asleep[self.nxt[:n]]] = -1
        hit[:] = False
        hit[rows] = True
        self.cut((hit[self.row] & (self.lo < self.hi)).nonzero()[0])

    def cut(self, runs: np.ndarray) -> None:
        """The runs walked from `runs` keep only the ranks before each one's
        `lo`: the others have not passed its class, whose chain changed."""
        if not runs.size:  # no class with a pending run chose again
            return
        big = np.iinfo(np.int64).max
        limit = np.full(self.lo.size + 1, big)  # the last entry: up -1
        limit[runs] = self.lo[runs]
        below = np.full(self.lo.size, big)
        while True:  # the smallest limit above each run
            inherited = np.minimum(limit, np.append(below, big))[self.up]
            if np.array_equal(inherited, below):
                break
            below = inherited
        np.minimum(self.hi, below, out=self.hi)
        self.bare[runs] = True

    def run(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The greedy's (helpers, ranks, gains), one entry per cached file."""
        while True:
            keep = (self.lo < self.hi) & (self.best[self.row] != -2)
            if not keep.all():  # drop the runs with no item left
                at = keep.nonzero()[0]
                new = np.full(keep.size + 1, -1)  # the last entry: up -1
                new[at] = np.arange(at.size)
                self.up = new[self.up[at]]
                self.lo, self.hi, self.row, self.bare = (
                    a[at] for a in (self.lo, self.hi, self.row, self.bare))
            if not self.lo.size:
                break
            bar, key = self.walk()
            filled = self.fill(bar, key)
            counts = self.counts(bar, key if filled is None else filled)
            if filled is not None:
                counts[filled[3]] += 1
            self.commit(counts)
            if filled is not None:
                self.close(int(self.best[self.row[filled[3]]]))
            elif key is not None:
                y = int(self.row[key[3]])
                if self.nxt[y] < 0 and self.head[y] <= key[1] < self.tail[y]:
                    self.extend(y)
                elif not self.alone(key[3]):
                    break
        helpers, ranks, gains = self.steps[: self.count].T
        return helpers, ranks + 1, gains.view(np.float64)


def _spans(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The ranks lo[i], ..., lo[i] + n[i] - 1 of each i, concatenated."""
    ends = np.cumsum(n)
    return np.arange(ends[-1] if n.size else 0) + np.repeat(lo - ends + n, n)


def _before(gain, rank, depth, key) -> np.ndarray:
    """Whether each key (-gain, rank, depth) is below `key` (gain, rank, depth)."""
    g, f, d = key[:3]
    return (gain > g) | (gain == g) & ((rank < f) | (rank == f) & (depth < d))


def _earlier(a, b) -> bool:
    """Whether key `a` (gain, rank, depth) comes before key `b` (None: none)."""
    return a is not None and (b is None or (-a[0], a[1], a[2]) < (-b[0], b[1], b[2]))


def _first(gain, rank, depth, at):
    """The smallest key (-gain, rank, depth) as (gain, rank, depth, at of
    it); None if there are no keys."""
    if not gain.size:
        return None
    i = int(gain.argmax())
    if np.count_nonzero(gain == gain[i]) > 1:
        i = int(np.lexsort((depth, rank, -gain))[0])
    return float(gain[i]), int(rank[i]), int(depth[i]), int(at[i])


def _key_order(gain, rank, depth) -> np.ndarray:
    """The order of the keys (-gain, rank, depth): positive gains' bits sort
    like them, and a stable sort merges sorted runs; ties use the whole key."""
    key = -gain.view(np.int64)
    order = key.argsort(kind="stable")
    k = key[order]
    if (k[1:] == k[:-1]).any():
        order = np.lexsort((depth, rank, key))
    return order


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

    The pending items are held as runs, the items of consecutive ranks at
    one class, whose keys rise with rank.  Between two events the items
    before a key are a prefix of every run, so the next event is found from
    the runs alone (`np.searchsorted` over the weights, settled on the
    rounded gains), and everything before it is committed run by run: only
    the committed steps are built item by item, merged into key order.  A
    run walks on to the next class of its chain once its first item comes
    before the next event.  An event is one of:

    - a helper's room-th item: the classes that chose it, or had no clear
      winner, choose again (at once if a run is pending at them, else when
      a rank reaches them), and the runs walked from theirs are cut back;
    - the first item at a chain end, whose next class is not made: it is
      made (only for an item sure to be committed), and the runs there walk
      on into it;
    - an item scored on its own (`_item_step`), as its helper depends on the
      rank: without a clear winner, or at a gain that is not a normal float,
      where rounding can tie helpers whose `s` differ;
    - a non-positive gain, which ends the greedy.
    """
    if specs.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError("specs/graph helper counts differ")
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    if graph.n_users == 0 or all(c == 0 for c in specs.capacities):
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    return _Runs(graph, pop, specs, file_bits).run()


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
    inv = np.full((graph.n_users, graph.n_helpers), np.inf)  # seconds per bit
    inv[graph.user, graph.helper] = 1.0 / graph.rate
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
        col = inv[:, h][:, None]
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

