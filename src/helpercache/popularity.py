"""Zipf request popularity: model construction, sampling, and trace fitting.

A trace is a plain array of request counts per file: `request_counts` counts
sampled ranks, `read_trace_csv` reads a `file_id,count` file, and
`fit_zipf` fits a Zipf exponent to either.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError

# Hard ceiling on catalog size so a typo cannot allocate tens of GB.
MAX_CATALOG = 10_000_000
# Longest synthetic trace.  A fitting trace is counted a block at a time and
# its ranks are never held, so the cap bounds time: at the cap `fit` took
# 1.1 s and peaked at 39 MB whole process (2-core Xeon, 4000 files).
MAX_SAMPLES = 10**8
# Guide-table buckets of the sampler; a power of two, so u * _GUIDE is exact.
_GUIDE = 1 << 16
# Uniforms drawn and mapped per block.  A block's working set (its uniforms,
# buckets and ranks, the rank table and, for split buckets, the bounds) is
# about 0.5 MB at 2^14 and about 2 MB at 2^16, which spills a 2 MB L2 cache.
# A D2D block draws at most 2^14 users' requests (for n <= 2^14), so each of
# its draws is one block.
_SAMPLE_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class PopularityModel:
    """Popularity of a catalog of `m` files, most popular first.

    pmf[i] is the probability that a request asks for the file of rank i+1.
    Instances built by `zipf_model` satisfy pmf[i] proportional to (i+1)**-gamma.
    """

    gamma: float
    m: int
    pmf: np.ndarray
    cdf: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.m < 1:
            raise InvalidParameterError("catalog size m must be >= 1")
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.shape != (self.m,):
            raise InvalidParameterError("pmf length must equal m")
        if not np.all(pmf > 0):
            raise InvalidParameterError("pmf entries must be positive")
        if abs(float(pmf.sum()) - 1.0) > 1e-12:
            raise InvalidParameterError("pmf must sum to 1 within 1e-12")
        if np.any(np.diff(pmf) > 0):
            raise InvalidParameterError("pmf must be non-increasing in rank")
        object.__setattr__(self, "pmf", pmf)
        cdf = np.cumsum(pmf)
        cdf[-1] = 1.0  # guard against accumulated rounding at the tail
        object.__setattr__(self, "cdf", cdf)

    @functools.cached_property
    def _bounds(self) -> np.ndarray:
        """The count of cdf <= b / _GUIDE for b = 0.._GUIDE, that is of
        ceil(cdf * _GUIDE) <= b (the scaling is exact); built on first use.

        The uniforms of bucket b, b / _GUIDE <= u < (b + 1) / _GUIDE, have
        ranks from _bounds[b] + 1 to _bounds[b + 1] + 1.
        """
        return _counts_at_or_below(np.ceil(self.cdf * _GUIDE), self.m)

    @functools.cached_property
    def _guide(self) -> np.ndarray:
        """Rank of every u in each bucket b / _GUIDE <= u < (b + 1) / _GUIDE,
        or 0 where the bucket holds more than one rank; built on first use.

        The rank of u is searchsorted(cdf, u, "right") + 1.  At the bucket's
        lower end that count is `_bounds[b]`, and just below its upper end
        it is the number of cdf < (b + 1) / _GUIDE, that is of
        floor(cdf * _GUIDE) <= b.  Where the two counts agree the bucket has
        one rank.
        """
        lo = self._bounds[:_GUIDE]
        hi = _counts_at_or_below(np.floor(self.cdf * _GUIDE), self.m)[:_GUIDE]
        rank = lo + 1  # at most m, as cdf[-1] == 1.0 exceeds every b / _GUIDE
        rank[lo != hi] = 0
        return rank

    @functools.cached_property
    def _first_step(self) -> int:
        """The highest power of two <= the most cdf entries in one bucket's
        range b / _GUIDE < cdf <= (b + 1) / _GUIDE: the first step of the
        split buckets' bisection (`_search_split`)."""
        widest = int(np.diff(self._bounds).max())  # >= 1, as _bounds[-1] == m
        return 1 << (widest.bit_length() - 1)


def _counts_at_or_below(edges: np.ndarray, m: int) -> np.ndarray:
    """For b = 0.._GUIDE, how many of the m bucket `edges` (floats holding
    integers, non-decreasing up to the entries past _GUIDE) are <= b, in
    the narrowest unsigned dtype that holds m.

    The count is k on the run of buckets from the k-th smallest edge up to
    the next one, so it is the ranks 0..m repeated by their run lengths.  A
    cdf can pass 1.0 before its last rank, which is 1.0; clipping the edges
    at _GUIDE makes them non-decreasing and changes no count up to _GUIDE.
    """
    np.minimum(edges, _GUIDE, out=edges)
    runs = np.diff(edges.astype(np.intp), prepend=0, append=_GUIDE + 1)
    return np.repeat(np.arange(m + 1, dtype=np.min_scalar_type(m)), runs)


def zipf_model(gamma: float, m: int) -> PopularityModel:
    """Build a Zipf(gamma) popularity model over ranks 1..m.

    gamma=0 gives the uniform distribution.  m is capped at MAX_CATALOG.
    """
    if not math.isfinite(gamma) or gamma < 0:
        raise InvalidParameterError("gamma must be finite and >= 0")
    if m < 1:
        raise InvalidParameterError("catalog size m must be >= 1")
    if m > MAX_CATALOG:
        raise InvalidParameterError(
            f"catalog size {m} exceeds the cap of {MAX_CATALOG}"
        )
    ranks = np.arange(1, m + 1, dtype=float)
    weights = np.power(ranks, -gamma)
    pmf = weights / weights.sum()
    if pmf[-1] == 0.0:  # the smallest entry
        raise InvalidParameterError(
            f"a Zipf exponent of {gamma:g} over a catalog of {m} files gives rank "
            f"{m} a probability of 0 in floating point; lower the exponent or the catalog"
        )
    return PopularityModel(gamma=float(gamma), m=int(m), pmf=pmf)


def check_samples(name: str, samples: int) -> None:
    """Refuse a synthetic trace longer than MAX_SAMPLES, naming its field."""
    if samples > MAX_SAMPLES:
        raise InvalidParameterError(
            f"{name}={samples} exceeds the cap of {MAX_SAMPLES}"
        )


def _block_ranks(
    model: PopularityModel,
    rng: np.random.Generator,
    ranks: np.ndarray,
    u: np.ndarray,
    bucket: np.ndarray,
) -> None:
    """Draw len(ranks) uniforms from `rng` and write their request ranks
    (1-based) into `ranks`, in the guide's dtype, with `u` (float) and
    `bucket` (intp), at least as long, as scratch.

    The rank of a uniform u is searchsorted(cdf, u, "right") + 1, read from
    an exact guide table: the count is monotone in u, so a bucket whose ends
    give the same count holds one rank, which the table stores.  The table
    stores 0 for the other buckets, and only the draws in them are searched,
    between their bucket's bounds (`_search_split`).
    """
    u, bucket = u[: ranks.size], bucket[: ranks.size]
    rng.random(out=u)
    np.multiply(u, _GUIDE, out=bucket, casting="unsafe")  # truncated: u >= 0
    model._guide.take(bucket, out=ranks, mode="clip")  # 'clip' is not buffered
    split = np.flatnonzero(ranks == 0)
    if split.size:
        ranks[split] = _search_split(model, u[split], bucket[split])


def _search_split(
    model: PopularityModel, u: np.ndarray, bucket: np.ndarray
) -> np.ndarray:
    """searchsorted(cdf, u, "right") + 1 for uniforms u in `bucket`s that
    hold several ranks.

    Every cdf entry before `_bounds[b]` is <= u, and every one past the
    bucket's range b / _GUIDE < cdf <= (b + 1) / _GUIDE is > u (the entries
    that pass 1.0 and the last, 1.0, too).  So the count is `_bounds[b]`
    plus at most the entries of the widest range, and a bisection adds the
    bits of that excess from `_first_step` down, one numpy pass per bit: a
    bit is set where the entry it would step past is <= u.  Where no range
    holds two entries, that is one comparison per draw.
    """
    cdf, step = model.cdf, model._first_step
    count = model._bounds[bucket].astype(np.intp)
    while step > 1:
        probe = count + (step - 1)  # read at m - 1 past the end: cdf[-1] == 1.0 > u
        count += (cdf.take(probe, mode="clip") <= u) * step
        step >>= 1
    count += cdf[count] <= u  # count < m, as cdf[-1] == 1.0 > u
    count += 1
    return count


def sample_block(size: int) -> int:
    """Ranks drawn and mapped per block by a draw of `size` ranks: the
    length of the scratch arrays that `sample_requests` takes as `work`."""
    return max(1, min(_SAMPLE_BLOCK, size))


def _buffers(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniforms (float64) and buckets (intp) of one block of a draw of
    `size` ranks."""
    block = sample_block(size)
    return np.empty(block), np.empty(block, dtype=np.intp)


def sample_requests(
    model: PopularityModel,
    rng: np.random.Generator,
    size: int,
    out: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Draw `size` i.i.d. request ranks (1-based) by inverse-CDF lookup,
    into `out` when it is given (`size` entries of the guide's dtype).

    `work` is the blocks' scratch: a pair of float64 and intp arrays of one
    length, which sets the block size.  Without it a block's arrays are
    allocated, `sample_block(size)` entries; a caller that draws many
    times can pass the same arrays to every call instead.

    The uniforms are drawn and mapped in blocks, which consume the stream
    exactly as one rng.random(size) does.  The ranks are
    in the guide's dtype, the narrowest unsigned one that holds m: 1 byte
    each up to 255 files, 2 up to 65535 and 4 past that, so at most 0.4 GB
    at MAX_SAMPLES.  A caller that needs only how often each rank is drawn
    calls `request_counts`, which holds one block: `fit` at MAX_SAMPLES
    peaks at 39 MB whole process.
    """
    if size < 0:
        raise InvalidParameterError("size must be >= 0")
    dtype = np.min_scalar_type(model.m)
    if out is None:
        out = np.empty(size, dtype=dtype)
    elif out.shape != (size,) or out.dtype != dtype:
        raise InvalidParameterError(f"out must hold {size} ranks of dtype {dtype}")
    u, bucket = _buffers(size) if work is None else work
    for start in range(0, size, u.size):
        _block_ranks(model, rng, out[start : start + u.size], u, bucket)
    return out


def request_counts(
    model: PopularityModel, rng: np.random.Generator, size: int
) -> np.ndarray:
    """How often each rank is drawn in `size` requests: the array
    np.bincount(sample_requests(model, rng, size), minlength=model.m + 1),
    from the same uniforms in the same order.

    Each block of ranks is counted in place and dropped, so memory holds one
    block and the m + 1 counts, whatever `size` is, and a block costs its
    own length, not a pass over all m counts as a bincount would.
    """
    if size < 0:
        raise InvalidParameterError("size must be >= 0")
    counts = np.zeros(model.m + 1, dtype=np.intp)
    u, bucket = _buffers(size)
    ranks = np.empty(u.size, dtype=np.min_scalar_type(model.m))
    for start in range(0, size, _SAMPLE_BLOCK):
        block = ranks[: min(_SAMPLE_BLOCK, size - start)]
        _block_ranks(model, rng, block, u, bucket)
        np.add.at(counts, block, 1)
    return counts


def catalog_size(n_users: int, scale: float = 1.0) -> int:
    """Catalog size that grows logarithmically with the user population.

    Returns max(1, round(scale * ln(n_users))); a product past the float
    range is refused.
    """
    if n_users < 1:
        raise InvalidParameterError("n_users must be >= 1")
    if not math.isfinite(scale) or scale <= 0:
        raise InvalidParameterError("scale must be finite and > 0")
    size = scale * math.log(n_users)
    if not math.isfinite(size):
        raise InvalidParameterError(
            f"scale={scale!r} times ln(n={n_users}) is past the float range"
        )
    return max(1, round(size))


def read_trace_csv(path) -> np.ndarray:
    """Request counts of a `file_id,count` UTF-8 CSV (header required), one
    float per row in file order.

    A file that cannot be read is refused.  Blank lines are skipped.  A row
    whose two fields are not integers, whose count is negative or past the
    float range, or whose file id repeats an earlier row's is refused, naming
    its line.  A count of 0 is kept; `fit_zipf` leaves it out.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None) or []
            if [h.strip() for h in header[:2]] != ["file_id", "count"]:
                raise InvalidParameterError(
                    "trace CSV must start with header file_id,count"
                )
            counts = []
            first_line = {}
            for row in reader:
                if not row:
                    continue
                where = f"trace CSV line {reader.line_num}"
                try:
                    file_id, count = int(row[0]), int(row[1])
                except (ValueError, IndexError):
                    raise InvalidParameterError(
                        f"{where}: expected integers file_id,count, got "
                        f"{','.join(row)!r}"
                    ) from None
                if count < 0:
                    raise InvalidParameterError(
                        f"{where}: count {count} of file id {file_id} is negative"
                    )
                if file_id in first_line:
                    raise InvalidParameterError(
                        f"{where}: duplicate file id {file_id}, first on line "
                        f"{first_line[file_id]}"
                    )
                try:
                    counts.append(float(count))
                except OverflowError:
                    raise InvalidParameterError(
                        f"{where}: count of file id {file_id} is past the float range"
                    ) from None
                first_line[file_id] = reader.line_num
    except OSError as exc:
        raise InvalidParameterError(f"cannot read trace CSV {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(
            f"trace CSV {path} is not UTF-8 text: {exc}"
        ) from None
    return np.array(counts, dtype=float)


def fit_zipf(counts) -> tuple[float, int]:
    """Fit (gamma_hat, m_hat) from request counts per file.

    Files without a request (count < 1) are left out, so `np.bincount` of
    sampled ranks or the counts of `read_trace_csv` can be passed as they are.
    Files are ranked by descending count and gamma_hat is minus the slope of
    the ordinary least-squares line of log(count) against log(rank); the
    order among equal counts does not change the fit.  m_hat is the number of
    files with a request.
    """
    counts = np.asarray(counts)
    counts = counts[counts >= 1]
    if counts.size < 2:
        raise InsufficientDataError("need at least two distinct files to fit")
    ordered = np.sort(counts)[::-1].astype(float)
    ranks = np.arange(1, counts.size + 1, dtype=float)
    slope, _ = np.polyfit(np.log(ranks), np.log(ordered), 1)
    # 0.0 - slope, not -slope, which is -0.0 for a flat trace.
    return 0.0 - float(slope), int(counts.size)
