import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from popularity_oracles import (
    guide_bounds,
    sample_two_tables,
    sorted_fit,
    trace_from_samples,
)
from scipy.stats import chisquare

from helpercache import rng as hrng
from helpercache.errors import InsufficientDataError, InvalidParameterError
from helpercache.popularity import (
    _GUIDE,
    _SAMPLE_BLOCK,
    MAX_CATALOG,
    catalog_size,
    fit_zipf,
    read_trace_csv,
    request_counts,
    sample_requests,
    zipf_model,
)

# 1 / sum_{j=1..1000} j^-0.6, computed once by math.fsum direct summation.
PMF1_GAMMA06_M1000 = 0.026540974248640197

GAMMA_GRID = [0.0, 0.3, 0.6, 1.0, 1.5, 2.0]
M_GRID = [1, 2, 10, 1_000, 100_000]


def test_uniform_when_gamma_zero():
    model = zipf_model(0.0, 4)
    np.testing.assert_allclose(model.pmf, [0.25, 0.25, 0.25, 0.25], rtol=0, atol=1e-15)


def test_gamma_one_two_files():
    model = zipf_model(1.0, 2)
    np.testing.assert_allclose(model.pmf, [2 / 3, 1 / 3], rtol=1e-15)


def test_top_rank_probability_regression():
    model = zipf_model(0.6, 1000)
    assert model.pmf[0] == pytest.approx(PMF1_GAMMA06_M1000, abs=1e-14)
    # re-derive the pinned constant from scratch
    z = math.fsum(j ** -0.6 for j in range(1, 1001))
    assert model.pmf[0] == pytest.approx(1.0 / z, rel=1e-13)


@pytest.mark.parametrize("gamma", GAMMA_GRID)
@pytest.mark.parametrize("m", M_GRID)
def test_pmf_normalized_and_monotone(gamma, m):
    model = zipf_model(gamma, m)
    assert abs(model.pmf.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(model.pmf) <= 0)
    # spot-check the closed form on a few ranks
    z = (np.arange(1, m + 1, dtype=float) ** -gamma).sum()
    for i in (1, m // 2 or 1, m):
        assert model.pmf[i - 1] == pytest.approx(i ** -gamma / z, rel=1e-12)


@given(gamma=st.floats(0.0, 3.0), m=st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_pmf_invariants_property(gamma, m):
    model = zipf_model(gamma, m)
    assert abs(model.pmf.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(model.pmf) <= 1e-18)


@pytest.mark.parametrize(
    "gamma,m", [(-0.1, 4), (math.nan, 4), (math.inf, 4), (1.0, 0)]
)
def test_bad_model_parameters(gamma, m):
    with pytest.raises(InvalidParameterError):
        zipf_model(gamma, m)


def test_catalog_cap_enforced():
    with pytest.raises(InvalidParameterError):
        zipf_model(0.8, MAX_CATALOG + 1)


def test_sampling_uniform_frequencies():
    model = zipf_model(0.0, 8)
    draws = sample_requests(model, hrng.stream(42, "uniform"), 1_000_000)
    counts = np.bincount(draws, minlength=9)[1:]
    p = 1 / 8
    sigma = math.sqrt(p * (1 - p) / 1_000_000)
    np.testing.assert_array_less(np.abs(counts / 1_000_000 - p), 4 * sigma)


def test_sampling_single_file():
    model = zipf_model(1.3, 1)
    assert np.all(sample_requests(model, hrng.stream(0, "one"), 100) == 1)


def test_sampling_matches_pmf_chi_square():
    model = zipf_model(2.0, 10)
    draws = sample_requests(model, hrng.stream(7, "chi2"), 1_000_000)
    observed = np.bincount(draws, minlength=11)[1:]
    result = chisquare(observed, f_exp=model.pmf * 1_000_000)
    assert result.pvalue > 0.01


def test_sampling_deterministic_per_seed():
    model = zipf_model(0.8, 50)
    a = sample_requests(model, hrng.stream(5, "dup"), 1000)
    b = sample_requests(model, hrng.stream(5, "dup"), 1000)
    np.testing.assert_array_equal(a, b)


def _search_ranks(model, u):
    """The inverse-CDF rank by binary search, which the sampler must equal."""
    return np.searchsorted(model.cdf, u, side="right").astype(np.int64) + 1


class _FixedUniforms:
    """Stands in for a Generator and hands out given uniforms in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.used = 0

    def random(self, size=None, out=None):
        size = out.size if size is None else size
        given = self.u[self.used : self.used + size]
        assert given.size == size
        self.used += size
        if out is None:
            return given.copy()
        out[...] = given
        return out


# gamma=0 with m a power of two puts every cdf breakpoint on a bucket edge;
# zipf(3, 1e5) has cdf entries above 1.0 before its last rank, which is 1.0.
GUIDE_MODELS = [(0.0, 1024), (0.0, 1), (0.7, 1), (3.0, 50), (0.6, 1000), (3.0, 100_000)]


# At 10^6 files a bucket holds up to about 100 ranks, so the split draws
# take the bisection's passes, not one comparison.
@pytest.mark.parametrize("gamma,m", GUIDE_MODELS + [(0.8, 10**6)])
def test_sampler_equals_binary_search_on_edge_uniforms(gamma, m):
    model = zipf_model(gamma, m)
    points = np.concatenate([np.arange(_GUIDE) / _GUIDE, model.cdf[model.cdf < 1.0]])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert u.size > _SAMPLE_BLOCK
    source = _FixedUniforms(u)
    ranks = sample_requests(model, source, u.size)
    assert source.used == u.size
    assert ranks.dtype == np.min_scalar_type(m)
    assert np.array_equal(ranks, _search_ranks(model, u))


@pytest.mark.parametrize("gamma,m", GUIDE_MODELS)
def test_guide_bounds_are_the_counts_at_bucket_ends(gamma, m):
    # A bucket holds one rank iff the count at its lower end equals the
    # count just below its upper end; the table stores that rank, 0 if not.
    model = zipf_model(gamma, m)
    guide = model._guide
    edges = np.arange(_GUIDE + 1) / _GUIDE
    lo = np.searchsorted(model.cdf, edges[:-1], side="right")
    hi = np.searchsorted(model.cdf, edges[1:], side="left")
    one = guide != 0
    assert np.array_equal(one, lo == hi)
    assert np.array_equal(guide[one], lo[one] + 1)
    assert np.array_equal(guide[one], hi[one] + 1)
    assert guide.dtype == np.min_scalar_type(m)


@pytest.mark.parametrize(
    "gamma,m",
    GUIDE_MODELS
    + [(gamma, m) for m in (255, 256, 65535, 65536) for gamma in (0.0, 1.0)]
    + [(0.8, 10**6)],
)
def test_guide_tables_equal_the_bincount_oracle(gamma, m):
    # The rank table and the bounds, built from runs of bucket edges, are
    # the tables of the two cumulative bincounts, dtype included.
    model = zipf_model(gamma, m)
    lo, hi = guide_bounds(model)
    assert model._bounds.dtype == model._guide.dtype == lo.dtype
    assert np.array_equal(model._bounds, np.append(lo, np.array(m, dtype=lo.dtype)))
    assert np.array_equal(model._guide, np.where(lo == hi, lo + 1, 0).astype(lo.dtype))


def test_steep_catalog_passes_one_before_its_last_rank():
    cdf = zipf_model(3.0, 100_000).cdf
    assert cdf[-1] == 1.0
    assert (cdf[:-1] > 1.0).any()


def test_guide_bounds_agree_when_breakpoints_are_bucket_edges():
    guide = zipf_model(0.0, 1024)._guide
    assert np.array_equal(guide, np.arange(_GUIDE) // 64 + 1)


# 2^16 draws are a whole number of blocks for every power-of-two block size
# up to 2^16, so sizes next to its multiples are block edges as well.
_WIDE = 1 << 16


@pytest.mark.parametrize("gamma,m", GUIDE_MODELS)
@pytest.mark.parametrize(
    "size", [0, 1, _SAMPLE_BLOCK + 1, 3 * _SAMPLE_BLOCK, _WIDE + 1, 3 * _WIDE]
)
def test_one_table_sampler_equals_the_two_table_sampler(gamma, m, size):
    model = zipf_model(gamma, m)
    rng, twin = hrng.stream(8, "tables", size), hrng.stream(8, "tables", size)
    ranks = sample_requests(model, rng, size)
    want = sample_two_tables(model, twin, size)
    assert ranks.dtype == np.min_scalar_type(m)
    assert np.array_equal(ranks, want)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("gamma,m", [(0.0, 1024), (1.5, 1), (0.6, 1000), (3.0, 100_000)])
@pytest.mark.parametrize(
    "size",
    [0, 1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 2 * _SAMPLE_BLOCK + 5]
    + [_WIDE - 1, _WIDE, _WIDE + 1, 2 * _WIDE + 5],
)
def test_sampler_reads_one_uniform_per_rank(gamma, m, size):
    model = zipf_model(gamma, m)
    rng, twin = hrng.stream(4, "guide", size), hrng.stream(4, "guide", size)
    ranks = sample_requests(model, rng, size)
    assert np.array_equal(ranks, _search_ranks(model, twin.random(size)))
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("m", [255, 256, 65535, 65536])
def test_sampler_ranks_at_the_dtype_edges(gamma, m):
    # The ranks come in the guide's dtype, the narrowest unsigned one that
    # holds m: at 255 and 65535 files the last rank is its largest value,
    # at 256 and 65536 the dtype is one size wider.
    model = zipf_model(gamma, m)
    size = 2 * _WIDE + 5
    rng, twin = hrng.stream(6, "edges", m), hrng.stream(6, "edges", m)
    ranks = sample_requests(model, rng, size)
    assert ranks.dtype == np.min_scalar_type(m)
    assert np.array_equal(ranks, _search_ranks(model, twin.random(size)))
    assert rng.bit_generator.state == twin.bit_generator.state
    ends = sample_requests(model, _FixedUniforms([0.0, np.nextafter(1.0, 0.0)]), 2)
    assert ends.dtype == np.min_scalar_type(m)
    assert ends.tolist() == [1, m]


@pytest.mark.parametrize("gamma,m", GUIDE_MODELS)
@pytest.mark.parametrize(
    "size", [0, 1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 2 * _SAMPLE_BLOCK + 5]
)
def test_request_counts_are_the_bincount_of_the_samples(gamma, m, size):
    model = zipf_model(gamma, m)
    rng, twin = hrng.stream(5, "counts", size), hrng.stream(5, "counts", size)
    counts = request_counts(model, rng, size)
    want = np.bincount(sample_requests(model, twin, size), minlength=m + 1)
    assert counts.dtype == want.dtype
    assert np.array_equal(counts, want)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_request_counts_refuse_a_negative_size():
    with pytest.raises(InvalidParameterError):
        request_counts(zipf_model(0.8, 10), hrng.stream(0, "counts"), -1)


def test_catalog_size_values():
    assert catalog_size(1) == 1
    assert catalog_size(20) == 3
    assert catalog_size(1000, scale=100.0) == 691
    with pytest.raises(InvalidParameterError):
        catalog_size(0)


def test_fit_recovers_exact_power_law():
    counts = [round(1e12 * i ** -0.8) for i in range(1, 101)]
    gamma_hat, m_hat = fit_zipf(counts)
    assert gamma_hat == pytest.approx(0.8, abs=1e-6)
    assert m_hat == 100


def test_fit_flat_counts():
    gamma_hat, m_hat = fit_zipf([7] * 20)
    assert abs(gamma_hat) <= 1e-9
    assert m_hat == 20


def test_fit_of_two_equal_counts_is_positive_zero():
    # The slope is exactly 0, and its negation would print as -0.0.
    gamma_hat, m_hat = fit_zipf([1, 1])
    assert (gamma_hat, m_hat) == (0.0, 2)
    assert math.copysign(1.0, gamma_hat) == 1.0


def test_fit_from_samples():
    model = zipf_model(1.2, 500)
    draws = sample_requests(model, hrng.stream(11, "fitme"), 1_000_000)
    gamma_hat, m_hat = fit_zipf(np.bincount(draws))
    assert gamma_hat == pytest.approx(1.2, abs=0.1)
    assert m_hat <= 500


def test_fit_needs_two_files():
    with pytest.raises(InsufficientDataError):
        fit_zipf([9])


def test_heavy_tail_limit_behavior():
    # gamma > 1: top-rank mass stabilizes as the catalog grows; gamma < 1: it
    # keeps draining into the tail.
    assert abs(zipf_model(1.5, 10**3).pmf[0] - zipf_model(1.5, 10**6).pmf[0]) < 0.01
    assert zipf_model(0.6, 10**6).pmf[0] < zipf_model(0.6, 10**3).pmf[0] / 2


def test_trace_roundtrip_through_csv(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("file_id,count\n3,5\n1,9\n\n7,0\n2,5\n")
    counts = read_trace_csv(path)
    # File order, blank lines skipped, a zero count kept.
    assert counts.dtype == np.float64
    assert counts.tolist() == [5.0, 9.0, 0.0, 5.0]
    assert fit_zipf(counts) == sorted_fit([(3, 5), (1, 9), (7, 0), (2, 5)])


def test_trace_from_samples_totals():
    draws = np.array([1, 1, 2, 5, 5, 5])
    assert trace_from_samples(draws) == [(1, 2), (2, 1), (5, 3)]


def test_array_fit_equals_the_sorted_fit_on_tied_traces():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        files = int(rng.integers(2, 400))
        ids = rng.choice(10_000, size=files, replace=False) + 1
        # Few count levels, so that most counts tie with others.
        counts = rng.choice([1, 2, 3, 5, 8, 40], size=files)
        want = sorted_fit(zip(ids.tolist(), counts.tolist()))
        assert fit_zipf(counts) == want
        assert fit_zipf(counts.astype(float)) == want


def test_sample_count_fit_equals_the_trace_fit():
    # The macro experiment and `fit` fit a bincount of their samples; the
    # result must not differ from fitting the aggregated trace.
    for seed in range(30):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 300))
        model = zipf_model(float(rng.uniform(0.0, 1.5)), m)
        draws = sample_requests(model, hrng.stream(seed, "fit"), int(rng.integers(2, 5000)))
        if np.unique(draws).size < 2:
            continue
        want = sorted_fit(trace_from_samples(draws))
        assert fit_zipf(np.bincount(draws)) == want


def test_sample_count_fit_needs_two_distinct_ranks():
    for draws in (np.array([3, 3, 3]), np.array([], dtype=np.int64)):
        with pytest.raises(InsufficientDataError, match="^need at least two distinct files to fit$"):
            fit_zipf(np.bincount(draws))
