import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from d2dcache import DomainError, MZipfDist, partial_sum, partial_sum_bounds, popularity
from d2dcache.policy import waterfill
from d2dcache.popularity import _guide_table, _head_terms, _invert, _power_integral

from oracles import (
    bisect_ranks,
    full_placement,
    hurwitz_partial_sum,
    mpmath_normalizer,
    naive_partial_sum,
    oneshot_guide,
    placement_cdf,
    streamed_partial_sum,
)


def test_pmf_hand_example():
    # (1+1)^-1 / ((1+1)^-1 + (2+1)^-1 + (3+1)^-1) = (1/2) / (13/12) = 6/13
    d = MZipfDist(gamma=1.0, q=1.0, m=3)
    assert math.isclose(d.pmf(1), 6.0 / 13.0, rel_tol=1e-14)


def test_partial_sum_harmonic():
    assert math.isclose(partial_sum(1.0, 0.0, 1, 3), 11.0 / 6.0, rel_tol=1e-14)


def test_partial_sum_matches_naive_oracle():
    got = partial_sum(0.5, 20.0, 1, 1000)
    want = naive_partial_sum(0.5, 20.0, 1, 1000)
    assert math.isclose(got, want, rel_tol=1e-10)


def head_len(gamma, q, a=1):
    """K: the number of terms partial_sum sums exactly from ``a``."""
    return int(_head_terms(np.array([gamma]), np.array([q]), a, 10**18)[0])


NEAR_ONE = [1.0 + d for e in (1e-3, 1e-6, 1e-9, 1e-12) for d in (-e, e)]


@pytest.mark.parametrize("gamma", [0.05, 0.5, *NEAR_ONE, 1.0, 1.28, 2.0, 5.0])
def test_partial_sum_matches_hurwitz_oracle(gamma):
    # q = 10 starts the tail just past the head bound, where truncation shows
    qs_by_range: dict = {}
    for q in (0.0, 0.5, 10.0, 34.0, 1e3):
        k = head_len(gamma, q)
        for m in sorted({1, max(k, 1), k + 1, k + 2, 19379, 10**5, 10**7}):
            want = hurwitz_partial_sum(gamma, q, 1, m)
            assert math.isclose(partial_sum(gamma, q, 1, m), want, rel_tol=1e-14), (q, m)
            qs_by_range.setdefault((1, m), []).append((q, want))
        for a, b in ((2, 3), (7, 19379), (1000, 10**5), (12345, 10**7)):
            want = hurwitz_partial_sum(gamma, q, a, b)
            assert math.isclose(partial_sum(gamma, q, a, b), want, rel_tol=1e-14), (q, a, b)
            qs_by_range.setdefault((a, b), []).append((q, want))
    # the same cases again, all q of one range in one array call
    for (a, b), cases in qs_by_range.items():
        got = partial_sum(gamma, np.array([q for q, _ in cases]), a, b)
        for (q, want), value in zip(cases, got.tolist()):
            assert math.isclose(value, want, rel_tol=1e-14), (q, a, b)


@pytest.mark.parametrize("gamma", [-1.5, 0.0, 10.0, 20.0, 50.0])
def test_partial_sum_far_exponents_match_direct_sum(gamma):
    # mpmath's Hurwitz zeta itself drifts by up to ~1e-12 at gamma >= 20, so
    # these are checked against the term-by-term sum
    for q in (0.0, 34.0, 1e3):
        for m in sorted({head_len(gamma, q) + 1, 2 * 10**4}):
            want = mpmath_normalizer(gamma, q, m)
            assert math.isclose(partial_sum(gamma, q, 1, m), want, rel_tol=1e-14), (q, m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gammas=st.lists(st.floats(0.0, 5.0, exclude_min=True), min_size=1, max_size=5),
       qs=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=5),
       b=st.integers(1, 10**7), data=st.data())
def test_partial_sum_broadcasts_bit_for_bit(gammas, qs, b, data):
    a = data.draw(st.integers(1, min(b, 100)) | st.integers(1, b))
    one = [[partial_sum(g, q, a, b) for q in qs] for g in gammas]
    assert all(type(v) is float for row in one for v in row)
    grid = partial_sum(np.array(gammas)[:, None], np.array(qs)[None, :], a, b)
    assert grid.shape == (len(gammas), len(qs))
    assert grid.tobytes() == np.array(one).tobytes()
    n = min(len(gammas), len(qs))
    flat = partial_sum(np.array(gammas[:n]), np.array(qs[:n]), a, b)
    assert flat.shape == (n,)
    assert flat.tobytes() == np.array([one[i][i] for i in range(n)]).tobytes()


def test_partial_sum_head_only_is_bit_identical_to_streamed_sum():
    for gamma in (0.05, 0.5, 1.0, 1.28, 5.0, 50.0, -1.5):
        for q in (0.0, 0.5, 3.7):
            for a in (1, 4):
                for b in range(a, a + head_len(gamma, q, a)):
                    assert partial_sum(gamma, q, a, b) == streamed_partial_sum(gamma, q, a, b)


@pytest.mark.parametrize("gamma, q, m", [
    (0.78, 3.5, 1), (0.78, 3.5, 1000), (0.78, 3.5, (1 << 22) + 3),
    # the benchmark's laws: sweep-grid, fit-log, fit-wide and wide-library
    (0.6, 20.0, 1000), (1.28, 34.0, 19_379), (1.28, 34.0, 10**5), (0.6, 20.0, 10**6),
])
def test_normalizer_within_one_ulp_and_probs_bit_identical(gamma, q, m):
    # 1 ulp, not 0: numpy versions may round pow differently in the last bit
    d = MZipfDist(gamma=gamma, q=q, m=m)
    want = mpmath_normalizer(gamma, q, m)
    assert abs(d.normalizer - want) <= math.ulp(want), (d.normalizer, want)
    dense = (np.arange(1, m + 1, dtype=np.float64) + q) ** (-gamma) / d.normalizer
    for k in sorted({0, 1, 1023, 1024, 1025, m} & set(range(m + 1))):
        assert d.head(k).tobytes() == dense[:k].tobytes(), k
    assert "probs" not in vars(d)  # prefixes never build the full pmf
    assert d.probs.tobytes() == dense.tobytes()
    assert not d.probs.flags.writeable


def test_normalizer_is_the_fit_grid_element():
    # a fit scores (gamma, q) with one element of a broadcast partial_sum call;
    # the law it reports is normalized by that same number
    gammas, qs = np.linspace(0.05, 5.0, 7), np.array([0.0, 0.5, 34.0, 19_379.0])
    grid = partial_sum(gammas[:, None], qs[None, :], 1, 19_379)
    for (i, g), (j, q) in itertools.product(enumerate(gammas.tolist()), enumerate(qs.tolist())):
        assert MZipfDist(g, q, 19_379).normalizer == grid[i, j], (g, q)


@pytest.mark.parametrize("gamma", [1e3, 1e6, 1e20, 1e300])
def test_huge_gamma_law_builds_in_flat_memory(gamma):
    # every rank past 1 underflows: the head stops at the underflow rank, no
    # tail is summed, and (gamma)_16 overflowing past ~1.8e19 warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            d = MZipfDist(gamma, 0.0, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert d.normalizer == 1.0
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("gamma", [150.0, 1e3, 1e6, 1e20])  # mpmath takes ~1 min at 1e300
def test_partial_sum_past_the_underflow_rank_matches_direct_sum(gamma):
    # past rank 500 every term is below 2**-53 of the sum, or 0.0 with it
    for q in (0.0, 0.5, 34.0, 1e3):
        for a in (1, 4):
            got = partial_sum(gamma, q, a, 500)
            want = mpmath_normalizer(gamma, q + a - 1, 501 - a)  # ranks a..500, shifted to 1..
            assert math.isclose(got, want, rel_tol=1e-14), (q, a)
            assert partial_sum(gamma, q, a, 10**7) == got, (q, a)


@pytest.mark.parametrize("k", [-1, 11])
def test_head_rejects_prefix_outside_library(k):
    with pytest.raises(DomainError, match="prefix length"):
        MZipfDist(1.0, 0.0, 10).head(k)


def test_head_length_is_least_meeting_remainder_bound():
    import mpmath

    def factor(gamma, x):  # |B_16|/16! * |(gamma)_16| * x**-16, from the docstring
        with mpmath.workdps(30):
            return abs(mpmath.bernoulli(16) * mpmath.rf(gamma, 16)) / mpmath.factorial(16) / x**16

    for gamma in (-1.5, 0.05, 0.5, 1.0, 1.28, 5.0, 20.0, 50.0):
        for q in (0.0, 0.5, 3.7, 34.0):
            for a in (1, 4, 100):
                k = head_len(gamma, q, a)
                assert factor(gamma, a + k + q) <= 2.0**-53, (gamma, q, a)
                if k:
                    assert factor(gamma, a + k - 1 + q) > 2.0**-53, (gamma, q, a)


def test_normalizer_matches_high_precision():
    d = MZipfDist(gamma=0.78, q=3.5, m=10_000)
    want = mpmath_normalizer(0.78, 3.5, 10_000)
    assert math.isclose(d.normalizer, want, rel_tol=1e-12)


def test_large_m_normalization():
    d = MZipfDist(gamma=0.9, q=12.0, m=1_000_000)
    assert math.isclose(float(np.sum(d.probs)), 1.0, abs_tol=1e-9)
    # chunked pairwise accumulation should agree with exact fsum
    j = np.arange(1, 1_000_001, dtype=np.float64)
    want = math.fsum((j + 12.0) ** (-0.9))
    assert math.isclose(d.normalizer, want, rel_tol=1e-12)


def test_pmf_positive_non_increasing_normalized():
    rng = np.random.default_rng(11)
    for _ in range(20):
        gamma = rng.uniform(0.05, 3.0)
        q = rng.uniform(0.0, 100.0)
        m = int(rng.integers(1, 5000))
        d = MZipfDist(gamma=gamma, q=q, m=m)
        assert np.all(d.probs > 0)
        assert np.all(np.diff(d.probs) <= 0)
        assert abs(float(np.sum(d.probs)) - 1.0) < 1e-9


def test_plateau_flattens_head():
    # pmf(1)/pmf(2) = ((2+q)/(1+q))^gamma strictly decreases with q
    rng = np.random.default_rng(3)
    for _ in range(50):
        gamma = rng.uniform(0.1, 2.5)
        m = int(rng.integers(2, 200))
        q_lo, q_hi = np.sort(rng.uniform(0.0, 300.0, size=2))
        if q_hi - q_lo < 1e-6:
            continue
        r_lo = MZipfDist(gamma, q_lo, m)
        r_hi = MZipfDist(gamma, q_hi, m)
        assert r_hi.pmf(1) / r_hi.pmf(2) < r_lo.pmf(1) / r_lo.pmf(2)


def test_zipf_degenerate_case():
    d = MZipfDist(gamma=1.3, q=0.0, m=100)
    j = np.arange(1, 101, dtype=np.float64)
    w = j ** (-1.3)
    np.testing.assert_allclose(d.probs, w / w.sum(), rtol=1e-13)


def test_bounds_hand_example():
    b = partial_sum_bounds(0.5, 0.0, 1, 100)
    assert math.isclose(b.lower, 2.0 * (math.sqrt(101.0) - 1.0), rel_tol=1e-14)
    assert math.isclose(b.upper, 19.0, rel_tol=1e-14)
    assert b.lower <= b.exact <= b.upper


def test_bounds_sandwich_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        gamma = rng.uniform(0.01, 3.0)
        if abs(gamma - 1.0) < 1e-3:
            continue
        q = rng.uniform(0.0, 100.0)
        a = int(rng.integers(1, 10_000))
        b = int(rng.integers(a, 10_001))
        res = partial_sum_bounds(gamma, q, a, b)
        assert res.lower <= res.exact <= res.upper, (gamma, q, a, b)


def test_bounds_sandwich_at_gamma_one():
    for q in (0.0, 0.5, 34.0):
        for a, b in ((1, 1), (1, 10), (3, 4), (5, 10**5), (1000, 10**7)):
            res = partial_sum_bounds(1.0, q, a, b)
            want = hurwitz_partial_sum(1.0, q, a, b)
            assert res.lower <= want <= res.upper, (q, a, b)
            assert res.lower <= res.exact <= res.upper, (q, a, b)
            assert math.isclose(res.lower, math.log((b + q + 1) / (a + q)), rel_tol=1e-14)


def test_validation_errors():
    with pytest.raises(DomainError):
        MZipfDist(gamma=0.0, q=0.0, m=10)
    with pytest.raises(DomainError):
        MZipfDist(gamma=1.0, q=-0.5, m=10)
    with pytest.raises(DomainError):
        MZipfDist(gamma=1.0, q=0.0, m=0)
    with pytest.raises(DomainError):
        partial_sum(1.0, 0.0, 3, 2)
    d = MZipfDist(gamma=1.0, q=0.0, m=10)
    with pytest.raises(DomainError):
        d.pmf(0)
    with pytest.raises(DomainError):
        d.pmf(11)


def test_rejects_non_finite_parameters():
    for gamma, q in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            MZipfDist(gamma=gamma, q=q, m=10)


def test_rejects_a_library_past_int64():
    with pytest.raises(DomainError, match=r"2\*\*63"):
        MZipfDist(gamma=0.6, q=1.0, m=2**63)
    assert MZipfDist(gamma=0.6, q=1.0, m=2**63 - 1).m == 2**63 - 1


def test_partial_sum_rejects_nan():
    with pytest.raises(DomainError, match="q must be >= 0"):
        partial_sum(1.0, math.nan, 1, 100)
    with pytest.raises(DomainError, match="gamma must not be NaN"):
        partial_sum(math.nan, 0.0, 1, 100)
    with pytest.raises(DomainError, match="gamma must not be NaN"):
        partial_sum(np.array([1.0, math.nan]), 0.0, 1, 100)


def test_rejects_a_normalizer_that_underflows():
    # (1 + q)**-gamma < 1e-600: every weight, and so the normalizer, is 0.0
    with pytest.raises(DomainError, match=r"gamma = 300.0 and q = 100.0 underflow"):
        MZipfDist(gamma=300.0, q=100.0, m=1000)


def test_power_integral_from_zero():
    # integral_0^w t**-gamma dt = w**(1-gamma)/(1-gamma) for gamma < 1
    assert _power_integral(0.5, 0.0, 4.0) == 4.0
    assert _power_integral(1.0 - 2.0**-20, 0.0, 0.0) == 0.0
    # the limit of the x > 0 form as x -> 0
    assert math.isclose(_power_integral(0.3, 1e-300, 3.0), _power_integral(0.3, 0.0, 3.0),
                        rel_tol=1e-14)


def test_sampling_statistics():
    d = MZipfDist(gamma=0.9, q=5.0, m=50)
    rng = np.random.default_rng(7)
    n = 1_000_000
    draws = d.sample(rng, n)
    assert draws.min() >= 1 and draws.max() <= 50
    counts = np.bincount(draws, minlength=51)[1:]
    # rank-1 frequency within 3 binomial sigma
    p1 = d.pmf(1)
    sigma = math.sqrt(p1 * (1.0 - p1) / n)
    assert abs(counts[0] / n - p1) < 3.0 * sigma
    # empirical vs true KL small at this sample size
    emp = counts / n
    mask = emp > 0
    kl = float(np.sum(emp[mask] * np.log(emp[mask] / d.probs[mask])))
    assert kl < 1e-3


def test_sampling_deterministic_given_seed():
    d = MZipfDist(gamma=1.2, q=3.0, m=200)
    a = d.sample(np.random.default_rng(123), 5000)
    b = d.sample(np.random.default_rng(123), 5000)
    np.testing.assert_array_equal(a, b)
    assert isinstance(d.sample(np.random.default_rng(0)), int)


def test_sampling_never_builds_the_full_pmf():
    # the request table over all m ranks is built from head(m), which is bit-equal to probs
    MZipfDist._request_table.cache_clear()  # an equal dist's table would be reused
    d = MZipfDist(gamma=1.2, q=3.0, m=200)
    d.sample(np.random.default_rng(0), 10)
    assert "probs" not in vars(d)


@pytest.mark.parametrize("m", [1, 2, 7, 1000, 100_000])
def test_guide_table_inversion_matches_bisection(m):
    dist = MZipfDist(gamma=1.28, q=34.0, m=m)
    # a placement has a zero tail, so its cdf is flat after the support; a
    # uniform pmf puts cdf values within rounding of the bucket edges
    for probs in (dist.probs, full_placement(waterfill(dist, 1, 4)), np.full(m, 1.0 / m)):
        cdf = placement_cdf(probs)
        # random uniforms, then every bucket edge k/m and every cdf value,
        # each with the floats just below and above it
        points = np.concatenate([np.arange(m + 1) / m, cdf])
        u = np.concatenate([
            np.random.default_rng(m).random(20_000),
            points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        np.testing.assert_array_equal(_invert(_guide_table(probs), u), bisect_ranks(cdf, u))


def zero_some_ranks(rng, probs):
    """A pmf with about a third of its ranks at mass 0, never all of them."""
    w = np.where(rng.random(len(probs)) < 1 / 3, 0.0, probs)
    w[rng.integers(len(w))] = probs.max()
    return w / math.fsum(w.tolist())


# chunks of 5 and 64 buckets: each table here, 17 to 16 001 buckets, ends mid-chunk
@pytest.mark.parametrize("chunk", [None, 5, 64])
@pytest.mark.parametrize("size", [1, 2, 3, 40, 1000])
def test_guide_table_equals_one_shot_search(monkeypatch, chunk, size):
    if chunk is not None:
        monkeypatch.setattr(popularity, "_SCAN_CHUNK", chunk)
    rng = np.random.default_rng(size)
    for _ in range(20):
        probs = zero_some_ranks(rng, rng.random(size))
        guide = _guide_table(probs)[1]
        assert guide.dtype == np.intp
        np.testing.assert_array_equal(guide, oneshot_guide(probs))


def test_guide_table_at_the_bucket_cap():
    # 16L = 2**22 buckets, 64 chunks of the default size
    probs = zero_some_ranks(np.random.default_rng(7), MZipfDist(0.6, 20.0, 1 << 18).probs)
    guide = _guide_table(probs)[1]
    assert len(guide) == (1 << 22) + 1
    np.testing.assert_array_equal(guide, oneshot_guide(probs))


# 7 draws a chunk: the 1200 draws end mid-chunk, and the stream must not see the chunking
@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("m", [1, 7, 1000])
def test_sample_matches_bisection_of_the_same_stream(monkeypatch, m, chunk):
    if chunk is not None:
        monkeypatch.setattr(popularity, "_SCAN_CHUNK", chunk)
    dist = MZipfDist(gamma=0.6, q=20.0, m=m)
    cdf = placement_cdf(dist.probs)
    got = dist.sample(np.random.default_rng(5), (30, 40))
    want = bisect_ranks(cdf, np.random.default_rng(5).random((30, 40)))
    np.testing.assert_array_equal(got, want)
    one = dist.sample(np.random.default_rng(6))
    assert one == bisect_ranks(cdf, [np.random.default_rng(6).random()])[0]


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=1, max_size=40
    ).filter(lambda w: sum(w) > 0),
    u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
)
def test_guide_table_inversion_property(weights, u):
    probs = np.array(weights) / math.fsum(weights)
    cdf = placement_cdf(probs)
    table = _guide_table(probs)
    # the guide's bucket edges b/K, K = len(guide) - 1, are where a start can overshoot
    buckets = np.arange(len(table[1])) / (len(table[1]) - 1)
    u = np.concatenate([np.array(u, dtype=np.float64), cdf, np.nextafter(cdf, 0.0),
                        buckets, np.nextafter(buckets, 0.0), np.nextafter(buckets, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    np.testing.assert_array_equal(_invert(table, u), bisect_ranks(cdf, u))


@settings(max_examples=300, deadline=None)
@given(
    # gamma up to 300 makes masses underflow to 0; q up to 1e17 rounds j + q
    # to ties
    gamma=st.one_of(st.floats(0.05, 3.0), st.floats(3.0, 300.0)),
    q=st.one_of(st.just(0.0), st.floats(0.0, 100.0), st.floats(1e15, 1e17)),
    m=st.integers(1, 300),
    data=st.data(),
)
def test_request_table_draws_the_full_tables_support_ranks(gamma, q, m, data):
    try:
        d = MZipfDist(gamma, q, m)
    except DomainError:  # (1 + q)**-gamma can underflow
        reject()
    m_star = data.draw(st.sampled_from([1, max(m - 1, 1), m]) | st.integers(1, m))
    table, full_table = d._request_table(m_star), _guide_table(d.probs)
    points = np.concatenate([table[0], full_table[0], *(
        np.arange(len(t[1])) / (len(t[1]) - 1) for t in (table, full_table))])
    u = np.concatenate([
        np.random.default_rng(m).random(2000),
        points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    full = _invert(full_table, u)
    np.testing.assert_array_equal(_invert(table, u), np.where(full <= m_star, full, m_star + 1))
    assert d._request_table(m_star) is table
