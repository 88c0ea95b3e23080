import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from d2dcache import DomainError, MZipfDist, partial_sum, partial_sum_bounds
from d2dcache.policy import waterfill
from d2dcache.popularity import _guide_table, _head_terms, _invert, _power_integral

from oracles import (
    bisect_ranks,
    full_placement,
    hurwitz_partial_sum,
    mpmath_normalizer,
    naive_partial_sum,
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
    return _head_terms(gamma, q, a, 10**18)


NEAR_ONE = [1.0 + d for e in (1e-3, 1e-6, 1e-9, 1e-12) for d in (-e, e)]


@pytest.mark.parametrize("gamma", [0.05, 0.5, *NEAR_ONE, 1.0, 1.28, 2.0, 5.0])
def test_partial_sum_matches_hurwitz_oracle(gamma):
    # q = 10 starts the tail just past the head bound, where truncation shows
    for q in (0.0, 0.5, 10.0, 34.0, 1e3):
        k = head_len(gamma, q)
        for m in sorted({1, max(k, 1), k + 1, k + 2, 19379, 10**5, 10**7}):
            want = hurwitz_partial_sum(gamma, q, 1, m)
            assert math.isclose(partial_sum(gamma, q, 1, m), want, rel_tol=1e-14), (q, m)
        for a, b in ((2, 3), (7, 19379), (1000, 10**5), (12345, 10**7)):
            want = hurwitz_partial_sum(gamma, q, a, b)
            assert math.isclose(partial_sum(gamma, q, a, b), want, rel_tol=1e-14), (q, a, b)


@pytest.mark.parametrize("gamma", [-1.5, 0.0, 10.0, 20.0, 50.0])
def test_partial_sum_far_exponents_match_direct_sum(gamma):
    # mpmath's Hurwitz zeta itself drifts by up to ~1e-12 at gamma >= 20, so
    # these are checked against the term-by-term sum
    for q in (0.0, 34.0, 1e3):
        for m in sorted({head_len(gamma, q) + 1, 2 * 10**4}):
            want = mpmath_normalizer(gamma, q, m)
            assert math.isclose(partial_sum(gamma, q, 1, m), want, rel_tol=1e-14), (q, m)


def test_partial_sum_head_only_is_bit_identical_to_streamed_sum():
    for gamma in (0.05, 0.5, 1.0, 1.28, 5.0, 50.0, -1.5):
        for q in (0.0, 0.5, 3.7):
            for a in (1, 4):
                for b in range(a, a + head_len(gamma, q, a)):
                    assert partial_sum(gamma, q, a, b) == streamed_partial_sum(gamma, q, a, b)


@pytest.mark.parametrize("m", [1, 1000, (1 << 22) + 3])
def test_normalizer_and_probs_bit_identical_to_streamed_sum(m):
    # partial_sum(0.78, 3.5, 1, m) differs from the streamed sum in the last
    # bits for m > 1, so this fails if MZipfDist normalizes with it
    d = MZipfDist(gamma=0.78, q=3.5, m=m)
    norm = streamed_partial_sum(0.78, 3.5, 1, m)
    assert d.normalizer == norm
    dense = (np.arange(1, m + 1, dtype=np.float64) + 3.5) ** (-0.78) / norm
    for k in sorted({0, 1, 1023, 1024, 1025, m} & set(range(m + 1))):
        assert d.head(k).tobytes() == dense[:k].tobytes(), k
    assert "probs" not in vars(d)  # prefixes never build the full pmf
    assert d.probs.tobytes() == dense.tobytes()
    assert not d.probs.flags.writeable


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


@pytest.mark.parametrize("m", [1, 7, 1000])
def test_sample_matches_bisection_of_the_same_stream(m):
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
