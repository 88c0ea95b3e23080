import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache import ConfigError, DomainError, MZipfDist, NetworkConfig, RegimeParams
from d2dcache import policy as policy_mod
from d2dcache.policy import (
    _FIRST_PREFIX,
    CachingPolicy,
    hit_probability,
    solve_cutoff_constant,
    waterfill,
)
from d2dcache.popularity import _invert

from oracles import (
    dense_waterfill,
    full_placement,
    mpmath_hit_probability,
    onelist_hit_probability,
    pga_optimal_placement,
)

P = _FIRST_PREFIX


def test_waterfill_hand_example():
    # p = [6/11, 3/11, 2/11], phi = 1, so z = p; the level stops at m=2
    # with nu = 1 / (11/6 + 11/3) = 2/11 and placement [2/3, 1/3, 0].
    d = MZipfDist(gamma=1.0, q=0.0, m=3)
    pol = waterfill(d, s=1, g_c=3)
    assert pol.exponent_denom == 1
    assert pol.m_star == 2 and pol.m == 3
    assert math.isclose(pol.nu, 2.0 / 11.0, rel_tol=1e-13)
    np.testing.assert_allclose(full_placement(pol), [2.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-13)


def test_hit_probability_hand_example():
    # 6/11*(1-(1/3)^2) + 3/11*(1-(2/3)^2) = 48/99 + 15/99 = 7/11
    d = MZipfDist(gamma=1.0, q=0.0, m=3)
    pol = waterfill(d, s=1, g_c=3)
    assert math.isclose(hit_probability(d, pol, 1, 3), 7.0 / 11.0, rel_tol=1e-13)


def test_single_file_library():
    d = MZipfDist(gamma=1.0, q=0.0, m=1)
    pol = waterfill(d, s=1, g_c=4)
    assert pol.m_star == 1
    assert pol.nu == 0.0
    np.testing.assert_array_equal(pol.probs, [1.0])
    assert math.isclose(hit_probability(d, pol, 1, 4), 1.0)


def test_small_cluster_rejected():
    d = MZipfDist(gamma=1.0, q=0.0, m=10)
    with pytest.raises(DomainError, match="cluster too small"):
        waterfill(d, s=1, g_c=2)
    pol = waterfill(d, s=2, g_c=2)  # s*(g_c-1) = 2 is the smallest legal
    with pytest.raises(DomainError, match="cluster too small"):
        hit_probability(d, pol, s=1, g_c=2)


@pytest.mark.parametrize("g_c", [4, 16, 25, 100, 400])
def test_placement_table_ends_at_support(g_c):
    # the support's cdf ends 4.4e-16 short of 1 at g_c = 4 and overshoots 1 by
    # up to 6e-13 at the larger sizes; the table must still end exactly at 1.0
    d = MZipfDist(gamma=0.6, q=20.0, m=1000)
    pol = waterfill(d, s=1, g_c=g_c)
    assert pol.m_star < d.m
    edges = pol._table[0]
    assert edges[-1] == 1.0 and np.all(np.diff(edges) >= 0)
    top = _invert(pol._table, np.array([np.nextafter(1.0, 0.0)]))
    assert top[0] <= pol.m_star


def assert_bit_equal(got, want):
    # the policy holds the support; the dense scan's array runs over all m ranks
    assert got.m_star == want.m_star
    assert got.m == len(want.probs)
    assert got.exponent_denom == want.exponent_denom
    assert np.float64(got.nu).tobytes() == np.float64(want.nu).tobytes()
    assert got.probs.tobytes() == want.probs[:want.m_star].tobytes()
    assert not np.any(want.probs[want.m_star:])
    assert not got.probs.flags.writeable


# the scan's chunk: the default, one that puts chunk edges on every third rank,
# so that cutoffs fall on them and the running sum crosses many, and P
SCAN_CHUNKS = pytest.mark.parametrize("chunk", [None, 3, P])


@pytest.fixture
def scan_chunk(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(policy_mod, "_SCAN_CHUNK", chunk)


@SCAN_CHUNKS
@pytest.mark.parametrize("m", [1, 2, P - 1, P, P + 1, 2 * P + 1, 100_000])
@pytest.mark.parametrize("gamma, q", [(0.6, 20.0), (1.2, 5.0), (0.3, 0.0)])
def test_waterfill_bit_equal_to_dense_scan(gamma, q, m, scan_chunk):
    d = MZipfDist(gamma, q, m)
    for s, g_c in [(1, 3), (1, 16), (2, 100), (1, 2500), (1, 10**6)]:
        assert_bit_equal(waterfill(d, s, g_c), dense_waterfill(d, s, g_c))


@SCAN_CHUNKS
@pytest.mark.parametrize("g_c, m_star", [(567, P - 1), (568, P + 1), (1173, 2 * P - 1),
                                         (1174, 2 * P + 1)])
def test_waterfill_cutoff_next_to_prefix_end(g_c, m_star, scan_chunk):
    # cutoffs one rank before and one after the ends of the first two chunks;
    # the one before needs the rank past its chunk, the one after the next chunk
    d = MZipfDist(0.6, 20.0, 100_000)
    pol = waterfill(d, 1, g_c)
    assert pol.m_star == m_star
    assert_bit_equal(pol, dense_waterfill(d, 1, g_c))


@SCAN_CHUNKS
@pytest.mark.parametrize("m", [P - 1, P, P + 1, 2 * P + 1, 100_000])
@pytest.mark.parametrize("g_c", [10**5, 10**7])
def test_waterfill_without_cutoff_covers_library(m, g_c, scan_chunk):
    # nearly flat tilted popularity: the level never drops below the next
    # rank, so every doubling runs until the prefix is the whole library
    d = MZipfDist(0.3, 0.0, m)
    pol = waterfill(d, 1, g_c)
    assert pol.m_star == m
    assert_bit_equal(pol, dense_waterfill(d, 1, g_c))


@SCAN_CHUNKS
@pytest.mark.parametrize("gamma, q, m, s, g_c", [
    (0.6, 20.0, 1000, 1, 4),
    (0.6, 20.0, 1000, 1, 100),
    (0.6, 20.0, 1000, 1, 2500),
    (1.2, 5.0, 2000, 2, 400),
    (0.3, 0.0, 1000, 1, 16),
    (1.0, 0.0, 3, 1, 3),
])
def test_hit_probability_matches_mpmath_sum(gamma, q, m, s, g_c, scan_chunk):
    # the mpmath sum runs over every rank, the zero tail past m_star included;
    # g_c + 1 is the self-cache evaluation of the same placement.  fsum is
    # correctly rounded however its terms are grouped, so the chunked sum is
    # the one-list sum bit for bit
    d = MZipfDist(gamma, q, m)
    pol = waterfill(d, s, g_c)
    for size in (g_c, g_c + 1):
        got = hit_probability(d, pol, s, size)
        assert got.hex() == onelist_hit_probability(d, pol, s, size).hex()
        want = mpmath_hit_probability(d.probs, full_placement(pol), s * (size - 1))
        assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_placement_and_hit_probability_peak_near_the_support():
    # at g_c = 250 000 the support is m_star = 416 868 of m = 10^6 ranks: the
    # placement holds 8 B a rank, and every pass over it fixed-size chunks
    d = MZipfDist(0.6, 20.0, 10**6)
    waterfill(d, 1, 4)  # first-call allocations are not the placement's
    tracemalloc.start()
    try:
        pol = waterfill(d, 1, 250_000)
        placement_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        hit_probability(d, pol, 1, 250_000)
        hit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pol.m_star == 416_868
    bound = 2 * 8 * pol.m_star + 4 * 2**20
    assert placement_peak < bound and hit_peak < bound, (placement_peak, hit_peak)


def test_policy_holds_support_only():
    d = MZipfDist(0.6, 20.0, 1000)
    pol = waterfill(d, 1, 100)
    assert pol.m == 1000 and pol.m_star == len(pol.probs) == 214
    assert "probs" not in vars(d)  # the placement reads pmf prefixes only


def test_hit_probability_reads_the_whole_support():
    # m_star is the support's length, so no rank of it can be left out of the sum
    pol = CachingPolicy(probs=np.array([0.5, 0.5]), nu=0.0, m=2, exponent_denom=2)
    assert pol.m_star == 2
    assert math.isclose(hit_probability(MZipfDist(1.0, 0.0, 2), pol, 1, 4), 0.875,
                        rel_tol=1e-15)


def test_policy_and_popularity_must_cover_one_library():
    pol = waterfill(MZipfDist(0.6, 20.0, 1000), 1, 100)
    with pytest.raises(DomainError, match="policy covers 1000 files, popularity has 999"):
        hit_probability(MZipfDist(0.6, 20.0, 999), pol, 1, 100)
    for probs, m in [(np.array([]), 3), (np.full(4, 0.25), 3)]:
        with pytest.raises(DomainError, match="support"):
            CachingPolicy(probs=probs, nu=0.0, m=m, exponent_denom=2)


def test_rank_tying_the_level_is_left_out():
    # gamma = 2, q = 2, phi = 1: z_3 = 1/25 equals the level of ranks 1..2 and of
    # 1..3 in exact arithmetic, so rank 3 has mass 0; the level scan admits it
    # and rounding gives it -2.2e-16
    d = MZipfDist(2.0, 2.0, 46)
    dense = dense_waterfill(d, 1, 3)
    assert dense.m_star == 3 and dense.probs[2] < 0.0
    pol = waterfill(d, 1, 3)
    assert pol.m_star == 2 and np.all(pol.probs > 0.0)
    assert pol.probs.tobytes() == dense.probs[:2].tobytes() and pol.nu == dense.nu


# the support's sum is 1 up to the rounding of a sequential cumsum, which grows
# with m_star (about 1e-11 at m_star ~ 3000); m <= 150 keeps it below 1e-12
@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(0.05, 3.0), q=st.floats(0.0, 100.0), m=st.integers(1, 150),
       s=st.integers(1, 4), g_c=st.integers(2, 10**6))
def test_waterfill_support_property(gamma, q, m, s, g_c):
    if s * (g_c - 1) < 2:
        g_c = 3
    pol = waterfill(MZipfDist(gamma, q, m), s, g_c)
    p = pol.probs
    assert 1 <= pol.m_star <= m and pol.m == m
    assert np.all(p > 0.0) and np.all(np.diff(p) <= 0.0)
    assert abs(math.fsum(p.tolist()) - 1.0) <= 1e-12


@pytest.mark.parametrize("s, g_c, reason", [
    (0, 4, "s must be >= 1"),
    (1, 1, "g_c must be >= 2"),
    (1, 2, "cluster too small"),
])
def test_geometry_rule_has_one_validator(s, g_c, reason):
    d = MZipfDist(gamma=1.0, q=0.0, m=10)
    builders = [lambda: waterfill(d, s, g_c), lambda: RegimeParams(1.0, 0.0, 10, s, g_c)]
    if g_c != 2:  # g_c = 2 cannot tile a square grid into square clusters
        builders.append(lambda: NetworkConfig(n=4 * g_c, n_clusters=4, s=s))
    messages = set()
    for build in builders:
        with pytest.raises(ConfigError, match=reason) as err:
            build()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_non_integral_geometry_rejected_not_truncated():
    # a truncated g_c would give phi from 100 but c3 and rho from 100.5; s = 1.7 the s = 1 placement
    d = MZipfDist(gamma=0.6, q=20.0, m=1000)
    with pytest.raises(ConfigError, match="integers"):
        RegimeParams(0.6, 20.0, 1000, 1, 100.5)
    with pytest.raises(ConfigError, match="integers"):
        waterfill(d, 1.7, 100)
    # integer values pass whatever their type
    want = waterfill(d, 1, 100)
    for s, g_c in ((1.0, 100.0), (np.int64(1), np.int32(100))):
        got = waterfill(d, s, g_c)
        assert (got.nu, got.exponent_denom) == (want.nu, want.exponent_denom)
        np.testing.assert_array_equal(got.probs, want.probs)
        assert RegimeParams(0.6, 20.0, 1000, s, g_c).phi == 98


def test_policy_structure_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(40):
        gamma = rng.uniform(0.1, 2.0)
        q = rng.uniform(0.0, 30.0)
        m = int(rng.integers(2, 400))
        s = int(rng.integers(1, 4))
        g_c = int(rng.integers(3, 11))
        d = MZipfDist(gamma, q, m)
        pol = waterfill(d, s, g_c)
        p = full_placement(pol)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(np.diff(p) <= 1e-15)
        # support is exactly the first m_star ranks
        assert np.all(p[: pol.m_star] > 0.0)
        assert np.all(p[pol.m_star :] == 0.0)
        # KKT: tilted popularity sits above the level on the support,
        # at or below it beyond the cutoff
        z = d.probs ** (1.0 / pol.exponent_denom)
        assert np.all(z[: pol.m_star] >= pol.nu * (1.0 - 1e-12))
        assert np.all(z[pol.m_star :] <= pol.nu * (1.0 + 1e-12))


def test_beats_random_placements():
    rng = np.random.default_rng(17)
    for _ in range(10):
        gamma = rng.uniform(0.2, 2.0)
        q = rng.uniform(0.0, 30.0)
        m = int(rng.integers(3, 50))
        s = int(rng.integers(1, 4))
        g_c = int(rng.integers(3, 11))
        d = MZipfDist(gamma, q, m)
        pol = waterfill(d, s, g_c)
        ours = hit_probability(d, pol, s, g_c)
        exponent = s * (g_c - 1)
        others = rng.dirichlet(np.ones(m), size=2000)
        vals = np.sum(d.probs * (1.0 - (1.0 - others) ** exponent), axis=1)
        assert ours >= vals.max() - 1e-12


def test_matches_projected_gradient_small():
    rng = np.random.default_rng(23)
    for _ in range(5):
        gamma = rng.uniform(0.2, 2.0)
        q = rng.uniform(0.0, 30.0)
        m = int(rng.integers(3, 30))
        s = int(rng.integers(1, 4))
        g_c = int(rng.integers(3, 11))
        d = MZipfDist(gamma, q, m)
        pol = waterfill(d, s, g_c)
        exponent = s * (g_c - 1)
        _, val = pga_optimal_placement(d.probs, exponent, n_starts=5, seed=1)
        assert abs(hit_probability(d, pol, s, g_c) - val) < 1e-6


def test_matches_projected_gradient_large():
    # dense instance: the ascent from 20 random starts lands on the same
    # placement file-by-file
    d = MZipfDist(gamma=0.6, q=20.0, m=1000)
    pol = waterfill(d, s=1, g_c=100)
    x, val = pga_optimal_placement(d.probs, exponent=99, n_starts=20, seed=2)
    assert np.max(np.abs(x - full_placement(pol))) < 1e-6
    assert abs(hit_probability(d, pol, 1, 100) - val) < 1e-9


def test_hit_probability_decreases_with_plateau():
    prev = None
    for q in [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]:
        d = MZipfDist(gamma=0.8, q=q, m=2000)
        pol = waterfill(d, s=1, g_c=50)
        cur = hit_probability(d, pol, 1, 50)
        if prev is not None:
            assert cur < prev
        prev = cur


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gamma=st.floats(0.05, 3.0), q=st.floats(0.0, 100.0), dq=st.floats(0.0, 100.0),
       m=st.integers(1, 300), s=st.integers(1, 3), g_c=st.integers(3, 2000))
def test_optimal_hit_probability_does_not_rise_with_plateau(gamma, q, dq, m, s, g_c):
    # the optimum is a maximum of functions linear in the pmf, so Schur-convex,
    # and a larger q gives a law majorized by the smaller q's (likelihood ratio
    # order); the slack covers the rounding of the two fsums
    def optimum(q):
        d = MZipfDist(gamma, q, m)
        return hit_probability(d, waterfill(d, s, g_c), s, g_c)

    assert optimum(q + dq) <= optimum(q) + 1e-13


def test_cutoff_tracks_plateau_when_dominant():
    # with q a fixed multiple of s*g_c/gamma, m_star/q stays in a constant
    # band along a geometric scale-up
    gamma, s = 0.6, 1
    for scale in [1, 2, 4, 8]:
        m = 2000 * scale
        g_c = 50 * scale
        q = 2.0 * s * g_c / gamma
        d = MZipfDist(gamma, q, m)
        pol = waterfill(d, s, g_c)
        ratio = pol.m_star / q
        assert 1.0 / 8.0 <= ratio <= 8.0, (scale, ratio)


def test_cutoff_constant_values():
    assert solve_cutoff_constant(0.0) == 1.0
    assert abs(solve_cutoff_constant(1.0) - 2.1462) < 1e-3


def test_cutoff_constant_fixed_point_oracle():
    # independent check: damped fixed-point iteration of c = 1 + c2*ln(1 + c/c2)
    for c2 in [0.01, 0.3, 1.0, 7.5, 120.0]:
        c = 1.0
        for _ in range(100_000):
            c = 1.0 + c2 * math.log1p(c / c2)
        assert abs(solve_cutoff_constant(c2) - c) < 1e-9


def test_cutoff_constant_residual_and_monotonicity():
    rng = np.random.default_rng(31)
    prev_pair = None
    for _ in range(200):
        c2 = float(rng.uniform(1e-6, 1e3))
        c1 = solve_cutoff_constant(c2)
        assert c1 >= 1.0
        assert abs(c1 - 1.0 - c2 * math.log1p(c1 / c2)) < 1e-10
    for c2 in [0.0, 0.1, 1.0, 10.0, 100.0]:
        c1 = solve_cutoff_constant(c2)
        if prev_pair is not None:
            assert c1 > prev_pair
        prev_pair = c1


@pytest.mark.parametrize("c2", [3.4e7, 1e8, 1e12])
def test_cutoff_constant_returns_past_double_spacing(c2):
    # from c = 2**13 on, adjacent doubles lie more than 1e-12 apart, so the
    # bisection ends on the bracket, not on the tolerance
    c1 = solve_cutoff_constant(c2)
    assert abs(c1 - 1.0 - c2 * math.log1p(c1 / c2)) <= 2 * math.ulp(c1)
    with mpmath.workdps(40):  # the residual cancels to O(1) from terms of size c
        root = mpmath.findroot(lambda c: c - 1 - c2 * mpmath.log1p(c / c2), math.sqrt(2 * c2))
    assert c1 == pytest.approx(float(root), rel=1e-10, abs=0)


def test_waterfill_silent_where_the_tilted_pmf_underflows():
    # at gamma = 400 every rank past the first few has pmf**(1/phi) = 0
    d = MZipfDist(400.0, 0.0, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pol = waterfill(d, 1, 100)
    with np.errstate(divide="ignore"):
        assert_bit_equal(pol, dense_waterfill(d, 1, 100))
    assert pol.m_star == 2


def test_asymptotic_constants():
    d = MZipfDist(gamma=0.6, q=20.0, m=1000)
    con = RegimeParams(gamma=0.6, q=20.0, m=1000, s=1, g_c=100)
    assert math.isclose(con.a_prime, 0.6 / 98.0, rel_tol=1e-13)
    assert math.isclose(con.c2, 20.0 * 0.6 / 98.0, rel_tol=1e-13)
    assert math.isclose(con.c1, solve_cutoff_constant(con.c2), rel_tol=1e-13)
    assert math.isclose(con.m_star_asym, con.c1 * 100.0 / 0.6, rel_tol=1e-13)
    # the asymptotic cutoff approximates the exact one at this size
    pol = waterfill(d, 1, 100)
    assert abs(con.m_star_asym - pol.m_star) / pol.m_star < 0.25


def test_asymptotic_cutoff_gap_shrinks():
    gamma, s = 0.6, 1
    gaps = []
    for scale in [1, 4, 16]:
        d = MZipfDist(gamma, 20.0 * scale, 1000 * scale)
        g_c = 100 * scale
        pol = waterfill(d, s, g_c)
        con = RegimeParams(gamma, 20.0 * scale, 1000 * scale, s, g_c)
        gaps.append(abs(con.c1 * s * g_c / gamma - pol.m_star) / pol.m_star)
    assert gaps[2] <= gaps[1] <= gaps[0]
