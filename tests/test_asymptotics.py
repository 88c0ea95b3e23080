"""Tests for the closed-form performance laws.

High precision checks re-evaluate each formula in its raw form with
mpmath at 60 digits (``oracles.mpmath_closed_forms``), also within 1e-12
of ``gamma = 1`` and at the limit itself; accuracy checks compare against
the exact finite sums from the policy module.  The saturated-regime floor
is asymptotic, so it is tested for convergence toward the exact optimum
rather than a pointwise inequality.
"""

import math

import pytest

from d2dcache.asymptotics import (
    RegimeParams,
    classify_regime,
    hit_rate_closed_form,
    hit_rate_floor,
    theory_points,
    tradeoff_large_gamma,
    tradeoff_small_gamma,
)
from d2dcache.errors import DomainError, RegimeError
from d2dcache.policy import hit_probability, waterfill
from d2dcache.popularity import MZipfDist

from oracles import mpmath_closed_forms


def exact_hit(gamma, q, m, s, g_c):
    d = MZipfDist(gamma, q, m)
    return hit_probability(d, waterfill(d, s, g_c), s, g_c)


def oracle(p):
    return mpmath_closed_forms(p.gamma, p.q, p.m, p.s, p.g_c, p.c1)


def assert_matches(value, clamped, want, rel=1e-13):
    """A clamped value equals the oracle's clamp; any other is within ``rel`` of it."""
    assert clamped == (not 0.0 <= want <= 1.0)
    assert value == pytest.approx(min(max(want, 0.0), 1.0), rel=rel, abs=0)


NEAR_ONE = [1.0 + e for d in (1e-3, 1e-6, 1e-9, 1e-12) for e in (-d, d)]


class TestNearGammaOne:
    """Each form against its raw paper form in 60-digit mpmath, as gamma nears 1."""

    @pytest.mark.parametrize("q", [20.0, 0.0])
    @pytest.mark.parametrize("gamma", NEAR_ONE + [1.0, 0.6, 1.8])
    def test_closed_form(self, gamma, q):
        p = RegimeParams(gamma, q, 10**5, 1, 100)
        assert_matches(*hit_rate_closed_form(p), oracle(p)["closed_form"])

    @pytest.mark.parametrize("q", [20.0, 0.0])
    @pytest.mark.parametrize("gamma", [g for g in NEAR_ONE if g < 1] + [0.6])
    def test_small_gamma_forms(self, gamma, q):
        # each form at a point of its own regime: near gamma = 1, m**alpha
        # nears 1, so r1 needs g_c <= 10 while r2 reaches almost to g_c = m;
        # at gamma = 0.6, saturation is near g_c = 0.6*m
        near = gamma > 0.99
        p = RegimeParams(gamma, q, 1000, 1, 2000)
        assert_matches(*hit_rate_floor(p), oracle(p)["floor"])
        r3 = tradeoff_small_gamma(p)
        assert r3.source == "small_gamma_r3"
        assert r3.throughput == pytest.approx(oracle(p)["r3_throughput"], rel=1e-13, abs=0)
        p = RegimeParams(gamma, q, 10**5, 1, 99_000 if near else 50_000)
        r2 = tradeoff_small_gamma(p)
        assert r2.source == "small_gamma_r2"
        assert_matches(r2.outage, r2.clamped, oracle(p)["r2_outage"])
        p = RegimeParams(gamma, q, 10**5, 1, 10 if near else 100)
        r1, want = tradeoff_small_gamma(p), oracle(p)
        assert r1.source == "small_gamma_r1"
        assert r1.throughput == pytest.approx(want["r1_throughput"], rel=1e-13, abs=0)
        # 1 - b/m**alpha: at q = 0, b/m**alpha -> 1 as gamma -> 1, so the
        # outage keeps an absolute, not a relative, accuracy there
        assert r1.outage == pytest.approx(want["r1_outage"], rel=1e-13, abs=1e-15)


    @pytest.mark.parametrize("m, g_c", [(1000, 2000), (1000, 20_000), (10**5, 10**5)])
    @pytest.mark.parametrize("q", [20.0, 0.0, 300.0])
    @pytest.mark.parametrize("gamma", [g for g in NEAR_ONE if g < 1] + [0.6])
    def test_floor_keeps_double_precision_at_large_clusters(self, gamma, q, m, g_c):
        # the second bracket is raised to phi = g_c - 2, which would multiply its rounding
        p = RegimeParams(gamma, q, m, 1, g_c)
        assert_matches(*hit_rate_floor(p), oracle(p)["floor"], rel=4e-15)


class TestClosedForm:
    def test_matches_high_precision_reference(self):
        p = RegimeParams(0.6, 20.0, 1000, 1, 200)
        assert_matches(*hit_rate_closed_form(p), oracle(p)["closed_form"])

    def test_tracks_exact_sum_small_gamma(self):
        # every cluster size below saturation, two gamma values
        for gamma in (0.6, 0.2):
            for g_c in (16, 25, 100):
                p = RegimeParams(gamma, 20.0, 1000, 1, g_c)
                if g_c >= p.saturation_g_c:
                    continue
                got = hit_rate_closed_form(p).value
                ref = exact_hit(gamma, 20.0, 1000, 1, g_c)
                assert abs(got - ref) <= 0.05, (gamma, g_c, got, ref)

    def test_q_zero_specialization(self):
        # with q = 0 the expression collapses to (gamma*x^(1-gamma) - 1)/(m^(1-gamma) - 1)
        p = RegimeParams(0.7, 0.0, 5000, 1, 40)
        x = p.c1 * p.s * p.g_c / p.gamma
        want = (p.gamma * x ** (1 - p.gamma) - 1.0) / (p.m ** (1 - p.gamma) - 1.0)
        assert hit_rate_closed_form(p).value == pytest.approx(want, rel=1e-12, abs=0)

    def test_rejects_saturated_cluster(self):
        p = RegimeParams(0.6, 20.0, 1000, 1, 625)
        assert p.g_c >= p.saturation_g_c
        with pytest.raises(RegimeError, match="saturation"):
            hit_rate_closed_form(p)

    def test_gamma_one_takes_the_log_limit(self):
        p = RegimeParams(1.0, 5.0, 1000, 1, 50)
        x = p.c1 * p.s * p.g_c
        want = (math.log((x + 5.0) / 6.0) - x / (x + 5.0)) / math.log(1005.0 / 6.0)
        got = hit_rate_closed_form(p)
        assert got.value == pytest.approx(want, rel=1e-14, abs=0)
        for g in (1.0 - 1e-12, 1.0 + 1e-12):  # continuous through gamma = 1
            near = hit_rate_closed_form(RegimeParams(g, 5.0, 1000, 1, 50)).value
            assert near == pytest.approx(got.value, rel=1e-11, abs=0)

    def test_single_file_library_is_an_empty_range(self):
        with pytest.raises(RegimeError, match="empty range"):
            hit_rate_closed_form(RegimeParams(5.0, 0.0, 1, 1, 4))


class TestFloor:
    def test_matches_high_precision_reference(self):
        p = RegimeParams(0.6, 20.0, 1000, 1, 750)
        assert_matches(*hit_rate_floor(p), oracle(p)["floor"])

    def test_converges_to_exact_optimum(self):
        # asymptotic bound: at finite m it sits slightly above the exact
        # optimum, with the discrepancy shrinking like 1/m
        gaps = []
        for m in (1000, 10_000, 100_000):
            q = 0.02 * m
            g_c = next(
                g for g in range(int(0.7 * m), m)
                if RegimeParams(0.6, q, m, 1, g).rho >= 0.8
            )
            p = RegimeParams(0.6, q, m, 1, g_c)
            fl = hit_rate_floor(p)
            gaps.append(abs(fl.value - exact_hit(0.6, q, m, 1, g_c)))
        assert gaps[0] < 2e-3
        assert gaps[1] < gaps[0] / 5
        assert gaps[2] < gaps[1] / 5

    def test_plateau_free_boundary_value(self):
        # q = 0 and rho = gamma give exactly gamma
        p = RegimeParams(0.6, 0.0, 1000, 1, 600)
        assert p.rho == 0.6
        got = hit_rate_floor(p)
        assert got.value == pytest.approx(0.6, abs=1e-12)
        assert not got.clamped

    def test_rejects_rho_below_gamma(self):
        p = RegimeParams(0.6, 0.0, 1000, 1, 100)
        assert p.rho < p.gamma
        with pytest.raises(DomainError, match="rho"):
            hit_rate_floor(p)

    def test_rejects_large_gamma(self):
        p = RegimeParams(1.5, 5.0, 1000, 1, 50)
        with pytest.raises(RegimeError, match="gamma"):
            hit_rate_floor(p)


class TestSmallGammaTradeoff:
    def test_r3_throughput_value(self):
        # q = 0 makes c1 = 1 exactly, so t = (c/k)/(rho*m), here at rho = 0.6
        p = RegimeParams(0.6, 0.0, 1000, 1, 600, k=4)
        assert p.rho == 0.6
        t = tradeoff_small_gamma(p)
        assert t.throughput == pytest.approx(0.25 / 600.0, rel=1e-12, abs=0)
        assert t.g_c == 600
        assert t.source == "small_gamma_r3"

    def test_r1_library_scaling(self):
        # with q = 0 the complement of the outage scales exactly like
        # m**(-alpha) at fixed c3; alpha = 2/7, so 128 times the library
        # and 4 times the cluster keep c3 and quarter the complement
        alpha = 0.4 / 1.4
        p1 = RegimeParams(0.6, 0.0, 10**4, 1, 50)
        p4 = RegimeParams(0.6, 0.0, 128 * 10**4, 1, 200)
        assert p4.c3 == pytest.approx(p1.c3, rel=1e-14, abs=0)
        t1 = tradeoff_small_gamma(p1)
        t4 = tradeoff_small_gamma(p4)
        assert (t1.g_c, t4.g_c) == (50, 200)
        assert t1.source == t4.source == "small_gamma_r1"
        assert (1 - t4.outage) / (1 - t1.outage) == pytest.approx(
            128.0 ** (-alpha), rel=1e-9, abs=0
        )

    def test_r2_throughput_identity(self):
        p = RegimeParams(0.6, 20.0, 1000, 1, 100, k=4, c_rate=2.0)
        t = tradeoff_small_gamma(p)
        assert t.source == "small_gamma_r2"
        assert t.throughput * t.g_c == pytest.approx(0.5, rel=1e-12, abs=0)

    def test_r1_r2_track_exact_outage(self):
        for g_c, regime in ((16, "r1"), (25, "r1"), (100, "r2"), (400, "r2")):
            p = RegimeParams(0.6, 20.0, 1000, 1, g_c)
            t = tradeoff_small_gamma(p)
            assert t.source == f"small_gamma_{regime}"
            ref = 1 - exact_hit(0.6, 20.0, 1000, 1, g_c)
            assert abs(t.outage - ref) <= 0.05, (g_c, t.outage, ref)

    def test_rejections(self):
        with pytest.raises(RegimeError, match="tradeoff_large_gamma"):
            tradeoff_small_gamma(RegimeParams(1.5, 5.0, 1000, 1, 50))
        with pytest.raises(RegimeError, match="collapses"):
            tradeoff_small_gamma(RegimeParams(0.6, 10_000.0, 10**5, 1, 100))
        with pytest.raises(RegimeError, match="gamma = 1"):
            tradeoff_small_gamma(RegimeParams(1.0, 10.0, 1000, 1, 50))


class TestLargeGammaTradeoff:
    @pytest.mark.parametrize("g_c", [50, 100, 1000])
    @pytest.mark.parametrize("q", [0.0, 1e-9, 1e-3, 20.0, 300.0])
    @pytest.mark.parametrize("gamma", [g for g in NEAR_ONE if g > 1] + [1.28, 1.8, 3.0])
    def test_matches_high_precision_reference(self, gamma, q, g_c):
        # at q = 0 the outage is exactly 0, which a relative bound with abs = 0 pins
        p = RegimeParams(gamma, q, 10**5, 1, g_c)
        t = tradeoff_large_gamma(p)
        assert_matches(t.outage, t.clamped, oracle(p)["large_gamma_outage"], rel=1e-14)
        assert t.throughput == pytest.approx(1.0 / g_c, rel=1e-12, abs=0)

    def test_limit_identity(self):
        # the expression is the m -> infinity limit of the closed form with
        # the plateau offset q+1 replaced by q
        p = RegimeParams(1.8, 30.0, 10**5, 1, 100)
        t = tradeoff_large_gamma(p)
        x = p.c1 * p.s * p.g_c / p.gamma
        limit = (p.gamma * x + p.q) / ((x + p.q) ** p.gamma * (p.q + 1) ** (1 - p.gamma))
        assert t.outage == pytest.approx(
            limit * (p.q / (p.q + 1)) ** (p.gamma - 1), rel=1e-12, abs=0
        )

    def test_approaches_closed_form_at_scale(self):
        # fixed c6 = q/g_c, growing plateau and library
        def gap(q, g_c, m):
            p = RegimeParams(1.8, q, m, 1, g_c)
            lg = tradeoff_large_gamma(p).outage
            cf = 1 - hit_rate_closed_form(p).value
            return abs(lg - cf)

        g0 = gap(30.0, 100, 10**5)
        assert gap(300.0, 1000, 10**6) < g0 / 10
        assert gap(3000.0, 10_000, 10**7) < g0 / 10

    def test_outage_grows_with_plateau(self):
        outs = [
            tradeoff_large_gamma(RegimeParams(1.5, q, 10**4, 1, 100)).outage
            for q in (1.0, 5.0, 20.0, 50.0)
        ]
        assert all(a < b for a, b in zip(outs, outs[1:]))

    def test_vanishing_outage_note(self):
        tagged = tradeoff_large_gamma(RegimeParams(1.28, 34.0, 19379, 1, 500))
        assert "vanishing_outage" in tagged.notes
        plain = tradeoff_large_gamma(RegimeParams(1.28, 50.0, 19379, 1, 500))
        assert plain.notes == ()

    def test_rejections(self):
        with pytest.raises(RegimeError, match="small-gamma|gamma > 1"):
            tradeoff_large_gamma(RegimeParams(0.6, 5.0, 1000, 1, 50))
        with pytest.raises(RegimeError, match="not small"):
            tradeoff_large_gamma(RegimeParams(1.5, 5.0, 1000, 1, 200))


class TestClassify:
    @pytest.mark.parametrize(
        "gamma,q,m,g_c,label",
        [
            (0.6, 20.0, 1000, 16, "r1"),
            (0.6, 20.0, 1000, 25, "r1"),
            (0.6, 20.0, 1000, 100, "r2"),
            (0.6, 20.0, 1000, 400, "r2"),
            (0.6, 20.0, 1000, 625, "r3"),
            (0.6, 20.0, 1000, 2500, "r3"),
            (0.6, 10_000.0, 10**5, 100, "collapse"),
            (1.28, 34.0, 19379, 500, "large_gamma_vanishing"),
            (1.28, 500.0, 19379, 500, "large_gamma"),
            (1.0, 10.0, 1000, 50, "boundary_gamma_one"),
        ],
    )
    def test_labels(self, gamma, q, m, g_c, label):
        got = classify_regime(RegimeParams(gamma, q, m, 1, g_c))
        assert got.label == label

    def test_collapse_carries_warning_and_proxies(self):
        got = classify_regime(RegimeParams(0.6, 10_000.0, 10**5, 1, 100))
        assert any("collapses" in w for w in got.warnings)
        assert got.proxies["q"] > got.proxies["collapse_threshold"]

    def test_boundary_gamma_warns(self):
        got = classify_regime(RegimeParams(1.0, 0.0, 1000, 1, 50))
        assert any("no tradeoff form" in w for w in got.warnings)


LABELS = {"r1", "r2", "r3", "collapse", "boundary_gamma_one", "large_gamma",
          "large_gamma_vanishing"}
FORM_SOURCES = {
    tradeoff_small_gamma: {"r1": "small_gamma_r1", "r2": "small_gamma_r2",
                           "r3": "small_gamma_r3"},
    tradeoff_large_gamma: {"large_gamma": "large_gamma",
                           "large_gamma_vanishing": "large_gamma"},
}


def test_forms_follow_the_classification():
    # over a grid that reaches every label (and the g_c > m/10 warning), each
    # tradeoff form gives the point of the classified regime where it applies
    # and raises RegimeError exactly where the classification rules it out
    seen, warned = set(), 0
    for gamma in (0.3, 0.6, 1 - 1e-9, 1.0, 1 + 1e-9, 1.28, 1.5, 3.0):
        for q in (0.0, 20.0, 1e4):
            for m in (1000, 10**5):
                for s in (1, 2):
                    for g_c in (4, 16, 100, 625, 2500, 20_000):
                        p = RegimeParams(gamma, q, m, s, g_c)
                        cls = classify_regime(p)
                        seen.add(cls.label)
                        warned += cls.label.startswith("large_gamma") and bool(cls.warnings)
                        for form, sources in FORM_SOURCES.items():
                            if cls.label not in sources or cls.warnings:
                                with pytest.raises(RegimeError):
                                    form(p)
                                continue
                            t = form(p)
                            assert t.source == sources[cls.label], (p, cls)
                            assert t.g_c == g_c
                            vanishing = cls.label == "large_gamma_vanishing"
                            assert ("vanishing_outage" in t.notes) == vanishing
    assert seen == LABELS
    assert warned


class TestTheoryPoints:
    def test_sources_below_saturation(self):
        pts = theory_points(RegimeParams(0.6, 20.0, 1000, 1, 100, k=4))
        assert [t.source for t in pts] == ["closed_form", "small_gamma_r2"]
        assert all(t.g_c == 100 for t in pts)

    def test_sources_past_saturation(self):
        pts = theory_points(RegimeParams(0.6, 20.0, 1000, 1, 625, k=4))
        assert [t.source for t in pts] == ["lower_bound", "small_gamma_r3"]
        # both describe the same saturated point
        assert pts[0].outage == pytest.approx(pts[1].outage, abs=1e-12)

    @pytest.mark.parametrize("gamma, q, m, g_c", [
        (0.6, 20.0, 1000, g) for g in (16, 25, 100, 400, 625, 2500)
    ] + [(1.28, 34.0, 19379, 500)])
    def test_every_point_at_its_own_cluster_size(self, gamma, q, m, g_c):
        # no form relabels a point: each row describes the geometry it was built from
        pts = theory_points(RegimeParams(gamma, q, m, 1, g_c))
        assert len(pts) == 2
        assert all(t.g_c == g_c for t in pts)

    def test_sources_large_gamma(self):
        pts = theory_points(RegimeParams(1.28, 34.0, 19379, 1, 500))
        assert [t.source for t in pts] == ["closed_form", "large_gamma"]

    def test_collapse_emits_no_regime_form(self):
        pts = theory_points(RegimeParams(0.6, 10_000.0, 10**5, 1, 100))
        assert [t.source for t in pts] == ["closed_form"]

    def test_boundary_gamma_emits_closed_form_only(self):
        p = RegimeParams(1.0, 10.0, 1000, 1, 50)
        pts = theory_points(p)
        assert [t.source for t in pts] == ["closed_form"]
        assert pts[0].outage == 1.0 - hit_rate_closed_form(p).value
        assert_matches(1.0 - pts[0].outage, pts[0].clamped, oracle(p)["closed_form"])

    @pytest.mark.parametrize("gamma, sources", [(150.0, ["closed_form"]), (1000.0, [])])
    def test_skips_forms_whose_arithmetic_fails(self, gamma, sources):
        # at q = 0 the large-gamma divisor (s*c1/gamma)**gamma underflows to 0,
        # and at gamma = 1000 a power in the closed form overflows
        p = RegimeParams(gamma, 0.0, 1000, 1, 100)
        with pytest.raises(ArithmeticError):
            tradeoff_large_gamma(p)
        assert [t.source for t in theory_points(p)] == sources

    def test_throughput_consistency(self):
        for g_c in (100, 625):
            p = RegimeParams(0.6, 20.0, 1000, 1, g_c, k=4, c_rate=2.0)
            for t in theory_points(p):
                assert t.throughput == pytest.approx(0.5 / g_c, rel=1e-9, abs=0)


class TestRegimeParams:
    def test_derived_quantities(self):
        p = RegimeParams(0.6, 20.0, 1000, 2, 50)
        assert p.phi == 2 * 49 - 1
        assert p.a_prime == pytest.approx(0.6 / 97)
        assert p.c2 == pytest.approx(20.0 * 0.6 / 97)
        assert p.c5 == pytest.approx(0.4)
        assert p.d == pytest.approx(0.02)
        assert p.rho == pytest.approx(p.c1 * 2 * 50 / 1000)
        assert p.alpha == pytest.approx(0.4 / 1.4)

    def test_alpha_requires_small_gamma(self):
        with pytest.raises(DomainError, match="alpha"):
            RegimeParams(1.2, 5.0, 1000, 1, 50).alpha

    def test_validation(self):
        with pytest.raises(DomainError):
            RegimeParams(0.0, 5.0, 1000, 1, 50)
        with pytest.raises(DomainError):
            RegimeParams(0.6, -1.0, 1000, 1, 50)
        with pytest.raises(DomainError, match="cluster too small"):
            RegimeParams(0.6, 5.0, 1000, 1, 2)

    @pytest.mark.parametrize("gamma,q", [(math.inf, 1.0), (math.nan, 1.0),
                                         (0.6, math.nan), (0.6, math.inf)])
    def test_rejects_non_finite_parameters(self, gamma, q):
        # before the check, gamma = inf divided by zero in theory_points and a
        # non-finite q gave NaN outages
        with pytest.raises(DomainError, match="finite"):
            theory_points(RegimeParams(gamma, q, 1000, 1, 100))

    def test_saturation_marks_support_boundary(self):
        # crossing saturation_g_c is exactly where rho crosses gamma
        p_lo = RegimeParams(0.6, 20.0, 1000, 1, 400)
        p_hi = RegimeParams(0.6, 20.0, 1000, 1, 625)
        assert p_lo.rho < p_lo.gamma
        assert p_hi.rho > p_hi.gamma
