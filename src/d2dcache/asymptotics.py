"""Closed-form performance laws for the clustered D2D caching network.

Evaluates the leading-order expressions for the optimal hit rate and the
throughput-outage tradeoff in the large-library limit, and classifies
parameter points into the regimes where each expression is valid.  The
exact finite-size sums live in :mod:`d2dcache.policy`; everything here is
an approximation whose error vanishes only asymptotically, so callers are
expected to plot these curves next to their exact counterparts.

Conventions used throughout:

* ``phi = s*(g_c-1) - 1`` is the tilt exponent of the placement problem,
  ``a' = gamma/phi`` the tilted decay rate, ``c2 = q*a'`` the rescaled
  plateau and ``c1`` the cutoff constant (see ``solve_cutoff_constant``).
* For ``gamma < 1`` the natural cluster-size scale is ``m**alpha`` with
  ``alpha = (1-gamma)/(2-gamma)``; three regimes arise as ``g_c`` grows
  from that scale toward the saturation point ``gamma*m/(c1*s)`` where the
  placement support hits the whole library.
* For ``gamma > 1`` the head of the popularity law dominates and a single
  expression covers ``g_c = o(m)``.

Order conditions like ``q = O(s*g_c/gamma)`` cannot be checked at a single
point; the module applies documented factor-10 proxies and exposes the
proxy values so callers can judge borderline cases themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, RegimeError
from .policy import _exponent_denom, solve_cutoff_constant
from .popularity import _check_law, _power_integral

__all__ = [
    "RegimeParams",
    "TradeoffPoint",
    "ClampedValue",
    "Classification",
    "hit_rate_closed_form",
    "hit_rate_floor",
    "tradeoff_small_gamma",
    "tradeoff_large_gamma",
    "classify_regime",
    "theory_points",
]

# factor-10 proxies for the asymptotic order conditions
COLLAPSE_FACTOR = 10.0  # q > 10*s*g_c/gamma: plateau swamps the cluster cache
SPARSE_FACTOR = 10.0  # g_c <= m/10 stands in for g_c = o(m)
VANISH_FACTOR = 10.0  # q <= s*g_c/(10*gamma) stands in for q = o(s*g_c/gamma)


@dataclass(frozen=True)
class RegimeParams:
    """Parameter point for the closed-form expressions.

    ``k`` is the time-reuse factor (one of every ``k`` clusters is active)
    and ``c_rate`` the in-cluster link rate, so every throughput below is
    in units of ``c_rate/k`` per cluster.  Derived quantities are plain
    properties, recomputed on each access.
    """

    gamma: float
    q: float
    m: int
    s: int
    g_c: int
    k: int = 1
    c_rate: float = 1.0

    def __post_init__(self):
        _check_law(self.gamma, self.q, self.m)
        if self.k < 1 or not self.c_rate > 0:
            raise DomainError("need k >= 1 and c_rate > 0")
        _exponent_denom(self.s, self.g_c)

    @property
    def phi(self) -> int:
        return _exponent_denom(self.s, self.g_c)

    @property
    def a_prime(self) -> float:
        return self.gamma / self.phi

    @property
    def c2(self) -> float:
        return self.q * self.a_prime

    @property
    def c1(self) -> float:
        return solve_cutoff_constant(self.c2)

    @property
    def m_star_asym(self) -> float:
        """Large-cluster approximation of the water-filling support size, capped at m."""
        return min(self.c1 * self.s * self.g_c / self.gamma, float(self.m))

    @property
    def alpha(self) -> float:
        # cluster-size exponent of the subcritical regime; meaningless
        # outside gamma < 1
        if self.gamma >= 1:
            raise DomainError(f"alpha requires gamma < 1, got {self.gamma}")
        return (1.0 - self.gamma) / (2.0 - self.gamma)

    @property
    def c3(self) -> float:
        return self.g_c / self.m**self.alpha

    @property
    def c4(self) -> float:
        return self.q / self.m**self.alpha

    @property
    def c5(self) -> float:
        return self.q / self.g_c

    @property
    def rho(self) -> float:
        return self.c1 * self.s * self.g_c / self.m

    @property
    def d(self) -> float:
        return self.q / self.m

    @property
    def saturation_g_c(self) -> float:
        """Cluster size beyond which the placement support covers all of m."""
        return self.gamma * self.m / (self.c1 * self.s)


class ClampedValue(NamedTuple):
    value: float
    clamped: bool


def _clamp01(x: float) -> ClampedValue:
    if x < 0.0:
        return ClampedValue(0.0, True)
    if x > 1.0:
        return ClampedValue(1.0, True)
    return ClampedValue(x, False)


@dataclass(frozen=True)
class TradeoffPoint:
    """One (outage, throughput) operating point with its provenance."""

    g_c: int
    outage: float
    throughput: float
    source: str
    outage_stderr: float | None = None
    throughput_stderr: float | None = None
    clamped: bool = False
    notes: tuple = ()


def _tilted_integral(gamma: float, lo: float, w: float) -> float:
    """``I(lo, w) - w*(lo+w)**(-gamma)``, where ``I(x, w) = integral_x^(x+w) t**(-gamma) dt``:
    the bracket ``(lo+w)**(-gamma) * (gamma*w + lo) - lo**(1-gamma)`` over ``1 - gamma``."""
    return _power_integral(gamma, lo, w) - w * (lo + w) ** (-gamma)


def _library_integral(p: RegimeParams) -> float:
    """``I(q+1, m-1)``, the denominator of the closed form and of r2."""
    if p.m < 2:
        raise RegimeError("ranks 1..m span an empty range at m = 1; no closed form applies")
    return _power_integral(p.gamma, p.q + 1.0, p.m - 1)


def hit_rate_closed_form(p: RegimeParams) -> ClampedValue:
    """Large-cluster approximation of the optimal hit rate.

    Valid while the placement cutoff ``x = c1*s*g_c/gamma`` stays inside
    the library; evaluates

        [(x+q)^(1-g) - (1-g)*(x+q)^(-g)*x - (q+1)^(1-g)]
        / [(m+q)^(1-g) - (q+1)^(1-g)]

    with ``g = gamma``, clamped to [0, 1] with a flag.  Both brackets are
    divided through by ``1 - g`` and taken as integrals of ``t^(-g)``,
    ``I(q+1, x-1) - x*(x+q)^(-g)`` over ``I(q+1, m-1)``, so the form is
    continuous through ``gamma = 1``, where it takes its log limit.  At
    ``m = 1`` or for ``g_c`` past the saturation point it raises
    ``RegimeError``; use ``hit_rate_floor`` past saturation.
    """
    if p.g_c >= p.saturation_g_c:
        raise RegimeError(
            f"g_c = {p.g_c} >= saturation {p.saturation_g_c:.6g}; placement support "
            "covers the whole library, use hit_rate_floor"
        )
    x = p.c1 * p.s * p.g_c / p.gamma
    num = _power_integral(p.gamma, p.q + 1.0, x - 1.0) - x * (x + p.q) ** (-p.gamma)
    return _clamp01(num / _library_integral(p))


def hit_rate_floor(p: RegimeParams) -> ClampedValue:
    """Lower bound on the optimal hit rate past the saturation point.

    For ``gamma < 1`` and ``rho = p.rho >= gamma`` (so ``g_c = rho*m/(c1*s)``),

        1 - (1-gamma) * exp(-(rho/c1 - gamma))
            / ([(1+d)^(1-gamma) - d^(1-gamma)]
               * [(1+d)^(gamma/phi+1) - d^(gamma/phi+1)]^phi)

    with ``d = q/m``.  The first bracket over ``1 - gamma`` is taken as
    ``I(d, 1)``, the integral of ``t^(-gamma)`` over ``[d, 1 + d]``, so it
    keeps full precision as ``gamma`` nears 1 and reads ``1/(1-gamma)`` at
    ``q = 0``.  The second is ``1 + u``, ``u = (1+d)((1+d)^eps - 1) - d(d^eps - 1)``
    with ``eps = gamma/phi`` (two positive terms), raised to ``phi`` as
    ``exp(phi * log1p(u))``.
    """
    if p.gamma >= 1.0:
        raise RegimeError(
            f"saturated-cutoff bound needs gamma < 1, got {p.gamma}"
        )
    if p.rho < p.gamma:
        raise DomainError(f"rho must be >= gamma, got rho={p.rho} < {p.gamma}")
    d, eps = p.d, p.gamma / p.phi
    u = (1.0 + d) * math.expm1(eps * math.log1p(d)) - (d * math.expm1(eps * math.log(d)) if d else 0.0)
    val = 1.0 - math.exp(-(p.rho / p.c1 - p.gamma)) / (_power_integral(p.gamma, d, 1.0)
                                                     * math.exp(p.phi * math.log1p(u)))
    return _clamp01(val)


def _check_plateau_order(p: RegimeParams):
    limit = COLLAPSE_FACTOR * p.s * p.g_c / p.gamma
    if p.q > limit:
        raise RegimeError(
            f"q = {p.q} exceeds {COLLAPSE_FACTOR:g}x s*g_c/gamma = {limit:.6g}; "
            "plateau dominates the cluster cache and outage collapses toward 1"
        )


def tradeoff_small_gamma(p: RegimeParams, regime: str) -> TradeoffPoint:
    """Leading-order throughput-outage point for ``gamma < 1`` at ``p``'s geometry.

    ``regime`` selects which growth law of the cluster size applies:

    * ``"r1"`` - ``g_c = c3 * m**alpha``;
    * ``"r2"`` - ``g_c`` between ``m**alpha`` and saturation;
    * ``"r3"`` - saturated support, ``g_c = rho*m/(c1*s)``.

    Every constant comes from ``p``, and the point carries ``p.g_c``; to
    trace a law, build one ``RegimeParams`` per cluster size.  Outage (and,
    in r1, throughput) is clamped with a flag when the leading-order form
    exits its range at small scale.
    """
    if p.gamma >= 1.0:
        raise RegimeError(
            f"small-gamma tradeoff needs gamma < 1, got {p.gamma}; "
            "use tradeoff_large_gamma"
        )
    _check_plateau_order(p)
    ck = p.c_rate / p.k
    c1 = p.c1
    if regime == "r1":
        c3, ma = p.c3, p.m**p.alpha
        b = (1.0 - p.gamma) * _tilted_integral(p.gamma, p.c4, p.s * c1 * c3 / p.gamma)
        t = ck * (1.0 / (c3 * ma)) * -math.expm1(-(c3 / 2.0) * b)
        po = _clamp01(1.0 - b / ma)
        notes = ("throughput_clamped",) if t < 0.0 else ()
        return TradeoffPoint(
            g_c=p.g_c,
            outage=po.value,
            throughput=max(t, 0.0),
            source="small_gamma_r1",
            clamped=po.clamped or bool(notes),
            notes=notes,
        )
    if regime == "r2":
        bracket = _tilted_integral(p.gamma, p.q / p.g_c, p.s * c1 / p.gamma)
        po = _clamp01(1.0 - p.g_c ** (1.0 - p.gamma) * bracket / _library_integral(p))
        return TradeoffPoint(
            g_c=p.g_c,
            outage=po.value,
            throughput=ck / p.g_c,
            source="small_gamma_r2",
            clamped=po.clamped,
        )
    if regime == "r3":
        floor = hit_rate_floor(p)  # raises for rho < gamma
        return TradeoffPoint(
            g_c=p.g_c,
            outage=1.0 - floor.value,
            throughput=ck * p.s * c1 / (p.rho * p.m),
            source="small_gamma_r3",
            clamped=floor.clamped,
        )
    raise DomainError(f"unknown regime {regime!r}; expected r1, r2 or r3")


def tradeoff_large_gamma(p: RegimeParams) -> TradeoffPoint:
    """Leading-order throughput-outage point for ``gamma > 1``.

    ``po = c6^(gamma-1) * (s*c1 + c6) / (s*c1/gamma + c6)^gamma`` with
    ``c6 = q/g_c``; requires ``g_c <= m/10`` as the finite proxy for
    ``g_c = o(m)``.  When ``q <= s*g_c/(10*gamma)`` the point carries a
    ``vanishing_outage`` note: the outage tends to zero at scale.
    """
    if p.gamma <= 1.0:
        raise RegimeError(
            f"large-gamma tradeoff needs gamma > 1, got {p.gamma}; "
            "use tradeoff_small_gamma"
        )
    if p.g_c > p.m / SPARSE_FACTOR:
        raise RegimeError(
            f"g_c = {p.g_c} > m/{SPARSE_FACTOR:g} = {p.m / SPARSE_FACTOR:.6g}; "
            "cluster is not small relative to the library"
        )
    c1 = p.c1
    c6 = p.c5  # q/g_c
    po = _clamp01(
        c6 ** (p.gamma - 1.0)
        * (p.s * c1 + c6)
        / (p.s * c1 / p.gamma + c6) ** p.gamma
    )
    notes = ()
    if p.q <= p.s * p.g_c / (VANISH_FACTOR * p.gamma):
        notes = ("vanishing_outage",)
    return TradeoffPoint(
        g_c=p.g_c,
        outage=po.value,
        throughput=(p.c_rate / p.k) / p.g_c,
        source="large_gamma",
        clamped=po.clamped,
        notes=notes,
    )


@dataclass(frozen=True)
class Classification:
    label: str
    warnings: tuple
    proxies: dict


def classify_regime(p: RegimeParams) -> Classification:
    """Name the regime a parameter point falls into.

    Labels: ``r1``/``r2``/``r3`` (gamma < 1, by cluster size),
    ``collapse`` (gamma < 1 with the plateau dominating; outage tends
    to 1), ``large_gamma`` / ``large_gamma_vanishing`` (gamma > 1), and
    ``boundary_gamma_one``.  The factor-10 proxy values behind each
    threshold are returned so borderline calls can be audited.
    """
    proxies = {
        "q": p.q,
        "collapse_threshold": COLLAPSE_FACTOR * p.s * p.g_c / p.gamma,
        "saturation_g_c": p.saturation_g_c,
        "g_c": float(p.g_c),
    }
    warnings: tuple = ()
    if p.gamma > 1.0:
        proxies["vanish_threshold"] = p.s * p.g_c / (VANISH_FACTOR * p.gamma)
        proxies["sparse_limit"] = p.m / SPARSE_FACTOR
        if p.g_c > p.m / SPARSE_FACTOR:
            warnings += (
                "g_c exceeds m/10; the large-gamma form is outside its range",
            )
        label = (
            "large_gamma_vanishing"
            if p.q <= proxies["vanish_threshold"]
            else "large_gamma"
        )
        return Classification(label=label, warnings=warnings, proxies=proxies)
    if p.gamma == 1.0:
        warnings += ("no tradeoff form is defined at gamma = 1; the hit-rate closed form "
                     "and the exact sums still apply",)
        return Classification(label="boundary_gamma_one", warnings=warnings, proxies=proxies)
    proxies["alpha_scale"] = p.m**p.alpha
    proxies["c3"] = p.c3
    if p.q > proxies["collapse_threshold"]:
        warnings += (
            "plateau q exceeds 10x s*g_c/gamma; outage collapses toward 1",
        )
        return Classification(label="collapse", warnings=warnings, proxies=proxies)
    if p.g_c >= p.saturation_g_c:
        label = "r3"
    elif p.c3 <= 10.0:
        label = "r1"
    else:
        label = "r2"
    return Classification(label=label, warnings=warnings, proxies=proxies)


def theory_points(p: RegimeParams) -> list[TradeoffPoint]:
    """All applicable closed-form points at ``p``'s own geometry.

    Emits the hit-rate approximation (or its saturated-regime floor) plus
    the classified leading-order tradeoff point.  Points never include the
    exact sum or simulation; ``simulator.curve_points`` and ``sweep`` add
    those, each with its own tag.
    """
    ck = p.c_rate / p.k
    pts: list[TradeoffPoint] = []
    # the closed form, or past saturation (or at m = 1) the floor, if either applies
    for source, rate in (("closed_form", hit_rate_closed_form),
                         ("lower_bound", hit_rate_floor)):
        try:
            v = rate(p)
        except (RegimeError, DomainError):
            continue
        pts.append(TradeoffPoint(g_c=p.g_c, outage=1.0 - v.value, throughput=ck / p.g_c,
                                 source=source, clamped=v.clamped))
        break
    cls = classify_regime(p)
    try:
        if cls.label in ("r1", "r2", "r3"):
            pts.append(tradeoff_small_gamma(p, cls.label))
        elif cls.label.startswith("large_gamma"):
            pts.append(tradeoff_large_gamma(p))
    except (RegimeError, DomainError):
        pass
    return pts
