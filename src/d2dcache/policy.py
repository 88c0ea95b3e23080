"""Optimal random cache placement for clustered D2D delivery.

Each device independently fills its ``s`` cache slots by sampling files
from a placement distribution ``p_c``.  A request for file ``f`` by a user
in a cluster of ``g_c`` devices is served locally when at least one of the
``g_c - 1`` other devices holds ``f``, which happens with probability
``1 - (1 - p_c(f))**(s*(g_c-1))``.  Maximizing the expected local-service
probability over placement distributions is a concave problem whose KKT
conditions have a water-filling solution:

    p_c(f) = max(0, 1 - nu / z_f),    z_f = p(f)**(1/phi),

with tilt exponent ``phi = s*(g_c-1) - 1`` and water level ``nu`` chosen so
the placement sums to one.  The support is a prefix ``1..m_star`` of the
popularity ranking because ``z`` is non-increasing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError
from .popularity import _SCAN_CHUNK, MZipfDist, _guide_table

__all__ = [
    "CachingPolicy",
    "waterfill",
    "hit_probability",
    "solve_cutoff_constant",
]

_FIRST_PREFIX = 1024  # ranks in the first chunk of the water-level scan of ``waterfill``


def _exponent_denom(s: int, g_c: int) -> int:
    """Tilt exponent ``s*(g_c-1) - 1`` of a cluster geometry, checked to be >= 1.

    The one check of the geometry rule: the network config, the regime
    parameters and the placement all validate through here.  A non-integral
    ``s`` or ``g_c`` is rejected, not truncated into another geometry.
    """
    if s != int(s) or g_c != int(g_c):
        raise ConfigError(f"s and g_c must be integers, got s={s}, g_c={g_c}")
    s, g_c = int(s), int(g_c)
    if s < 1:
        raise ConfigError(f"s must be >= 1, got {s}")
    if g_c < 2:
        raise ConfigError(f"cluster size g_c must be >= 2, got {g_c}")
    phi = s * (g_c - 1) - 1
    if phi < 1:
        raise ConfigError(
            f"cluster too small for policy exponent: s*(g_c-1) = {phi + 1} < 2"
        )
    return phi


@dataclass(frozen=True)
class CachingPolicy:
    """Water-filling placement over ranks ``1..m``, stored as its support.

    Attributes
    ----------
    probs : numpy.ndarray
        Placement mass of the support ``1..m_star``; ``probs[f-1]`` is the
        probability that a single cache slot draws file ``f``.  Every rank
        past ``m_star`` has mass 0.
    nu : float
        Water level of the KKT solution.
    m : int
        Library size the policy was built for.
    exponent_denom : int
        Tilt exponent ``s*(g_c-1) - 1`` the policy was built for.
    """

    probs: np.ndarray
    nu: float
    m: int
    exponent_denom: int

    def __post_init__(self):
        if not 1 <= len(self.probs) <= self.m:
            raise DomainError(f"support of {len(self.probs)} ranks outside 1..m = 1..{self.m}")

    @property
    def m_star(self) -> int:
        """Number of files with positive placement mass (support prefix)."""
        return len(self.probs)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        # inversion table of the placement draw, built once per policy; its
        # top edge is exactly 1.0, so no draw lands past m_star
        return _guide_table(self.probs)


def waterfill(dist: MZipfDist, s: int, g_c: int) -> CachingPolicy:
    """Hit-probability-optimal placement for one cluster geometry.

    Scans the water level incrementally: with ``nu_m = (m-1) / sum_{f<=m}
    1/z_f``, the support grows while ``z_{m+1} > nu_m`` and stops at the
    unique cutoff where ``z_{m_star} >= nu`` and the next tilted popularity
    falls below the level.  O(m_star) time; past the placement, memory is one
    chunk of ranks, ``_FIRST_PREFIX`` doubling up to ``_SCAN_CHUNK``, and the
    rank after it.  The running sum carries into each chunk's first term and
    ``cumsum`` adds in order, so the chunking does not change a bit.
    """
    phi = _exponent_denom(s, g_c)
    m = dist.m
    lo, size, carry = 0, min(_FIRST_PREFIX, _SCAN_CHUNK), 0.0
    while True:
        hi = min(lo + size, m)
        z = dist._pmf(lo, min(hi + 1, m)) ** (1.0 / phi)
        # a tilted pmf that underflows to 0 (very large gamma) gives 1/z = inf;
        # the support ends before that rank, so no inf reaches nu
        with np.errstate(divide="ignore"):
            inv = 1.0 / z[:hi - lo]
        inv[0] += carry
        csum = np.cumsum(inv)
        nu_at = np.arange(lo, hi, dtype=np.float64) / csum
        # first m with z[m+1] <= nu_m ends the support; otherwise all of 1..m
        below = np.flatnonzero(z[1:] <= nu_at[:len(z) - 1])
        if below.size or hi == m:
            break
        lo, size, carry = hi, min(2 * size, _SCAN_CHUNK), csum[-1]
    m_star = lo + int(below[0]) + 1 if below.size else m
    nu = float(nu_at[m_star - 1 - lo])
    probs = dist._pmf(0, m_star)
    probs **= 1.0 / phi
    np.subtract(1.0, np.divide(nu, probs, out=probs), out=probs)
    # a rank whose tilted popularity ties the level has mass 0 in exact
    # arithmetic, which rounding can turn negative: the support ends before it
    probs = probs[:np.count_nonzero(probs > 0.0)]
    probs.flags.writeable = False
    return CachingPolicy(probs=probs, nu=nu, m=m, exponent_denom=phi)


def hit_probability(dist: MZipfDist, policy: CachingPolicy, s: int, g_c: int) -> float:
    """Probability that a random request is served inside the cluster.

    Averages ``1 - (1 - p_c(f))**(s*(g_c-1))`` over the request pmf; the
    requesting device's own cache is not counted.  Terms past ``m_star`` are
    exactly 0: one correctly rounded ``math.fsum`` over the support's chunks.
    """
    phi = _exponent_denom(s, g_c)
    if policy.m != dist.m:
        raise DomainError(f"policy covers {policy.m} files, popularity has {dist.m}")
    return math.fsum(itertools.chain.from_iterable(
        (dist._pmf(lo, min(lo + _SCAN_CHUNK, policy.m_star))
         * (1.0 - (1.0 - policy.probs[lo:lo + _SCAN_CHUNK]) ** (phi + 1))).tolist()
        for lo in range(0, policy.m_star, _SCAN_CHUNK)))


def solve_cutoff_constant(c2: float) -> float:
    """Solve ``c = 1 + c2*log(1 + c/c2)`` for ``c >= 1``.

    The solution scales the asymptotic support cutoff of the water-filling
    placement.  ``c2 = 0`` returns exactly 1.  Monotone bisection to an
    absolute tolerance of 1e-12, or to adjacent doubles where they are
    further apart (``c >= 2**13``).
    """
    if c2 < 0:
        raise DomainError(f"c2 must be >= 0, got {c2}")
    if c2 == 0.0:
        return 1.0

    def residual(c: float) -> float:
        return c - 1.0 - c2 * math.log1p(c / c2)

    lo, hi = 1.0, 2.0
    while residual(hi) < 0.0:
        hi *= 2.0
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-12 and lo < mid < hi:
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
