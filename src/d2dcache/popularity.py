"""Mandelbrot-Zipf content popularity model.

A library of ``m`` files, ranked by decreasing popularity, is requested
according to

    p(f) = (f + q)**(-gamma) / sum_{j=1..m} (j + q)**(-gamma),  f = 1..m

where ``gamma > 0`` controls the skew and the plateau factor ``q >= 0``
flattens the head of the ranking.  ``q = 0`` degenerates to the classical
Zipf law.  The module also provides the generalized harmonic partial sums
of the model's weights, in O(1) time however long the range, and their
integral sandwich bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "MZipfDist",
    "PartialSumBounds",
    "partial_sum",
    "partial_sum_bounds",
]

# ranks, buckets, draws or grid points per chunk of a pass over a support, a guide
# table, a sample or a fit grid: each pass stays in flat memory
_SCAN_CHUNK = 1 << 16

# Steps of the guide-table walk before the rest of a draw is bisected;
# the expected walk is below one step, so few draws ever get this far.
_WALK_STEPS = 4

# B_2k / (2k)! for k = 1..P = 8: the Euler-Maclaurin coefficients of partial_sum
_EM_COEF = [c / math.factorial(2 * k) for k, c in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), start=1)]


def _head_terms(gamma: np.ndarray, q: np.ndarray, a: int, b: int) -> np.ndarray:
    """Least ``K <= b - a + 1`` whose remainder factor (see partial_sum) is <= 2**-53, or
    the underflow rank if smaller: past ``x = 2**(1075/gamma)``, ``x**-gamma`` rounds to 0.0."""
    with np.errstate(over="ignore"):  # |(gamma)_16| is inf past gamma ~ 1.8e19: the cap binds
        rising = np.multiply.reduce(np.abs(gamma[:, None] + np.arange(16)), axis=1)
        reach = (abs(_EM_COEF[-1]) * rising * 2.0**53) ** (1 / 16)
    # the cap is 2**64 up to gamma = 1075/64, beyond any reach: it binds only for large gamma
    reach = np.minimum(reach, np.exp2(1075 / np.maximum(gamma, 1075 / 64)) + 1) - q - a
    return np.maximum(0, np.ceil(np.minimum(reach, b - a + 1))).astype(np.int64)


def _check_law(gamma: float, q: float, m: int) -> int:
    """``int(m)``, once ``0 < gamma < inf``, ``0 <= q < inf`` and ``1 <= m < 2**63`` hold:
    the domain of a law, checked alike by :class:`MZipfDist` and the closed forms."""
    if not 0 < gamma < math.inf:
        raise DomainError(f"gamma must be finite and > 0, got {gamma}")
    if not 0 <= q < math.inf:
        raise DomainError(f"q must be finite and >= 0, got {q}")
    if not 1 <= int(m) < 2**63:
        raise DomainError(f"m must be in 1..2**63 - 1, got {m}")
    return int(m)


def _power_integral(gamma: float, x: float, width: float) -> float:
    """``integral_x^(x+width) t**(-gamma) dt``, continuous through ``gamma = 1``;
    anchored at the larger power, so that ``expm1`` gets an argument <= 0.
    From ``x = 0`` (finite only for ``gamma < 1``) it is ``width**(1-gamma)/(1-gamma)``."""
    if not x:
        return width ** (1.0 - gamma) / (1.0 - gamma)
    t = -abs(1.0 - gamma)
    log_ratio = math.log1p(width / x)
    anchor = x + width if gamma < 1 else x
    return anchor ** (1.0 - gamma) * math.expm1(t * log_ratio) / t if t else log_ratio


def partial_sum(gamma, q, a: int, b: int):
    """Generalized harmonic partial sum ``sum_{j=a..b} (j + q)**(-gamma)``.

    Defined for any real ``gamma``, ``q >= 0`` and ``1 <= a <= b``; O(1) in
    ``b - a`` (Johansson, arXiv:1309.2877).  ``gamma`` and ``q`` broadcast,
    and an array of points costs as many numpy passes as one point; each
    element equals a scalar call bit for bit, and scalars give a ``float``.
    With ``f(x) = (x + q)**(-gamma)``, the first ``K`` terms are summed in
    one numpy pass (all of them when ``b - a < K``) and the rest, from
    ``N = a + K``, is the Euler-Maclaurin series with ``P = 8`` corrections,

        integral_N^b f + (f(N) + f(b))/2
            + sum_{k=1..P} B_2k/(2k)! * (f^(2k-1)(b) - f^(2k-1)(N)),

    where ``f^(n)(x) = (-1)**n (gamma)_n (x + q)**(-gamma-n)``.  As ``f`` is
    positive and monotone, its integral over ``[N, b]`` is at most the tail,
    so the remainder obeys ``|R| <= |B_2P|/(2P)! |(gamma)_2P| (N+q)**(-2P)``
    times the tail.  ``K`` is the least count that makes this factor at most
    ``2**-53`` (11 at ``gamma = 1, q = 0, a = 1``; 95 at ``gamma = 50``; 0
    for large ``a + q``): only rounding is left, a few units in the last place.
    For large ``gamma``, ``K`` stops at the rank past which every term is 0.0
    and a tail that starts at 0.0 is dropped: memory is flat for every gamma.
    """
    gamma, q = np.broadcast_arrays(np.asarray(gamma, np.float64), np.asarray(q, np.float64))
    if np.isnan(gamma).any():
        raise DomainError("gamma must not be NaN")
    if not (q >= 0).all():  # NaN fails too
        raise DomainError(f"q must be >= 0, got {q.min()}")
    a, b = int(a), int(b)
    if a < 1 or b < a:
        raise DomainError(f"need 1 <= a <= b, got a={a}, b={b}")
    shape, gamma, q = gamma.shape, gamma.ravel(), q.ravel()  # 0-d powers round differently
    k = _head_terms(gamma, q, a, b)
    out = np.zeros(gamma.shape)
    for count in (np.flatnonzero(np.bincount(k)[1:]) + 1).tolist():  # np.unique: 20 ms first call
        # a row of terms per point, whose row sum is the pairwise sum of its terms
        rows = np.flatnonzero(k == count)
        terms = np.arange(a, a + count, dtype=np.float64) + q[rows, None]
        out[rows] = np.add.reduce(terms ** np.repeat(-gamma[rows], count).reshape(-1, count), axis=1)
    x = a + k + q  # the first tail point
    first = x ** -gamma
    rows = np.flatnonzero((a + k <= b) & (first > 0))  # past a term that is 0.0, all are
    g, x, y, width = gamma[rows], x[rows], b + q[rows], b - a - k[rows]
    tail, rising = 0.5 * (first[rows] + y ** (-g)), g.copy()  # rising = (gamma)_(2n+1)
    for n, coef in enumerate(_EM_COEF):
        tail += coef * rising * (x ** (-g - 2 * n - 1) - y ** (-g - 2 * n - 1))
        rising *= (g + 2 * n + 1) * (g + 2 * n + 2)
    t, log_ratio = -np.abs(1.0 - g), np.log1p(width / x)  # _power_integral by elements
    power = np.where(g < 1, x + width, x) ** (1.0 - g)  # anchored at the larger power
    out[rows] += np.divide(power * np.expm1(t * log_ratio), t, out=log_ratio, where=t < 0) + tail
    return float(out[0]) if not shape else out.reshape(shape)


def _guide_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inversion table ``(edges, guide)`` for :func:`_invert` over ranks ``1..L``.

    ``edges[r]`` is the cdf at rank ``r``: ``edges[0] = 0`` and the top
    entry is forced to 1.0 against rounding.  With ``K = max(L, min(16L,
    2**22))`` buckets (Chen & Asau, 1974), ``guide[b]`` is one more than the
    number of cdf values ``c`` with ``fl(c*K) < b``: the lowest rank a
    uniform in bucket ``b`` can map to.  A search from there takes about
    ``1 + L/K`` steps (Devroye, 1986, III.2.4).  O(K log L) to build in chunks.
    """
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    k = max(len(cdf), min(16 * len(cdf), 1 << 22))
    edges = np.concatenate(([0.0], cdf))
    cdf *= k
    guide = np.empty(k + 1, dtype=np.intp)
    for lo in range(0, k + 1, _SCAN_CHUNK):  # no K-sized temporaries
        hi = min(lo + _SCAN_CHUNK, k + 1)
        np.add(np.searchsorted(cdf, np.arange(lo, hi, dtype=np.float64)), 1, out=guide[lo:hi])
    return edges, guide


def _invert(table: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    """Ranks ``np.searchsorted(cdf, u, side="right") + 1`` of uniforms in [0, 1).

    The lookup starts at rank ``guide[floor(fl(u*K))]`` and walks up
    while ``edges[rank] <= u``.  Rounding of ``c*K`` is monotone in ``c``,
    so every cdf value the guide counts for that bucket lies below ``u``:
    the start never overshoots, and the walk ends on exactly the rank that
    ``searchsorted`` returns.  The expected walk is O(1) steps per draw.
    A draw still walking after ``_WALK_STEPS`` steps sits in a bucket that
    holds a long run of cdf values, such as the flat tail of a placement
    cdf; a binary search over ``edges`` finishes it in O(log m).
    """
    edges, guide = table
    shape = u.shape
    u = u.ravel()
    ranks = guide[(u * (len(guide) - 1)).astype(np.intp)]
    walk = np.flatnonzero(edges[ranks] <= u)
    for _ in range(_WALK_STEPS):
        if not walk.size:
            break
        ranks[walk] += 1
        walk = walk[edges[ranks[walk]] <= u[walk]]
    if walk.size:
        ranks[walk] = np.searchsorted(edges, u[walk], side="right")
    return ranks.reshape(shape)


@dataclass(frozen=True)
class PartialSumBounds:
    """Integral sandwich for a generalized harmonic partial sum."""

    lower: float
    upper: float
    exact: float


def partial_sum_bounds(gamma: float, q: float, a: int, b: int) -> PartialSumBounds:
    """Closed-form bounds on ``partial_sum(gamma, q, a, b)``.

    Comparing the sum with the integral of ``(x + q)**(-gamma)`` gives

        lower = integral_(a+q)^(b+q+1) x**(-gamma) dx
        upper = integral_(a+q)^(b+q) x**(-gamma) dx + (a+q)**(-gamma)

    and ``lower <= exact <= upper`` holds for every valid range.  The
    integrals are power differences over ``1 - gamma``; at ``gamma = 1``
    they take their log form.
    """
    exact = partial_sum(gamma, q, a, b)  # validates q and the range
    x, width = int(a) + q, int(b) - int(a)
    upper = _power_integral(gamma, x, width) + x ** (-gamma)
    return PartialSumBounds(lower=_power_integral(gamma, x, width + 1), upper=upper, exact=exact)


@dataclass(frozen=True)
class MZipfDist:
    """Mandelbrot-Zipf popularity distribution over ranks ``1..m``.

    Parameters
    ----------
    gamma : float
        Skew exponent, > 0.
    q : float
        Plateau factor, >= 0.
    m : int
        Library size, >= 1.

    Attributes
    ----------
    normalizer : float
        ``sum_{j=1..m} (j + q)**(-gamma)``, by :func:`partial_sum` in O(1).
    probs : numpy.ndarray
        Full pmf over ranks, ``probs[f-1] = p(f)``; read-only.  Built on
        first use (:meth:`pmf` or a caller); analysis and sampling read
        prefixes through :meth:`head` and never build it.
    """

    gamma: float
    q: float
    m: int
    normalizer: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m", _check_law(self.gamma, self.q, self.m))
        norm = partial_sum(self.gamma, self.q, 1, self.m)
        if not norm > 0:
            raise DomainError(f"gamma = {self.gamma} and q = {self.q} underflow every "
                              "weight (f + q)**-gamma to 0")
        object.__setattr__(self, "normalizer", norm)

    def _pmf(self, lo: int, hi: int) -> np.ndarray:
        """``p(f) = (f + q)**(-gamma) / normalizer`` for ranks ``f = lo+1..hi``."""
        p = np.arange(lo + 1, hi + 1, dtype=np.float64)
        p += self.q
        p **= -self.gamma
        p /= self.normalizer
        return p

    def head(self, k: int) -> np.ndarray:
        """The pmf of ranks ``1..k``, bit-equal to ``probs[:k]``; O(k)."""
        k = int(k)
        if not 0 <= k <= self.m:
            raise DomainError(f"prefix length must be in 0..{self.m}, got {k}")
        return self._pmf(0, k)

    @cached_property
    def probs(self) -> np.ndarray:
        probs = self.head(self.m)
        probs.flags.writeable = False
        return probs

    @lru_cache(maxsize=1)
    def _request_table(self, m_star: int) -> tuple[np.ndarray, np.ndarray]:
        """Inversion table over ranks ``1..m_star`` plus one bucket for all later ranks
        (over ``1..m`` at ``m_star = m``).  ``cumsum`` is sequential, so a uniform gets
        the full table's rank wherever that is ``<= m_star``.  The last table built is kept."""
        # the top edge is forced to 1.0, so the mass appended past m_star is never read
        probs = self.head(m_star)
        return _guide_table(probs if m_star == self.m else np.append(probs, 0.0))

    def pmf(self, f):
        """Probability of rank ``f`` (scalar or array of ints in ``1..m``)."""
        idx = np.asarray(f, dtype=np.int64)
        if np.any(idx < 1) or np.any(idx > self.m):
            raise DomainError(f"rank out of range 1..{self.m}")
        out = self.probs[idx - 1]
        return float(out) if np.isscalar(f) or idx.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size=None):
        """Draw ranks by inversion of the cdf through a guide table.

        Returns a python int when ``size`` is None, else an int64 array of
        the requested shape.  The first draw builds the cdf and its guide
        table, O(m) memory; after that a draw costs O(1) expected time, in
        chunks that keep very large requests in flat memory.
        """
        out = np.empty(() if size is None else size, dtype=np.int64)
        flat = out.reshape(-1)  # a view of the fresh, contiguous out
        for lo in range(0, flat.size, _SCAN_CHUNK):
            chunk = flat[lo:lo + _SCAN_CHUNK]
            chunk[:] = _invert(self._request_table(self.m), rng.random(chunk.size))
        return int(out) if size is None else out
