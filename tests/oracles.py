"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own code paths: naive
accumulation instead of chunked pairwise sums, hash maps instead of the
streaming dedupe, projected-gradient ascent instead of the closed-form
water-filling solution.  Tests compare the package against these.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from array import array
from dataclasses import dataclass

import numpy as np

from d2dcache.errors import DomainError
from d2dcache.fitting import (
    _LOW_BYTES, _REFINE_POINTS, _SHRINK, LOG_DTYPE, FitResult, FitSearch, _parse_ts, _q_grid,
    kl_divergence,
)
from d2dcache.policy import _exponent_denom
from d2dcache.popularity import MZipfDist, partial_sum
from d2dcache.simulator import Realization

# chunk length of the first, streamed partial sum
_CHUNK = 1 << 22


def full_placement(policy):
    """A policy's placement over all m ranks: its support padded with zeros."""
    return np.pad(policy.probs, (0, policy.m - policy.m_star))


def placement_cdf(probs):
    """Running sum of a pmf with its top entry forced to 1.0."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return cdf


def oneshot_guide(probs):
    """The first guide table of ``popularity._guide_table``: all K + 1 buckets
    in one ``searchsorted`` of ``cdf * K``, three K-sized arrays at once."""
    cdf = placement_cdf(probs)
    k = max(len(cdf), min(16 * len(cdf), 1 << 22))
    return np.searchsorted(cdf * k, np.arange(k + 1), side="left") + 1


def bisect_ranks(cdf, u):
    """Ranks 1..m of uniforms ``u`` by inversion of ``cdf``, one bisection each."""
    cdf = cdf.tolist()
    return np.array([bisect.bisect_right(cdf, x) + 1 for x in np.ravel(u).tolist()],
                    dtype=np.int64).reshape(np.shape(u))


def dense_table_realize(config, dist, policy, rng):
    """One network state, computed as the first simulator did.

    Binary-search inversion of both cdfs, then a held-count table with a
    column for every rank up to the largest cached *or requested* one.
    Consumes the generator exactly as ``simulator.realize`` must.
    """
    n = config.n
    clusters = config.cluster_map()
    u = rng.random((n, config.s))
    caches = np.searchsorted(placement_cdf(full_placement(policy)), u, side="right") + 1
    u = rng.random(n)
    requests = np.searchsorted(placement_cdf(dist.probs), u, side="right") + 1

    width = int(max(caches.max(), requests.max())) + 1
    slot_keys = (clusters[:, None] * width + caches).ravel()
    held = np.bincount(slot_keys, minlength=config.n_clusters * width)
    req_keys = clusters * width + requests
    own_slots = np.count_nonzero(caches == requests[:, None], axis=1)
    linked = held[req_keys] - own_slots >= 1
    self_hit = own_slots >= 1
    served = (linked | self_hit) if config.include_self_cache else linked
    potential_links = np.bincount(clusters[linked], minlength=config.n_clusters)
    return Realization(
        caches=caches,
        requests=requests,
        linked=linked,
        self_hit=self_hit,
        served=served,
        potential_links=potential_links,
        good_clusters=int(np.count_nonzero(potential_links)),
    )


def naive_partial_sum(gamma, q, a, b):
    """Left-to-right python-float accumulation of sum (j+q)^(-gamma)."""
    total = 0.0
    for j in range(a, b + 1):
        total += (j + q) ** (-gamma)
    return total


def streamed_partial_sum(gamma, q, a, b):
    """The first ``partial_sum``, kept verbatim: every term, summed in chunks.

    Terms are accumulated chunk-wise with numpy's pairwise summation and the
    chunk totals are combined exactly (math.fsum).  ``partial_sum`` must
    equal it bit for bit where it sums every term itself.
    """
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    a = int(a)
    b = int(b)
    if a < 1 or b < a:
        raise DomainError(f"need 1 <= a <= b, got a={a}, b={b}")
    totals = []
    for lo in range(a, b + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, b)
        j = np.arange(lo, hi + 1, dtype=np.float64)
        totals.append(float(np.sum((j + q) ** (-gamma))))
    return math.fsum(totals)


def hurwitz_partial_sum(gamma, q, a, b, dps=80):
    """``sum_{j=a..b} (j+q)^(-gamma)`` as a difference of Hurwitz zetas.

    ``zeta(gamma, a+q) - zeta(gamma, b+1+q)``, or the digamma difference
    ``psi(b+1+q) - psi(a+q)`` at ``gamma = 1``.  Near ``gamma = 1`` both
    zetas are close to ``1/(gamma-1)`` and cancel, so the working precision
    must exceed double precision by that many digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        g, x = mpmath.mpf(gamma), mpmath.mpf(q) + a
        y = mpmath.mpf(q) + b + 1
        if g == 1:
            return float(mpmath.digamma(y) - mpmath.digamma(x))
        return float(mpmath.zeta(g, x) - mpmath.zeta(g, y))


def mpmath_normalizer(gamma, q, m, dps=50):
    """Arbitrary-precision normalizer, returned as a float.

    Summed term by term up to ``m = 2*10**4`` and past that, where a term
    costs ~30 us, as :func:`hurwitz_partial_sum`'s zeta difference.  On the
    laws of the test suite the two agree to ~1e-46 relative at ``m = 10**5``.
    """
    if m > 20_000:
        return hurwitz_partial_sum(gamma, q, 1, m)
    import mpmath

    with mpmath.workdps(dps):
        s = mpmath.fsum(mpmath.power(j + q, -gamma) for j in range(1, m + 1))
        return float(s)


def hashmap_dedupe(pairs):
    """Unique-access counts per content from (user, content) pairs.

    Returns counts sorted by (count desc, first appearance of the content),
    plus the number of distinct users.  Pure-dict reference implementation.
    """
    users_by_content: dict = {}
    first_seen: dict = {}
    all_users = set()
    for user, content in pairs:
        all_users.add(user)
        if content not in users_by_content:
            users_by_content[content] = set()
            first_seen[content] = len(first_seen)
        users_by_content[content].add(user)
    items = sorted(
        users_by_content.items(), key=lambda kv: (-len(kv[1]), first_seen[kv[0]])
    )
    counts = [len(us) for _, us in items]
    return counts, len(all_users)


def csv_reader_log(path):
    """``load_access_log`` as one ``csv.reader`` loop, coding ids through dicts."""
    users: dict = {}
    contents: dict = {}
    user_codes, content_codes, stamps = array("q"), array("q"), array("d")
    bad = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError("empty file: expected header user_id,content_id[,timestamp]")
        header = [h.strip() for h in header]
        if header not in (["user_id", "content_id"], ["user_id", "content_id", "timestamp"]):
            raise DomainError(
                f"expected header user_id,content_id[,timestamp], got {','.join(header)}"
            )
        width = len(header)
        for ln, row in enumerate(reader, start=2):
            if len(row) != width:
                bad.append((ln, f"expected {width} fields, got {len(row)}"))
                continue
            user = row[0].strip()
            content = row[1].strip()
            if not user or not content:
                bad.append((ln, "empty user_id or content_id"))
                continue
            ts = math.nan
            if width == 3:
                try:
                    ts = _parse_ts(row[2].strip())
                except ValueError:
                    bad.append((ln, f"bad timestamp {row[2].strip()!r}"))
                    continue
            user_codes.append(users.setdefault(user, len(users)))
            content_codes.append(contents.setdefault(content, len(contents)))
            stamps.append(ts)
    records = np.empty(len(stamps), dtype=LOG_DTYPE)
    records["user"], records["content"], records["timestamp"] = user_codes, content_codes, stamps
    return records, bad


_windows = np.lib.stride_tricks.sliding_window_view


class UniqueIdCoder:
    """``fitting._IdCoder`` as it was before its one-sort ``codes``.

    A short id's word is keyed as there, but every long id's word is 0, and
    a dict maps each long id to its first row.  ``codes`` finds each key's
    first row by ``np.unique`` and ``np.minimum.at``, and ranks the first
    rows by a scatter and a cumulative sum over all rows.  ``add`` takes the
    row of the batch's first id as its last argument.
    """

    def __init__(self):
        self.words: list = [np.zeros(0, dtype=np.uint64)]  # per batch: each row's word
        self.long_ids: dict = {}  # bytes of a long id -> the row where it first appears
        self.long_rows: list = [np.zeros(0, dtype=np.int64)]  # per batch: rows with a long id
        self.long_first: list = [np.zeros(0, dtype=np.int64)]  # ... and that id's first row

    def add(self, raw, lo, hi, first_row: int):
        size = hi - lo
        short = np.where(size < 8, size, 0)
        word = _windows(raw, 8)[lo].view("<u8")[:, 0] & _LOW_BYTES[short]
        self.words.append(word | short.astype(np.uint64) << np.uint64(56))
        rows = np.flatnonzero(size >= 8)
        if len(rows):
            ids, data, at = self.long_ids, raw.tobytes(), first_row + rows
            self.long_first.append(np.array([ids.setdefault(data[a:b], r) for a, b, r in zip(
                lo[rows].tolist(), hi[rows].tolist(), at.tolist())], dtype=np.int64))
            self.long_rows.append(at)

    def codes(self) -> np.ndarray:
        words = np.concatenate(self.words)
        _, inverse = np.unique(words, return_inverse=True)
        self.words = words = []  # both copies freed before the row-sized arrays below
        # each key's first row; np.unique's stable sort for return_index is several times slower
        first = np.full(inverse.max(initial=-1) + 1, len(inverse))
        np.minimum.at(first, inverse, np.arange(len(inverse)))
        first = first[inverse]  # now per row; the rows of key 0, the long ids, are set next
        del inverse
        first[np.concatenate(self.long_rows)] = np.concatenate(self.long_first)
        rank = np.zeros(len(first), dtype=np.int64)  # 1 at each first row, then its rank
        rank[first] = 1
        np.cumsum(rank, out=rank)
        rank -= 1
        return rank[first]


def loop_fit_mzipf(emp, m=None, search=None, normalizer=partial_sum):
    """``fitting.fit_mzipf`` as one loop over grid points, a scalar normalizer call each.

    ``normalizer(gamma, q, 1, m)`` stands for ``partial_sum``.  Validation is
    left out: callers pass data ``fit_mzipf`` accepts.
    """
    r_obs = len(emp.counts)
    m = r_obs if m is None else m
    s = search or FitSearch()
    g_lo, g_hi = s.gamma_range
    q_lo, q_hi = s.q_range if s.q_range is not None else (0.0, float(m))

    p = emp.probs
    ranks = np.arange(1, r_obs + 1, dtype=float)
    plogp = float(np.sum(p * np.log(p)))
    evals = 0
    best = (math.inf, math.inf, math.inf)  # (kl, gamma, q)

    def scan(g_pts, q_pts):
        nonlocal evals, best
        for q in q_pts.tolist():
            cross = float(np.add.reduce(p * np.log(ranks + q)))
            for g in g_pts.tolist():
                evals += 1
                kl = plogp + g * cross + math.log(normalizer(g, q, 1, m))
                best = min(best, (kl, g, q))

    qs = _q_grid(q_lo, q_hi, s.coarse_steps)
    scan(np.linspace(g_lo, g_hi, s.coarse_steps), qs)

    # local box sized to the coarse cell around the incumbent
    w_g = (g_hi - g_lo) / max(s.coarse_steps - 1, 1)
    qi = int(np.argmin(np.abs(qs - best[2])))
    w_q = max(np.diff(qs)[max(qi - 1, 0):qi + 1], default=max(q_hi - q_lo, 1.0))

    for _ in range(s.refine_rounds):
        g0, q0 = best[1], best[2]
        g_pts = np.linspace(max(g_lo, g0 - w_g), min(g_hi, g0 + w_g), _REFINE_POINTS)
        q_pts = np.linspace(max(q_lo, q0 - w_q), min(q_hi, q0 + w_q), _REFINE_POINTS)
        scan(g_pts, q_pts)
        w_g /= _SHRINK
        w_q /= _SHRINK

    kl_final = kl_divergence(p, MZipfDist(best[1], best[2], m).head(r_obs))
    return FitResult(gamma=best[1], q=best[2], m=m, kl=kl_final, evaluations=evals)


def kl_natural(p_data, p_model):
    """KL divergence in nats, element-by-element python floats."""
    total = 0.0
    for pd, pm in zip(p_data, p_model):
        if pd > 0:
            total += pd * math.log(pd / pm)
    return total


def project_simplex(v):
    """Euclidean projection of v onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class DensePolicy:
    """The first ``CachingPolicy``: a placement over all m ranks, zero tail included."""

    probs: np.ndarray
    nu: float
    m_star: int
    exponent_denom: int


def dense_waterfill(dist, s, g_c):
    """The first ``waterfill``, kept verbatim: the level scan over all m ranks.

    ``policy.waterfill`` scans a doubling prefix instead and must return
    this support bit for bit, with every later rank at zero.
    """
    phi = _exponent_denom(s, g_c)
    z = dist.probs ** (1.0 / phi)
    inv_csum = np.cumsum(1.0 / z)
    m = dist.m
    if m == 1:
        probs = np.ones(1)
        probs.flags.writeable = False
        return DensePolicy(probs=probs, nu=0.0, m_star=1, exponent_denom=phi)
    idx = np.arange(1, m + 1, dtype=np.float64)
    nu_at = (idx - 1.0) / inv_csum
    # first m with z[m+1] <= nu_m ends the support; otherwise all of 1..m
    below = np.nonzero(z[1:] <= nu_at[:-1])[0]
    m_star = int(below[0]) + 1 if below.size else m
    nu = float(nu_at[m_star - 1])
    probs = np.zeros(m)
    probs[:m_star] = 1.0 - nu / z[:m_star]
    probs.flags.writeable = False
    return DensePolicy(probs=probs, nu=nu, m_star=m_star, exponent_denom=phi)


def onelist_hit_probability(dist, policy, s, g_c):
    """The first ``hit_probability``: every term of the support in one numpy
    expression, made into one list for one ``math.fsum``."""
    phi = _exponent_denom(s, g_c)
    pop = dist.head(policy.m_star)
    return math.fsum((pop * (1.0 - (1.0 - policy.probs) ** (phi + 1))).tolist())


def mpmath_hit_probability(pop, placement, exponent, dps=50):
    """``sum_f pop[f] * (1 - (1 - placement[f])^exponent)`` over every rank,
    each term and the sum in arbitrary precision, returned as a float."""
    import mpmath

    with mpmath.workdps(dps):
        one = mpmath.mpf(1)
        return float(mpmath.fsum(
            mpmath.mpf(p) * (one - (one - mpmath.mpf(x)) ** exponent)
            for p, x in zip(np.asarray(pop).tolist(), np.asarray(placement).tolist(), strict=True)
        ))


def rowwise_policy_csv(probs):
    """``policy.csv``'s table as the first writer made it: one ``csv.writer``
    row per rank, every probability through ``repr(float(p))``."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(["rank", "p_c"])
    for rank, p in enumerate(probs, start=1):
        w.writerow([rank, repr(float(p))])
    return fh.getvalue()


def hit_prob_of_placement(pop, placement, exponent):
    """sum_f pop[f] * (1 - (1 - placement[f])^exponent)."""
    return float(np.sum(pop * (1.0 - (1.0 - placement) ** exponent)))


def pga_optimal_placement(pop, exponent, iters=20000, n_starts=20, seed=0, tol=1e-12):
    """Maximize the hit probability over the simplex by projected gradient.

    The objective is concave for exponent >= 1, so plain ascent with a
    1/L step from several random starts converges to the global optimum.
    Returns the best placement found.
    """
    pop = np.asarray(pop, dtype=np.float64)
    m = len(pop)
    lip = np.max(pop) * exponent * max(exponent - 1, 1)
    step = 1.0 / lip
    rng = np.random.default_rng(seed)
    best_x, best_val = None, -np.inf
    starts = [np.full(m, 1.0 / m)]
    starts += [rng.dirichlet(np.ones(m)) for _ in range(n_starts - 1)]
    for x0 in starts:
        x = x0
        for _ in range(iters):
            grad = pop * exponent * (1.0 - x) ** (exponent - 1)
            x_new = project_simplex(x + step * grad)
            if np.max(np.abs(x_new - x)) < tol:
                x = x_new
                break
            x = x_new
        val = hit_prob_of_placement(pop, x, exponent)
        if val > best_val:
            best_val, best_x = val, x
    return best_x, best_val


def mpmath_closed_forms(gamma, q, m, s, g_c, c1, dps=60):
    """The paper's raw closed forms at ``dps`` digits, each a power difference over ``1 - gamma``.

    Returns ``{"closed_form", "floor", "r1_outage", "r1_throughput", "r2_outage",
    "r3_throughput", "large_gamma_outage"}`` (hit rates for the first two,
    outages below them; throughputs in units of ``c_rate/k``), all unclamped,
    with ``rho`` and ``c3`` at ``g_c``; ``c1`` is the float cutoff constant the
    package solved for.
    At ``gamma = 1`` each form is 0/0 and the limit is taken as the value at
    ``gamma = 1 + 10**-(dps/2)``, which leaves about ``dps/2`` correct digits.
    Forms that need ``gamma < 1`` (floor, r1, r2, r3) or ``gamma > 1`` (large
    gamma) are left out otherwise.
    """
    import mpmath

    with mpmath.workdps(dps):
        g = mpmath.mpf(gamma)
        if g == 1:
            g += mpmath.mpf(10) ** (-(dps // 2))
        q, m, s, g_c, c1 = (mpmath.mpf(v) for v in (q, m, s, g_c, c1))
        og = 1 - g
        x = c1 * s * g_c / g
        den = (m + q) ** og - (q + 1) ** og
        out = {"closed_form": ((x + q) ** og - og * (x + q) ** (-g) * x - (q + 1) ** og) / den}
        if gamma < 1:
            phi = s * (g_c - 1) - 1
            d = q / m
            rho = c1 * s * g_c / m
            e2 = g / phi + 1
            br1 = (1 + d) ** og - d**og
            br2 = (1 + d) ** e2 - d**e2
            out["floor"] = 1 - og * mpmath.exp(-(rho / c1 - g)) / (br1 * br2**phi)
            ma = m ** (og / (2 - g))
            c3 = g_c / ma
            c4 = q / ma
            b = (s * c1 * c3 / g + c4) ** (-g) * (s * c1 * c3 + c4) - c4**og
            out["r1_outage"] = 1 - b / ma
            out["r1_throughput"] = (1 - mpmath.exp(-(c3 / 2) * b)) / (c3 * ma)
            c5 = q / g_c
            bracket = (s * c1 / g + c5) ** (-g) * (s * c1 + c5) - c5**og
            out["r2_outage"] = 1 - g_c**og / den * bracket
            out["r3_throughput"] = s * c1 / (rho * m)
        elif gamma > 1:
            c6 = q / g_c
            out["large_gamma_outage"] = c6 ** (g - 1) * (s * c1 + c6) / (s * c1 / g + c6) ** g
        return {k: float(v) for k, v in out.items()}
