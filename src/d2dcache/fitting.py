"""Fit the shifted-power popularity law to access logs.

The pipeline is: raw access records -> per-content counts of *distinct*
users (repeat requests by the same user carry no popularity information)
-> rank-ordered empirical distribution -> KL projection onto the MZipf
family over a (gamma, q) search grid with local refinement.

The KL objective decomposes as

    kl(gamma, q) = sum_r p_r ln p_r + gamma * sum_r p_r ln(r + q) + ln H

with ``H`` the model normalizer, so the data-dependent pieces are
computed once per ``q`` and each grid point costs one O(1) normalizer sum.
The search is deterministic: no randomness, ties broken toward smaller
``(kl, gamma, q)`` lexicographically.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import DomainError
from .popularity import MZipfDist, partial_sum

__all__ = [
    "LOG_DTYPE",
    "EmpiricalPopularity",
    "FitSearch",
    "FitResult",
    "dedupe_accesses",
    "kl_divergence",
    "fit_mzipf",
    "subsample_study",
    "synthetic_records",
    "load_access_log",
    "write_empirical_csv",
]


# one row per access: integer user and content codes, NaN timestamp when absent
LOG_DTYPE = np.dtype([("user", np.int64), ("content", np.int64), ("timestamp", np.float64)])


@dataclass(frozen=True)
class EmpiricalPopularity:
    """Rank-ordered distinct-user request counts.

    ``counts[r-1]`` is the number of distinct users who requested the
    rank-r content, ``total`` the number of unique (user, content) pairs
    and ``distinct_users`` the number of users seen.
    """

    counts: np.ndarray
    total: int
    distinct_users: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        if c.ndim != 1 or (c.size and np.any(np.diff(c) > 0)):
            raise DomainError("counts must be a 1-d non-increasing array")
        if c.size and (c[-1] < 1 or int(c.sum()) != self.total):
            raise DomainError("counts must be positive and sum to total")

    @property
    def probs(self) -> np.ndarray:
        return self.counts / self.total


def dedupe_accesses(records) -> EmpiricalPopularity:
    """Collapse repeat requests and rank contents by distinct-user count.

    ``records`` is a ``LOG_DTYPE`` array.  Ids are recoded from its own rows,
    so a time window or subsample leaves no content or user with no request.
    Tied contents have equal counts, so the ranking does not depend on row order.
    """
    users, u = np.unique(records["user"], return_inverse=True)
    contents, c = np.unique(records["content"], return_inverse=True)
    # asking for counts keeps np.unique on its sort path, far faster here than its hash path
    uniq = np.unique(u * len(contents) + c, return_counts=True)[0]
    counts = np.bincount(uniq % len(contents), minlength=len(contents))
    return EmpiricalPopularity(np.sort(counts)[::-1], int(uniq.size), len(users))


def kl_divergence(data_probs, model_probs) -> float:
    """KL divergence (natural log) between rank-matched distributions.

    ``model_probs`` may cover only the observed ranks of a wider model;
    the result is still nonnegative as long as the model subvector sums
    to at most 1.
    """
    p = np.asarray(data_probs, dtype=float)
    m = np.asarray(model_probs, dtype=float)
    if p.shape != m.shape:
        raise DomainError(f"length mismatch: data {p.shape} vs model {m.shape}")
    mask = p > 0
    if np.any(m[mask] <= 0):
        raise DomainError("model assigns zero probability to observed rank")
    p = p[mask]
    return float(np.sum(p * np.log(p / m[mask])))


@dataclass(frozen=True)
class FitSearch:
    """Search configuration for ``fit_mzipf``.

    The coarse pass covers ``gamma_range`` linearly and ``q_range``
    geometrically past the first cell (popularity is far more sensitive
    to q near zero).  Refinement re-grids 7 points per axis around the
    incumbent, shrinking the box 5x per round.
    """

    gamma_range: tuple = (0.05, 5.0)
    q_range: tuple | None = None
    coarse_steps: int = 50
    refine_rounds: int = 6
    refine_points: int = 7
    shrink: float = 5.0


@dataclass(frozen=True)
class FitResult:
    gamma: float
    q: float
    m: int
    kl: float
    evaluations: int


def _q_grid(q_lo: float, q_hi: float, steps: int) -> np.ndarray:
    if q_lo > 0:
        return np.geomspace(q_lo, q_hi, steps)
    q_floor = min(0.5, q_hi / 10.0)
    return np.concatenate(([0.0], np.geomspace(q_floor, q_hi, steps - 1)))


def fit_mzipf(emp: EmpiricalPopularity, m: int | None = None,
              search: FitSearch | None = None) -> FitResult:
    """Best (gamma, q) in KL divergence for a library of m files.

    ``m`` defaults to the number of observed contents.  Raises
    ``DomainError`` for empty data or ranges outside gamma in (0, 5],
    q in [0, m].
    """
    if emp.total == 0:
        raise DomainError("no unique accesses")
    r_obs = len(emp.counts)
    m = r_obs if m is None else m
    if m < r_obs:
        raise DomainError(f"library size {m} smaller than observed ranks {r_obs}")
    s = search or FitSearch()
    g_lo, g_hi = s.gamma_range
    if not (0 < g_lo < g_hi <= 5.0):
        raise DomainError(f"gamma_range must satisfy 0 < lo < hi <= 5, got {s.gamma_range}")
    q_lo, q_hi = s.q_range if s.q_range is not None else (0.0, float(m))
    if not (0 <= q_lo < q_hi <= m):
        raise DomainError(f"q_range must satisfy 0 <= lo < hi <= m, got {(q_lo, q_hi)}")

    p = emp.probs
    ranks = np.arange(1, r_obs + 1, dtype=float)
    plogp = float(np.sum(p * np.log(p)))
    evals = 0
    best = (math.inf, math.inf, math.inf)  # (kl, gamma, q)

    def scan(g_pts, q_pts):
        nonlocal evals, best
        for q in q_pts.tolist():
            cross = float(p @ np.log(ranks + q))
            for g in g_pts.tolist():
                evals += 1
                kl = plogp + g * cross + math.log(partial_sum(g, q, 1, m))
                best = min(best, (kl, g, q))

    qs = _q_grid(q_lo, q_hi, s.coarse_steps)
    scan(np.linspace(g_lo, g_hi, s.coarse_steps), qs)

    # local box sized to the coarse cell around the incumbent
    w_g = (g_hi - g_lo) / max(s.coarse_steps - 1, 1)
    qi = int(np.argmin(np.abs(qs - best[2])))
    w_q = max(np.diff(qs)[max(qi - 1, 0):qi + 1], default=max(q_hi - q_lo, 1.0))

    for _ in range(s.refine_rounds):
        g0, q0 = best[1], best[2]
        g_pts = np.linspace(max(g_lo, g0 - w_g), min(g_hi, g0 + w_g), s.refine_points)
        q_pts = np.linspace(max(q_lo, q0 - w_q), min(q_hi, q0 + w_q), s.refine_points)
        scan(g_pts, q_pts)
        w_g /= s.shrink
        w_q /= s.shrink

    kl_final = kl_divergence(p, MZipfDist(best[1], best[2], m).head(r_obs))
    return FitResult(gamma=best[1], q=best[2], m=m, kl=kl_final, evaluations=evals)


def subsample_study(records, n_values, rng: np.random.Generator,
                    m: int | None = None, search: FitSearch | None = None):
    """Refit on random user subsets of the given sizes.

    Keeps every record of each sampled user.  Returns one FitResult per
    entry of ``n_values``; sampling without replacement, so each n must
    not exceed the number of distinct users.
    """
    first = np.unique(records["user"], return_index=True)[1]
    users = records["user"][np.sort(first)]
    bad = [n for n in n_values if n < 1 or n > len(users)]
    if bad:
        raise DomainError(
            f"subsample sizes {bad} outside 1..{len(users)} distinct users"
        )
    results = []
    for n in n_values:
        keep = users[rng.choice(len(users), size=n, replace=False)]
        sub = records[np.isin(records["user"], keep)]
        results.append(fit_mzipf(dedupe_accesses(sub), m=m, search=search))
    return results


def synthetic_records(dist: MZipfDist, n_users: int, requests_per_user: int,
                      rng: np.random.Generator):
    """Draw a synthetic access log: each user requests iid from ``dist``."""
    records = np.empty(n_users * requests_per_user, dtype=LOG_DTYPE)
    records["user"] = np.repeat(np.arange(n_users), requests_per_user)
    records["content"] = dist.sample(rng, size=len(records))
    records["timestamp"] = np.nan
    return records


def _parse_ts(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return datetime.fromisoformat(text).timestamp()


def load_access_log(path):
    """Read a user_id,content_id[,timestamp] CSV.

    Returns ``(records, bad)``: a ``LOG_DTYPE`` array, ids coded by first
    appearance, and (line_number, reason) per skipped row; parsing continues.
    """
    users: dict = {}
    contents: dict = {}
    user_codes, content_codes, stamps = array("q"), array("q"), array("d")
    bad = []
    with open(path, newline="") as fh:
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


def write_empirical_csv(emp: EmpiricalPopularity, fh):
    w = csv.writer(fh)
    w.writerow(["rank", "count", "probability"])
    for r, cnt in enumerate(emp.counts, start=1):
        w.writerow([r, int(cnt), repr(float(cnt / emp.total))])
