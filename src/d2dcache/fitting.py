"""Fit the shifted-power popularity law to access logs.

The pipeline is: raw access records -> per-content counts of *distinct*
users (repeat requests by the same user carry no popularity information)
-> rank-ordered empirical distribution -> KL projection onto the MZipf
family over a (gamma, q) search grid with local refinement.

The KL objective decomposes as

    kl(gamma, q) = sum_r p_r ln p_r + gamma * sum_r p_r ln(r + q) + ln H

with ``H`` the model normalizer, so the data-dependent pieces are computed
once per ``q`` and a grid costs one broadcast ``partial_sum`` per 2**16 points.
The search is deterministic: no randomness, ties broken toward smaller
``(kl, gamma, q)`` lexicographically.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import DomainError
from .popularity import _SCAN_CHUNK, MZipfDist, partial_sum

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
_REFINE_POINTS = 7  # points per axis of each refine grid
_SHRINK = 5.0  # factor the refine box shrinks by per round


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
    (u, n_users), (c, n_contents) = (_dense_codes(records[f]) for f in ("user", "content"))
    keys = u * n_contents + c
    keys.sort()  # in place: np.unique would sort a copy, at the peak memory of a fit
    uniq = keys[np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1]))]  # first of each run
    counts = np.bincount(uniq % n_contents, minlength=n_contents)
    return EmpiricalPopularity(np.sort(counts)[::-1], int(uniq.size), n_users)


def _dense_codes(ids: np.ndarray) -> tuple[np.ndarray, int]:
    """Codes ``0..k-1`` of ``ids`` and ``k``; kept after an O(n) check if already so coded."""
    k = int(ids.max()) + 1 if ids.size else 0
    if 0 < k <= ids.size and ids.min() >= 0 and np.bincount(ids, minlength=k).all():
        return ids.astype(np.intp, copy=False), k  # no copy: dedupe builds new keys
    uniq, codes = np.unique(ids, return_inverse=True)
    return codes, len(uniq)


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
    to q near zero).  Each refine round re-grids ``_REFINE_POINTS`` = 7
    points per axis around the incumbent, then shrinks the box ``_SHRINK`` =
    5 times.
    """

    gamma_range: tuple = (0.05, 5.0)
    q_range: tuple | None = None
    coarse_steps: int = 50
    refine_rounds: int = 6


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
    ``DomainError`` for empty data, ranges outside gamma in (0, 5],
    q in [0, m], ``coarse_steps < 1`` or ``refine_rounds < 0``.
    """
    if emp.total == 0:
        raise DomainError("no unique accesses")
    r_obs = len(emp.counts)
    m = r_obs if m is None else m
    if m < r_obs:
        raise DomainError(f"library size {m} smaller than observed ranks {r_obs}")
    s = search or FitSearch()
    if s.coarse_steps < 1 or s.refine_rounds < 0:
        raise DomainError(f"need coarse_steps >= 1 and refine_rounds >= 0, got {s}")
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
        # a numpy reduction, not a BLAS dot, whose bits would depend on its thread count
        cross = np.array([float(np.add.reduce(p * np.log(ranks + q))) for q in q_pts.tolist()])
        n = len(g_pts) * len(q_pts)
        evals += n
        for lo in range(0, n, _SCAN_CHUNK):  # q-major, as a loop over q then gamma
            qi, gi = np.divmod(np.arange(lo, min(lo + _SCAN_CHUNK, n)), len(g_pts))
            g, q = g_pts[gi], q_pts[qi]
            log_h = np.fromiter(map(math.log, partial_sum(g, q, 1, m).tolist()), float, len(g))
            # math.log rounds as a per-point loop; at m = 1 every model is the point mass: KL 0
            kl = plogp + g * cross[qi] + log_h if m > 1 else np.zeros(len(g))
            i = np.flatnonzero(kl == kl.min())
            best = min(best, *zip(kl[i].tolist(), g[i].tolist(), q[i].tolist()))

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


# characters read per block: at most 1 MiB of UTF-8, so the per-block arrays stay a few MB
_BLOCK = 1 << 18
# rows per batch when csv.reader tokenises
_CSV_ROWS = 1 << 12
# zero bytes after each batch, so an 8-byte window from any field start stays inside
_PAD = bytes(8)
# str.strip's ASCII whitespace; wider characters are stripped by str.strip itself
_BLANK = np.zeros(256, dtype=bool)
_BLANK[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_POW10 = 10 ** np.arange(16, dtype=np.int64)
_RIGHT = np.arange(16) >= 16 - np.arange(17)[:, None]  # row k: the last k of 16 columns
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(8)], dtype=np.uint64)
_BYTE_SUM = np.uint64(0x0101010101010101)  # the top byte of w * _BYTE_SUM sums w's bytes
# (multiplier, shift, mask) of Lemire's steps folding 8 digits, the first in the low byte
_FOLD = [tuple(map(np.uint64, step)) for step in ((10 << 8 | 1, 8, 0x00FF00FF00FF00FF),
         (100 << 16 | 1, 16, 0x0000FFFF0000FFFF), (10000 << 32 | 1, 32, 0xFFFFFFFF))]
_windows = np.lib.stride_tricks.sliding_window_view
_ESCAPED = re.compile("[\udc80-\udcff]")


def _undecodable_line(path, encoding: str) -> int:
    """Number of the line that holds the file's first undecodable byte."""
    with open(path, encoding=encoding, errors="surrogateescape", newline="") as fh:
        return next((ln for ln, line in enumerate(fh, start=1) if _ESCAPED.search(line)), 0)


def _blocks(fh, path):
    """The file's text in pieces of about ``_BLOCK`` characters, each cut after a line end.

    A CR ends a piece only when the character after it has been read, so no
    CRLF is split.  The last piece may end without a line end.
    """
    carry = ""
    while True:
        try:
            text = fh.read(_BLOCK)
        except UnicodeDecodeError as e:
            ln = _undecodable_line(path, fh.encoding)
            raise DomainError(f"{path}:{ln}: not {fh.encoding} text ({e.reason})") from None
        if not text:
            break
        text = carry + text
        cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
        if cut:
            yield text[:cut]
        carry = text[cut:]
    if carry:
        yield carry


def _split(text: str):
    """Tokenise quote-free text as csv.reader does: records end at LF, CRLF or
    a lone CR, and fields at commas.  See ``_fields`` for what is returned."""
    if text[-1] not in "\r\n":
        text += "\n"
    raw = np.frombuffer(text.encode() + _PAD, dtype=np.uint8)
    cr, lf = raw == 13, raw == 10
    pair = np.zeros_like(cr)  # the \r of each \r\n
    pair[:-1] = cr[:-1] & lf[1:]
    end = cr | lf  # where each record ends
    end[1:] &= ~pair[:-1]
    hi = np.flatnonzero(end | (raw == 44))  # every field ends at a comma or a record end
    lo = np.zeros_like(hi)
    lo[1:] = hi[:-1] + 1 + pair[hi[:-1]]
    last = np.flatnonzero(end[hi])
    counts = np.diff(last, prepend=-1)
    empty = (counts == 1) & (lo[last] == hi[last])  # a blank line is a record of no fields
    counts -= empty
    keep = np.ones(len(hi), dtype=bool)
    keep[last[empty]] = False
    return raw, lo[keep], hi[keep], counts


def _csv_fields(texts):
    """csv.reader's records of the text pieces, batched in the form ``_fields`` returns."""
    reader = csv.reader(line for text in texts for line in io.StringIO(text, newline=""))
    while batch := list(itertools.islice(reader, _CSV_ROWS)):
        parts = [field.encode() for row in batch for field in row]
        size = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
        hi = np.cumsum(size)
        counts = np.fromiter(map(len, batch), dtype=np.int64, count=len(batch))
        yield np.frombuffer(b"".join(parts) + _PAD, dtype=np.uint8), hi - size, hi, counts


def _fields(texts):
    """``(raw, lo, hi, counts)`` per batch of records.

    ``raw`` is the batch as UTF-8 bytes plus ``_PAD``, field i is
    ``raw[lo[i]:hi[i]]`` and record j has ``counts[j]`` fields, in order.  A
    ``"`` can quote commas and line breaks, and Python 3.10's csv.reader
    rejects NUL, so from the first piece with either one csv.reader tokenises.
    """
    for text in texts:
        if '"' in text or "\0" in text:
            yield from _csv_fields(itertools.chain([text], texts))
            return
        yield _split(text)


def _strip(raw, lo, hi):
    """Field bounds after ``str.strip``: ASCII whitespace by vectors, the rest in Python."""
    if ((lo < hi) & (_BLANK[raw[lo]] | _BLANK[raw[hi - 1]])).any():
        pos = np.arange(len(raw))
        # first non-blank byte at or after each position; one past the last non-blank before it
        nxt = np.minimum.accumulate(np.where(_BLANK[raw], len(raw), pos)[::-1])[::-1]
        prv = np.concatenate(([0], np.maximum.accumulate(np.where(_BLANK[raw], 0, pos + 1))))
        lo = np.minimum(nxt[lo], hi)
        hi = np.maximum(prv[hi], lo)
    wide = (lo < hi) & ((raw[lo] >= 0x80) | (raw[hi - 1] >= 0x80))
    for i in np.flatnonzero(wide).tolist():
        field = raw[lo[i]:hi[i]].tobytes()
        text = field.decode()
        lo[i] += len(field) - len(text.lstrip().encode())
        hi[i] = max(hi[i] - len(field) + len(text.rstrip().encode()), lo[i])
    return lo, hi


def _stamps(raw, lo, hi):
    """``float()`` of the fields of at most 16 digits and points, NaN elsewhere.

    A field with one point has at most 15 digits: an integer below 2**53 over
    a power of ten, both exact in float64, so one division rounds it as
    ``float()`` does.  Without a point, converting the integer is that rounding.
    """
    out = np.full(len(lo), math.nan)
    size = hi - lo
    short = np.flatnonzero(size <= 16)
    # each short field right-aligned in 16 bytes: column 15 holds its last byte
    c = _windows(np.concatenate((np.zeros(16, dtype=np.uint8), raw)), 16)[hi[short]]
    inside = _RIGHT[size[short]]
    digit = inside & (c - np.uint8(48) < 10)
    point = inside & (c == 46)
    # a row's two words of 0/1 bytes, added bytewise (no carries), then their 8 bytes summed
    n_digits, n_points = (((w[:, 0] + w[:, 1]) * _BYTE_SUM >> np.uint64(56)).astype(np.int64)
                          for w in (digit.view(np.uint64), point.view(np.uint64)))
    ok = (n_digits + n_points == size[short]) & (n_points <= 1) & (n_digits >= 1)
    word = (digit * (c - np.uint8(48))).view("<u8")  # the point read as a 0 digit
    for mul, shift, mask in _FOLD:
        word = word * mul >> shift & mask
    whole = (word[:, 0] * np.uint64(10**8) + word[:, 1]).astype(np.int64)
    frac = np.zeros(len(short), dtype=np.int64)
    dot = np.flatnonzero(n_points == 1)
    frac[dot] = 15 - point[dot].argmax(axis=1)
    scale = _POW10[frac]
    whole[dot] = whole[dot] // (10 * scale[dot]) * scale[dot] + whole[dot] % scale[dot]
    out[short[ok]] = whole[ok] / scale[ok].astype(np.float64)
    return out


class _IdCoder:
    """Codes one id column by first appearance, short ids and long ids alike:
    an id's code is the rank of its first row among the rows where an id
    first appears, so codes are dense and follow the order of the log.

    An id under 8 bytes is keyed by one little-endian uint64 word of its
    bytes with its length in the top byte, and these keys are sorted once
    after the last batch to find each key's first row.  Every row has such a
    word, 0 for a longer id.  A longer id is looked up by its bytes in a dict
    that maps it to its first row and holds each distinct long id once: no
    key is padded, and a long id's bytes are kept once, not once per row.
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


class _LogBuilder:
    """Checks a log's records batch by batch and keeps the rows that pass."""

    def __init__(self, width: int):
        self.width = width
        self.line = 2  # csv.reader's record count; the header is record 1
        self.bad: list = []
        self.rows = 0
        self.users, self.contents = _IdCoder(), _IdCoder()
        self.stamps: list = []

    def add(self, raw, lo, hi, counts):
        w = self.width
        lines = self.line + np.arange(len(counts))
        self.line += len(counts)
        fits = counts == w
        bad = [(ln, f"expected {w} fields, got {k}")
               for ln, k in zip(lines[~fits].tolist(), counts[~fits].tolist())]
        idx = ((np.cumsum(counts) - counts)[fits, None] + np.arange(w)).ravel()
        lo, hi = (a.reshape(-1, w) for a in _strip(raw, lo[idx], hi[idx]))
        lines = lines[fits]
        empty = (lo[:, 0] == hi[:, 0]) | (lo[:, 1] == hi[:, 1])
        if empty.any():
            bad += [(ln, "empty user_id or content_id") for ln in lines[empty].tolist()]
            lo, hi, lines = lo[~empty], hi[~empty], lines[~empty]
        if w == 3:
            ts = _stamps(raw, lo[:, 2], hi[:, 2])
            ok = np.ones(len(ts), dtype=bool)
            for i in np.flatnonzero(np.isnan(ts)).tolist():
                text = raw[lo[i, 2]:hi[i, 2]].tobytes().decode()
                try:
                    ts[i] = _parse_ts(text)
                except ValueError:
                    ok[i] = False
                    bad.append((int(lines[i]), f"bad timestamp {text!r}"))
            if not ok.all():
                lo, hi, ts = lo[ok], hi[ok], ts[ok]
            self.stamps.append(ts)
        bad.sort()
        self.bad += bad
        self.users.add(raw, lo[:, 0], hi[:, 0], self.rows)
        self.contents.add(raw, lo[:, 1], hi[:, 1], self.rows)
        self.rows += len(lo)

    def records(self) -> np.ndarray:
        users, contents = self.users.codes(), self.contents.codes()
        records = np.empty(self.rows, dtype=LOG_DTYPE)
        records["user"], records["content"] = users, contents
        records["timestamp"] = np.concatenate(self.stamps) if self.stamps else math.nan
        return records


def load_access_log(path):
    """Read a user_id,content_id[,timestamp] CSV.

    Returns ``(records, bad)``: a ``LOG_DTYPE`` array, ids coded by first
    appearance, and (line_number, reason) per skipped row; parsing continues.
    Records, fields and whitespace are read as csv.reader and ``str.strip``
    read them.  A file that does not decode raises ``DomainError``.
    """
    with open(path, newline="") as fh:
        batches = _fields(_blocks(fh, path))
        first = next(batches, None)
        if first is None:
            raise DomainError("empty file: expected header user_id,content_id[,timestamp]")
        raw, lo, hi, counts = first
        k = int(counts[0])
        header = [raw[a:b].tobytes().decode().strip() for a, b in zip(lo[:k], hi[:k])]
        if header not in (["user_id", "content_id"], ["user_id", "content_id", "timestamp"]):
            raise DomainError(
                f"expected header user_id,content_id[,timestamp], got {','.join(header)}"
            )
        log = _LogBuilder(len(header))
        log.add(raw, lo[k:], hi[k:], counts[1:])
        for batch in batches:
            log.add(*batch)
    return log.records(), log.bad


def write_empirical_csv(emp: EmpiricalPopularity, fh):
    w = csv.writer(fh)
    w.writerow(["rank", "count", "probability"])
    for r, cnt in enumerate(emp.counts, start=1):
        w.writerow([r, int(cnt), repr(float(cnt / emp.total))])
