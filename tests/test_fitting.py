"""Tests for access-log deduplication and popularity fitting."""

import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2dcache import fitting
from d2dcache.errors import DomainError
from d2dcache.fitting import (
    LOG_DTYPE,
    EmpiricalPopularity,
    FitSearch,
    dedupe_accesses,
    fit_mzipf,
    kl_divergence,
    load_access_log,
    subsample_study,
    synthetic_records,
    write_empirical_csv,
)
from d2dcache.popularity import MZipfDist, partial_sum

from oracles import (
    UniqueIdCoder,
    csv_reader_log,
    hashmap_dedupe,
    loop_fit_mzipf,
    streamed_partial_sum,
)


def rec(*rows):
    """A log array from (user, content[, timestamp]) rows, ids coded by first appearance."""
    users: dict = {}
    contents: dict = {}
    return np.array(
        [(users.setdefault(u, len(users)), contents.setdefault(c, len(contents)),
          ts[0] if ts else math.nan) for u, c, *ts in rows],
        dtype=LOG_DTYPE,
    )


# pieces of access-log text: str.strip's whitespace (ASCII and wider), ids,
# timestamps, and characters that split or quote fields and records
_BLANKS = ["\t", " ", "\x0b", "\x1c", "\xa0", "\u3000"]
_WORDS = ["", "u1", "u2", "c7", "é", "abcdefgh", "1e9", "1_000", "inf", "nan", "1700000000",
          "12.5", "2024-06-01T12:00:00", "garbage"]
_BREAKERS = [",", "\n", "\r", "\r\n", '"', "\x00"]
# logs where ids of 8 bytes or more meet shorter ones: every id long, a long id first, a long
# id first seen a block after the short ids around it, a short id that is a long id's prefix
_LONG_ID_LOGS = ["user_id,content_id\n" + "".join(f"{u},{c}\n" for u, c in rows) for rows in (
    [(f"user-{i % 3:04}", f"https://cdn.example/v/{i % 5}") for i in range(12)],
    [("first-user-is-long", "c1"), ("u1", "c2"), ("first-user-is-long", "c1"), ("u2", "c1")],
    [*((f"u{i % 4}", f"c{i % 3}") for i in range(20)), ("u1", "https://cdn.example/late"),
     ("u9", "c0"), ("late-long-user", "c8"), ("u2", "https://cdn.example/late"), ("u9", "c1")],
    [("abcdefg", "c1"), ("abcdefgh", "c1234567"), ("abcdefg", "c123456"), ("abcdefghij", "c1"),
     ("abcdefgh", "c123456"), ("abcdefg", "c1234567"), ("abcdefg", "c1")],
)]
# quote-free logs with no CR, with lone CRs, with blank lines, and with a CRLF whose CR ends
# a read of 5 or of 64 bytes (index 319), so the pair is cut between two reads
_LINE_END_LOGS = [
    "user_id,content_id\nu1,c1\nu2,c1\n",
    "user_id,content_id\ru1,c1\ru2,c1\r\ru3,c2",
    "user_id,content_id\n\nu1,c1\r\n\r\n\nu2,c2\n\r\n",
    ("user_id,content_id\n" + "u1,c1\n" * 49 + "u1,c").ljust(319, "2") + "\r\nu2,c1\r\n",
]


@st.composite
def access_logs(draw):
    """Text of a log of either header width; rows of any field count, any line ends.

    Half the logs have no quote and no NUL, which hand a file to csv.reader.
    """
    breakers = _BREAKERS if draw(st.booleans()) else _BREAKERS[:-2]
    blank = st.sampled_from(["", *_BLANKS, *breakers[5:]])  # NUL pads ids too
    clean = st.tuples(blank, st.sampled_from(_WORDS), blank).map("".join)
    noisy = st.lists(st.sampled_from(_BLANKS + _WORDS + breakers), max_size=3).map("".join)
    field = st.integers(0, 9).flatmap(lambda k: noisy if k == 9 else clean)
    width = draw(st.sampled_from([2, 3]))
    row = st.integers(0, 5).flatmap(lambda k: st.lists(field, max_size=4) if k == 5 else
                                    st.lists(field, min_size=width, max_size=width))
    line_end = st.sampled_from(["\n", "\r", "\r\n"])
    text = ",".join(["user_id", "content_id", "timestamp"][:width])
    for fields in draw(st.lists(row, max_size=12)):
        text += draw(line_end) + ",".join(fields)
    return text + draw(st.sampled_from(["", "\n", "\r", "\r\n"]))


@st.composite
def stamps(draw):
    """A run of 1-20 digits and points: 0-2 points, often leading zeros or 15-17 digits."""
    digits = draw(st.text("0123456789", min_size=draw(st.sampled_from([0, 1, 15, 16, 17])),
                          max_size=20))
    text = "0" * draw(st.integers(0, 3)) + digits
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + "." + text[i:]
    return text[:20] or "."


@st.composite
def stamped_logs(draw):
    """Text of a three-column log of such timestamps, some rows with an empty id."""
    ids = st.sampled_from(["", "u", "u1", "c7", "abcdefgh", "x" * 12])
    row = st.tuples(ids, ids, stamps()).map(",".join)
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    return line_end.join(["user_id,content_id,timestamp", *draw(st.lists(row, max_size=40))])


@st.composite
def id_batches(draw):
    """Batches of ids for an id coder: drawn from a few ids, so each repeats, short (under
    8 bytes, NUL bytes included) and long alike; often all long, one row or none."""
    size = st.sampled_from([st.integers(1, 7), st.integers(8, 12), st.integers(1, 12)])
    pool = draw(st.lists(draw(size).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
                         min_size=1, max_size=6, unique=True))
    ids = draw(st.lists(st.sampled_from(pool), max_size=draw(st.sampled_from([1, 40]))))
    cuts = sorted(draw(st.lists(st.integers(0, len(ids)), max_size=3)))
    return [ids[a:b] for a, b in zip([0, *cuts], [*cuts, len(ids)])]


def load_outcome(load, path):
    """``(records bytes, bad)`` of a loader, or the type of what it raised."""
    try:
        records, bad = load(path)
    except Exception as e:
        return type(e)
    return records.tobytes(), bad


def assert_reads_as_csv_reader(text, block):
    """``load_access_log`` in blocks of ``block`` bytes gives what csv.reader's loop gives."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "log.csv"
        path.write_bytes(text.encode())
        want = load_outcome(csv_reader_log, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitting, "_BLOCK", block)
            got = load_outcome(load_access_log, path)
    assert got == want


class TestDedupe:
    def test_worked_example(self):
        records = rec(("u1", "c1"), ("u1", "c1"), ("u2", "c1"), ("u1", "c2"))
        emp = dedupe_accesses(records)
        assert emp.counts.tolist() == [2, 1]
        assert emp.total == 3
        assert emp.distinct_users == 2

    def test_empty(self):
        emp = dedupe_accesses(rec())
        assert emp.total == 0 and emp.distinct_users == 0
        with pytest.raises(DomainError, match="no unique accesses"):
            fit_mzipf(emp)

    def test_tied_contents_keep_equal_counts_in_descending_order(self):
        records = rec(("u1", "b"), ("u1", "a"), ("u2", "a"), ("u2", "b"), ("u3", "c"))
        emp = dedupe_accesses(records)
        # b and a both have 2 distinct users; counts alone cannot show which
        # of the two ranks first
        assert emp.counts.tolist() == [2, 2, 1]

    def test_matches_hashmap_oracle(self):
        rng = np.random.default_rng(31)
        users = [f"u{i}" for i in rng.integers(0, 500, size=100_000)]
        contents = [f"c{i}" for i in rng.integers(0, 300, size=100_000)]
        pairs = list(zip(users, contents))
        pairs.extend(pairs[: 20_000])  # inject plenty of exact duplicates
        emp = dedupe_accesses(rec(*pairs))
        want_counts, want_users = hashmap_dedupe(pairs)
        assert emp.counts.tolist() == want_counts
        assert emp.distinct_users == want_users
        assert emp.total == sum(want_counts)

    def test_unique_pairs_reduce_to_plain_counting(self):
        records = rec(*[(f"u{i}", f"c{i % 3}") for i in range(9)])
        emp = dedupe_accesses(records)
        assert emp.counts.tolist() == [3, 3, 3]
        assert emp.total == 9

    def test_counts_bounded_by_user_pool(self):
        rng = np.random.default_rng(0)
        d = MZipfDist(1.0, 2.0, 50)
        records = synthetic_records(d, 10, 40, rng)
        emp = dedupe_accesses(records)
        assert emp.distinct_users == 10
        assert emp.counts.max() <= 10

    def test_gapped_codes_count_as_their_dense_recoding(self):
        # a time window keeps the codes of the full log, so some are missing
        rng = np.random.default_rng(4)
        records = synthetic_records(MZipfDist(0.8, 5.0, 400), 2000, 3, rng)
        records["content"] -= 1
        records["timestamp"] = rng.random(len(records))
        windowed = records[records["timestamp"] < 0.3]
        assert windowed["user"].max() + 1 > len(np.unique(windowed["user"]))
        dense = windowed.copy()
        for col in ("user", "content"):
            dense[col] = np.unique(dense[col], return_inverse=True)[1]
        emp, want = dedupe_accesses(windowed), dedupe_accesses(dense)
        assert emp.counts.tobytes() == want.counts.tobytes()
        assert (emp.total, emp.distinct_users) == (want.total, want.distinct_users)
        assert dedupe_accesses(records).distinct_users == 2000

    def test_dense_codes_pair_key_does_not_overflow(self):
        # 7e4 users by 7e4 contents: the (user, content) key passes 2**32
        records = np.zeros(70_000, dtype=LOG_DTYPE)
        records["user"] = records["content"] = np.arange(70_000, dtype=np.int32)
        emp = dedupe_accesses(records)
        assert (emp.total, emp.distinct_users, emp.counts.max()) == (70_000, 70_000, 1)

    def test_dense_codes_keep_a_dense_column_without_a_copy(self):
        # rows straight from load_access_log are coded densely: their columns are the codes
        records = np.zeros(1000, dtype=LOG_DTYPE)
        records["user"], records["content"] = np.arange(1000) % 37, np.arange(1000)[::-1] % 101
        for col, k in (("user", 37), ("content", 101)):
            codes, n = fitting._dense_codes(records[col])
            assert n == k and np.shares_memory(codes, records)
            assert codes.tolist() == records[col].tolist()

    def test_validation(self):
        with pytest.raises(DomainError, match="non-increasing"):
            EmpiricalPopularity(np.array([1, 2]), 3, 2)
        with pytest.raises(DomainError, match="sum to total"):
            EmpiricalPopularity(np.array([2, 1]), 5, 2)


class TestKL:
    def test_worked_example(self):
        got = kl_divergence([0.75, 0.25], [2 / 3, 1 / 3])
        want = 0.75 * math.log(9 / 8) + 0.25 * math.log(3 / 4)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert got == pytest.approx(0.01641, abs=1e-5)

    def test_zero_iff_equal(self):
        p = np.array([0.5, 0.3, 0.2])
        assert kl_divergence(p, p) == 0.0
        assert kl_divergence(p, [0.4, 0.4, 0.2]) > 0

    def test_nonnegative_against_truncated_models(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(2, 40))
            p = rng.dirichlet(np.ones(k))
            p = np.sort(p)[::-1]
            d = MZipfDist(float(rng.uniform(0.2, 2.5)), float(rng.uniform(0, 10)), k + 50)
            model = d.pmf(np.arange(1, k + 1))  # sums to < 1
            assert kl_divergence(p, model) >= 0

    def test_rejects_mismatch_and_zeros(self):
        with pytest.raises(DomainError, match="length mismatch"):
            kl_divergence([0.5, 0.5], [1.0])
        with pytest.raises(DomainError, match="zero probability"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])


def emp_from_pmf(dist, scale=1e9):
    pmf = dist.pmf(np.arange(1, dist.m + 1))
    counts = np.round(pmf * scale).astype(np.int64)
    counts = counts[counts > 0]
    total = int(counts.sum())
    return EmpiricalPopularity(counts, total, total)


def emp_from_sample(dist, n, rng):
    draws = dist.sample(rng, size=n)
    counts = np.bincount(draws, minlength=dist.m + 1)[1:]
    counts = np.sort(counts[counts > 0])[::-1]
    total = int(counts.sum())
    return EmpiricalPopularity(counts, total, total)


class TestFit:
    def test_recovers_exact_pmf(self):
        emp = emp_from_pmf(MZipfDist(1.16, 22.0, 7345))
        fr = fit_mzipf(emp, m=7345)
        assert abs(fr.gamma - 1.16) <= 0.01
        assert abs(fr.q - 22.0) / 22.0 <= 0.05
        assert fr.kl < 1e-9

    def test_recovers_from_samples(self):
        dist = MZipfDist(1.36, 50.0, 16823)
        emp = emp_from_sample(dist, 10**6, np.random.default_rng(42))
        fr = fit_mzipf(emp, m=16823)
        assert abs(fr.gamma - 1.36) <= 0.05
        assert abs(fr.q - 50.0) / 50.0 <= 0.20

    def test_plain_zipf_pins_plateau_near_zero(self):
        emp = emp_from_pmf(MZipfDist(0.9, 0.0, 2000))
        fr = fit_mzipf(emp, m=2000)
        assert fr.q <= 0.5  # the smallest positive grid cell
        assert abs(fr.gamma - 0.9) <= 0.01

    def test_deterministic(self):
        emp = emp_from_pmf(MZipfDist(0.8, 5.0, 500))
        a = fit_mzipf(emp, m=500)
        b = fit_mzipf(emp, m=500)
        assert a == b

    def test_reported_kl_is_consistent(self):
        emp = emp_from_sample(MZipfDist(1.1, 8.0, 800), 50_000, np.random.default_rng(3))
        fr = fit_mzipf(emp, m=800)
        model = MZipfDist(fr.gamma, fr.q, fr.m).pmf(np.arange(1, len(emp.counts) + 1))
        assert fr.kl == pytest.approx(kl_divergence(emp.probs, model), abs=1e-12)

    def test_evaluation_count(self):
        emp = emp_from_pmf(MZipfDist(0.8, 5.0, 300))
        s = FitSearch()
        fr = fit_mzipf(emp, m=300, search=s)
        assert fr.evaluations == s.coarse_steps**2 + s.refine_rounds * fitting._REFINE_POINTS**2

    def test_same_result_with_streamed_normalizer(self):
        emp = emp_from_sample(MZipfDist(1.28, 34.0, 5000), 50_000, np.random.default_rng(17))
        assert fit_mzipf(emp, m=5000) == loop_fit_mzipf(emp, 5000, normalizer=streamed_partial_sum)

    @pytest.mark.parametrize("data, m, search", [
        (lambda: emp_from_pmf(MZipfDist(1.16, 22.0, 7345)), 7345, None),
        (lambda: emp_from_sample(MZipfDist(1.36, 50.0, 16823), 10**6,
                                 np.random.default_rng(42)), 16823, None),
        (lambda: emp_from_pmf(MZipfDist(0.9, 0.0, 2000)), 2000, None),
        (lambda: emp_from_pmf(MZipfDist(0.8, 5.0, 500)), 500, None),
        (lambda: emp_from_sample(MZipfDist(1.1, 8.0, 800), 50_000,
                                 np.random.default_rng(3)), 800, None),
        (lambda: emp_from_sample(MZipfDist(1.3, 12.0, 400), 30_000, np.random.default_rng(9)),
         400, FitSearch(coarse_steps=10, refine_rounds=0)),
        # two contents with tied counts: the flattest model fits, in a corner of the box
        (lambda: EmpiricalPopularity(np.array([1, 1]), 2, 2), None, None),
        (lambda: EmpiricalPopularity(np.array([1, 1]), 2, 2), 2,
         FitSearch(gamma_range=(0.05, 0.5), q_range=(1.0, 2.0), coarse_steps=20)),
    ])
    def test_matches_per_point_loop(self, data, m, search):
        emp = data()
        assert fit_mzipf(emp, m=m, search=search) == loop_fit_mzipf(emp, m, search)

    def test_short_calls_match_per_point_loop(self, monkeypatch):
        # three points per partial_sum call: every chunk edge and a short last chunk
        emp = emp_from_sample(MZipfDist(1.1, 8.0, 800), 50_000, np.random.default_rng(3))
        monkeypatch.setattr(fitting, "_SCAN_CHUNK", 3)
        assert fit_mzipf(emp, m=800) == loop_fit_mzipf(emp, 800)

    def test_fine_grid_matches_per_point_loop(self):
        # 300**2 points: two partial_sum calls for the coarse pass, the second one short
        emp = emp_from_sample(MZipfDist(0.8, 5.0, 300), 20_000, np.random.default_rng(5))
        search = FitSearch(coarse_steps=300, refine_rounds=2)
        coarse = dict(zip(np.linspace(0.05, 5.0, 300).tolist(), range(300)))
        rows: dict = {}

        def normalizer(g, q, a, b):
            # scalar calls are the elements of array calls, so a coarse row is read from one
            if g not in coarse:
                return partial_sum(g, q, a, b)
            if q not in rows:
                rows[q] = partial_sum(np.array(list(coarse)), q, a, b).tolist()
            return rows[q][coarse[g]]

        assert fit_mzipf(emp, m=300, search=search) == loop_fit_mzipf(emp, 300, search, normalizer)

    def test_fine_grid_runs_in_flat_memory(self):
        # 2**16 grid points, then 4x as many: the second search must not need more memory
        emp = emp_from_pmf(MZipfDist(0.8, 5.0, 300))
        peaks = []
        for steps in (256, 512):
            tracemalloc.start()
            try:
                fr = fit_mzipf(emp, m=300, search=FitSearch(coarse_steps=steps, refine_rounds=0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert fr.evaluations == steps**2
        assert peaks[1] < min(1.2 * peaks[0], 64 << 20)

    def test_coarse_grid_optimality(self):
        # with refinement off, the result must be the exhaustive argmin of
        # the same 10x10 grid under independent KL evaluation
        emp = emp_from_sample(MZipfDist(1.3, 12.0, 400), 30_000, np.random.default_rng(9))
        m = 400
        s = FitSearch(coarse_steps=10, refine_rounds=0)
        fr = fit_mzipf(emp, m=m, search=s)
        gammas = np.linspace(0.05, 5.0, 10)
        qs = np.concatenate(([0.0], np.geomspace(0.5, float(m), 9)))
        ranks = np.arange(1, len(emp.counts) + 1)
        best = None
        for q in qs:
            for g in gammas:
                kl = kl_divergence(emp.probs, MZipfDist(float(g), float(q), m).pmf(ranks))
                cand = (kl, float(g), float(q))
                if best is None or cand < best:
                    best = cand
        assert (fr.gamma, fr.q) == (best[1], best[2])
        assert fr.kl <= best[0] + 1e-12

    def test_range_validation(self):
        emp = emp_from_pmf(MZipfDist(0.8, 5.0, 300))
        with pytest.raises(DomainError, match="gamma_range"):
            fit_mzipf(emp, m=300, search=FitSearch(gamma_range=(0.5, 6.0)))
        with pytest.raises(DomainError, match="q_range"):
            fit_mzipf(emp, m=300, search=FitSearch(q_range=(-1.0, 5.0)))
        with pytest.raises(DomainError, match="smaller than observed"):
            fit_mzipf(emp, m=10)
        for search in (FitSearch(coarse_steps=0), FitSearch(refine_rounds=-1)):
            with pytest.raises(DomainError, match="coarse_steps >= 1 and refine_rounds >= 0"):
                fit_mzipf(emp, m=300, search=search)


class TestSubsample:
    def test_full_subsample_equals_full_fit(self):
        d = MZipfDist(1.2, 6.0, 300)
        records = synthetic_records(d, 400, 5, np.random.default_rng(2))
        full = fit_mzipf(dedupe_accesses(records))
        sub = subsample_study(records, [400], np.random.default_rng(77))[0]
        assert sub == full

    def test_matches_first_seen_reference(self):
        # users are drawn by their index in order of first appearance, as a
        # list of user ids would be, whatever their codes
        d = MZipfDist(1.2, 6.0, 300)
        records = synthetic_records(d, 200, 5, np.random.default_rng(4))
        records["user"] = records["user"] * 7919 % 1009  # distinct, not in first-seen order
        rows = list(zip(records["user"].tolist(), records["content"].tolist()))
        search = FitSearch(coarse_steps=10, refine_rounds=1)
        n_values = [20, 150]
        got = subsample_study(records, n_values, np.random.default_rng(9), search=search)
        rng = np.random.default_rng(9)
        users = list(dict.fromkeys(u for u, _ in rows))
        for n, fr in zip(n_values, got):
            keep = {users[i] for i in rng.choice(len(users), size=n, replace=False).tolist()}
            counts, n_users = hashmap_dedupe([(u, c) for u, c in rows if u in keep])
            want = EmpiricalPopularity(np.array(counts), sum(counts), n_users)
            assert fr == fit_mzipf(want, search=search)

    def test_rejects_oversized_n(self):
        records = rec(*[(f"u{i}", "c") for i in range(5)])
        with pytest.raises(DomainError, match=r"\[9\]"):
            subsample_study(records, [3, 9], np.random.default_rng(0))

    def test_plateau_grows_with_user_coverage(self):
        # fitting with the library sized to what each subsample actually
        # observed, deeper sampling reveals more plateau
        d = MZipfDist(1.36, 49.0, 16258)
        records = synthetic_records(d, 12_000, 15, np.random.default_rng(123))
        n_values = [800, 3000, 12_000]
        qhats = np.zeros((10, len(n_values)))
        for seed in range(10):
            rs = np.random.default_rng(1000 + seed)
            qhats[seed] = [r.q for r in subsample_study(records, n_values, rs)]
        avg = qhats.mean(axis=0)
        assert np.all(np.diff(avg) >= 0), avg


class TestIO:
    def test_load_and_skip_malformed(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "user_id,content_id,timestamp\n"
            "u1,c1,100.5\n"
            "u2,c1\n"
            "u3,,200\n"
            "u4,c2,not-a-time\n"
            "u5,c3,2024-06-01T12:00:00\n"
        )
        records, bad = load_access_log(path)
        assert records.dtype == LOG_DTYPE
        # u1 and u5 are the only kept rows, so they take codes 0 and 1
        assert records["user"].tolist() == [0, 1]
        assert records["timestamp"][0] == 100.5
        assert not np.isnan(records["timestamp"][1])
        assert [b[0] for b in bad] == [3, 4, 5]
        assert "2 fields" in bad[0][1] or "expected 3" in bad[0][1]

    def test_two_column_variant(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("user_id,content_id\nu1,c1\nu1,c2\n")
        records, bad = load_access_log(path)
        assert len(records) == 2 and not bad
        assert records["content"].tolist() == [0, 1]
        assert np.isnan(records["timestamp"]).all()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("user,content\nu1,c1\n")
        with pytest.raises(DomainError, match="expected header"):
            load_access_log(path)
        (tmp_path / "empty.csv").write_text("")
        with pytest.raises(DomainError, match="empty file"):
            load_access_log(tmp_path / "empty.csv")

    @pytest.mark.parametrize("block", [5, 64])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=access_logs())
    @example(text=_LONG_ID_LOGS[0])
    @example(text=_LONG_ID_LOGS[1])
    @example(text=_LONG_ID_LOGS[2])
    @example(text=_LONG_ID_LOGS[3])
    @example(text=_LINE_END_LOGS[0])
    @example(text=_LINE_END_LOGS[1])
    @example(text=_LINE_END_LOGS[2])
    @example(text=_LINE_END_LOGS[3])
    @example(text="user_id,content_id\n \u3000u1,c1\xa0\t\nu1,c1\nu2,c1\n")  # a wide blank inside
    def test_matches_csv_reader_oracle(self, block, text):
        """Records, warnings and errors equal csv.reader's loop, with blocks
        so short that records and CRLF pairs straddle them, and short and
        long ids share one first-appearance order."""
        assert_reads_as_csv_reader(text, block)

    @pytest.mark.parametrize("block", [5, 64])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=stamped_logs())
    def test_stamps_and_empty_ids_match_csv_reader_oracle(self, block, text):
        """Digit and point counts by words, and batches where no row or every row
        is dropped, read as csv.reader's loop reads them, across block edges."""
        assert_reads_as_csv_reader(text, block)

    @pytest.mark.parametrize("stamp", [
        "1234567890123456", "9999999999999999", "12345678.9012345", "99999999999999.9",
        ".999999999999999", "999999999999999.", "0000000000000001", "00000000.0000001",
        "0000000000000000", "."])
    def test_stamps_at_the_window_edges_match_csv_reader_oracle(self, stamp):
        """16 digits, 15 digits and one point, leading zeros and a lone point
        (a bad row), each word of the 16-byte window full."""
        assert_reads_as_csv_reader(f"user_id,content_id,timestamp\nu,c,{stamp}\nv,c,7\n", 64)

    def test_timestamps_read_as_float_reads_them(self, tmp_path):
        # with a point, 16 digits make an inexact integer, which one division rounds again
        stamps = ["0", "007", "5.", ".5", "0.1", "123456789012345", "12345678901234.5",
                  ".123456789012345", "9007199254740993", "96.48064786969077",
                  "943.4607133838363", "91128735.31840813", "96727784342264.81", "-1.5", "1e3"]
        path = tmp_path / "log.csv"
        path.write_text("user_id,content_id,timestamp\n" + "".join(f"u,c,{t}\n" for t in stamps))
        records, bad = load_access_log(path)
        assert not bad
        assert records["timestamp"].tolist() == [float(t) for t in stamps]

    @pytest.mark.skipif(not hasattr(time, "tzset"), reason="needs time.tzset")
    def test_iso_times_without_offset_read_as_utc(self, tmp_path, monkeypatch):
        from d2dcache.cli import _parse_bound
        path = tmp_path / "log.csv"
        path.write_text("user_id,content_id,timestamp\nu1,c1,2023-11-15T00:00:00\n"
                        "u2,c1,2023-11-15T09:00:00+09:00\nu3,c1,1700006400\n")
        try:
            # POSIX rules, so no time zone database is needed: UTC+9 and US Eastern
            for tz in ("UTC0", "JST-9", "EST5EDT,M3.2.0,M11.1.0"):
                monkeypatch.setenv("TZ", tz)
                time.tzset()
                records, bad = load_access_log(path)
                assert not bad and records["timestamp"].tolist() == [1700006400.0] * 3
                assert _parse_bound("2023-11-15T00:00:00") == 1700006400.0
        finally:
            monkeypatch.undo()
            time.tzset()

    @pytest.mark.parametrize("block", [5, 1 << 18])
    def test_digest_hashes_the_bytes_read(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(fitting, "_BLOCK", block)
        path = tmp_path / "log.csv"
        path.write_bytes("user_id,content_id\r\n".encode() +
                         "".join(f"u{i},é{i % 7}\n" for i in range(3000)).encode())
        digest = hashlib.sha256()
        records, _ = load_access_log(path, digest)
        assert len(records) == 3000
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_no_read_past_the_end_of_the_file(self, tmp_path):
        # a log that grows after the read that found its end is parsed as it was then
        path = tmp_path / "log.csv"
        path.write_bytes(b"user_id,content_id\nu1,c1\nu2,c")

        class Grow:
            def update(self, data):
                if not data:
                    with open(path, "ab") as fh:
                        fh.write(b"2\nu3,c3\n")

        records, bad = load_access_log(path, Grow())
        assert records["content"].tolist() == [0, 1] and not bad

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_multibyte_ids_across_reads_match_csv_reader_oracle(self, block):
        # 2-, 3- and 4-byte characters cut by every read, CRLF pairs too, and padded by
        # wide blanks; quoted, the same rows go through csv.reader
        rows = [("é", "日本"), ("ü\u3000", "𝄞"), ("u1", "\xa0ñandú"), ("é", "𝄞𝄞"), ("日本", "日本")]
        for quote in ("", '"'):
            text = "user_id,content_id\r\n" + "".join(
                f"{u},{quote}{c}{quote}\r\n" for u, c in rows)
            assert_reads_as_csv_reader(text, block)

    def test_utf8_log_under_an_ascii_locale(self, tmp_path):
        # the log is UTF-8 whatever the locale: no locale coercion and no UTF-8 mode
        path = tmp_path / "log.csv"
        path.write_bytes("user_id,content_id\ncafé,日本\nu2,𝄞\ncafé,c\n".encode())
        records, bad = load_access_log(path)
        assert records["user"].tolist() == [0, 1, 0] and records["content"].tolist() == [0, 1, 2]
        src = str(Path(fitting.__file__).parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys; from d2dcache.fitting import load_access_log; "
                "r, bad = load_access_log(sys.argv[1]); print(r.tobytes().hex(), bad)")
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split(maxsplit=1) == [records.tobytes().hex(), f"{bad}\n"]

    @pytest.mark.parametrize("block", [1, 2, 3, 1 << 18])
    def test_not_utf8_names_the_line(self, tmp_path, block, monkeypatch):
        # lines end at CRLF (here split by reads of 1 byte), a lone CR and LF
        monkeypatch.setattr(fitting, "_BLOCK", block)
        path = tmp_path / "log.csv"
        path.write_bytes(b"user_id,content_id\r\nu1,c1\ru2,c2\r\n\nu3,\xc3\xa9\nu3,c\xff\n")
        with pytest.raises(DomainError, match=r"log.csv:6: not UTF-8 text \(invalid start byte\)"):
            load_access_log(path)
        # a character cut short by the end of the file
        path.write_bytes("user_id,content_id\nu1,é\r\nu2,".encode() + "日".encode()[:2])
        with pytest.raises(DomainError, match=r":3: not UTF-8 text \(unexpected end of data\)"):
            load_access_log(path)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="csv rejects NUL before 3.11")
    def test_ids_apart_by_length_and_nul(self, tmp_path):
        # NUL hands the file to csv.reader, which keeps it in the ids
        ids = ["a", "a\0", "a\0\0", "abcdefgh", "abcdefgh\0", "abcdefg", "\0" * 8, "\0" * 9,
               "x" * 20, "x" * 19 + "\0", "a"]
        path = tmp_path / "log.csv"
        path.write_text("user_id,content_id\n" + "".join(f"{u},c\n" for u in ids))
        records, bad = load_access_log(path)
        assert not bad
        assert records["user"].tolist() == [*range(len(ids) - 1), 0]

    def test_memory_not_sized_by_longest_id(self, tmp_path):
        rows = 10**5
        body = [f"u{i % 5000},c{i % 700},{1_700_000_000 + i}\n" for i in range(rows)]
        body[rows // 2] = "x" * 10**5 + ",c1,1\n"
        path = tmp_path / "log.csv"
        path.write_text("user_id,content_id,timestamp\n" + "".join(body))
        tracemalloc.start()
        try:
            records, bad = load_access_log(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == rows and not bad
        assert records["user"][rows // 2] == 5000  # a new user, after u0..u4999
        # 1.7x at the time of writing; one key per row as wide as the long id would take 10 GB
        assert peak < 3 * (path.stat().st_size + rows * LOG_DTYPE.itemsize)

    def test_empirical_csv_roundtrip(self):
        emp = dedupe_accesses(rec(("u1", "a"), ("u2", "a"), ("u1", "b")))
        buf = io.StringIO()
        write_empirical_csv(emp, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "rank,count,probability"
        assert lines[1].startswith("1,2,")
        assert float(lines[1].split(",")[2]) == pytest.approx(2 / 3)
        assert len(lines) == 3


class TestIdCoder:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(batches=id_batches())
    @example(batches=[[]])
    @example(batches=[[b"u1"]])
    @example(batches=[[b"abcdefgh", b"https://x/1", b"abcdefgh"], [], [b"https://x/1"]])
    @example(batches=[[b"abcdefg", b"abcdefgh", b"a"], [b"abcdefgh\0", b"a", b"abcdefg"]])
    def test_matches_unique_oracle(self, batches):
        """Codes equal the np.unique coder's and a dict's, bit for bit, across batches."""
        coder, oracle, seen, rows = fitting._IdCoder(), UniqueIdCoder(), {}, 0
        for ids in batches:
            raw = np.frombuffer(b"".join(ids) + fitting._PAD, dtype=np.uint8)
            size = np.array([len(i) for i in ids], dtype=np.int64)
            hi = np.cumsum(size)
            lo = hi - size
            coder.add(raw, lo, hi)
            oracle.add(raw, lo, hi, rows)
            rows += len(ids)
        got, want = coder.codes(), oracle.codes()
        assert got.tolist() == want.tolist()
        assert got.tolist() == [seen.setdefault(i, len(seen)) for ids in batches for i in ids]


class TestSyntheticRecords:
    def test_shape_and_determinism(self):
        d = MZipfDist(1.0, 3.0, 100)
        a = synthetic_records(d, 20, 4, np.random.default_rng(5))
        b = synthetic_records(d, 20, 4, np.random.default_rng(5))
        assert len(a) == 80 and a.dtype == LOG_DTYPE
        assert all(np.array_equal(a[f], b[f], equal_nan=True) for f in LOG_DTYPE.names)
        assert np.isnan(a["timestamp"]).all()
        assert len(np.unique(a["user"])) == 20
