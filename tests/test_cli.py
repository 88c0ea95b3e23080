"""End-to-end CLI tests driven through main(argv)."""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache import cli
from d2dcache.cli import main
from d2dcache.fitting import dedupe_accesses, load_access_log, synthetic_records
from d2dcache.asymptotics import RegimeParams
from d2dcache.policy import hit_probability, waterfill
from d2dcache.popularity import MZipfDist

from oracles import full_placement, hashmap_dedupe, rowwise_policy_csv


def scenario_file(path, **kw):
    path.write_text(json.dumps(kw))
    return str(path)


def read_table(path):
    """Split an output CSV into (meta line, column names, row dicts)."""
    lines = path.read_text().splitlines()
    cols = lines[1].split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[2:]]
    return lines[0], cols, rows


def write_log(path, records):
    with open(path, "w") as fh:
        fh.write("user_id,content_id\n")
        for u, c in zip(records["user"].tolist(), records["content"].tolist()):
            fh.write(f"u{u},f{c}\n")
    return str(path)


def fit_counts(log, *args):
    """Exit code, ranked counts and stdout of a cheap ``fit --export-empirical``."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()) as so, \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(["fit", "--log", str(log), "--coarse-steps", "2", "--refine-rounds", "0",
                   "--export-empirical", "--out", out, *args])
        if rc != 0:
            return rc, None, so.getvalue()
        _, _, rows = read_table(Path(out) / "empirical.csv")
    return rc, [int(r["count"]) for r in rows], so.getvalue()


log_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 20),
              st.sampled_from(["", " ", "\t "]), st.sampled_from(["", "  "])),
    max_size=30,
)


FIG_SCENARIO = dict(n=10000, s=1, k=4, c_rate=1.0, gamma=0.6, q=20.0, m=1000)


class TestFit:
    def test_recovers_synthetic_parameters(self, tmp_path, capsys):
        dist = MZipfDist(1.18, 28.0, 4859)
        rng = np.random.default_rng(11)
        log = write_log(tmp_path / "log.csv", synthetic_records(dist, 200_000, 1, rng))
        rc = main(["fit", "--log", log, "--m", "4859", "--out", str(tmp_path / "o")])
        assert rc == 0
        got = json.loads((tmp_path / "o" / "fit_result.json").read_text())
        assert abs(got["gamma"] - 1.18) < 0.05
        assert abs(got["q"] - 28.0) / 28.0 < 0.20
        assert got["m"] == 4859
        assert got["_meta"]["tool"].startswith("d2dcache ")
        out = capsys.readouterr().out
        assert "gamma=" in out and "200000 unique accesses" in out

    def test_scenario_hash_covers_log_content(self, tmp_path):
        # same file name each time; only the log's content should matter
        bodies = ("u1,f1\nu2,f1\nu3,f2\n", "u1,f1\nu2,f2\nu3,f2\n", "u1,f1\nu2,f1\nu3,f2\n")
        hashes = []
        for i, body in enumerate(bodies):
            log = tmp_path / f"d{i}" / "accesses.csv"
            log.parent.mkdir()
            log.write_text("user_id,content_id\n" + body)
            out = tmp_path / f"o{i}"
            assert main(["fit", "--log", str(log), "--out", str(out)]) == 0
            hashes.append(json.loads((out / "fit_result.json").read_text())["_meta"]["scenario"])
        assert hashes[0] != hashes[1]
        assert hashes[0] == hashes[2]

    def test_log_hash_is_of_the_bytes_the_fit_read(self, tmp_path, monkeypatch):
        # a row appended to the log while the fit runs was not parsed, so it is not hashed
        body = "user_id,content_id\nu1,f1\nu2,f1\nu3,f2\n"
        logs = [tmp_path / d / "accesses.csv" for d in ("grows", "kept")]
        for log in logs:
            log.parent.mkdir()
            log.write_text(body)

        def append_then_dedupe(records):
            with open(logs[0], "a") as fh:
                fh.write("u4,f3\n")
            return dedupe_accesses(records)

        monkeypatch.setattr(cli, "dedupe_accesses", append_then_dedupe)
        results = []
        for i, log in enumerate(logs):
            assert main(["fit", "--log", str(log), "--out", str(tmp_path / f"o{i}")]) == 0
            results.append((tmp_path / f"o{i}" / "fit_result.json").read_text())
        assert logs[0].read_text() != body
        assert results[0] == results[1]

    def test_empty_log_is_config_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("user_id,content_id\n")
        rc = main(["fit", "--log", str(log), "--out", str(tmp_path)])
        assert rc == 2
        assert "no unique accesses" in capsys.readouterr().err

    def test_malformed_rows_warned_but_fit_proceeds(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "user_id,content_id\n"
            "u1,f1\n"
            "only_one_field\n"
            "u2,f1\n"
            "u3,f2\n"
        )
        rc = main(["fit", "--log", str(log), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 0
        assert "warning" in err and ":3:" in err
        assert (tmp_path / "o" / "fit_result.json").exists()

    def test_single_content_degenerate_warns(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("user_id,content_id\nu1,f1\n")
        rc = main(["fit", "--log", str(log), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "single content" in capsys.readouterr().err
        got = json.loads((tmp_path / "o" / "fit_result.json").read_text())
        assert len(got["warnings"]) == 1 and "single content" in got["warnings"][0]
        # every KL on the grid is exactly 0, so the tie rule picks the smallest point
        assert (got["gamma"], got["q"]) == (0.05, 0.0)

    def test_optimum_on_upper_edge_of_search_box_warns(self, tmp_path, capsys):
        dist = MZipfDist(1.28, 34.0, 2000)
        log = write_log(tmp_path / "log.csv",
                        synthetic_records(dist, 50_000, 1, np.random.default_rng(3)))
        cases = [([], None, None), (["--gamma-hi", "1.0"], "gamma", 1.0),
                 (["--q-hi", "10"], "q", 10.0)]
        for i, (args, name, edge) in enumerate(cases):
            out = tmp_path / f"o{i}"
            assert main(["fit", "--log", log, "--m", "2000", "--out", str(out), *args]) == 0
            err = capsys.readouterr().err
            got = json.loads((out / "fit_result.json").read_text())
            if name is None:
                assert got["warnings"] == [] and "warning" not in err
                assert abs(got["gamma"] - 1.28) < 0.05
            else:
                assert got[name] == edge and len(got["warnings"]) == 1
                assert f"{name} = {edge}" in got["warnings"][0]
                assert "upper edge" in got["warnings"][0]
                assert f"warning: {got['warnings'][0]}" in err

    @pytest.mark.parametrize("flag, value", [("--coarse-steps", "0"), ("--refine-rounds", "-1")])
    def test_search_steps_out_of_range_is_domain_error(self, tmp_path, capsys, flag, value):
        log = tmp_path / "log.csv"
        log.write_text("user_id,content_id\nu1,f1\nu2,f1\nu2,f2\n")
        assert main(["fit", "--log", str(log), flag, value, "--out", str(tmp_path / "o")]) == 2
        assert "need coarse_steps >= 1 and refine_rounds >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("given, explicit", [
        (["--gamma-lo", "0.1"], ["--gamma-lo", "0.1", "--gamma-hi", "5.0"]),
        (["--gamma-hi", "4.0"], ["--gamma-lo", "0.05", "--gamma-hi", "4.0"]),
        (["--q-hi", "50"], ["--q-lo", "0.0", "--q-hi", "50"]),
    ])
    def test_one_sided_search_box_takes_the_other_edge_from_defaults(self, tmp_path, given,
                                                                     explicit):
        # the defaults are FitSearch's, and the hashed scenario does not tell them apart
        log = write_log(tmp_path / "log.csv", synthetic_records(
            MZipfDist(1.1, 5.0, 300), 2000, 3, np.random.default_rng(4)))
        results = []
        for i, flags in enumerate((given, explicit)):
            out = tmp_path / f"o{i}"
            assert main(["fit", "--log", log, "--coarse-steps", "4", "--refine-rounds", "0",
                         *flags, "--out", str(out)]) == 0
            results.append((out / "fit_result.json").read_bytes())
        assert results[0] == results[1]

    def test_export_empirical(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("user_id,content_id\nu1,f1\nu2,f1\nu2,f2\n")
        rc = main(["fit", "--log", str(log), "--out", str(tmp_path / "o"),
                   "--export-empirical"])
        assert rc == 0
        text = (tmp_path / "o" / "empirical.csv").read_text().splitlines()
        assert text[0].startswith("# d2dcache ")
        assert text[1] == "rank,count,probability"
        assert text[2].startswith("1,2,")

    def test_export_empirical_round_trips(self, tmp_path):
        dist = MZipfDist(1.1, 5.0, 300)
        log = write_log(tmp_path / "log.csv",
                        synthetic_records(dist, 2000, 3, np.random.default_rng(4)))
        rc = main(["fit", "--log", log, "--coarse-steps", "2", "--refine-rounds", "0",
                   "--export-empirical", "--out", str(tmp_path / "o")])
        assert rc == 0
        emp = dedupe_accesses(load_access_log(log)[0])
        _, cols, rows = read_table(tmp_path / "o" / "empirical.csv")
        assert cols == ["rank", "count", "probability"]
        assert [int(r["rank"]) for r in rows] == list(range(1, len(emp.counts) + 1))
        assert [int(r["count"]) for r in rows] == emp.counts.tolist()
        assert [float(r["probability"]) for r in rows] == (emp.counts / emp.total).tolist()

    def test_undecodable_log_is_domain_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_bytes(b"user_id,content_id\nu1,c1\nu1,c\xff1\nu2,c1\n")
        rc = main(["fit", "--log", str(log), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error: {log}:3: not UTF-8 text" in capsys.readouterr().err

    def test_since_until_filters_on_timestamp(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "user_id,content_id,timestamp\n"
            "u1,f1,100\n"
            "u2,f2,200\n"
            "u3,f3,300\n"
            "u4,f4,400\n"
        )
        rc = main(["fit", "--log", str(log), "--since", "150", "--until", "350",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "(2 unique accesses" in capsys.readouterr().out

    @settings(max_examples=60, deadline=None)
    @given(rows=log_rows, with_ts=st.booleans(),
           since=st.none() | st.integers(0, 20), until=st.none() | st.integers(0, 20))
    def test_window_and_dedupe_match_hashmap_oracle(self, rows, with_ts, since, until):
        """Padded ids, repeats and an optional timestamp column, cut by a
        since/until window: counts, total and users of the kept string pairs."""
        header = "user_id,content_id,timestamp" if with_ts else "user_id,content_id"
        lines = [f"{a}u{u}{b},{b}f{c}{a}" + (f",{b}{t}" if with_ts else "")
                 for u, c, t, a, b in rows]
        windowed = since is not None or until is not None
        lo = -1 if since is None else since
        hi = 99 if until is None else until
        kept = [(f"u{u}", f"f{c}") for u, c, t, _, _ in rows
                if not windowed or (with_ts and lo <= t <= hi)]
        bounds = [*(["--since", str(since)] if since is not None else []),
                  *(["--until", str(until)] if until is not None else [])]
        with tempfile.TemporaryDirectory() as d:
            log = Path(d) / "log.csv"
            log.write_text("\n".join([header, *lines]) + "\n")
            rc, counts, out = fit_counts(log, *bounds)
        if not kept:
            assert rc == 2
            return
        want_counts, want_users = hashmap_dedupe(kept)
        assert rc == 0 and counts == want_counts
        assert f"({sum(want_counts)} unique accesses, {want_users} users," in out

    def test_window_recodes_ids_first_seen_inside_it(self, tmp_path):
        # b and c are first seen before --since and u0 only there; a dedupe
        # that kept the log-wide codes would count c and u0 with zero requests
        log = tmp_path / "log.csv"
        log.write_text(
            "user_id,content_id,timestamp\n"
            "u0,b,1\n"
            "u0,c,2\n"
            "u1,a,10\n"
            "u2,b,11\n"
            "u2,a,12\n"
            "u1,b,13\n"
        )
        rc, counts, out = fit_counts(log, "--since", "5")
        assert rc == 0 and counts == [2, 2]
        assert "(4 unique accesses, 2 users," in out

    def test_bad_time_bound(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("user_id,content_id\nu1,f1\n")
        rc = main(["fit", "--log", str(log), "--since", "whenever"])
        assert rc == 2
        assert "time bound" in capsys.readouterr().err

    def test_missing_log_is_io_error(self, tmp_path):
        rc = main(["fit", "--log", str(tmp_path / "nope.csv")])
        assert rc == 3


class TestPolicyCmd:
    def test_matches_library_output(self, tmp_path):
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO, n_clusters=100)
        rc = main(["policy", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 0

        dist = MZipfDist(0.6, 20.0, 1000)
        pol = waterfill(dist, 1, 100)
        meta, cols, rows = read_table(tmp_path / "o" / "policy.csv")
        assert meta.startswith("# d2dcache ")
        assert cols == ["rank", "p_c"]
        assert len(rows) == 1000
        got = np.array([float(r["p_c"]) for r in rows])
        assert np.array_equal(got, full_placement(pol))

        con = json.loads((tmp_path / "o" / "policy_constants.json").read_text())
        assert con["m_star"] == pol.m_star
        assert con["nu"] == pol.nu
        assert con["hit_probability"] == hit_probability(dist, pol, 1, 100)
        ac = RegimeParams(gamma=0.6, q=20.0, m=1000, s=1, g_c=100)
        assert con["c1"] == ac.c1 and con["c2"] == ac.c2
        assert con["m_star_asym"] == ac.m_star_asym

    def test_missing_keys_rejected(self, tmp_path, capsys):
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO)  # no n_clusters
        rc = main(["policy", "--scenario", scn, "--out", str(tmp_path)])
        assert rc == 2
        assert "n_clusters" in capsys.readouterr().err

    @pytest.mark.parametrize("self_cache", [False, True])
    def test_outage_equals_analyze_exact_sum(self, tmp_path, self_cache):
        """policy_constants.json's outage is the exact_sum row of analyze at
        the same geometry; with self_cache both count the own slots."""
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO, self_cache=self_cache,
                            n_clusters=2500, cluster_counts=[2500])
        out = str(tmp_path / "o")
        assert main(["policy", "--scenario", scn, "--out", out]) == 0
        assert main(["analyze", "--scenario", scn, "--out", out]) == 0
        con = json.loads((tmp_path / "o" / "policy_constants.json").read_text())
        _, _, rows = read_table(tmp_path / "o" / "theory_curves.csv")
        exact = [float(r["outage"]) for r in rows if r["source"] == "exact_sum"]
        assert con["g_c"] == 4 and exact == [con["outage"]]
        assert con["outage"] == 1.0 - con["hit_probability"]


class TestPolicyCsvWriter:
    """policy.csv's table, written as support rows plus a chunked zero tail,
    is byte for byte what one csv.writer row per rank writes."""

    def table(self, tmp_path, m, n_clusters):
        scn = scenario_file(tmp_path / "s.json", **dict(FIG_SCENARIO, m=m), n_clusters=n_clusters)
        assert main(["policy", "--scenario", scn, "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "policy.csv").read_bytes().decode()
        pol = waterfill(MZipfDist(0.6, 20.0, m), 1, 10_000 // n_clusters)
        assert text.split("\n", 1)[1] == rowwise_policy_csv(full_placement(pol))
        return m - pol.m_star

    @pytest.mark.parametrize("m, n_clusters", [(1, 100), (50, 1)])
    def test_no_tail(self, tmp_path, m, n_clusters):
        assert self.table(tmp_path, m, n_clusters) == 0

    # at g_c = 100 the support is ranks 1..214 for every m >= 214: the level
    # scan does not see the pmf's normalization, and the tail's first whole
    # hundred is ranks 300..399.  Two hundreds per write: m = 599 and 800
    # take two and three writes, m = 299, 399 and 599 end on a whole hundred
    @pytest.mark.parametrize("m", [215, 299, 399, 400, 599, 600, 800])
    def test_tails_around_small_chunks(self, tmp_path, monkeypatch, m):
        monkeypatch.setattr(cli, "_TAIL_CHUNK", 2)
        assert self.table(tmp_path, m, 100) == m - 214

    # off = 0 ends the tail on the last rank of the first full write of
    # whole hundreds; -1 and +1 put one rank on either side of it, +100 one
    # more hundred, which is a second write
    @pytest.mark.parametrize("off", [-1, 0, 1, 100])
    def test_tail_at_chunk_boundary(self, tmp_path, off):
        m = 100 * (3 + cli._TAIL_CHUNK) - 1 + off
        assert self.table(tmp_path, m, 100) == m - 214

    @pytest.mark.parametrize("m", [999, 1000, 9999, 10_000])
    def test_library_at_power_of_ten(self, tmp_path, m):
        assert self.table(tmp_path, m, 100) == m - 214

    # the 214 support rows in chunks: 71 of 3 and one of 1, 2 of 100 and one
    # of 14, or one whole chunk of 214
    @pytest.mark.parametrize("chunk", [3, 100, 214])
    def test_support_in_chunks(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_SCAN_CHUNK", chunk)
        assert self.table(tmp_path, 1000, 100) == 1000 - 214


# (lo, m): the zero rows of ranks lo..m; every digit boundary from 9 -> 10 to
# 999 999 -> 1 000 000 is crossed, m = 10^k and m = 10^k - 1 for k = 1..6, and
# ranges inside one hundred, up to one, across one and on either side of one
ZERO_TAILS = [(1, 10**6), (2, 9), (2, 10), (150, 160), (1, 99), (99, 201), (100, 100),
              (199, 301)] + [
    case for k in range(2, 7)
    for case in [(10**k - 3, 10**k + 2), (2, 10**k - 1), (2, 10**k), (10**k, 10**k)]
]


class TestZeroRowWriter:
    """cli._write_zero_rows against one csv.writer row per rank."""

    @pytest.fixture(scope="class")
    def rows(self):
        return rowwise_policy_csv(np.zeros(10**6 + 10)).split("\n", 1)[1]

    @staticmethod
    def want(rows, lo, m):
        start = 0 if lo == 1 else rows.index(f"\n{lo},") + 1
        return rows[start:rows.index(f"\n{m + 1},") + 1]

    def check(self, rows, lo, m):
        fh = io.StringIO(newline="")
        cli._write_zero_rows(fh, lo, m + 1)
        got, want = fh.getvalue(), self.want(rows, lo, m)
        if got != want:  # not an assert: pytest's diff of megabytes takes minutes
            pairs = enumerate(zip(got, want))
            i = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
            pytest.fail(f"first difference at {i}: {got[i:i + 30]!r} != {want[i:i + 30]!r}")

    @pytest.mark.parametrize("lo, m", ZERO_TAILS)
    def test_matches_rowwise_writer(self, rows, lo, m):
        self.check(rows, lo, m)

    # three hundreds per write: every case but (95, 105) crosses writes and hundreds
    @pytest.mark.parametrize("lo, m", [(1, 10_000), (5, 1002), (95, 105), (150, 749)])
    def test_small_blocks(self, rows, monkeypatch, lo, m):
        monkeypatch.setattr(cli, "_TAIL_CHUNK", 3)
        self.check(rows, lo, m)

    @settings(max_examples=200, deadline=None)
    @given(bounds=st.tuples(st.integers(1, 3 * 10**4), st.integers(1, 3 * 10**4)),
           chunk=st.sampled_from([1, 3]))
    def test_any_range_matches_rowwise_writer(self, rows, bounds, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_TAIL_CHUNK", chunk)
            self.check(rows, min(bounds), max(bounds))

    def test_empty_range_writes_nothing(self):
        fh = io.StringIO()
        cli._write_zero_rows(fh, 11, 11)
        assert fh.getvalue() == ""


class TestAnalyzeCmd:
    def test_curve_csv_schema(self, tmp_path):
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO,
                            cluster_counts=[25, 100, 400])
        rc = main(["analyze", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 0
        meta, cols, rows = read_table(tmp_path / "o" / "theory_curves.csv")
        assert meta.startswith("# d2dcache ")
        assert cols == ["g_c", "outage", "throughput", "source", "clamped"]
        assert all(r["clamped"] in ("True", "False") for r in rows)
        at_100 = {r["source"] for r in rows if r["g_c"] == "100"}
        assert {"exact_sum", "closed_form", "small_gamma_r2"} <= at_100
        # no seed involved, header records that
        assert meta.endswith("seed=none")

    def test_single_file_library_writes_only_the_exact_sum(self, tmp_path):
        # g_c = 4 sits below saturation, but ranks 1..m span an empty range
        scn = scenario_file(tmp_path / "s.json", n=16, cluster_counts=[4], m=1,
                            gamma=5.0, q=0.0)
        rc = main(["analyze", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 0
        _, _, rows = read_table(tmp_path / "o" / "theory_curves.csv")
        assert [r["source"] for r in rows] == ["exact_sum"]

    def test_infeasible_counts_warned(self, tmp_path, capsys):
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO,
                            cluster_counts=[3, 100])
        rc = main(["analyze", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "skipped" in capsys.readouterr().err
        _, _, rows = read_table(tmp_path / "o" / "theory_curves.csv")
        assert {r["g_c"] for r in rows} == {"100"}

    def test_nothing_feasible_is_error(self, tmp_path):
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO, cluster_counts=[3])
        assert main(["analyze", "--scenario", scn, "--out", str(tmp_path)]) == 2

    def test_square_grid_keeps_feasible_counts_and_warns_per_skip(self, tmp_path, capsys):
        counts = [i * i for i in range(2, 28)]
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO, cluster_counts=counts)
        assert main(["analyze", "--scenario", scn, "--out", str(tmp_path / "o")]) == 0
        _, _, rows = read_table(tmp_path / "o" / "theory_curves.csv")
        assert sorted({int(r["g_c"]) for r in rows}) == [16, 25, 100, 400, 625, 2500]
        warned = [ln for ln in capsys.readouterr().err.splitlines() if "skipped" in ln]
        assert sorted(int(ln.split()[3]) for ln in warned) == \
            [nc for nc in counts if nc not in (4, 16, 25, 100, 400, 625)]

    def test_huge_plateau_returns(self, tmp_path):
        # q = 1e10 puts the cutoff constant past 2**13, where the bisection on
        # c1 can no longer narrow its bracket to 1e-12
        scn = scenario_file(tmp_path / "s.json", n=36, m=1000, gamma=0.6, q=1e10,
                            n_clusters=4, cluster_counts=[4])
        for cmd in ("policy", "analyze"):
            assert main([cmd, "--scenario", scn, "--out", str(tmp_path / cmd)]) == 0
        _, _, rows = read_table(tmp_path / "analyze" / "theory_curves.csv")
        assert [r["source"] for r in rows] == ["exact_sum", "lower_bound"]


@pytest.mark.parametrize("cmd, table", [("analyze", "theory_curves.csv"),
                                        ("sweep", "tradeoff.csv")])
@pytest.mark.parametrize("gamma", [150, 1000])
def test_huge_gamma_skips_failing_closed_forms(tmp_path, cmd, table, gamma):
    # the large-gamma form divides by a power that underflows to 0, and at
    # gamma = 1000 the closed form overflows: such rows are left out
    scn = scenario_file(tmp_path / "s.json", n=10000, m=1000, gamma=gamma, q=0,
                        cluster_counts=[100, 400], trials=2, seed=1)
    assert main([cmd, "--scenario", scn, "--out", str(tmp_path / "o")]) == 0
    _, _, rows = read_table(tmp_path / "o" / table)
    sources = {r["source"] for r in rows}
    assert "exact_sum" in sources and "large_gamma" not in sources
    assert {r["g_c"] for r in rows} == {"100", "25"}


class TestSimulateCmd:
    def test_estimate_close_to_exact(self, tmp_path):
        scn = scenario_file(tmp_path / "s.json", n=2500, k=4, gamma=0.6, q=20.0,
                            m=1000, n_clusters=25, trials=40)
        rc = main(["simulate", "--scenario", scn, "--seed", "99",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        got = json.loads((tmp_path / "o" / "sim_result.json").read_text())
        assert got["g_c"] == 100 and got["trials"] == 40 and got["seed"] == 99
        assert got["outage_stderr"] > 0
        gap = abs(got["outage_mean"] - got["exact_outage"])
        assert gap < 4 * got["outage_stderr"]
        z = (got["outage_mean"] - got["exact_outage"]) / got["outage_stderr"]
        assert got["outage_z"] == z

    def test_outage_z_is_null_without_spread(self, tmp_path):
        # one file, held by every cache: each trial serves everyone
        scn = scenario_file(tmp_path / "s.json", n=16, gamma=1.0, q=0.0, m=1,
                            n_clusters=4, trials=3, seed=1)
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path / "o")]) == 0
        got = json.loads((tmp_path / "o" / "sim_result.json").read_text())
        assert got["outage_stderr"] == 0.0 and got["outage_z"] is None

    def test_rerun_is_bitwise_identical(self, tmp_path):
        scn = scenario_file(tmp_path / "s.json", n=400, gamma=0.8, q=5.0, m=200,
                            n_clusters=16, trials=6, seed=31)
        for d in ("a", "b"):
            assert main(["simulate", "--scenario", scn, "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "a" / "sim_result.json").read_bytes() == \
            (tmp_path / "b" / "sim_result.json").read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        scn = scenario_file(tmp_path / "s.json", n=400, gamma=0.8, q=5.0, m=200,
                            n_clusters=16)
        rc = main(["simulate", "--scenario", scn, "--out", str(tmp_path)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_scenario_seed_used_when_no_flag(self, tmp_path):
        scn = scenario_file(tmp_path / "s.json", n=400, gamma=0.8, q=5.0, m=200,
                            n_clusters=16, trials=4, seed=123)
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path / "o")]) == 0
        got = json.loads((tmp_path / "o" / "sim_result.json").read_text())
        assert got["seed"] == 123

    def test_workers_flag_removed(self, tmp_path):
        scn = scenario_file(tmp_path / "s.json", n=400, gamma=0.8, q=5.0, m=200,
                            n_clusters=16, trials=4, seed=1)
        assert main(["simulate", "--scenario", scn, "--workers", "1",
                     "--out", str(tmp_path)]) == 2


class TestSweepCmd:
    def test_tradeoff_csv_sources_and_agreement(self, tmp_path):
        """Every cluster count carries simulation, exact sum and theory rows,
        and theory outage stays within 0.05 of the simulated estimate."""
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO,
                            cluster_counts=[16, 25, 100, 400], trials=16)
        rc = main(["sweep", "--scenario", scn, "--seed", "2024",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        meta, cols, rows = read_table(tmp_path / "o" / "tradeoff.csv")
        assert meta.startswith("# d2dcache ") and meta.endswith("seed=2024")
        assert cols == ["n_clusters", "g_c", "outage", "outage_stderr",
                        "throughput", "throughput_stderr", "source", "outage_z"]
        by_gc = {}
        for r in rows:
            by_gc.setdefault(int(r["g_c"]), []).append(r)
        assert set(by_gc) == {25, 100, 400, 625}
        for g_c, grp in by_gc.items():
            sources = {r["source"] for r in grp}
            assert len(sources) >= 3
            assert "simulated" in sources and "exact_sum" in sources
            sim = next(float(r["outage"]) for r in grp if r["source"] == "simulated")
            for r in grp:
                assert abs(float(r["outage"]) - sim) <= 0.05, (g_c, r["source"])
            # stderr and z columns populated only for the simulated rows
            for r in grp:
                has_err = r["outage_stderr"] != ""
                assert has_err == (r["source"] == "simulated")
                assert (r["outage_z"] != "") == has_err
            assert all(int(r["n_clusters"]) * g_c == 10000 for r in grp)

    def test_rerun_is_bitwise_identical(self, tmp_path):
        scn = scenario_file(tmp_path / "s.json", n=2500, gamma=0.7, q=10.0, m=400,
                            cluster_counts=[25, 100], trials=5, seed=8)
        for d in ("a", "b"):
            assert main(["sweep", "--scenario", scn, "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "a" / "tradeoff.csv").read_bytes() == \
            (tmp_path / "b" / "tradeoff.csv").read_bytes()

    def test_self_cache_exact_outage_counts_own_slots(self, tmp_path):
        """With self_cache a request is served from any of the cluster's s*g_c
        slots, and the exact outage must count them all: every simulated row
        sits within 5 stderr of it (g_c = 4 was 38 stderr off with s*(g_c-1))."""
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO, self_cache=True,
                            cluster_counts=[2500, 400, 100, 16], n_clusters=2500, trials=200)
        assert main(["sweep", "--scenario", scn, "--seed", "7", "--out", str(tmp_path / "o")]) == 0
        _, _, rows = read_table(tmp_path / "o" / "tradeoff.csv")
        exact = {r["g_c"]: float(r["outage"]) for r in rows if r["source"] == "exact_sum"}
        sims = [r for r in rows if r["source"] == "simulated"]
        assert len(sims) == 4
        for r in sims:
            z = (float(r["outage"]) - exact[r["g_c"]]) / float(r["outage_stderr"])
            assert abs(z) < 5, (r["g_c"], z)
        assert main(["simulate", "--scenario", scn, "--seed", "7", "--out", str(tmp_path / "s")]) == 0
        got = json.loads((tmp_path / "s" / "sim_result.json").read_text())
        assert got["exact_outage"] == exact["4"]
        assert abs(got["outage_mean"] - got["exact_outage"]) < 5 * got["outage_stderr"]

    def test_readme_scenario_outage_z(self, tmp_path):
        """Each simulated row's z is its distance from the same config's
        exact_sum row in standard errors, below 5 on the README scenario."""
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO, n_clusters=100,
                            cluster_counts=[16, 25, 100, 400], trials=200, seed=7)
        assert main(["sweep", "--scenario", scn, "--out", str(tmp_path / "o")]) == 0
        _, _, rows = read_table(tmp_path / "o" / "tradeoff.csv")
        exact = {r["g_c"]: float(r["outage"]) for r in rows if r["source"] == "exact_sum"}
        sims = [r for r in rows if r["source"] == "simulated"]
        assert len(sims) == 4
        for r in sims:
            z = (float(r["outage"]) - exact[r["g_c"]]) / float(r["outage_stderr"])
            assert float(r["outage_z"]) == z and abs(z) < 5, (r["g_c"], z)
        assert all(r["outage_z"] == "" for r in rows if r["source"] != "simulated")

    def test_infeasible_counts_warned(self, tmp_path, capsys):
        scn = scenario_file(tmp_path / "s.json", n=2500, gamma=0.7, q=10.0, m=400,
                            cluster_counts=[7, 25], trials=4, seed=1)
        rc = main(["sweep", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "cluster count 7 skipped" in capsys.readouterr().err
        _, _, rows = read_table(tmp_path / "o" / "tradeoff.csv")
        assert {r["g_c"] for r in rows} == {"100"}

    def test_seed_required(self, tmp_path):
        scn = scenario_file(tmp_path / "s.json", n=2500, gamma=0.7, q=10.0, m=400,
                            cluster_counts=[25], trials=4)
        assert main(["sweep", "--scenario", scn, "--out", str(tmp_path)]) == 2

    def test_workers_accepts_only_one(self, tmp_path):
        scn = scenario_file(tmp_path / "s.json", n=2500, gamma=0.7, q=10.0, m=400,
                            cluster_counts=[25, 100], trials=5, seed=8)
        for d, extra in (("a", []), ("b", ["--workers", "1"])):
            assert main(["sweep", "--scenario", scn, *extra, "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "a" / "tradeoff.csv").read_bytes() == \
            (tmp_path / "b" / "tradeoff.csv").read_bytes()
        assert main(["sweep", "--scenario", scn, "--workers", "2",
                     "--out", str(tmp_path / "c")]) == 2


class TestSharedCurves:
    def test_analyze_rows_equal_sweep_non_simulated_rows(self, tmp_path):
        """Both commands build exact and closed-form rows through one path."""
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO,
                            cluster_counts=[7, 4, 16, 25, 100, 400, 625], trials=4)
        assert main(["analyze", "--scenario", scn, "--out", str(tmp_path / "a")]) == 0
        assert main(["sweep", "--scenario", scn, "--seed", "3",
                     "--out", str(tmp_path / "s")]) == 0
        key = ("g_c", "source", "outage", "throughput")
        _, _, analyzed = read_table(tmp_path / "a" / "theory_curves.csv")
        _, _, swept = read_table(tmp_path / "s" / "tradeoff.csv")
        want = sorted(tuple(r[k] for k in key) for r in analyzed)
        got = sorted(tuple(r[k] for k in key) for r in swept if r["source"] != "simulated")
        assert len(want) > 7 and got == want


def test_subcommand_options():
    """Each subcommand takes exactly these flags; only sweep takes the hidden --workers."""
    scenario = {"-h", "--help", "--scenario", "--out"}
    seeded = scenario | {"--seed", "--trials"}
    want = {
        "fit": {"-h", "--help", "--log", "--m", "--gamma-lo", "--gamma-hi", "--q-lo", "--q-hi",
                "--coarse-steps", "--refine-rounds", "--since", "--until",
                "--export-empirical", "--out"},
        "policy": scenario,
        "analyze": scenario,
        "simulate": seeded,
        "sweep": seeded | {"--workers"},
    }
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {flag for a in p._actions for flag in a.option_strings}
           for name, p in sub.choices.items()}
    assert got == want


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=3),
    max_leaves=8,
)


def shuffled(value, rnd):
    """``value`` with the keys of every dict in it inserted in a random order."""
    if isinstance(value, dict):
        items = list(value.items())
        rnd.shuffle(items)
        return {k: shuffled(v, rnd) for k, v in items}
    if isinstance(value, list):
        return [shuffled(v, rnd) for v in value]
    return value


@settings(max_examples=60, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=8), json_values, max_size=12),
       rnd=st.randoms(use_true_random=False))
def test_scenario_hash_ignores_key_order(payload, rnd):
    assert cli._scenario_hash(shuffled(payload, rnd)) == cli._scenario_hash(payload)


class TestScenarioValidation:
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("from_flag", [True, False])
    def test_negative_seed_rejected(self, tmp_path, capsys, command, from_flag):
        scn = scenario_file(tmp_path / "s.json", n=400, gamma=0.8, q=5.0, m=200, n_clusters=16,
                            cluster_counts=[16], trials=4, **({} if from_flag else {"seed": -3}))
        flag = ["--seed", "-1"] if from_flag else []
        assert main([command, "--scenario", scn, *flag, "--out", str(tmp_path)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_non_finite_numbers_rejected(self, tmp_path, capsys):
        (tmp_path / "fr.json").write_text('{"gamma": NaN, "q": 20.0, "m": 1000}')
        cases = [
            ("policy", dict(FIG_SCENARIO, q=float("nan"), n_clusters=100)),
            ("analyze", dict(FIG_SCENARIO, c_rate=float("inf"), cluster_counts=[100])),
            ("analyze", dict(FIG_SCENARIO, gamma=float("-inf"), cluster_counts=[100])),
            ("policy", dict(FIG_SCENARIO, c_rate=10**400, n_clusters=100)),
            ("policy", dict(n=10000, fit_result="fr.json", n_clusters=100)),
        ]
        for i, (cmd, body) in enumerate(cases):
            scn = scenario_file(tmp_path / f"s{i}.json", **body)
            assert main([cmd, "--scenario", scn, "--out", str(tmp_path / "o")]) == 2, body
            assert "must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integers_outside_int64_rejected(self, tmp_path, capsys):
        cases = [
            ("analyze", dict(FIG_SCENARIO, m=10**30, cluster_counts=[100]), []),
            ("analyze", dict(FIG_SCENARIO, cluster_counts=[100, 2**64]), []),
            ("policy", dict(FIG_SCENARIO, n=-(2**63) - 1, n_clusters=100), []),
            ("simulate", dict(FIG_SCENARIO, n_clusters=100, trials=2**64, seed=1), []),
            ("simulate", dict(FIG_SCENARIO, n_clusters=100, seed=1), ["--trials", str(2**64)]),
        ]
        for i, (cmd, body, flags) in enumerate(cases):
            scn = scenario_file(tmp_path / f"s{i}.json", **body)
            assert main([cmd, "--scenario", scn, *flags, "--out", str(tmp_path / "o")]) == 2
            assert "int64" in capsys.readouterr().err, body
        assert not (tmp_path / "o").exists()

    def test_trials_too_many_to_hold_rejected(self, tmp_path, capsys):
        # 2**62 float64 results overflow the largest array numpy will allocate, so the
        # refusal comes before any trial runs; a count the OS maps lazily would not
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO, n_clusters=100, seed=1)
        flags = ["--trials", str(2**62), "--out", str(tmp_path / "o")]
        assert main(["simulate", "--scenario", scn, *flags]) == 2
        assert "cannot hold the results of 4611686018427387904 trials" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_int64_edges_accepted(self, tmp_path):
        # the seed feeds a SeedSequence, which takes any integer
        scn = scenario_file(tmp_path / "s.json", **dict(FIG_SCENARIO, m=2**63 - 1),
                            cluster_counts=[100], n_clusters=100, trials=2, seed=2**64)
        assert main(["analyze", "--scenario", scn, "--out", str(tmp_path / "o")]) == 0
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path / "o")]) == 0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        scn = tmp_path / "s.json"
        scn.write_text('{"n": 100, "bogus": 1}')
        rc = main(["analyze", "--scenario", str(scn), "--out", str(tmp_path)])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_popularity_given_twice(self, tmp_path, capsys):
        scn = tmp_path / "s.json"
        scn.write_text('{"n": 100, "gamma": 0.6, "fit_result": "f.json"}')
        rc = main(["analyze", "--scenario", str(scn), "--out", str(tmp_path)])
        assert rc == 2
        assert "twice" in capsys.readouterr().err

    def test_missing_scenario_file(self, tmp_path):
        rc = main(["analyze", "--scenario", str(tmp_path / "nope.json")])
        assert rc == 3

    def test_invalid_json(self, tmp_path):
        scn = tmp_path / "s.json"
        scn.write_text("{not json")
        assert main(["analyze", "--scenario", str(scn)]) == 2

    def test_files_read_as_json_bytes(self, tmp_path, capsys):
        # json detects UTF-8, -16 or -32 from the bytes on every host; 0xff is none of them
        fr, out = tmp_path / "fr.json", ["--out", str(tmp_path / "o")]
        scn = scenario_file(tmp_path / "s.json", n=10000, fit_result="fr.json", n_clusters=100)
        fr.write_bytes(b'{"gamma": 0.6, "q": 20.0, "m": 1000, "note": "\xff"}')
        assert main(["policy", "--scenario", scn, *out]) == 2
        assert f"fit_result file {fr} is not valid JSON" in capsys.readouterr().err
        for body in ("5", '"gamma q m"', "[]"):
            fr.write_text(body)
            assert main(["policy", "--scenario", scn, *out]) == 2
            assert f"fit_result file {fr} is not an object with 'gamma'" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        # json's decoder recurses once per level of nesting
        for body in (b'{"n": 10000, "note": "\xff"}', b"[" * 10**5 + b"]" * 10**5):
            bad.write_bytes(body)
            assert main(["policy", "--scenario", str(bad), *out]) == 2
            assert f"scenario {bad} is not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        fr.write_text(json.dumps({"gamma": 0.6, "q": 20.0, "m": 1000}), encoding="utf-16")
        assert main(["policy", "--scenario", scn, *out]) == 0

    def test_wrong_type_rejected(self, tmp_path, capsys):
        scn = tmp_path / "s.json"
        scn.write_text('{"n": "100", "gamma": 0.6, "q": 1.0, "m": 50, "cluster_counts": [4]}')
        rc = main(["analyze", "--scenario", str(scn)])
        assert rc == 2
        assert "'n'" in capsys.readouterr().err

    def test_fit_result_pointer(self, tmp_path):
        """A scenario may reference a FitResult file instead of inline gamma/q/m."""
        (tmp_path / "fr.json").write_text(
            json.dumps({"gamma": 0.6, "q": 20.0, "m": 1000, "kl": 0.0})
        )
        scn = scenario_file(tmp_path / "s.json", n=10000, k=4,
                            fit_result="fr.json", n_clusters=100)
        rc = main(["policy", "--scenario", scn, "--out", str(tmp_path / "o")])
        assert rc == 0
        con = json.loads((tmp_path / "o" / "policy_constants.json").read_text())
        pol = waterfill(MZipfDist(0.6, 20.0, 1000), 1, 100)
        assert con["m_star"] == pol.m_star

    def test_fit_result_missing_field(self, tmp_path, capsys):
        (tmp_path / "fr.json").write_text('{"gamma": 0.6, "q": 20.0}')
        scn = scenario_file(tmp_path / "s.json", n=10000, fit_result="fr.json",
                            n_clusters=100)
        rc = main(["policy", "--scenario", scn, "--out", str(tmp_path)])
        assert rc == 2
        assert "'m'" in capsys.readouterr().err

    def test_fit_result_not_a_path_string(self, tmp_path, capsys):
        scn = scenario_file(tmp_path / "s.json", n=10000, fit_result=5, n_clusters=100)
        assert main(["policy", "--scenario", scn, "--out", str(tmp_path)]) == 2
        assert "'fit_result' must be a path string" in capsys.readouterr().err

    def test_negative_cluster_count(self, tmp_path, capsys):
        scn = scenario_file(tmp_path / "s.json", **FIG_SCENARIO, n_clusters=-4,
                            cluster_counts=[-4, 16])
        assert main(["policy", "--scenario", scn, "--out", str(tmp_path / "o")]) == 2
        assert "n_clusters must be a positive perfect square" in capsys.readouterr().err
        assert main(["analyze", "--scenario", scn, "--out", str(tmp_path / "o")]) == 0
        assert "cluster count -4 skipped" in capsys.readouterr().err
        _, _, rows = read_table(tmp_path / "o" / "theory_curves.csv")
        assert rows and {r["g_c"] for r in rows} == {"625"}

    def test_bad_cluster_counts(self, tmp_path):
        scn = tmp_path / "s.json"
        scn.write_text('{"n": 100, "gamma": 0.6, "q": 1.0, "m": 50, "cluster_counts": []}')
        assert main(["analyze", "--scenario", str(scn)]) == 2
