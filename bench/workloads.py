"""The benchmark's workloads: inputs made from a seed, the ``d2dcache``
commands that run on them, and the checks their outputs must pass.

Every workload is sized so that one layer of the package does most of its
work; ``bench/README.md`` says which, and why.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


def mzipf_ranks(rng: np.random.Generator, gamma: float, q: float, m: int, size: int):
    """Ranks 1..m drawn from MZipf(gamma, q, m) by inverting its cdf.

    Written here rather than taken from the package, so that the inputs do
    not depend on the code under test.
    """
    cdf = np.cumsum((np.arange(1, m + 1, dtype=np.float64) + q) ** -gamma)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(size), side="right") + 1


def write_access_log(path: Path, rng: np.random.Generator, rows: int, users: int,
                     gamma: float, q: float, m: int) -> np.ndarray:
    """Write a ``user_id,content_id,timestamp`` log; return (user, rank) pairs.

    Users are drawn uniformly, so most of them make repeat requests, and
    timestamps rise through thirty days.
    """
    ranks = mzipf_ranks(rng, gamma, q, m, rows)
    user = rng.integers(0, users, rows)
    ts = 1_700_000_000 + np.sort(rng.integers(0, 30 * 86400, rows))
    with open(path, "w") as fh:
        fh.write("user_id,content_id,timestamp\n")
        fh.write("".join(
            f"u{u},f{r},{t}\n" for u, r, t in zip(user.tolist(), ranks.tolist(), ts.tolist())
        ))
    return np.stack([user, ranks], axis=1)


def read_csv_rows(path: Path) -> list[dict]:
    """Rows of a CSV output whose first line is the ``#`` provenance comment."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path.name}: missing provenance comment line")
        return list(csv.DictReader(fh))


class Workload:
    """``subcommands`` are those whose ``--help`` is timed for ``setup_s``;
    ``work_name`` names the unit of work that ``work_per_s`` counts."""

    name = ""
    subcommands: tuple = ()
    work_name = ""

    def prepare(self, work: Path, seed: int) -> dict:
        """Write the inputs into ``work``; return their sizes."""
        raise NotImplementedError

    def commands(self, out: Path) -> list[list[str]]:
        """CLI arguments of each command of one repetition, writing into ``out``."""
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        """Failure messages for the outputs in ``out``; empty when all are correct."""
        raise NotImplementedError

    def work_done(self, out: Path) -> float:
        """How many units of ``work_name`` one repetition completes."""
        raise NotImplementedError


class SweepGrid(Workload):
    """``sweep`` on the first acceptance-1 scenario."""

    name = "sweep-grid"
    subcommands = ("sweep",)
    work_name = "realizations"
    scenario = {
        "n": 10_000, "s": 1, "k": 4, "m": 1000, "gamma": 0.6, "q": 20.0,
        "cluster_counts": [4, 16, 25, 100, 400, 625, 2500], "trials": 200,
    }
    sigmas = 5.0  # simulated outage must sit this close to the exact sum, in stderrs

    def prepare(self, work, seed):
        self.scenario_path = work / "scenario.json"
        self.scenario_path.write_text(json.dumps(self.scenario))
        self.seed = seed
        return {k: self.scenario[k] for k in ("n", "m", "trials", "cluster_counts")}

    def commands(self, out):
        return [["sweep", "--scenario", str(self.scenario_path), "--seed", str(self.seed),
                 "--workers", "1", "--out", str(out)]]

    def check(self, out):
        rows = read_csv_rows(out / "tradeoff.csv")
        sim = {r["g_c"]: r for r in rows if r["source"] == "simulated"}
        exact = {r["g_c"]: r for r in rows if r["source"] == "exact_sum"}
        n = self.scenario["n"]
        want = {str(n // nc) for nc in self.scenario["cluster_counts"]}
        errors = []
        if set(sim) != want or set(exact) != want:
            errors.append(f"tradeoff.csv: simulated {sorted(sim)} / exact {sorted(exact)}, "
                          f"want g_c {sorted(want)}")
        for g_c in sorted(set(sim) & set(exact), key=int):
            o_sim = float(sim[g_c]["outage"])
            o_ex = float(exact[g_c]["outage"])
            se = float(sim[g_c]["outage_stderr"])
            if not (se > 0 and abs(o_sim - o_ex) <= self.sigmas * se):
                errors.append(f"g_c={g_c}: simulated outage {o_sim} vs exact {o_ex}, "
                              f"stderr {se}")
        return errors

    def work_done(self, out):
        rows = read_csv_rows(out / "tradeoff.csv")
        sims = sum(1 for r in rows if r["source"] == "simulated")
        return float(sims * self.scenario["trials"])


class FitLog(Workload):
    """``fit`` on a 5·10^5-row log drawn from the acceptance-7 law."""

    name = "fit-log"
    subcommands = ("fit",)
    work_name = "log_rows"
    rows, users = 500_000, 50_000
    gamma, q, m = 1.28, 34.0, 19_379
    gamma_tol, q_rel_tol = 0.05, 0.20

    def prepare(self, work, seed):
        self.log = work / "access_log.csv"
        write_access_log(self.log, np.random.default_rng(seed), self.rows, self.users,
                         self.gamma, self.q, self.m)
        return {"log_rows": self.rows, "users": self.users, "m": self.m,
                "log_bytes": self.log.stat().st_size}

    def commands(self, out):
        return [["fit", "--log", str(self.log), "--m", str(self.m), "--out", str(out)]]

    def check(self, out):
        fit = json.loads((out / "fit_result.json").read_text())
        errors = []
        if fit["m"] != self.m:
            errors.append(f"fit m {fit['m']} != {self.m}")
        if abs(fit["gamma"] - self.gamma) > self.gamma_tol:
            errors.append(f"fit gamma {fit['gamma']} not within {self.gamma_tol} of {self.gamma}")
        if abs(fit["q"] - self.q) > self.q_rel_tol * self.q:
            errors.append(f"fit q {fit['q']} not within {self.q_rel_tol:.0%} of {self.q}")
        return errors

    def work_done(self, out):
        return float(self.rows)


class FitWide(Workload):
    """``fit`` on a small sample of a large library: many O(m) normalizers."""

    name = "fit-wide"
    subcommands = ("fit",)
    work_name = "kl_evals"
    rows, users = 50_000, 5_000
    gamma, q, m = 1.28, 34.0, 100_000
    kl_rel_tol = 1e-9

    def prepare(self, work, seed):
        self.log = work / "access_log.csv"
        pairs = write_access_log(self.log, np.random.default_rng(seed), self.rows,
                                 self.users, self.gamma, self.q, self.m)
        # distinct users per content, ranked: the data side of the KL check
        uniq = np.unique(pairs[:, 0] * (self.m + 1) + pairs[:, 1])
        counts = np.bincount(uniq % (self.m + 1))
        counts = np.sort(counts[counts > 0])[::-1]
        self.data_probs = (counts / counts.sum()).tolist()
        return {"log_rows": self.rows, "users": self.users, "m": self.m,
                "observed_contents": len(self.data_probs)}

    def commands(self, out):
        return [["fit", "--log", str(self.log), "--m", str(self.m), "--out", str(out)]]

    def check(self, out):
        fit = json.loads((out / "fit_result.json").read_text())
        g, q, m = fit["gamma"], fit["q"], fit["m"]
        log_h = math.log(math.fsum(((np.arange(1, m + 1) + q) ** -g).tolist()))
        kl = math.fsum(
            p * (math.log(p) + g * math.log(r + q) + log_h)
            for r, p in enumerate(self.data_probs, start=1)
        )
        if not math.isclose(fit["kl"], kl, rel_tol=self.kl_rel_tol, abs_tol=0.0):
            return [f"fit kl {fit['kl']!r} != recomputed {kl!r}"]
        return []

    def work_done(self, out):
        fit = json.loads((out / "fit_result.json").read_text())
        return float(fit["evaluations"])


class WideLibrary(Workload):
    """``analyze`` then ``policy`` at n = 10^6 users and m = 10^6 files."""

    name = "wide-library"
    subcommands = ("analyze", "policy")
    work_name = "ranks"
    scenario = {
        "n": 1_000_000, "s": 1, "k": 4, "m": 1_000_000, "gamma": 0.6, "q": 20.0,
        "n_clusters": 400,
        "cluster_counts": [4, 16, 25, 100, 400, 625, 2500, 10_000, 40_000, 250_000],
    }
    sum_tol = 1e-9
    outage_rel_tol = 1e-12

    def prepare(self, work, seed):
        # deterministic: analyze and policy draw nothing, so the seed is unused
        self.scenario_path = work / "scenario.json"
        self.scenario_path.write_text(json.dumps(self.scenario))
        return {k: self.scenario[k] for k in ("n", "m", "n_clusters", "cluster_counts")}

    def commands(self, out):
        scn = str(self.scenario_path)
        return [["analyze", "--scenario", scn, "--out", str(out)],
                ["policy", "--scenario", scn, "--out", str(out)]]

    def check(self, out):
        errors = []
        con = json.loads((out / "policy_constants.json").read_text())
        g_c = self.scenario["n"] // self.scenario["n_clusters"]
        exact = [float(r["outage"]) for r in read_csv_rows(out / "theory_curves.csv")
                 if r["source"] == "exact_sum" and int(r["g_c"]) == g_c]
        if len(exact) != 1 or not math.isclose(con["outage"], exact[0],
                                               rel_tol=self.outage_rel_tol):
            errors.append(f"policy outage {con['outage']!r} != analyze exact_sum {exact} "
                          f"at g_c={g_c}")
        errors += self._check_policy_csv(out / "policy.csv", con["m_star"])
        return errors

    def _check_policy_csv(self, path: Path, m_star: int) -> list[str]:
        """Ranks 1..m_star carry positive mass summing to 1; every later row is 0.

        The file has m rows, so only the nonzero prefix is parsed; the zero
        tail is verified by counting its exact ``,0.0`` rows.
        """
        m = self.scenario["m"]
        data = path.read_bytes()
        head = data.split(b"\n", m_star + 2)
        if len(head) < m_star + 3:
            return [f"policy.csv: fewer than m_star={m_star} rows"]
        eol = b"\r\n" if head[1].endswith(b"\r") else b"\n"
        probs = []
        for i, line in enumerate(head[2:m_star + 2], start=1):
            rank, p = line.rstrip(b"\r").split(b",")
            if int(rank) != i or not float(p) > 0:
                return [f"policy.csv: row {i} is {line!r}, want rank {i} with p_c > 0"]
            probs.append(float(p))
        tail = head[m_star + 2]
        rows = tail.count(b"\n")
        zeros = tail.count(b",0.0" + eol)
        if rows != m - m_star or zeros != m - m_star:
            return [f"policy.csv: {rows} rows after m_star, {zeros} of them 0, "
                    f"want {m - m_star}"]
        total = math.fsum(probs)
        if abs(total - 1.0) > self.sum_tol:
            return [f"policy.csv sums to {total!r}"]
        return []

    def work_done(self, out):
        placements = 1 + sum(1 for r in read_csv_rows(out / "theory_curves.csv")
                             if r["source"] == "exact_sum")
        return float(self.scenario["m"] * placements)


WORKLOADS = {w.name: w for w in (SweepGrid, FitLog, FitWide, WideLibrary)}
