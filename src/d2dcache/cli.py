"""Command-line interface.

Subcommands: ``fit`` (access log -> popularity parameters), ``policy``
(waterfill placement for one scenario), ``analyze`` (theory curves only),
``simulate`` (one Monte Carlo point), ``sweep`` (full tradeoff: simulated,
exact and closed-form curves).

Scenario files are JSON with fail-fast schema checking.  Every output file
carries the tool version, a hash of the effective scenario and the seed:
CSVs as a leading ``#`` comment line, JSON under a ``_meta`` key.  Exit
codes: 0 success, 2 domain/config error, 3 I/O error, 4 invariant
self-check failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, InvariantError
from .fitting import (
    FitSearch,
    _parse_ts,
    dedupe_accesses,
    fit_mzipf,
    load_access_log,
    write_empirical_csv,
)
from .policy import waterfill
from .popularity import MZipfDist
from .simulator import (
    NetworkConfig,
    _regime_params,
    _served_probability,
    curve_points,
    monte_carlo,
    sweep,
)

SCENARIO_KEYS = {
    "n", "s", "k", "c_rate", "gamma", "q", "m", "fit_result",
    "cluster_counts", "n_clusters", "trials", "seed", "self_cache",
}
_INT_KEYS = ("n", "m", "n_clusters", "s", "k", "trials", "seed")
_NUM_KEYS = ("gamma", "q", "c_rate")
_TAIL_CHUNK = 1 << 16  # ranks per write of policy.csv's zero tail: no m-sized string
_ZERO_ROW_END = np.frombuffer(b",0.0\r\n", dtype=np.uint8)  # csv.writer's ``rank,0.0`` row


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def load_scenario(path) -> dict:
    """Parse and schema-check a scenario JSON file.

    A ``fit_result`` key points at a FitResult JSON (relative paths are
    resolved against the scenario file) and replaces gamma/q/m.
    """
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"scenario is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    unknown = sorted(set(raw) - SCENARIO_KEYS)
    if unknown:
        raise ConfigError(f"unknown scenario keys: {', '.join(unknown)}")
    if "fit_result" in raw:
        if any(k in raw for k in ("gamma", "q", "m")):
            raise ConfigError("popularity given twice: fit_result plus gamma/q/m")
        fr_path = Path(raw["fit_result"])
        if not fr_path.is_absolute():
            fr_path = Path(path).parent / fr_path
        try:
            fr = json.loads(fr_path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"fit_result file is not valid JSON: {e}")
        for k in ("gamma", "q", "m"):
            if k not in fr:
                raise ConfigError(f"fit_result file missing {k!r}")
            raw[k] = fr[k]
        del raw["fit_result"]
    for k in _INT_KEYS:
        if k in raw and not _is_int(raw[k]):
            raise ConfigError(f"scenario key {k!r} must be an integer")
    for k in _NUM_KEYS:
        v = raw.get(k, 0.0)
        # NaN, infinities and integers too large for a float all fail the range test
        finite = isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
        if isinstance(v, bool) or not finite:
            raise ConfigError(f"scenario key {k!r} must be a finite number")
    if "self_cache" in raw and not isinstance(raw["self_cache"], bool):
        raise ConfigError("scenario key 'self_cache' must be a boolean")
    if "cluster_counts" in raw:
        cc = raw["cluster_counts"]
        if not isinstance(cc, list) or not cc or not all(_is_int(v) for v in cc):
            raise ConfigError("scenario key 'cluster_counts' must be a non-empty integer list")
    return raw


def _require(scn: dict, keys, where: str):
    missing = [k for k in keys if k not in scn]
    if missing:
        raise ConfigError(f"{where} requires scenario keys: {', '.join(missing)}")


def _dist(scn: dict) -> MZipfDist:
    _require(scn, ("gamma", "q", "m"), "popularity model")
    return MZipfDist(float(scn["gamma"]), float(scn["q"]), int(scn["m"]))


def _network(scn: dict, n_clusters: int) -> NetworkConfig:
    return NetworkConfig(
        n=int(scn["n"]),
        n_clusters=n_clusters,
        s=int(scn.get("s", 1)),
        k=int(scn.get("k", 1)),
        c_rate=float(scn.get("c_rate", 1.0)),
        include_self_cache=bool(scn.get("self_cache", False)),
    )


def _configs(scn: dict) -> list[NetworkConfig]:
    """Configs of the feasible ``cluster_counts``; the others are skipped with a warning."""
    configs = []
    for nc in scn["cluster_counts"]:
        try:
            configs.append(_network(scn, nc))
        except ConfigError as e:
            print(f"warning: cluster count {nc} skipped: {e}", file=sys.stderr)
    if not configs:
        raise ConfigError("no feasible cluster counts in scenario")
    return configs


def _effective_seed(args, scn: dict) -> int:
    seed = args.seed if args.seed is not None else scn.get("seed")
    if seed is None:
        raise ConfigError("a seed is required: pass --seed or set 'seed' in the scenario")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _scenario_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _header_line(scn_hash: str, seed) -> str:
    return f"# d2dcache {__version__}, scenario={scn_hash}, seed={'none' if seed is None else seed}"


def _meta(scn_hash: str, seed) -> dict:
    return {"tool": f"d2dcache {__version__}", "scenario": scn_hash, "seed": seed}


def _outage_z(mean: float, exact: float, stderr: float):
    """Standard errors from the exact outage to a simulated one; None when stderr is 0."""
    return (mean - exact) / stderr if stderr else None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_fit(args) -> int:
    records, bad = load_access_log(args.log)
    for ln, reason in bad[:20]:
        print(f"warning: {args.log}:{ln}: {reason}", file=sys.stderr)
    if len(bad) > 20:
        print(f"warning: {len(bad)} malformed lines in total", file=sys.stderr)
    since = _parse_bound(args.since)
    until = _parse_bound(args.until)
    if since is not None or until is not None:
        lo = -math.inf if since is None else since
        hi = math.inf if until is None else until
        ts = records["timestamp"]
        records = records[(ts >= lo) & (ts <= hi)]  # NaN (no timestamp) compares false
    emp = dedupe_accesses(records)
    search_kwargs = {}
    if args.gamma_lo is not None or args.gamma_hi is not None:
        search_kwargs["gamma_range"] = (
            args.gamma_lo if args.gamma_lo is not None else 0.05,
            args.gamma_hi if args.gamma_hi is not None else 5.0,
        )
    if args.q_lo is not None or args.q_hi is not None:
        m_cap = args.m if args.m is not None else len(emp.counts)
        search_kwargs["q_range"] = (
            args.q_lo if args.q_lo is not None else 0.0,
            args.q_hi if args.q_hi is not None else float(m_cap),
        )
    if args.coarse_steps is not None:
        search_kwargs["coarse_steps"] = args.coarse_steps
    if args.refine_rounds is not None:
        search_kwargs["refine_rounds"] = args.refine_rounds
    search = FitSearch(**search_kwargs) if search_kwargs else None
    result = fit_mzipf(emp, m=args.m, search=search)
    warnings = []
    if len(emp.counts) == 1:
        warnings.append("single content observed; any (gamma, q) fits such data, "
                        "reporting the smallest grid point")
    box = search or FitSearch()
    q_hi = box.q_range[1] if box.q_range is not None else float(result.m)
    for name, value, hi in (("gamma", result.gamma, box.gamma_range[1]), ("q", result.q, q_hi)):
        if value >= hi:
            warnings.append(f"optimum {name} = {value!r} sits on the upper edge of the "
                            f"search box; the best fit may lie beyond it")
    for text in warnings:
        print(f"warning: {text}", file=sys.stderr)
    payload = {
        "command": "fit",
        "log": Path(args.log).name,
        "log_sha256": _file_sha256(args.log),
        "m": result.m,
        "search": search_kwargs or "defaults",
        "since": since,
        "until": until,
    }
    scn_hash = _scenario_hash(payload)
    out = _out_dir(args)
    _write_json(
        out / "fit_result.json",
        {
            "gamma": result.gamma,
            "q": result.q,
            "m": result.m,
            "kl": result.kl,
            "evaluations": result.evaluations,
            "warnings": warnings,
            "_meta": _meta(scn_hash, None),
        },
    )
    if args.export_empirical:
        with open(out / "empirical.csv", "w", newline="") as fh:
            fh.write(_header_line(scn_hash, None) + "\n")
            write_empirical_csv(emp, fh)
    print(
        f"fit: gamma={result.gamma:.6g} q={result.q:.6g} m={result.m} "
        f"kl={result.kl:.6g} ({emp.total} unique accesses, "
        f"{emp.distinct_users} users, {result.evaluations} evaluations)"
    )
    return 0


def _parse_bound(text):
    if text is None:
        return None
    try:
        return _parse_ts(text)
    except ValueError:
        raise DomainError(f"cannot parse time bound {text!r} (use seconds or ISO-8601)")


def _write_zero_rows(fh, lo: int, hi: int):
    """Rows ``rank,0.0`` for ranks ``lo..hi-1``, byte-identical to one
    ``csv.writer`` row per rank.

    The rows are rendered as ASCII by numpy, one write per block of at most
    ``_TAIL_CHUNK`` ranks that share a digit count.  The digits are filled
    right to left by repeated division by 10, each into a contiguous row of
    ``cols`` (``//`` and a multiply-subtract: numpy's ``divmod`` and strided
    column stores were each about twice as slow).
    """
    while lo < hi:
        digits = len(str(lo))
        top = min(hi, 10 ** digits, lo + _TAIL_CHUNK)
        ranks = np.arange(lo, top)
        cols = np.empty((digits, top - lo), dtype=np.uint8)
        for col in range(digits - 1, -1, -1):
            quot = ranks // 10
            cols[col] = ranks - 10 * quot
            ranks = quot
        cols += ord("0")
        rows = np.empty((top - lo, digits + len(_ZERO_ROW_END)), dtype=np.uint8)
        rows[:, :digits] = cols.T
        rows[:, digits:] = _ZERO_ROW_END
        fh.write(rows.tobytes().decode("ascii"))
        lo = top


def cmd_policy(args) -> int:
    scn = load_scenario(args.scenario)
    _require(scn, ("n", "n_clusters"), "policy")
    dist = _dist(scn)
    cfg = _network(scn, int(scn["n_clusters"]))
    policy = waterfill(dist, cfg.s, cfg.g_c)
    hit = _served_probability(cfg, dist, policy)
    con = _regime_params(cfg, dist)
    scn_hash = _scenario_hash({"command": "policy", **scn})
    out = _out_dir(args)
    with open(out / "policy.csv", "w", newline="") as fh:
        fh.write(_header_line(scn_hash, None) + "\n")
        w = csv.writer(fh)
        w.writerow(["rank", "p_c"])
        w.writerows(zip(range(1, policy.m_star + 1), map(repr, policy.probs.tolist())))
        _write_zero_rows(fh, policy.m_star + 1, policy.m + 1)
    _write_json(
        out / "policy_constants.json",
        {
            "nu": policy.nu,
            "m_star": policy.m_star,
            "exponent_denom": policy.exponent_denom,
            "hit_probability": hit,
            "outage": 1.0 - hit,
            "a_prime": con.a_prime,
            "c1": con.c1,
            "c2": con.c2,
            "m_star_asym": con.m_star_asym,
            "g_c": cfg.g_c,
            "_meta": _meta(scn_hash, None),
        },
    )
    print(
        f"policy: m_star={policy.m_star} nu={policy.nu:.6g} hit={hit:.6g} "
        f"(g_c={cfg.g_c}, m={dist.m})"
    )
    return 0


def cmd_analyze(args) -> int:
    scn = load_scenario(args.scenario)
    _require(scn, ("n", "cluster_counts"), "analyze")
    dist = _dist(scn)
    configs = _configs(scn)
    points = [p for cfg in configs
              for p in curve_points(cfg, dist, waterfill(dist, cfg.s, cfg.g_c))]
    scn_hash = _scenario_hash({"command": "analyze", **scn})
    out = _out_dir(args)
    with open(out / "theory_curves.csv", "w", newline="") as fh:
        fh.write(_header_line(scn_hash, None) + "\n")
        w = csv.writer(fh)
        w.writerow(["g_c", "outage", "throughput", "source", "clamped"])
        for p in sorted(points, key=lambda p: (p.g_c, p.source)):
            w.writerow([p.g_c, repr(p.outage), repr(p.throughput), p.source, p.clamped])
    skipped = len(scn["cluster_counts"]) - len(configs)
    print(f"analyze: {len(points)} curve points, {skipped} cluster counts skipped")
    return 0


def cmd_simulate(args) -> int:
    scn = load_scenario(args.scenario)
    _require(scn, ("n", "n_clusters"), "simulate")
    dist = _dist(scn)
    cfg = _network(scn, int(scn["n_clusters"]))
    seed = _effective_seed(args, scn)
    trials = args.trials if args.trials is not None else scn.get("trials", 100)
    policy = waterfill(dist, cfg.s, cfg.g_c)
    res = monte_carlo(cfg, dist, policy, trials, seed)
    exact_outage = 1.0 - _served_probability(cfg, dist, policy)
    scn_hash = _scenario_hash(
        {"command": "simulate", **scn, "trials": trials, "seed": seed}
    )
    out = _out_dir(args)
    _write_json(
        out / "sim_result.json",
        {
            "n": cfg.n,
            "n_clusters": cfg.n_clusters,
            "g_c": cfg.g_c,
            "trials": res.trials,
            "seed": seed,
            "outage_mean": res.outage_mean,
            "outage_stderr": res.outage_stderr,
            "throughput_min_mean": res.throughput_min_mean,
            "throughput_min_stderr": res.throughput_min_stderr,
            "exact_outage": exact_outage,
            "outage_z": _outage_z(res.outage_mean, exact_outage, res.outage_stderr),
            "_meta": _meta(scn_hash, seed),
        },
    )
    print(
        f"simulate: outage={res.outage_mean:.6g} (stderr {res.outage_stderr:.2g}, "
        f"exact {exact_outage:.6g}) t_min={res.throughput_min_mean:.6g} "
        f"[{trials} trials, seed {seed}]"
    )
    return 0


def cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario)
    _require(scn, ("n", "cluster_counts"), "sweep")
    dist = _dist(scn)
    seed = _effective_seed(args, scn)
    trials = args.trials if args.trials is not None else scn.get("trials", 100)
    configs = _configs(scn)
    points = sweep(configs, dist, trials, seed)
    scn_hash = _scenario_hash(
        {"command": "sweep", **scn, "trials": trials, "seed": seed}
    )
    out = _out_dir(args)
    n = int(scn["n"])
    exact = {p.g_c: p.outage for p in points if p.source == "exact_sum"}
    with open(out / "tradeoff.csv", "w", newline="") as fh:
        fh.write(_header_line(scn_hash, seed) + "\n")
        w = csv.writer(fh)
        w.writerow(
            ["n_clusters", "g_c", "outage", "outage_stderr",
             "throughput", "throughput_stderr", "source", "outage_z"]
        )
        for p in points:
            simulated = p.source == "simulated"
            z = _outage_z(p.outage, exact[p.g_c], p.outage_stderr) if simulated else None
            w.writerow(
                [
                    n // p.g_c,
                    p.g_c,
                    repr(p.outage),
                    "" if p.outage_stderr is None else repr(p.outage_stderr),
                    repr(p.throughput),
                    "" if p.throughput_stderr is None else repr(p.throughput_stderr),
                    p.source,
                    "" if z is None else repr(z),
                ]
            )
    skipped = len(scn["cluster_counts"]) - len(configs)
    print(
        f"sweep: {len(configs)} cluster counts simulated, {skipped} skipped, "
        f"{len(points)} points [{trials} trials/point, seed {seed}]"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dcache",
        description="Popularity fitting, optimal caching and throughput-outage "
        "analysis for clustered D2D networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help):
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help=seed_help)

    p_fit = sub.add_parser("fit", help="fit popularity parameters to an access log")
    p_fit.add_argument("--log", required=True, help="CSV access log: user_id,content_id[,timestamp]")
    p_fit.add_argument("--m", type=int, default=None, help="library size (default: observed contents)")
    p_fit.add_argument("--gamma-lo", type=float, default=None)
    p_fit.add_argument("--gamma-hi", type=float, default=None)
    p_fit.add_argument("--q-lo", type=float, default=None)
    p_fit.add_argument("--q-hi", type=float, default=None)
    p_fit.add_argument("--coarse-steps", type=int, default=None)
    p_fit.add_argument("--refine-rounds", type=int, default=None)
    p_fit.add_argument("--since", default=None, help="keep records at or after this time")
    p_fit.add_argument("--until", default=None, help="keep records at or before this time")
    p_fit.add_argument("--export-empirical", action="store_true",
                       help="also write the ranked empirical distribution")
    p_fit.add_argument("--out", default=".", help="output directory (default: .)")
    p_fit.set_defaults(func=cmd_fit)

    p_pol = sub.add_parser("policy", help="optimal caching policy for one scenario")
    p_pol.add_argument("--scenario", required=True)
    p_pol.add_argument("--out", default=".")
    p_pol.set_defaults(func=cmd_policy)

    p_ana = sub.add_parser("analyze", help="exact and closed-form curves, no simulation")
    p_ana.add_argument("--scenario", required=True)
    p_ana.add_argument("--out", default=".")
    p_ana.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate at one cluster count")
    p_sim.add_argument("--scenario", required=True)
    common(p_sim, "master seed (required here or in the scenario)")
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_swp = sub.add_parser("sweep", help="full tradeoff sweep with overlays")
    p_swp.add_argument("--scenario", required=True)
    common(p_swp, "master seed (required here or in the scenario)")
    p_swp.add_argument("--trials", type=int, default=None)
    # accepted only as 1 and never read: bench/workloads.py still passes --workers 1
    p_swp.add_argument("--workers", type=int, choices=[1], help=argparse.SUPPRESS)
    p_swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except DomainError as e:  # ConfigError and RegimeError are subclasses
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3
    except InvariantError as e:
        print(f"invariant self-check failed: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
