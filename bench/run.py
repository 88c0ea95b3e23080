"""End-to-end and per-layer benchmark of the ``d2dcache`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a source checkout: the package is imported from ``src/``, so
nothing needs installing.  The workload's inputs are made from ``--seed``
in a temporary directory inside the checkout, which is removed at the end.
Then the workload's commands run as subprocesses, one at a time with one
worker thread, repeated while the next repetition is expected to end
within ``--seconds`` (always at least once).  Every output
is checked, and its sha256 digest recorded.

``--trace 0`` times the plain CLI processes and reports the end-to-end
metrics.  ``--trace 1`` alternates a plain repetition with one run through
``bench/tracer.py``, which times each public function of the package, and
reports the per-layer metrics.  Human-readable lines come first, then a
``record:`` line with the environment and output digests, and last one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``bench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

# native thread pools of the d2dcache processes; the benchmark runs one at a time
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# what the ``d2dcache`` console script runs
ENTRY = "import sys; from d2dcache.cli import main; sys.exit(main())"
# timed ``--help`` runs per subcommand at set-up, after one warm-up; one
# more runs before each repetition, so the samples spread over the run
HELP_RUNS = 3

# (name, unit, better) of the end-to-end metrics, reported with --trace 0
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
]

# spans whose summed time (.s), self time (.self_s) or call count (.calls)
# is reported with --trace 1
SPAN_METRICS = [
    ("cli.main", ("s", "self_s")),
    ("simulator.monte_carlo", ("s",)),
    ("simulator.realize", ("s", "self_s", "calls")),
    ("simulator.throughput_accounting", ("s",)),
    ("popularity.MZipfDist", ("s",)),
    ("popularity.MZipfDist.sample", ("s",)),
    ("popularity.partial_sum", ("s", "calls")),
    ("fitting.load_access_log", ("s",)),
    ("fitting.dedupe_accesses", ("s",)),
    ("fitting.fit_mzipf", ("s", "self_s")),
    ("policy.waterfill", ("s", "calls")),
    ("policy.hit_probability", ("s",)),
    ("asymptotics.theory_points", ("s",)),
]
MODULES = ("simulator", "popularity", "policy", "asymptotics", "fitting")
SPAN_UNITS = {"s": ("s", "lower"), "self_s": ("s", "lower"), "calls": ("count", "lower")}
# (name, unit, better) of the per-layer metrics, reported with --trace 1
PER_LAYER = (
    [(f"{span}.{f}", *SPAN_UNITS[f]) for span, fields in SPAN_METRICS for f in fields]
    + [(f"{mod}.self_s", "s", "lower") for mod in MODULES]
    + [
        ("simulator.draws", "count", "lower"),
        ("simulator.held_table_bytes", "bytes", "lower"),
        ("simulator.held_table_fill", "1", "higher"),
        ("popularity.partial_sum.terms", "count", "lower"),
        ("fitting.kl_evals", "count", "lower"),
        ("fitting.kl_eval_us", "us", "lower"),
        ("fitting.rows", "count", "higher"),
        ("fitting.bad_rows", "count", "lower"),
        ("fitting.unique_ratio", "1", "higher"),
        ("policy.support_ratio", "1", "higher"),
        ("cli.bytes_written", "bytes", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)
# per-layer counts that must repeat exactly from one traced run to the next
EXACT = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")]


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


@dataclass
class Rep:
    """One repetition of a workload's commands."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    work: float = 0.0
    layers: dict | None = None

    @property
    def failed(self) -> int:
        return len(self.errors)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), **THREAD_CAPS}


def run_cli(args: list[str], cwd: Path, spans: Path | None = None) -> Proc:
    """Run one d2dcache command; time it and read its rusage from wait4."""
    if spans is None:
        cmd = [sys.executable, "-c", ENTRY, *args]
    else:
        cmd = [sys.executable, str(TRACER), str(spans), *args]
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Proc(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode, stderr=stderr)


def digest_files(out: Path) -> dict:
    digests = {}
    for path in sorted(out.iterdir()):
        with open(path, "rb") as fh:
            digests[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def aggregate_spans(spans: list) -> dict:
    """name -> [summed time, self time, calls] of a list of spans.

    Self time is a span's duration minus its direct children's; a span
    nested inside another of the same name adds to calls and self time
    but not again to the summed time.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        entry = out.setdefault(name, [0.0, 0.0, 0])
        entry[1] += t1 - t0 - child[i]
        entry[2] += 1
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry[0] += t1 - t0
    return out


def layer_metrics(agg: dict, counts: dict, wall: float, bytes_written: int) -> dict:
    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    fields = {"s": 0, "self_s": 1, "calls": 2}
    m = {}
    for span, names in SPAN_METRICS:
        for f in names:
            m[f"{span}.{f}"] = agg.get(span, [0.0, 0.0, 0])[fields[f]]
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum((v[1] for k, v in agg.items() if k.startswith(mod + ".")), 0.0)
    evals = counts.get("fitting.kl_evals", 0)
    m.update({
        "simulator.draws": counts.get("simulator.draws", 0),
        "simulator.held_table_bytes": 8 * counts.get("simulator.held_table_entries", 0),
        "simulator.held_table_fill": ratio("simulator.held_slots", "simulator.held_table_entries"),
        "popularity.partial_sum.terms": counts.get("popularity.partial_sum.terms", 0),
        "fitting.kl_evals": evals,
        "fitting.kl_eval_us": 1e6 * m["fitting.fit_mzipf.s"] / evals if evals else 0.0,
        "fitting.rows": counts.get("fitting.rows", 0),
        "fitting.bad_rows": counts.get("fitting.bad_rows", 0),
        "fitting.unique_ratio": ratio("fitting.unique_pairs", "fitting.records"),
        "policy.support_ratio": ratio("policy.m_star", "policy.m"),
        "cli.bytes_written": bytes_written,
        "trace.wall_s": wall,
    })
    return m


def run_rep(wl, rep_dir: Path, traced: bool) -> Rep:
    rep_dir.mkdir()
    out = rep_dir / "out"
    rep = Rep()
    spans, counts = [], {}
    for i, args in enumerate(wl.commands(out)):
        spans_path = rep_dir / f"spans{i}.json" if traced else None
        proc = run_cli(args, rep_dir, spans_path)
        rep.attempted += 1
        rep.wall += proc.wall
        rep.cpu += proc.cpu
        rep.rss_mb = max(rep.rss_mb, proc.rss_mb)
        if proc.code != 0:
            rep.errors.append(f"d2dcache {args[0]} exited {proc.code}: {proc.stderr.strip()}")
        elif traced:
            trace = json.loads(spans_path.read_text())
            spans += [[n, a, b, p + len(spans) if p >= 0 else -1] for n, a, b, p in trace["spans"]]
            for k, v in trace["counts"].items():
                counts[k] = counts.get(k, 0) + v
    if not rep.errors:
        try:
            rep.errors += wl.check(out)
            rep.digests = digest_files(out)
            rep.work = wl.work_done(out)
            if traced:
                written = sum(p.stat().st_size for p in out.iterdir())
                rep.layers = layer_metrics(aggregate_spans(spans), counts, rep.wall, written)
        except Exception as e:  # a malformed output fails the check, not the run
            rep.errors.append(f"output check raised {type(e).__name__}: {e}")
    shutil.rmtree(rep_dir)
    return rep


def time_help(wl, work: Path, samples: dict) -> int:
    """Time ``d2dcache <subcommand> --help`` once per subcommand into
    ``samples``; return how many of those runs failed."""
    failed = 0
    for sub in wl.subcommands:
        proc = run_cli([sub, "--help"], work)
        failed += proc.code != 0
        samples.setdefault(sub, []).append(proc.wall)
    return failed


def check_repeats(plain: list[Rep], traced: list[Rep]):
    """Fail each repetition whose output digests, or (traced) exact counts,
    differ from those of the first repetition that passed."""
    ok = [r for r in plain + traced if not r.errors]
    for rep in ok[1:]:
        if rep.digests != ok[0].digests:
            rep.errors.append("output digests differ between repetitions")
    ok = [r for r in traced if not r.errors]
    for rep in ok[1:]:
        diff = [k for k in EXACT if rep.layers[k] != ok[0].layers[k]]
        if diff:
            rep.errors.append(f"exact counts differ between traced repetitions: {diff}")


def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"median of {n}; no percentile has 10 samples beyond it"
    return f"median of {n}; p{100 * (n - 10) // n} = {sorted(values)[n - 11]:.6g}"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_digest() -> str:
    """sha256 over the package's source files, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "d2dcache").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, sizes: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "thread_caps": THREAD_CAPS,
        "workload_seed": seed,
        "inputs": sizes,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: stop the running command and remove the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "d2dcache" / "cli.py").is_file():
        print(f"error: no d2dcache sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    plain: list[Rep] = []
    traced: list[Rep] = []
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        work = Path(tmp)
        sizes = wl.prepare(work, args.seed)
        time_help(wl, work, {})  # warm-up: byte-compiles the package
        help_walls: dict = {}
        failed = sum(time_help(wl, work, help_walls) for _ in range(HELP_RUNS))
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            failed += time_help(wl, work, help_walls)
            plain.append(run_rep(wl, work / f"rep{len(plain)}", traced=False))
            if args.trace:
                traced.append(run_rep(wl, work / f"traced{len(traced)}", traced=True))
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    check_repeats(plain, traced)

    reps = plain + traced
    attempted = sum(r.attempted for r in reps) + sum(len(w) for w in help_walls.values())
    failed += sum(r.failed for r in reps)
    for i, r in enumerate(reps):
        for e in r.errors:
            print(f"FAILED repetition {i}: {e}", file=sys.stderr)

    walls = [r.wall for r in plain]
    wall_s = statistics.median(walls)
    e2e = {
        "wall_s": wall_s,
        "cpu_s": statistics.median(r.cpu for r in plain),
        "setup_s": sum(statistics.median(w) for w in help_walls.values()),
        "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        "work_per_s": statistics.median(r.work for r in plain) / wall_s,
    }
    print(f"workload {wl.name}, seed {args.seed}: {len(plain)} plain and "
          f"{len(traced)} traced repetitions, {attempted} commands, {failed} failed")
    print(f"failed_ratio = {failed / attempted:.6g} 1")
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    print(f"wall_s = {wall_s:.6g} s ({tail(walls)})")
    print(f"cpu_s = {e2e['cpu_s']:.6g} s")
    print(f"setup_s = {e2e['setup_s']:.6g} s")
    for sub, w in help_walls.items():
        print(f"  {sub} --help: {statistics.median(w):.6g} s ({tail(w)})")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']:.6g} MB")
    print(f"work_per_s = {e2e['work_per_s']:.6g} 1/s")
    print(f"{wl.work_name}_per_s = {e2e['work_per_s']:.6g} 1/s")

    metrics = e2e
    if args.trace:
        ok = [r.layers for r in traced if r.layers is not None]

        def layer(name):
            if not ok:
                return 0.0
            if name in EXACT:  # checked to be the same in every traced repetition
                return ok[0][name]
            return statistics.median(l[name] for l in ok)

        metrics = {name: layer(name) for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s if ok else 0.0
        for name in sorted(metrics):
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
        if ok:
            shares = {mod: metrics[f"{mod}.self_s"] for mod in MODULES}
            shares["cli"] = metrics["cli.main.self_s"]
            print("self time as a share of traced wall_s: " + ", ".join(
                f"{mod} {t / metrics['trace.wall_s']:.1%}" for mod, t in shares.items()))

    record = {
        "environment": environment(args.seed, sizes),
        "digests": next((r.digests for r in reps if r.digests), {}),
        "plain_wall_s": walls,
        "plain_cpu_s": [r.cpu for r in plain],
        "traced_wall_s": [r.wall for r in traced],
        "help_wall_s": help_walls,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
