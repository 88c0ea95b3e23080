"""The benchmark tracer still reads what the package hands it.

``bench/tracer.py`` wraps public functions by name and reads counts from
their arguments and results.  A renamed argument, result field or function
would zero a per-layer metric without failing the benchmark, so this runs
the tracer on a tiny ``fit`` and a tiny ``sweep`` and checks every count it
writes.  Nothing under ``bench/`` is changed.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def traced(tmp_path, name, *args):
    """Counts and span names of one traced command, after checking it exits 0."""
    spans = tmp_path / f"{name}.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(TRACER), str(spans), *args, "--out",
                           str(tmp_path / name)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    assert trace["exit"] == 0
    return trace["counts"], {span[0] for span in trace["spans"]}


def test_every_traced_count_is_read(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("user_id,content_id\n" + "".join(
        f"u{i % 13},c{i * i % 17}\n" for i in range(200)))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"n": 16, "s": 1, "k": 1, "m": 20, "gamma": 0.6, "q": 2.0,
                                    "cluster_counts": [4], "trials": 2}))
    fit_counts, fit_spans = traced(tmp_path, "fit", "fit", "--log", str(log), "--m", "40")
    sweep_counts, sweep_spans = traced(tmp_path, "sweep", "sweep", "--scenario", str(scenario),
                                       "--seed", "1")
    source = TRACER.read_text()
    keys = set(re.findall(r'counts\["([\w.]+)"\]', source)) - {"fitting.bad_rows"}
    assert len(keys) >= 10
    counts = {**fit_counts, **sweep_counts}
    assert {k: counts.get(k, 0) for k in sorted(keys) if not counts.get(k, 0) > 0} == {}
    counted = set(re.findall(r'^    "([\w.]+)": _\w+,$', source, flags=re.M))
    assert counted and counted <= fit_spans | sweep_spans
