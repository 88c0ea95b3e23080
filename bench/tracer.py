"""Run one ``d2dcache`` command with a timing span around every public function.

    python3 bench/tracer.py SPANS_JSON <d2dcache arguments...>

Before calling ``d2dcache.cli.main`` this wraps ``cli.main``, every
function in the ``__all__`` of the package's other modules, the public
methods of their public classes and ``MZipfDist`` construction.  Each call
records a span ``[name, start, end, parent]``, where ``parent`` is the
index of the enclosing span (-1 at the root).  Every module namespace that
binds a wrapped function is patched, so calls through ``from .x import f``
names and through imports made inside functions are seen as well.

A few counts are read from the arguments and results of wrapped calls;
byte counts among them are computed from array sizes, not measured.  Spans
and counts stay in memory and are written to SPANS_JSON when the command
returns.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("popularity", "policy", "asymptotics", "fitting", "simulator")


def _partial_sum(counts, args, result):
    counts["popularity.partial_sum.terms"] += int(args["b"]) - int(args["a"]) + 1


def _realize(counts, args, result):
    cfg = args["config"]
    width = int(max(result.caches.max(), result.requests.max())) + 1
    counts["simulator.draws"] += cfg.n * (cfg.s + 1)
    counts["simulator.held_table_entries"] += cfg.n_clusters * width
    counts["simulator.held_slots"] += cfg.n * cfg.s


def _load_access_log(counts, args, result):
    records, bad = result
    counts["fitting.rows"] += len(records) + len(bad)
    counts["fitting.bad_rows"] += len(bad)


def _dedupe_accesses(counts, args, result):
    counts["fitting.records"] += len(args["records"])
    counts["fitting.unique_pairs"] += result.total


def _fit_mzipf(counts, args, result):
    counts["fitting.kl_evals"] += result.evaluations


def _waterfill(counts, args, result):
    counts["policy.m_star"] += result.m_star
    counts["policy.m"] += args["dist"].m


# span name -> function reading counts from (bound arguments, result)
COUNTERS = {
    "popularity.partial_sum": _partial_sum,
    "simulator.realize": _realize,
    "fitting.load_access_log": _load_access_log,
    "fitting.dedupe_accesses": _dedupe_accesses,
    "fitting.fit_mzipf": _fit_mzipf,
    "policy.waterfill": _waterfill,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter:
                counter(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self):
        """Wrap the package's public functions; return the wrapped ``cli.main``."""
        pkg = importlib.import_module("d2dcache")
        cli = importlib.import_module("d2dcache.cli")
        modules = [importlib.import_module(f"d2dcache.{m}") for m in MODULES]
        wrapped = {id(cli.main): self.wrap("cli.main", cli.main)}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, attr, self.wrap(f"{short}.{name}.{attr}", fn))
        dist = pkg.MZipfDist
        dist.__init__ = self.wrap("popularity.MZipfDist", dist.__init__)
        # the wrappers keep every original alive, so no id below is reused
        for ns in [pkg, cli, *modules]:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped:
                    setattr(ns, attr, wrapped[id(value)])
        return cli.main

    def dump(self, path: str, exit_code: int):
        with open(path, "w") as fh:
            json.dump({"exit": exit_code, "spans": self.spans, "counts": self.counts}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli_main = tracer.install()
    code = 1
    try:
        code = cli_main(cli_args)
    finally:
        tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
