"""Span tracing of ulskit, installed from outside the package.

`install(tracer)` wraps every public function of every ulskit module, and
the public methods of `RngStream`, in a recorder. Most modules bind names
with `from .numerics import cholesky`, so the installer rebinds every
`ulskit.*` module attribute that refers to a wrapped function, not only the
one in the defining module.

Spans are kept in memory as `(id, name, start_ns, end_ns, parent, thread,
op, error, extra)` and written out when the process ends. The parent is the
enclosing span on the same thread; spans that start a worker thread's work
have no parent.

Run as a script, this file is the traced `uls` entry point:

    python3 perfbench/tracing.py SPANS_FILE OP_ID -- <uls arguments>

It installs the wrappers, calls `ulskit.cli.main(argv)` and writes the spans
to SPANS_FILE as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

MODULES = (
    "cli",
    "data_model",
    "numerics",
    "simulation",
    "tuning",
    "estimators",
    "loss",
    "inference",
    "errors",
)


def _run_experiment_extra(args, kwargs, result):
    """The pool size, worked out as run_experiment works it out."""
    cfg = args[0]
    threads = kwargs.get("threads", args[1] if len(args) > 1 else None)
    workers = threads if threads and threads > 0 else (os.cpu_count() or 1)
    return {"workers": min(workers, cfg.reps)}


def _cv_select_extra(args, kwargs, result):
    _, table = result
    worst = {}
    for lam, _, mse in table:
        worst[lam] = max(worst.get(lam, mse), mse)
    feasible = sum(1 for mse in worst.values() if mse != float("inf"))
    return {"method": args[0], "feasible": feasible, "tried": len(worst)}


# Facts a span records beyond its timing, keyed by span name; they feed the
# per-layer ratios (pool size, feasible lambda share, MB/s, GD iterations).
EXTRA = {
    "simulation.run_experiment": _run_experiment_extra,
    "tuning.cv_select": _cv_select_extra,
    "estimators.gd_unlearn": lambda a, k, r: {"iterations": r.iterations},
    "data_model.load_csv": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "data_model.save_csv": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident

    def wrap(self, name: str, fn):
        extra_fn = EXTRA.get(name)
        spans, ids, local, main, op = self.spans, self._ids, self._local, self._main, self.op
        clock, get_ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            ident = get_ident()
            thread = 0 if ident == main else ident
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, thread, op,
                              type(exc).__name__, None))
                raise
            end = clock()
            stack.pop()
            extra = extra_fn(args, kwargs, result) if extra_fn else None
            spans.append((sid, name, start, end, parent, thread, op, None, extra))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def install(tracer: Tracer) -> int:
    """Wrap ulskit's public functions; returns how many names were rebound."""
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"ulskit.{short}")
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    rng_cls = importlib.import_module("ulskit.numerics").RngStream
    for attr, obj in list(vars(rng_cls).items()):
        if not attr.startswith("_") and inspect.isfunction(obj):
            setattr(rng_cls, attr, tracer.wrap(f"numerics.{attr}", obj))

    rebound = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ulskit" or name.startswith("ulskit.")):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                rebound += 1
    return rebound


def read_spans(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def main(argv) -> int:
    spans_path, op = argv[0], int(argv[1])
    uls_argv = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    tracer = Tracer(op)
    cli = importlib.import_module("ulskit.cli")
    install(tracer)
    try:
        return cli.main(uls_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
