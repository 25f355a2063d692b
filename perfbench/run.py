"""End-to-end benchmark of the `uls` command line.

    python3 perfbench/run.py --workload sim_table1 --seed 1 --seconds 30 --trace 0

Each op is one `uls` process started from the source tree (`src/` on
PYTHONPATH), exactly as the `uls` console script starts it. A run sets up
the workload's inputs from `--seed` (three times; the median is `setup_s`),
then runs rounds of ops for about `--seconds` seconds, one op at a time; a
round starts only if it should end at most half a round after `--seconds`.
Every op's output is checked; an op that exits non-zero or fails its check
counts as failed.

With `--trace 1` the run instead makes one untraced round and the same round
again through `tracing.py`, which wraps every public ulskit function, and
reports the per-layer metrics of `layers.py` plus the tracing overhead
(traced minus untraced `wall_s`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Work files, the full result
with its environment block, and the spans of traced runs go to
`.perfbench_work/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# What the `uls` console script runs.
ULS = [sys.executable, "-c", "import sys; from ulskit.cli import main; sys.exit(main())"]
BARE_IMPORT = [sys.executable, "-c", "import ulskit.cli"]
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
OP_TIMEOUT_S = 60.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("reps_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def child_env() -> dict:
    """The children's environment: the source tree on the path, no ULS_THREADS.

    ULS_THREADS would override --threads. BLAS thread counts are left as the
    caller set them (recorded in the environment block), not pinned.
    """
    env = dict(os.environ)
    env.pop("ULS_THREADS", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_process(cmd, env, cwd: Path, log: str) -> dict:
    """Run one child; wall time, exit code and the child's own peak RSS."""
    with open(cwd / f"{log}.out", "wb") as out, open(cwd / f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def error_name(err_path: Path) -> str | None:
    """The exception name on the last line of a failed op's stderr."""
    lines = [ln for ln in err_path.read_text(errors="replace").splitlines() if ln.strip()]
    if not lines:
        return None
    return lines[-1].split(":", 1)[0].strip().rsplit(".", 1)[-1]


def run_round(wl, k: int, env, work: Path, spans_dir: Path | None, first_op: int) -> list:
    """Run round k of a workload, one process per op; returns op records."""
    records = []
    for i, op in enumerate(wl.round_ops(k)):
        op_id = first_op + i
        if spans_dir is None:
            cmd = ULS + op.argv
        else:
            spans = spans_dir / f"op{op_id}.jsonl"
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), str(op_id), "--",
                   *op.argv]
        res = run_process(cmd, env, work, f"op{op_id}")
        res.update(kind=op.kind, op=op_id, reps=op.reps, rows=op.rows, error=None)
        if res["rc"] != 0:
            res["error"] = error_name(work / f"op{op_id}.err") or f"exit{res['rc']}"
        else:
            try:
                op.check(work, res)
            except (CheckFailed, OSError, KeyError, ValueError, TypeError) as exc:
                res["error"] = f"check: {exc}"
        records.append(res)
    return records


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values: list, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights. On the few, bursty latencies of one run it varies much less
    between runs than a quantile interpolated between two neighbours.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def tail(values: list) -> tuple[float, float]:
    """The tail latency and its percentile.

    The highest percentile with at least ten samples beyond it, but not below
    the 90th: a run of under 100 ops reports the 90th percentile. Both are
    Harrell-Davis estimates.
    """
    pct = max(90.0, 100.0 * (len(values) - 10) / len(values))
    return hd_quantile(values, pct / 100.0), pct


def end_to_end(setup_times, rounds) -> tuple[dict, dict]:
    ops = [op for rnd in rounds for op in rnd]
    op_wall = sum(op["wall_s"] for op in ops)
    op_ms = [op["wall_s"] * 1e3 for op in ops]
    tail_ms, tail_pct = tail(op_ms)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": hd_quantile([sum(op["wall_s"] for op in rnd) for rnd in rounds], 0.5),
        "op_ms_p50": hd_quantile(op_ms, 0.5),
        "op_ms_tail": tail_ms,
        "reps_per_s": sum(op["reps"] for op in ops) / op_wall,
        "rows_per_s": sum(op["rows"] for op in ops) / op_wall,
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
    }
    failed = sum(1 for op in ops if op["error"])
    info = {
        "op_ms_tail_percentile": tail_pct,
        "op_samples": len(ops),
        "rounds": len(rounds),
        "fail_frac": failed / len(ops),
        "setup_times_s": setup_times,
    }
    return values, info


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code outside git too."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ulskit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def scipy_version() -> str | None:
    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(env: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_pin": None,
        **{var: env.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version(),
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": src_digest(),
    }


def timed_setup(wl, work: Path, seed: int, env) -> float:
    """Make the inputs and warm the interpreter's bytecode and page caches."""
    start = time.perf_counter()
    wl.setup(work, seed)
    warm = run_process(BARE_IMPORT, env, work, "warm")
    if warm["rc"] != 0:
        raise RuntimeError(f"`import ulskit.cli` failed; see {work / 'warm.err'}")
    return time.perf_counter() - start


def run_untraced(wl, seed: int, seconds: float, env, work: Path) -> dict:
    setup_times = [timed_setup(wl, work, seed, env) for _ in range(SETUP_REPEATS)]
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(wl, len(rounds), env, work, None, 1000 * len(rounds)))
        elapsed = time.perf_counter() - start
        # start another round only if it should end at most half a round late
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            break
    values, info = end_to_end(setup_times, rounds)
    return {"values": values, "info": info, "ops": [op for r in rounds for op in r]}


def run_traced(wl, seed: int, env, work: Path) -> dict:
    """One untraced and one traced run of round 0, plus the traced set-up."""
    tracer = tracing.Tracer(op=0)
    tracing.install(tracer)
    timed_setup(wl, work, seed, env)
    startup_ms = statistics.median(
        run_process(BARE_IMPORT, env, work, "startup")["wall_s"] * 1e3
        for _ in range(STARTUP_REPEATS)
    )
    plain = run_round(wl, 0, env, work, None, 1)
    spans_dir = work / "spans"
    spans_dir.mkdir(exist_ok=True)
    traced = run_round(wl, 0, env, work, spans_dir, 1001)

    spans = list(tracer.spans)
    for op in traced:
        path = spans_dir / f"op{op['op']}.jsonl"
        if path.exists():
            spans.extend(tracing.read_spans(path))
    with open(WORK / f"{wl.name}-spans.jsonl", "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    reps = sum(op["reps"] for op in traced)
    values, table = layers.layer_values(spans, reps)
    values["cli.startup_ms"] = startup_ms
    traced_wall = sum(op["wall_s"] for op in traced)
    plain_wall = sum(op["wall_s"] for op in plain)
    values["trace.overhead_s"] = traced_wall - plain_wall
    counts = dict.fromkeys(layers.ERROR_NAMES, 0)
    for op in traced:
        if op["error"]:
            name = op["error"] if op["error"] in counts else "other"
            counts[name] += 1
    counts["UlsError"] += sum(op.get("failed_reps", 0) for op in traced)
    for name, count in counts.items():
        values[f"errors.count.{name}"] = count
    info = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
            "functions": table}
    return {"values": values, "info": info, "ops": plain + traced}


def main(argv=None) -> int:
    # a terminated benchmark still stops the op it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ulskit" / "cli.py").is_file():
        print(f"no ulskit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()

    if args.trace:
        result = run_traced(wl, args.seed, env, work)
        names = [m[0] for m in layers.LAYER_METRICS]
        units = {m[0]: m[1] for m in layers.LAYER_METRICS}
    else:
        result = run_untraced(wl, args.seed, args.seconds, env, work)
        names = [m[0] for m in END_TO_END]
        units = dict(END_TO_END)

    ops = result["ops"]
    failed = [op for op in ops if op["error"]]
    metrics = {name: {"value": result["values"][name], "unit": units[name]}
               for name in names}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(env),
        "info": result["info"],
        "metrics": metrics,
        "ops": ops,
    }
    with open(WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(report["environment"]))
    if args.trace:
        print(f"{'metric':46} {'value':>12} {'unit':9} moves / on / should not move")
        for name, unit, _, moves, on, not_on in layers.LAYER_METRICS:
            print(f"{name:46} {metrics[name]['value']:12.6g} {unit:9} "
                  f"{moves} / {on} / {not_on}")
    else:
        info = result["info"]
        for name, unit in END_TO_END:
            print(f"{name:12} {metrics[name]['value']:14.6f} {unit}")
        print(f"op_ms_tail is p{info['op_ms_tail_percentile']:.1f} of"
              f" {info['op_samples']} ops in {info['rounds']} rounds")
        print(f"fail_frac    {info['fail_frac']:14.6f} (failed ops / attempted ops)")
    for op in failed:
        print(f"FAILED op {op['op']} {op['kind']}: {op['error']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
