"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Shows four things, and exits non-zero if any fails:

1. the wrapper installer catches re-bound names: one `uls()` call through
   `ulskit.estimators` records exactly one `numerics.cholesky` span;
2. a deliberately corrupted output is counted as a failed op;
3. the metric names the benchmark prints match `BENCHMARK.json`;
4. the per-layer counts repeat exactly across two traced runs.

It takes about a minute; the traced runs use small simulations.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import tracing
from layers import LAYER_METRICS, layer_values
from workloads import (
    WORKLOADS,
    CheckFailed,
    CsvInstance,
    Op,
    check_unlearn,
    sim_check,
)

SMALL_REPS = 40
# A small sim_tuned-like batch: CV on all three methods, GD and the pool.
SMALL_SIM = ["simulate", "--nr", "400", "--nf", "40", "--p", "8", "--ratio", "0.5",
             "--methods", "uls,ols,uls+,graddiff,tl,gd", "--reps", str(SMALL_REPS), "--seed", "3",
             "--records", "records.csv", "--summary", "summary.json"]
COUNT_METRICS = [m[0] for m in LAYER_METRICS
                 if m[0].endswith(("calls_per_rep", ".iterations",
                                   "factorizations_per_call", "feasible_frac"))]


class SelfTestFailed(Exception):
    pass


def expect(cond, detail) -> None:
    if not cond:
        raise SelfTestFailed(detail)


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_rebinding() -> None:
    from ulskit import data_model, estimators, loss

    tracer = tracing.Tracer()
    rebound = tracing.install(tracer)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 5))
    y = x @ np.ones(5) + rng.standard_normal(300)
    model = estimators.pretrain(loss.SQUARED,
                                data_model.Dataset(x, y), n_forget=50)
    forget = data_model.Dataset(x[-50:], y[-50:], "forget")
    sub = data_model.Dataset(x[:100], y[:100], "subsample")
    tracer.spans.clear()
    estimators.uls(model, forget, sub)
    names = [s[1] for s in tracer.spans]
    expect(names.count("numerics.cholesky") == 1, names)
    expect(names.count("estimators.uls") == 1, names)
    print(f"ok  rebinding: {rebound} names rebound; one uls() call -> spans {sorted(names)}")


def check_corruption(tmp: Path) -> None:
    env = run.child_env()

    def corrupt_then_check(work, record):
        path = work / "summary.json"
        summary = json.loads(path.read_text())
        summary["methods"]["uls"]["mean_sd"] = 2 * summary["methods"]["ols"]["mean_sd"]
        path.write_text(json.dumps(summary))
        sim_check(SMALL_REPS)(work, record)

    class Corrupting:
        def round_ops(self, k):
            return [Op("simulate", SMALL_SIM, sim_check(SMALL_REPS), reps=SMALL_REPS),
                    Op("simulate", SMALL_SIM, corrupt_then_check, reps=SMALL_REPS)]

    honest, corrupted = run.run_round(Corrupting(), 0, env, tmp, None, 1)
    expect(honest["error"] is None, honest)
    expect(str(corrupted["error"]).startswith("check:"), corrupted)

    inst = CsvInstance.generate(0)
    ref = inst.references()
    good = {"theta": list(ref["uls"]), "method": "uls", "iterations": 0,
            "lambda_used": None, "grad_residual": 1e-12}
    bad = dict(good, theta=list(ref["uls"] * (1 + 1e-4)))
    for name, payload in (("good.json", good), ("bad.json", bad)):
        (tmp / name).write_text(json.dumps(payload))
    check_unlearn("uls", ref, "good.json")(tmp, {})
    try:
        check_unlearn("uls", ref, "bad.json")(tmp, {})
    except CheckFailed as exc:
        print(f"ok  corruption: corrupted summary -> {corrupted['error']!r};"
              f" perturbed uls theta -> {exc}")
    else:
        raise SelfTestFailed("a perturbed uls result passed its check")


def check_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    expect(e2e == run.END_TO_END, (e2e, run.END_TO_END))
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(per_layer == [m[:3] for m in LAYER_METRICS], "per_layer differs from layers.py")
    expect([(w["name"], w["why"]) for w in spec["workloads"]]
           == [(w.name, w.why) for w in WORKLOADS.values()], "workloads differ")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(NAME_RE.match(m["name"]) and UNIT_RE.match(m["unit"]), m)
    for m in spec["end_to_end"]:
        expect(0 < m["bound"] <= 0.25, m)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    expect(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s must have the largest bound")
    print(f"ok  names: {len(e2e)} end-to-end and {len(per_layer)} per-layer metrics"
          " match BENCHMARK.json")


def traced_counts(tmp: Path, tag: str) -> dict:
    env = run.child_env()

    class Small:
        def round_ops(self, k):
            return [Op("simulate", SMALL_SIM, sim_check(SMALL_REPS), reps=SMALL_REPS)]

    spans_dir = tmp / f"spans-{tag}"
    spans_dir.mkdir()
    (op,) = run.run_round(Small(), 0, env, tmp, spans_dir, 1)
    expect(op["error"] is None, op)
    spans = tracing.read_spans(spans_dir / "op1.jsonl")
    values, _ = layer_values(spans, op["reps"])
    return {name: values[name] for name in COUNT_METRICS}


def check_repeatable_counts(tmp: Path) -> None:
    first = traced_counts(tmp, "a")
    second = traced_counts(tmp, "b")
    expect(first == second, (first, second))
    expect(all(v > 0 for v in first.values()), first)
    print("ok  counts repeat exactly across two traced runs: " + json.dumps(first))


def main() -> int:
    if not (run.SRC / "ulskit" / "cli.py").is_file():
        print(f"no ulskit sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        check_names()
        check_repeatable_counts(tmp)
        check_corruption(tmp)
        check_rebinding()
    except SelfTestFailed as exc:
        print(f"FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
