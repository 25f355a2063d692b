"""Run the benchmark on several seeds and summarize each metric.

    python3 perfbench/repeat.py --workloads sim_table1,sim_tuned,csv_pipeline \
        --seeds 1-10 --out perfbench/baseline/<name>.json

Each run is a separate `run.py` process with `run_seconds` from
BENCHMARK.json. For every workload and metric the output holds the values in
seed order, their median, their quartiles (`statistics.quantiles(n=4)`) and
the spread, the distance between the quartiles over the median; the
environment block of the first run is kept alongside.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, values = [], {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads(
                (ROOT / ".perfbench_work" / f"{workload}-seed{seed}-trace{args.trace}.json")
                .read_text())
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "info": {k: v for k, v in detail["info"].items()
                                  if k != "functions"}})
            for name, metric in result["metrics"].items():
                values.setdefault(name, {"unit": metric["unit"], "values": []})
                values[name]["values"].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        report["workloads"][workload] = {
            "environment": detail["environment"],
            "runs": runs,
            "metrics": {name: {"unit": v["unit"], **summarize(v["values"])}
                        for name, v in values.items()},
        }
        for name, m in report["workloads"][workload]["metrics"].items():
            print(f"  {name:44} median {m['median']:14.6g} {m['unit']:8}"
                  f" spread {m['spread']:.4f}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
