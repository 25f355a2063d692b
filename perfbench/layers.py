"""Per-layer metrics computed from the spans of a traced run.

Every metric below names the end-to-end metric it should move, the workload
it should move it on, and where it should not move; `run.py --trace 1`
prints the table with the values. Times are per call (`self_ms`, `incl_ms`)
so that they do not depend on how many calls a run makes; a span's self time
is its duration minus that of its direct children on the same thread. A
`share` is a function's inclusive time over the self time of all spans, that
is, over all the time the traced code spent working.
"""

from __future__ import annotations

from collections import defaultdict

# Error classes of ulskit.errors, plus the non-ulskit exits of the CLI; any
# other name a failed op prints is counted under errors.count.other.
ERROR_NAMES = (
    "UlsError",
    "NotPositiveDefinite",
    "DimensionMismatch",
    "SingularGram",
    "IndefiniteObjective",
    "Diverged",
    "NotConverged",
    "EmptyDataset",
    "SubsampleTooLarge",
    "ParseError",
    "SchemaMismatch",
    "InsufficientData",
    "NoFeasibleLambda",
    "DegenerateDirection",
    "ValueError",
    "OSError",
    "other",
)

# (name, unit, better, moves, on, should not move on)
LAYER_METRICS = [
    ("cli.startup_ms", "ms", "lower", "op_ms_p50, wall_s", "csv_pipeline",
     "sim_* (one start per batch)"),
    ("data_model.load_csv.mb_per_s", "MB/s", "higher", "wall_s, rows_per_s",
     "csv_pipeline", "sim_*"),
    ("data_model.load_csv.self_ms", "ms", "lower", "wall_s, rows_per_s",
     "csv_pipeline", "sim_*"),
    ("data_model.save_csv.mb_per_s", "MB/s", "higher", "setup_s", "csv_pipeline",
     "sim_*"),
    ("simulation.generate_rep.self_ms", "ms", "lower", "reps_per_s", "sim_table1",
     "csv_pipeline; little on sim_tuned"),
    ("simulation.generate_rep.incl_ms", "ms", "lower", "reps_per_s", "sim_table1",
     "csv_pipeline; little on sim_tuned"),
    ("simulation.generate_rep.share", "fraction", "lower", "reps_per_s",
     "sim_table1", "csv_pipeline; little on sim_tuned"),
    ("numerics.standard_normal.share", "fraction", "lower", "reps_per_s",
     "sim_table1", "csv_pipeline; little on sim_tuned"),
    ("data_model.compute_stats.calls_per_rep", "count", "lower", "reps_per_s",
     "sim_table1", "-"),
    ("numerics.cholesky.calls_per_rep", "count", "lower", "reps_per_s",
     "sim_table1", "-"),
    ("numerics.spd_solve.calls_per_rep", "count", "lower", "reps_per_s",
     "sim_table1", "-"),
    ("inference.ci_uls.self_ms", "ms", "lower", "reps_per_s", "sim_table1",
     "sim_tuned"),
    ("inference.ci_ols.self_ms", "ms", "lower", "reps_per_s", "sim_table1",
     "sim_tuned"),
    ("inference.noise_terms.self_ms", "ms", "lower", "reps_per_s", "sim_table1",
     "sim_tuned"),
    ("tuning.cv_select.uls_plus.self_ms", "ms", "lower", "reps_per_s",
     "sim_tuned", "sim_table1"),
    ("tuning.cv_select.uls_plus.incl_ms", "ms", "lower", "reps_per_s",
     "sim_tuned", "sim_table1"),
    ("tuning.cv_select.tl.self_ms", "ms", "lower", "reps_per_s", "sim_tuned",
     "sim_table1"),
    ("tuning.cv_select.tl.incl_ms", "ms", "lower", "reps_per_s", "sim_tuned",
     "sim_table1"),
    ("tuning.cv_select.graddiff.self_ms", "ms", "lower", "reps_per_s",
     "sim_tuned", "sim_table1"),
    ("tuning.cv_select.graddiff.incl_ms", "ms", "lower", "reps_per_s",
     "sim_tuned", "sim_table1"),
    ("tuning.cv_select.factorizations_per_call", "count", "lower", "reps_per_s",
     "sim_tuned", "sim_table1"),
    ("tuning.cv_select.graddiff.feasible_frac", "fraction", "higher",
     "reps_per_s", "sim_tuned", "sim_table1"),
    ("estimators.gd_unlearn.self_ms", "ms", "lower", "reps_per_s", "sim_tuned",
     "sim_table1"),
    ("estimators.gd_unlearn.incl_ms", "ms", "lower", "reps_per_s", "sim_tuned",
     "sim_table1"),
    ("estimators.gd_unlearn.iterations", "count", "lower", "reps_per_s",
     "sim_tuned", "sim_table1"),
    ("loss.loss_grad.calls_per_rep", "count", "lower", "reps_per_s", "sim_tuned",
     "sim_table1"),
    ("numerics.max_eigenvalue.self_ms", "ms", "lower", "reps_per_s", "sim_tuned",
     "sim_table1"),
    ("estimators.pretrain.self_ms", "ms", "lower", "op_ms_p50", "csv_pipeline",
     "-"),
    ("estimators.pretrain.incl_ms", "ms", "lower", "op_ms_p50", "csv_pipeline",
     "-"),
    ("estimators.uls.self_ms", "ms", "lower", "op_ms_p50", "csv_pipeline", "-"),
    ("estimators.uls.incl_ms", "ms", "lower", "op_ms_p50", "csv_pipeline", "-"),
    ("simulation.workers_busy_frac", "fraction", "higher", "reps_per_s",
     "sim_tuned", "sim_table1"),
    ("trace.overhead_s", "s", "lower", "- (traced minus untraced wall_s)", "all",
     "-"),
] + [
    (f"errors.count.{name}", "count", "lower", "fail_frac", "all", "-")
    for name in ERROR_NAMES
]


def _key(span) -> tuple:
    return span[6], span[0]


def function_table(spans) -> dict:
    """Calls, self and inclusive nanoseconds per span name.

    cv_select spans are also split by method as `tuning.cv_select.<method>`.
    A run_experiment span with a worker pool gets no self time: its thread
    only waits on the pool, and a share counts time spent working.
    """
    child_ns = defaultdict(int)
    for span in spans:
        if span[4] is not None:
            child_ns[(span[6], span[4])] += span[3] - span[2]
    table = defaultdict(lambda: {"calls": 0, "self_ns": 0, "incl_ns": 0})
    for span in spans:
        dur = span[3] - span[2]
        self_ns = dur - child_ns[_key(span)]
        if span[1] == "simulation.run_experiment" and span[8] and span[8]["workers"] > 1:
            # with a worker pool the calling thread only waits on it
            self_ns = 0
        names = [span[1]]
        if span[1] == "tuning.cv_select" and span[8]:
            method = span[8]["method"].replace("+", "_plus")
            names.append(f"tuning.cv_select.{method}")
        for name in names:
            row = table[name]
            row["calls"] += 1
            row["self_ns"] += self_ns
            row["incl_ns"] += dur
    return dict(table)


def _under(spans, child_name: str, ancestor_name: str) -> int:
    """How many `child_name` spans have an `ancestor_name` span above them."""
    by_key = {_key(s): s for s in spans}
    count = 0
    for span in spans:
        if span[1] != child_name:
            continue
        parent = span[4]
        while parent is not None:
            up = by_key[(span[6], parent)]
            if up[1] == ancestor_name:
                count += 1
                break
            parent = up[4]
    return count


def _workers_busy_frac(spans) -> float:
    """Wrapped-call time on worker threads over workers x run_experiment wall."""
    busy = capacity = 0
    for run in (s for s in spans if s[1] == "simulation.run_experiment"):
        op, start, end = run[6], run[2], run[3]
        workers = run[8]["workers"] if run[8] else 1
        if workers <= 1:
            busy += sum(s[3] - s[2] for s in spans if s[6] == op and s[4] == run[0])
        else:
            busy += sum(
                s[3] - s[2]
                for s in spans
                if s[6] == op and s[5] != 0 and s[4] is None
                and s[2] >= start and s[3] <= end
            )
        capacity += workers * (end - start)
    return busy / capacity if capacity else 0.0


def layer_values(spans, reps: int) -> tuple[dict, dict]:
    """The span-derived metrics of LAYER_METRICS, and the full function table."""
    table = function_table(spans)
    total_self = sum(
        row["self_ns"] for name, row in table.items()
        if not name.startswith("tuning.cv_select.")
    )

    def row(name):
        return table.get(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})

    def per_call_ms(name, field):
        r = row(name)
        return r[field] / r["calls"] / 1e6 if r["calls"] else 0.0

    def extras(name, field):
        return [s[8][field] for s in spans if s[1] == name and s[8]]

    values = {}
    for name, *_ in LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        if stat in ("self_ms", "incl_ms"):
            values[name] = per_call_ms(base, stat[:4] + "_ns")
        elif stat == "share":
            values[name] = row(base)["incl_ns"] / total_self if total_self else 0.0
        elif stat == "calls_per_rep":
            values[name] = row(base)["calls"] / reps if reps else 0.0
        elif stat == "mb_per_s":
            r = row(base)
            mb = sum(extras(base, "bytes")) / 1e6
            values[name] = mb / (r["incl_ns"] / 1e9) if r["incl_ns"] else 0.0

    cv_calls = row("tuning.cv_select")["calls"]
    values["tuning.cv_select.factorizations_per_call"] = (
        _under(spans, "numerics.cholesky", "tuning.cv_select") / cv_calls
        if cv_calls else 0.0
    )
    graddiff = [s[8] for s in spans if s[1] == "tuning.cv_select" and s[8]
                and s[8]["method"] == "graddiff"]
    tried = sum(e["tried"] for e in graddiff)
    values["tuning.cv_select.graddiff.feasible_frac"] = (
        sum(e["feasible"] for e in graddiff) / tried if tried else 0.0
    )
    iterations = extras("estimators.gd_unlearn", "iterations")
    values["estimators.gd_unlearn.iterations"] = (
        sum(iterations) / len(iterations) if iterations else 0.0
    )
    values["simulation.workers_busy_frac"] = _workers_busy_frac(spans)
    full = {
        name: {
            "calls": r["calls"],
            "self_ms": r["self_ns"] / 1e6,
            "incl_ms": r["incl_ns"] / 1e6,
            "share": r["incl_ns"] / total_self if total_self else 0.0,
        }
        for name, r in sorted(table.items())
    }
    return values, full
