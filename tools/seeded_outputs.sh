#!/usr/bin/env bash
# Write the seeded outputs of the ulskit checkout TREE into OUT, so that two
# checkouts can be compared byte for byte:
#
#   tools/seeded_outputs.sh PARENT_TREE /tmp/before
#   tools/seeded_outputs.sh CHANGED_TREE /tmp/after
#   diff -r /tmp/before /tmp/after
#
# It runs three simulations and, on three seeded instances, pretrain, unlearn
# with every method (the tuned ones by CV, with their CV table, and at five
# fixed lambdas), an 8-method bench and infer. The instances, and the table
# wild.csv of cells far from the instances' (exponents of 2 and 3 digits,
# subnormals and signed zeros, integers from 2^53, neighbours of powers of
# ten), are written by TREE's own save_csv. Commands run inside OUT with
# relative paths, so their messages name no directory. Each command NAME
# leaves its output files, NAME.stdout, and NAME.stderr ending in a line
# "exit CODE".
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 TREE OUT" >&2
    exit 2
fi
TREE=$(cd "$1" && pwd)
mkdir "$2"
cd "$2"
export PYTHONPATH="$TREE/src" PYTHONDONTWRITEBYTECODE=1

run() {  # run NAME ARGS...: `uls ARGS...`, recording its streams and exit code
    local name=$1 code=0
    shift
    python3 -m ulskit.cli "$@" > "$name.stdout" 2> "$name.stderr" || code=$?
    echo "exit $code" >> "$name.stderr"
}

ALL=retrain,pretrain,ols,uls,uls+,graddiff,tl,gd
run sim_tuned simulate --nr 4000 --nf 400 --p 50 --ratio 0.5 \
    --methods uls,uls+,graddiff,tl,gd --reps 30 --seed 5 \
    --records sim_tuned.records.csv --summary sim_tuned.summary.json
run sim_table1 simulate --preset table1 --reps 20 \
    --records sim_table1.records.csv --summary sim_table1.summary.json
run sim_oracle simulate --nr 2000 --nf 200 --p 20 --methods "$ALL" --oracle-lambda \
    --reps 20 --seed 7 --records sim_oracle.records.csv --summary sim_oracle.summary.json

# name, rows, forget rows (the last ones, their y shifted by 1), subsample
# rows (the first ones), test rows, seed, then the column scales
python3 - <<'PY'
import os

import numpy as np

from ulskit import Dataset, save_csv

INSTANCES = [
    ("gauss50", 20_000, 1_000, 4_000, 2_000, 1, np.ones(50)),
    ("blocks12", 2_000, 200, 600, 500, 2, np.repeat([1e4, 1.0, 1e-4], 4)),
    ("blocks6", 900, 100, 300, 200, 3, np.repeat([1e-6, 1.0, 1e6], 2)),
]
for name, n, n_f, n_sub, n_test, seed, scale in INSTANCES:
    rng = np.random.default_rng(seed)
    p = len(scale)
    x = rng.standard_normal((n, p)) * scale
    theta = rng.standard_normal(p) / scale
    y = x @ theta + rng.standard_normal(n)
    y[n - n_f:] += 1.0
    x_t = rng.standard_normal((n_test, p)) * scale
    y_t = x_t @ theta + rng.standard_normal(n_test)
    os.makedirs(name)
    for part, rows, role in [("full", slice(0, n), "remaining"),
                             ("remaining", slice(0, n - n_f), "remaining"),
                             ("forget", slice(n - n_f, n), "forget"),
                             ("sub", slice(0, n_sub), "subsample")]:
        save_csv(Dataset(x[rows], y[rows], role), f"{name}/{part}.csv")
    save_csv(Dataset(x_t, y_t, "test"), f"{name}/test.csv")

rng = np.random.default_rng(4)
n = 300
subnormal = rng.integers(0, 2**52, n) * 5e-324
subnormal[::10] = 0.0
tens = np.array([float(f"1e{k}") for k in rng.integers(-30, 31, n)])
wild = np.column_stack([
    rng.standard_normal(n) * 1e-7,
    rng.standard_normal(n) * 1e20,
    rng.standard_normal(n) * 1e-150,
    rng.standard_normal(n) * 1e200,
    subnormal * rng.choice([-1.0, 1.0], n),
    rng.integers(2**53, 2**62, n) * rng.choice([-1.0, 1.0], n),
    np.nextafter(tens, np.where(rng.random(n) < 0.5, 0.0, np.inf)),
    tens,
])
save_csv(Dataset(wild[:, 1:], wild[:, 0], "remaining"), "wild.csv")
PY

for inst in gauss50 blocks12 blocks6; do
    (
        cd "$inst"
        n_forget=$(($(wc -l < forget.csv) - 1))  # less the header
        run pretrain pretrain full.csv --n-forget "$n_forget" --out model.json
        fit=(unlearn --model model.json --forget forget.csv --sub sub.csv)
        for method in ols uls gd; do
            run "$method" "${fit[@]}" --method "$method" --out "$method.json"
        done
        for method in uls+ graddiff tl; do
            run "$method.cv" "${fit[@]}" --method "$method" \
                --cv-table "$method.cv.csv" --out "$method.cv.json"
            for lam in 1e-4 1e-3 0.5 3.5 1e4; do
                run "$method.$lam" "${fit[@]}" --method "$method" --lam "$lam" \
                    --out "$method.$lam.json"
            done
        done
        run bench bench --remaining remaining.csv --forget forget.csv --test test.csv \
            --methods "$ALL" --out bench.csv
        run infer infer --model model.json --forget forget.csv --sub sub.csv \
            --coord 1 --out infer.json
    )
done
