#!/usr/bin/env bash
# Measures the allowed-lateness subsystem and records the result in
# BENCH_lateness.json:
#   1. builds micro_lateness in Release (-O2 -DNDEBUG),
#   2. sweeps the lateness horizon {0, 100, 300, 1000} ms under the
#      heavy-tailed Pareto straggler delay: late-event accounting,
#      retained-pane memory, correction (retraction+update) volume, and
#      the Klink SWM-estimator accuracy/MAE per horizon,
#   3. reports the refire debt Klink prices into slack at a 300 ms
#      horizon (mean debt per cycle, flushed debt, slowdown, p99)
#      and checks the acceptance bars:
#        * late events accepted grow with the horizon, drops shrink;
#        * corrections are emitted for horizons >= 300 ms;
#        * retained panes cost memory (peak at 1000 ms > strict-drop);
#        * the estimator produced predictions under Pareto;
#        * the refire debt is real pending work (mean debt > 0 that
#          flushes as emitted corrections).
#
# Usage: tools/bench_lateness.sh [build-dir] [output-json]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-release}"
OUT_JSON="${2:-$REPO_ROOT/BENCH_lateness.json}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target micro_lateness

RAW_TXT="$(mktemp)"
"$BUILD_DIR/bench/micro_lateness" | tee "$RAW_TXT"

python3 - "$RAW_TXT" "$OUT_JSON" <<'PY'
import json
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
sweep, debt = [], None
with open(raw_path) as f:
    for line in f:
        if line.startswith("SWEEP "):
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            sweep.append({
                "lateness_ms": int(fields["lateness_ms"]),
                "late_accepted": int(fields["accepted"]),
                "late_dropped_beyond_horizon": int(fields["dropped"]),
                "correction_elements": int(fields["corrections"]),
                "unmatched_retractions": int(fields["unmatched"]),
                "peak_memory_bytes": int(fields["peak_memory_bytes"]),
                "estimator_accuracy": float(fields["estimator_accuracy"]),
                "estimator_predictions": int(fields["estimator_predictions"]),
                "estimator_mae_s": float(fields["estimator_mae_s"]),
                "p50_latency_s": float(fields["p50_latency_s"]),
                "p99_latency_s": float(fields["p99_latency_s"]),
            })
        elif line.startswith("DEBT "):
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            debt = {
                "mean_debt_micros_per_cycle":
                    float(fields["mean_debt_micros_per_cycle"]),
                "flushed_debt_micros": float(fields["flushed_debt_micros"]),
                "correction_elements": int(fields["corrections"]),
                "late_accepted": int(fields["accepted"]),
                "slowdown": float(fields["slowdown"]),
                "p99_latency_s": float(fields["p99_latency_s"]),
            }

def row(ms):
    for r in sweep:
        if r["lateness_ms"] == ms:
            return r
    raise KeyError(ms)

checks = {
    "accepted_grows_with_horizon":
        row(1000)["late_accepted"] > row(100)["late_accepted"] > 0,
    "dropped_shrinks_with_horizon":
        row(1000)["late_dropped_beyond_horizon"]
        < row(100)["late_dropped_beyond_horizon"],
    "corrections_emitted":
        row(300)["correction_elements"] > 0
        and row(1000)["correction_elements"] > 0,
    "no_unmatched_retractions":
        all(r["unmatched_retractions"] == 0 for r in sweep),
    "retained_panes_cost_memory":
        row(1000)["peak_memory_bytes"] > row(0)["peak_memory_bytes"],
    "estimator_measured_under_pareto":
        all(r["estimator_predictions"] > 0 for r in sweep),
    "refire_debt_flushes_as_corrections":
        debt["mean_debt_micros_per_cycle"] > 0.0
        and debt["flushed_debt_micros"] > 0
        and debt["correction_elements"] > 0,
}

result = {
    "description": "Allowed-lateness horizon sweep + refire debt under the "
                   "heavy-tailed Pareto straggler delay (see "
                   "bench/micro_lateness.cc and DESIGN.md 'Late data'). "
                   "Sweep rows: late-event accounting, retained-pane "
                   "memory, correction volume, and Klink SWM-estimator "
                   "accuracy per horizon. Debt row: the pending work Klink "
                   "prices into slack (mean refire debt per cycle) and the "
                   "debt that flushed as emitted corrections.",
    "sweep": sweep,
    "refire_debt": debt,
    "checks": checks,
    "ok": all(checks.values()),
}

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

for name, ok in checks.items():
    print(f"{name}: {'OK' if ok else 'FAILED'}")
print("lateness bench:", "OK" if result["ok"] else "FAILED")
sys.exit(0 if result["ok"] else 1)
PY
