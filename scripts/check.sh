#!/usr/bin/env bash
# One-command correctness gate (DESIGN.md §8): default build + full
# ctest, the TSan concurrency suite (data races and lock-order
# inversions, with the seeded lock-order controls), the ASan+UBSan full
# suite, the fr_analyze static passes (DESIGN.md §11), the
# operational-fault robustness gate (DESIGN.md §10), the crash-matrix,
# soak and rank-kernel smokes, and the end-to-end benchmark's own
# tests. CI and pre-merge both run exactly this.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

run() {
  echo
  echo "==> $*"
  "$@"
}

# 1. Default build, full test suite (includes the `static` fr_analyze
#    tests: fixture self-test, baseline-diff tree gate, coverage, and
#    the negative controls).
run cmake --preset default
run cmake --build --preset default -j "${JOBS}"
run ctest --preset default -j "${JOBS}" --output-on-failure

# 2. ThreadSanitizer over the concurrency-labelled suite (pool torture,
#    parallel-aggregation determinism, pooled checks under a fault
#    schedule and with BeeGFS repairs). The test preset pins
#    TSAN_OPTIONS=detect_deadlocks=1:second_deadlock_stack=1:halt_on_error=1,
#    so a lock-order inversion fails the test that produced it, and the
#    lock_order_control.* entries prove TSan still reports a seeded
#    ABBA and a three-lock cycle through the Mutex wrappers.
run cmake --preset tsan
run cmake --build --preset tsan -j "${JOBS}"
run ctest --preset tsan -j "${JOBS}"

# 3. ASan+UBSan over the full suite; UB aborts (no recover), so any
#    finding is a hard test failure.
run cmake --preset ubsan
run cmake --build --preset ubsan -j "${JOBS}"
run ctest --preset ubsan -j "${JOBS}"

# 4. Static analysis: the fr_analyze passes (direct + call-chain-
#    induced lock-order cycles, sim-time discipline, determinism of
#    parallel reductions and unordered-iteration taint,
#    blocking-under-lock, FR_GUARDED_BY coverage, serdes writer/reader
#    symmetry, unchecked wire counts, wire-schema drift against the
#    committed fingerprints, and the six line rules) — self-test first
#    so the fixture proofs gate before the tree run. The tree run diffs
#    against the committed findings baseline: known findings are
#    tolerated, any new one fails. Then the annotation coverage
#    baseline, and a stats snapshot of the analyzer itself into
#    build/BENCH_analysis.json. Explicit invocations for a readable
#    tail even though the default suite already gates on all of it.
run ./build/tools/fr_analyze --self-test tools/fr_analyze_fixtures
run ./build/tools/fr_analyze \
  --baseline tools/analysis/findings_baseline.json \
  --schemas tools/analysis/wire_schemas.json \
  src bench tools
run ./build/tools/fr_analyze --coverage \
  --baseline tools/analysis/coverage_baseline.txt src
echo
echo "==> fr_analyze --stats src bench tools (build/BENCH_analysis.json)"
./build/tools/fr_analyze --stats \
  --schemas tools/analysis/wire_schemas.json \
  src bench tools > build/BENCH_analysis.json
cat build/BENCH_analysis.json

# 5. Robustness gate: the `robustness`-labelled suite (operational
#    faults, degraded coverage, crash states) plus the fault-campaign
#    smoke — one seed of metadata faults + a mid-scan OST crash; exits
#    non-zero on any false positive or missed recall. The crash-matrix smoke then replays a
#    slice of the enumerated-crash + fuzz campaign (DESIGN.md §15):
#    every ground-truthed state must repair to convergence with zero
#    false positives, and raw-bytes fuzzing must stay behind
#    PersistenceError. Last, the full matrix must reproduce the
#    committed BENCH_crash.json in everything but its wall time, so a
#    change that alters any repair, state count or divergence class
#    fails here.
run ctest --preset default -j "${JOBS}" -L robustness --output-on-failure
run ./build/bench/fault_campaign --smoke
run ./build/bench/crash_matrix --smoke --out build/BENCH_crash_smoke.json
run ./build/bench/crash_matrix --out build/BENCH_crash.json
echo
echo "==> build/BENCH_crash.json matches BENCH_crash.json but for wall_seconds"
python3 - build/BENCH_crash.json BENCH_crash.json <<'PY'
import json
import sys

got, want = (json.load(open(path)) for path in sys.argv[1:3])
for doc in (got, want):
    doc.pop("wall_seconds", None)
if got != want:
    moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    sys.exit("crash matrix differs from BENCH_crash.json in: " + ", ".join(moved))
PY

# 5b. Cluster-life soak smoke: traffic + injected faults + the online
#     checker + degraded offline checks on one cluster; exits non-zero
#     if detection, repair convergence, degraded coverage or its
#     recovery after revive() breaks.
run ./build/bench/soak --smoke --out build/BENCH_soak_smoke.json

# 6. Rank-kernel smoke: the planned kernel (DESIGN.md §9) must
#    reproduce the naive reference bit for bit and beat it by the
#    regression floor (exit 1 otherwise). Small graph — this is a
#    correctness gate; the committed BENCH_kernels.json comes from the
#    full-size Table V run (see README). The floor is modest at smoke
#    scale: CI boxes are noisy and the smoke graph is small.
run ./build/bench/micro_kernels --kernels_only \
  --kernels_json=build/BENCH_kernels.json \
  --kernels_scale=14 --kernels_degree=8 --kernels_threads=4 \
  --kernels_min_speedup=1.3

# 7. The end-to-end benchmark's own tests: build perfbench/ against
#    src/ (in .bench_build/), run every workload on a tiny namespace
#    with each op checked by its oracle, and require per-layer counts
#    to repeat across runs and across pools of 1 and 3 workers — the
#    pooled graph finalize against the pool-less path on real
#    namespaces.
run python3 perfbench/test_perfbench.py

echo
echo "check.sh: all gates green"
