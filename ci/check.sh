#!/usr/bin/env bash
# CI gate: static analysis, the perfbench selftest, the figure digests (a
# plain RelWithDebInfo build of the figures), then three build+test
# passes —
#  1. RelWithDebInfo with -Werror and ASan+UBSan (full suite + chaos runs),
#  2. Debug with -Werror and ROCKSTEADY_AUDIT=ON (DCHECKs + invariant audits
#     enabled, death tests active),
#  3. RelWithDebInfo with TSan (fast subset: the determinism core, the
#     threaded-lane suite and seed slices of the chaos, rebalancer and
#     scenario suites, which drive real worker threads through the lane
#     barriers — the sharded-execution race gate).
# Run from anywhere; builds land in build-asan/, build-figures/,
# build-audit/ and build-tsan/ under the repo root. Any failure aborts with
# a nonzero exit.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n=== %s ===\n' "$*"; }

step "static analysis: shard-safety + determinism gates (hard gate)"
# Semantic rules (tools/analyzer/) plus the regex determinism lint in one
# pass; the baseline ships empty, so any finding fails CI.
python3 "${ROOT}/tools/analyze.py" "${ROOT}/src" --build-dir "${ROOT}/build-asan"

step "analyzer fixture tests"
python3 "${ROOT}/tests/analyzer/run_fixture_tests.py"

step "build: ASan+UBSan (RelWithDebInfo, -Werror)"
cmake -B "${ROOT}/build-asan" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DROCKSTEADY_WERROR=ON \
  -DROCKSTEADY_SANITIZE="address;undefined"
cmake --build "${ROOT}/build-asan" -j "${JOBS}"

step "clang-tidy over changed files (when clang-tidy is installed)"
# Curated check set from .clang-tidy (bugprone/performance/concurrency),
# driven by the exported compile_commands.json. Scope: files changed by the
# last commit plus the working tree, falling back to all of src/ when the
# diff cannot be computed (fresh clone without history).
if command -v clang-tidy >/dev/null 2>&1; then
  mapfile -t changed < <(cd "${ROOT}" && {
      git diff --name-only HEAD~1 -- 'src/*.cc' 'src/*.h' 2>/dev/null ||
      git ls-files 'src/*.cc' 'src/*.h'
    } | sort -u)
  tidy_files=()
  for f in "${changed[@]}"; do
    if [[ -f "${ROOT}/${f}" && "${f}" == *.cc ]]; then
      tidy_files+=("${ROOT}/${f}")
    fi
  done
  if ((${#tidy_files[@]})); then
    clang-tidy -p "${ROOT}/build-asan" --quiet "${tidy_files[@]}"
  else
    echo "no changed src/ translation units to tidy"
  fi
else
  echo "clang-tidy not installed; skipping (tools/analyze.py already ran)"
fi

step "test: ASan+UBSan"
ctest --test-dir "${ROOT}/build-asan" --output-on-failure -j "${JOBS}"

# The chaos, overload, rebalancer and scenario suites are ScenarioSpecs run
# by the one episode runner (RunScenario, bench/scenario_harness.h): each
# seed runs at one lane and replays at 4 threaded lanes. Every client drives
# its own load (bench/client_history.h), so every event touches only its own
# node and one digest comparison checks replay determinism and lane
# invariance. The lane legs below run the same runner's recovery and
# operations specs at 2 and 4 lanes too.
step "chaos suite: lossy fabric + crash-restarts, 20 seeds, replayed bit-identically at 4 lanes"
"${ROOT}/build-asan/tests/chaos_test" --gtest_filter='Seeds/ChaosTest.*'

step "overload chaos: bursty load past saturation + migration, pacing on/off, 20 seeds"
"${ROOT}/build-asan/tests/chaos_test" --gtest_filter='Seeds/OverloadChaosTest.*'

step "rebalancer chaos: planner + splits + faults, 20 seeds, replayed bit-identically at 4 lanes"
"${ROOT}/build-asan/tests/rebalance_test" --gtest_filter='Seeds/RebalanceChaosTest.*'

step "scenario matrix smoke: every operational scenario at seed 0 (20-seed suites run in ctest)"
"${ROOT}/build-asan/tests/scenario_test" --gtest_filter='*_s0'

step "overload protection: admission control, load shedding, memory budget"
"${ROOT}/build-asan/tests/overload_test"

step "rpc dedup cache holds only unfinished calls and frees their replies; completed calls leave no timers"
# The watermark tests (RpcAckTest) run at one lane and at two threaded
# lanes; ASan checks the cached clones erased with their entries, and the
# callbacks of timers a completed call cancels, released in place.
"${ROOT}/build-asan/tests/rpc_test" \
  --gtest_filter='*Dedup*:*Ack*:*Watermark*:*Duplicate*:*Timers*:*RoundTripDispatches*'

step "backup replicas: shared segment bytes match a private copy and outlive the master's"
# Replicas, BackupWrites and recovery data hold slices of the masters'
# refcounted segment buffers; ASan checks the lifetimes (a segment freed by
# the cleaner, a crash-restarted master) and the reference-model cases.
# Every replay (recovery, lazy and sync migration, the baseline) replicates
# slices of the segments it appended to, side-log segments before their
# commit or drop: recovery_test drives each path into a crash.
"${ROOT}/build-asan/tests/backup_service_test"
"${ROOT}/build-asan/tests/recovery_test"

step "threaded lanes: 4-lane worker-thread runs match the single-lane schedule"
# The full 20-seed x {ycsb, migration, faults, scale24, recovery, operations}
# suite runs under ctest; this leg re-runs a slice with ASan explicitly so a
# lane/barrier memory bug cannot hide behind a ctest filter change. The
# recovery and operations scenarios (detector-driven lineage recovery; the
# planner, a drain and a rolling restart) are the control plane's slice.
"${ROOT}/build-asan/tests/lane_determinism_test" \
  --gtest_filter='*_s10:*_s11:*_s12:*_s13:LaneTieBreakTest.*:LaneWindowTest.*'

step "perfbench selftest (hard gate): every workload's simulated metrics, counts and trace hashes repeat"
# Builds perfbench in Release, runs each workload twice per mode at a tiny
# size and fails unless every metric is named, finite and — for simulated
# metrics, counts and trace hashes — identical across the repetitions.
python3 "${ROOT}/perfbench/run.py" --selftest

step "pull-path micro benchmarks: the source's pull scan and tablet drop build and run"
# One short run of each, so the wall-clock numbers for the migration
# source's store passes (ns per record) keep compiling and running. No
# timing is gated here.
"${ROOT}/build-asan/bench/micro_primitives" \
  --benchmark_filter='BM_PullScan|BM_TabletDrop' --benchmark_min_time=0.01

step "figure 15: the production pull scan and replay at 1-16 workers"
# fig15 drives ObjectManager::PullRange and ReplayRecords, the code the pull
# handler and every replay path run, over 64k-record stores and 2,000
# replay batches per point; ASan checks the copies and the side-log appends.
"${ROOT}/build-asan/bench/fig15_scalability"

step "engine bench smoke (~2s; trace-hash divergence is a hard failure)"
# Compare against the recorded trajectory without mutating it: the smoke
# entry lands in a scratch copy, so CI stays read-only on BENCH_engine.json.
# Every scenario's reference is the latest re-baseline that carries it
# (post_one_engine for the single-lane scenarios).
# The recorded trajectory must exist — without it the smoke compares against
# nothing and the determinism check silently passes.
if [[ ! -f "${ROOT}/BENCH_engine.json" ]]; then
  echo "ERROR: ${ROOT}/BENCH_engine.json missing — the bench smoke needs the" \
       "recorded trajectory to compare trace hashes against" >&2
  exit 1
fi
cp "${ROOT}/BENCH_engine.json" "${ROOT}/build-asan/BENCH_smoke.json"
python3 "${ROOT}/tools/bench_baseline.py" --build-dir "${ROOT}/build-asan" \
  --smoke --strict-hash --label ci_smoke \
  --output "${ROOT}/build-asan/BENCH_smoke.json"

step "figure digests: every figure's stdout matches bench/figure_digests.txt"
# The figures are deterministic: each one's stdout is pinned by a recorded
# SHA-256 (taken from a plain RelWithDebInfo build, so this leg builds one
# without sanitizers). A mismatch names the figure and keeps its stdout in
# build-figures/figure_outputs/ for diffing against the parent commit's.
cmake -B "${ROOT}/build-figures" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${ROOT}/build-figures" -j "${JOBS}" --target \
  table1_config fig03_spread fig04_index_scaling fig05_bottlenecks \
  fig09_migration_impact fig12_skew fig13_priority_pulls fig15_scalability \
  ablation_migration fig_overload_pacing fig_rebalance fig_scenarios
python3 "${ROOT}/tools/figure_digests.py" --build-dir "${ROOT}/build-figures" -j "${JOBS}"

step "build: debug audit (Debug, -Werror, ROCKSTEADY_AUDIT=ON)"
cmake -B "${ROOT}/build-audit" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DROCKSTEADY_WERROR=ON \
  -DROCKSTEADY_AUDIT=ON
cmake --build "${ROOT}/build-audit" -j "${JOBS}"

step "test: debug audit"
ctest --test-dir "${ROOT}/build-audit" --output-on-failure -j "${JOBS}"

step "build: TSan (RelWithDebInfo, -Werror)"
cmake -B "${ROOT}/build-tsan" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DROCKSTEADY_WERROR=ON \
  -DROCKSTEADY_SANITIZE=thread
cmake --build "${ROOT}/build-tsan" -j "${JOBS}"

step "test: TSan fast subset (determinism core + threaded lane barriers)"
"${ROOT}/build-tsan/tests/sim_determinism_test"
# rpc_test includes the timer-withdrawal tests; RpcAckTest cancels timers
# on a caller lane while a server lane runs on another thread.
"${ROOT}/build-tsan/tests/rpc_test"
"${ROOT}/build-tsan/tests/engine_test" --gtest_filter='TimerTest.*:CalendarQueueTest.*'
"${ROOT}/build-tsan/tests/backup_service_test"
# The multi-lane suite under TSan is the race gate for sharded execution:
# every parameterized case (the 24-master scale24 shape, and the recovery and
# operations control-plane scenarios, included) runs 2 and 4 threaded lanes
# through the per-window barrier. A subset of seeds keeps the leg fast;
# ctest runs all 20. Backups there read the bytes of masters on other lanes
# (shared segment buffers), so this leg also checks that a backup reads only
# bytes written before they were sent.
"${ROOT}/build-tsan/tests/lane_determinism_test" \
  --gtest_filter='*_s0:*_s1:*_s2:*_s3:*_s4:*_s5:*_s6:*_s7:LaneTieBreakTest.*:LaneWindowTest.*'
# The episode suites all go through the one runner (RunScenario), which
# replays each seed on 4 worker threads: a coordinator crash, a straggler,
# overload pacing, the planner with faults and a bystander crash-restart,
# and the full operations stack under the barrier. Two chaos, overload and
# rebalancer-chaos seeds, and every scenario at seed 0.
"${ROOT}/build-tsan/tests/chaos_test" --gtest_filter='Seeds/*/1:Seeds/*/2'
"${ROOT}/build-tsan/tests/rebalance_test" --gtest_filter='Seeds/*/1:Seeds/*/2'
"${ROOT}/build-tsan/tests/scenario_test" --gtest_filter='*_s0'

step "all checks passed"
