#!/usr/bin/env bash
# Tier-1 gate: build and run the full test suite in the default
# configuration, under ThreadSanitizer, and under AddressSanitizer. The
# TSan pass exists for the parallel compaction executor and the network
# server — the `stress` label marks the tests that exercise concurrency
# hardest, and `-L stress` re-runs them a few extra times under TSan to
# shake out schedule-dependent races. The ASan pass covers the buffer
# handling in the wire protocol, the chaos proxy's frame surgery, and
# the slow-client eviction path, where a lifetime bug would otherwise
# hide behind the allocator. The ASan pass is also the Debug build: it is
# the one configuration without NDEBUG, so the engine's asserts run there.
#
# Usage: scripts/check.sh [--fast] [--filter <regex>] [--bench]
#                         [--crash-sweep]
#   --fast            sanitizer configs run only the stress-labelled
#                     tests instead of the full suite (the full
#                     default-config suite always runs).
#   --filter <regex>  only run ctest tests matching <regex> (passed as
#                     ctest -R) in every configuration. A regex that
#                     matches no tests is an error (--no-tests=error), so
#                     a typo'd filter fails fast instead of reporting a
#                     vacuous green run across all three configs.
#   --bench           after the default-config suite, run bench_smoke and
#                     gate its device-currency throughput against
#                     bench/baseline_smoke.json, then run bench_paper and
#                     gate every paper claim against
#                     bench/baseline_paper.json (scripts/bench_gate.py).
#   --crash-sweep     after the default-config suite, run the bounded
#                     sharded crash-point sweep (deterministic workload,
#                     fixed seeds baked into the tests; every recovered
#                     store is checked by the doctor in-process), then
#                     drive the sealdb_doctor binary end-to-end: a clean
#                     check over a crash-recovered 4-shard store, and a
#                     detect -> repair -> re-check cycle over a
#                     deliberately corrupted checkpoint slot.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
FILTER=""
BENCH=0
CRASH_SWEEP=0
while [ $# -gt 0 ]; do
  case "$1" in
    --fast) FAST=1 ;;
    --bench) BENCH=1 ;;
    --crash-sweep) CRASH_SWEEP=1 ;;
    --filter)
      if [ $# -lt 2 ]; then
        echo "check.sh: --filter requires a regex argument" >&2
        exit 2
      fi
      FILTER="$2"
      shift
      ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done

# Fail fast with a clear message when the toolchain is missing — a bare
# "cmake: command not found" halfway through is needlessly confusing.
for tool in cmake; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "check.sh: '$tool' not found on PATH — install it first" >&2
    echo "          (e.g. apt-get install cmake build-essential)" >&2
    exit 1
  fi
done
if ! command -v c++ >/dev/null 2>&1 && ! command -v g++ >/dev/null 2>&1 \
    && ! command -v clang++ >/dev/null 2>&1; then
  echo "check.sh: no C++ compiler (c++/g++/clang++) found on PATH" >&2
  echo "          (e.g. apt-get install g++)" >&2
  exit 1
fi

JOBS="$(nproc 2>/dev/null || echo 2)"

CTEST_ARGS=(--output-on-failure)
STRICT_ARGS=()
if [ -n "$FILTER" ]; then
  CTEST_ARGS+=(-R "$FILTER")
  # A typo'd filter matches zero tests, and a zero-test run exits 0 —
  # three vacuously green configurations later the typo would still be
  # invisible. Full-suite legs therefore treat "no tests matched" as an
  # error. The `-L stress` repeat legs stay lenient: a valid filter that
  # selects only non-stress tests legitimately matches nothing there.
  STRICT_ARGS+=(--no-tests=error)
fi

echo "== default configuration =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build "${CTEST_ARGS[@]}" "${STRICT_ARGS[@]}" -j "$JOBS"

if [ "$CRASH_SWEEP" = 1 ]; then
  echo
  echo "== sharded crash-point sweep + offline doctor =="
  # The sweep itself is a ctest target (ShardedCrashPointTest walks a
  # bounded set of crash points across a 4-shard stack and asserts
  # per-shard acked=>durable, running the doctor over every recovered
  # store); re-running it here keeps the leg honest even when a filter
  # excluded it above.
  ctest --test-dir build --output-on-failure --no-tests=error \
    -R 'crash_point_test'
  # Offline doctor end-to-end, through the shipped binary: clean check
  # over a crash-recovered store, then prove --repair actually fixes a
  # corrupted checkpoint slot (exit status carries the verdict).
  ./build/src/sealdb_doctor --shards 4
  ./build/src/sealdb_doctor --shards 4 --corrupt-slot --repair
fi

if [ "$BENCH" = 1 ]; then
  echo
  echo "== bench regression gate =="
  python3 scripts/bench_gate.py --selftest
  # Two runs, best-of: the parallel-compaction config has scheduling
  # noise, so a regression only fails when it reproduces in both.
  (cd build && ./bench/bench_smoke --out=BENCH_smoke.json)
  (cd build && ./bench/bench_smoke --out=BENCH_smoke.2.json)
  python3 scripts/bench_gate.py build/BENCH_smoke.json build/BENCH_smoke.2.json
  # Refresh the committed snapshot at the repo root so the numbers people
  # read in review always come from the gated run they are looking at.
  cp build/BENCH_smoke.json BENCH_smoke.json
  (cd build && ./bench/bench_paper --out=BENCH_paper.json)
  python3 scripts/bench_gate.py --paper build/BENCH_paper.json
fi

echo
echo "== thread sanitizer configuration =="
cmake -B build-tsan -S . -DSEALDB_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
if [ "$FAST" = 1 ]; then
  ctest --test-dir build-tsan "${CTEST_ARGS[@]}" -L stress --repeat until-fail:3
else
  ctest --test-dir build-tsan "${CTEST_ARGS[@]}" "${STRICT_ARGS[@]}" -j "$JOBS"
  ctest --test-dir build-tsan "${CTEST_ARGS[@]}" -L stress --repeat until-fail:3
fi
# Sharded stress leg: the same stress-labelled tests with the stacks forced
# to 4 shards (tests that honour SEALDB_STRESS_SHARDS, e.g. the sharded-DB
# concurrency tests, widen accordingly), still under TSan — per-shard commit
# queues and the shared-drive mutexes only race when shards > 1.
echo
echo "== thread sanitizer, 4-shard stress leg =="
SEALDB_STRESS_SHARDS=4 \
  ctest --test-dir build-tsan "${CTEST_ARGS[@]}" -L stress --repeat until-fail:2

echo
echo "== address sanitizer configuration (Debug, asserts on) =="
cmake -B build-asan -S . -DSEALDB_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-asan -j "$JOBS"
if [ "$FAST" = 1 ]; then
  ctest --test-dir build-asan "${CTEST_ARGS[@]}" -L stress
else
  ctest --test-dir build-asan "${CTEST_ARGS[@]}" "${STRICT_ARGS[@]}" -j "$JOBS"
fi

echo
echo "check.sh: all configurations green"
