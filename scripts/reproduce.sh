#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, and regenerate
# every table/figure of the paper's evaluation plus the extension
# experiments.  Outputs land in test_output.txt and bench_output.txt at
# the repository root (the files EXPERIMENTS.md refers to).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# The concurrency label (MPSC ring, sharded concurrent runtime, protocol
# race suite, live-migration stress) once more under ThreadSanitizer
# (skipped with DRSM_SKIP_TSAN=1, e.g. on hosts without TSan runtime
# support).  mpsc_ring_test's park/wake storm and concurrent_runtime_test's
# stop() race check the ring's parking handshake and its closed bit; each
# ends a hung run through a watchdog.  migration_stress_test exercises the
# drain/fence/switch/seed handoff and the OnlineController's ring + stats
# pipeline with real client threads — the racy half of the migration
# world (tests labeled both `migration` and `concurrency`).
# ParallelCheckTest runs the model checker's per-depth expansion on 2
# and 4 workers, each expansion task decoding parents into its own
# scratch World and undoing each step it builds there, and reading the
# visited set that the serial merge writes between depths.  Under TSan
# the full suite takes minutes, so this stage runs its N=3 protocol
# sweep and its capped search (about 30 s); the migration and broken
# handoff sweeps run in the plain build's ctest.  The TSan configuration
# fails to build on any construct TSan cannot model (-Werror=tsan, set in
# CMakeLists.txt), so a clean stage covers every handshake.
if [ "${DRSM_SKIP_TSAN:-0}" != "1" ]; then
  cmake -B build-tsan -G Ninja -DDRSM_SANITIZE=thread
  cmake --build build-tsan --target race_test mpsc_ring_test \
    concurrent_runtime_test migration_stress_test check_reduction_test
  ctest --test-dir build-tsan -L concurrency 2>&1 | tee -a test_output.txt
  ./build-tsan/tests/check_reduction_test \
    --gtest_filter='ParallelCheckTest.ThreadCountDoesNotChangeResults:ParallelCheckTest.StateCapIsExactAtEveryThreadCount' \
    2>&1 | tee -a test_output.txt
fi

# Verification stage: exhaustive model check of all eight protocols plus
# the property-based coherence harness (see docs/TESTING.md).  N=3 covers
# the acceptance configurations; the tests' N=2 sweep already ran in ctest.
./build/tools/drsm_check --clients=3 --seeds=200 2>&1 | tee -a test_output.txt

# Migration worlds: every ordered protocol pair's live handoff
# (drain -> fence -> flush -> switch -> seed -> release) checked
# exhaustively at N=2 — all 64 pairs in under a second with the reduced
# frontier.  The `migration` ctest label (already run above) carries the
# N=3 acceptance pairs and the reduced-vs-full equivalence proof.
./build/tools/drsm_check --migration=all --clients=2 2>&1 \
  | tee -a test_output.txt

# One verification pass under ThreadSanitizer as well: the checker and
# oracle share the simulator hot path, so a data race in the tap wiring
# would surface here.  Reduced configuration — TSan is ~10x slower.
# --threads=4 forces the parallel frontier even on small hosts, so the
# workers' reads of the visited set and their result slots run under
# TSan against the serial merge that claims states between depths.
if [ "${DRSM_SKIP_TSAN:-0}" != "1" ]; then
  cmake -B build-tsan -G Ninja -DDRSM_SANITIZE=thread
  cmake --build build-tsan --target drsm_check
  ./build-tsan/tools/drsm_check --clients=2 --seeds=25 --threads=4 \
    2>&1 | tee -a test_output.txt
fi

# The zero-allocation event engine once more under AddressSanitizer +
# UndefinedBehaviorSanitizer: the slab arena, free-list recycling and
# ring-buffer index arithmetic are exactly the code a use-after-recycle
# or wraparound bug would hide in.  concurrent_runtime_test adds the
# shard failure path: an exception unwinding out of a protocol step on a
# shard thread.  check_reduction_test adds the model checker's reused
# scratch Worlds, where a stale or freed machine left behind by an
# in-place decode would hide.  Skipped with DRSM_SKIP_ASAN=1.
if [ "${DRSM_SKIP_ASAN:-0}" != "1" ]; then
  cmake -B build-asan -G Ninja -DDRSM_SANITIZE=address,undefined
  cmake --build build-asan --target event_queue_test sim_determinism_test \
    replication_test concurrent_runtime_test check_reduction_test
  ./build-asan/tests/event_queue_test 2>&1 | tee -a test_output.txt
  ./build-asan/tests/sim_determinism_test 2>&1 | tee -a test_output.txt
  ./build-asan/tests/replication_test 2>&1 | tee -a test_output.txt
  ./build-asan/tests/concurrent_runtime_test 2>&1 | tee -a test_output.txt
  ./build-asan/tests/check_reduction_test 2>&1 | tee -a test_output.txt
fi

# Bench smoke stage: the microbenchmarks under a Release build.  A crash
# (or nonzero exit) here fails reproduction before the full bench sweep.
# No -G: build-release is shared with scripts/bench_all.sh, which uses
# the default generator.
cmake -B build-release -DCMAKE_BUILD_TYPE=Release
cmake --build build-release --target bench_micro bench_runtime
if ! ./build-release/bench/bench_micro >/dev/null; then
  echo "bench smoke failed: bench_micro crashed in Release" >&2
  exit 1
fi
echo "bench smoke: bench_micro (Release) OK"

# bench_runtime smoke: shrunken phases, real threads, live oracle — a
# nonzero exit means a coherence violation under concurrency.  Run in a
# scratch directory so the smoke-size report cannot clobber the committed
# BENCH_runtime.json before the baseline snapshot below.
SMOKE_DIR=$(mktemp -d)
if ! (cd "$SMOKE_DIR" && DRSM_BENCH_SMOKE=1 \
      "$OLDPWD"/build-release/bench/bench_runtime >/dev/null); then
  rm -rf "$SMOKE_DIR"
  echo "bench smoke failed: bench_runtime (oracle or crash)" >&2
  exit 1
fi
rm -rf "$SMOKE_DIR"
echo "bench smoke: bench_runtime (Release, oracle-refereed) OK"

# Snapshot the committed BENCH_*.json baselines before the sweep
# overwrites them in place — the regression gate below diffs the fresh
# reports against this snapshot.
BASELINE_DIR=$(mktemp -d)
trap 'rm -rf "$BASELINE_DIR"' EXIT
cp BENCH_*.json "$BASELINE_DIR"/ 2>/dev/null || true

{
  for b in build/bench/*; do
    if [ -x "$b" ] && [ -f "$b" ]; then
      echo "===== $(basename "$b") ====="
      "$b"
      echo
    fi
  done
} 2>&1 | tee bench_output.txt

# Regression gate: every regenerated report must match its committed
# baseline bit for bit on the accuracy fields (see
# tools/drsm_bench_diff.cc).  The sweep above runs the default (Debug)
# build against Release-generated baselines, so the wall-ratio limit is
# raised to a runaway-only backstop here; scripts/bench_all.sh is the
# like-for-like timing comparison.
cmake --build build --target drsm_bench_diff
for baseline in "$BASELINE_DIR"/BENCH_*.json; do
  [ -f "$baseline" ] || continue
  fresh=$(basename "$baseline")
  if [ -f "$fresh" ]; then
    ./build/tools/drsm_bench_diff --baseline="$baseline" --fresh="$fresh" \
      --max-wall-ratio=100 2>&1 | tee -a bench_output.txt
  else
    echo "bench gate: $fresh not regenerated by the sweep" >&2
    exit 1
  fi
done
