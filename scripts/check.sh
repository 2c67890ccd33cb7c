#!/usr/bin/env bash
# Tier-1 verification plus lint and observability smoke runs.
#
# Default mode:
#   1. configure + build everything (warnings are errors)
#   2. run the unit/integration test suite
#   3. run dedisys_lint over the shipped descriptors: the good ones must
#      pass, the seeded-bad one must fail
#   4. run one bench binary with --json and assert the result file parses
#      and carries latency percentile summaries (p50/p95/p99)
#
# Modes:
#   scripts/check.sh [build-dir]     default tier-1 pass (build dir: build);
#                                    includes the chaos smoke, the golden
#                                    pins and the --asan tier
#   scripts/check.sh --asan          rebuild in build-asan with
#                                    DEDISYS_SANITIZE=address;undefined and
#                                    run the test suite under ASan+UBSan
#   scripts/check.sh --chaos         chaos smoke only: 3 seeded fault
#                                    plans, each run twice; invariants must
#                                    hold and the trace timelines must be
#                                    byte-identical per seed
#   scripts/check.sh --pins [--update]
#                                    golden-pin gate only: recompute the
#                                    SHA-256 of every pinned sim output
#                                    (stdout and --json of the sim-time
#                                    benches, the chaos, sharded and gray
#                                    timelines, the dedisys_trace export)
#                                    and compare with tests/pins.sha256;
#                                    the committed sim-time BENCH_*.json
#                                    must equal a fresh run byte for byte.
#                                    --update rewrites tests/pins.sha256
#   scripts/check.sh --gray          gray-failure gate only: shrinker
#                                    synthetic self-test, 20 random gray plans
#                                    through the invariant harness, a
#                                    byte-identical gray timeline pair and
#                                    the committed regression corpus
#   scripts/check.sh --trace         trace gate only: dedisys_trace
#                                    self-test, the trace-driven invariant
#                                    checker cross-checked against the
#                                    chaos harness on 5 seeded gray plans
#                                    plus the regression corpus, the
#                                    committed split-brain views fixture
#                                    flagged by --check, and an
#                                    exported metrics document validated
#                                    end to end (json_validate --metrics,
#                                    --tree/--top/--check over the file)
#   scripts/check.sh --lint          constraint-lint gate only: dedisys_lint
#                                    with --werror --conflicts over
#                                    examples/descriptors/ — clean files
#                                    pass, the seeded-bad / conflicting /
#                                    tautology descriptors must fail with
#                                    the documented exit codes (1 =
#                                    diagnostics, 2 = parse failure)
#   scripts/check.sh --shard         sharded front-door gate only: the
#                                    test_shard routing/admission pins, a
#                                    cross-shard chaos soak (invariants +
#                                    byte-identical timelines) and a
#                                    saturation smoke whose --json output
#                                    must validate
#   scripts/check.sh --threads       threaded-runtime gate: rebuild in
#                                    build-tsan with DEDISYS_SANITIZE=thread
#                                    and run the threaded smoke + the
#                                    sim-vs-threaded equivalence suite
#                                    under TSan
#   scripts/check.sh --tidy          clang-tidy over src/ (skipped with a
#                                    message when clang-tidy is missing)
#   scripts/check.sh --perf          wall-clock benchmark count gate (not
#                                    part of the default pass): a traced
#                                    3 s perfbench run (seed 1) of each
#                                    workload must exit 0 with "correct":
#                                    true, and on healthy_mix the per-op
#                                    counts, which repeat bit for bit per
#                                    seed, must be exactly 0 repository
#                                    lookups and 0.4 validations.  The
#                                    per-layer timings are printed, never
#                                    gated.  perfbench builds into
#                                    $CARGO_TARGET_DIR or .bench_build.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-2}"

MODE="default"
BUILD_DIR="build"
PIN_UPDATE=""
case "${1:-}" in
  --asan) MODE="asan" ;;
  --chaos) MODE="chaos" ;;
  --pins)
    MODE="pins"
    [ "${2:-}" = "--update" ] && PIN_UPDATE="update" ;;
  --gray) MODE="gray" ;;
  --shard) MODE="shard" ;;
  --trace) MODE="trace" ;;
  --threads) MODE="threads" ;;
  --lint) MODE="lint" ;;
  --tidy) MODE="tidy" ;;
  --perf) MODE="perf" ;;
  "") ;;
  *) BUILD_DIR="$1" ;;
esac

# Chaos smoke: seeded fault plans against the random workload.  Each seed
# runs twice — the soak binary exits nonzero on any invariant violation,
# and the two trace timelines must match byte for byte (determinism).
chaos_smoke() {
  local soak="$1/bench/bench_chaos_soak"
  local a b
  a="$(mktemp /tmp/chaos_a_XXXXXX.txt)"
  b="$(mktemp /tmp/chaos_b_XXXXXX.txt)"
  for seed in 1 2 3; do
    "$soak" --seed "$seed" --ops 40 --events 8 --horizon-ms 250 \
      --timeline > "$a" 2> /dev/null
    "$soak" --seed "$seed" --ops 40 --events 8 --horizon-ms 250 \
      --timeline > "$b" 2> /dev/null
    if ! cmp -s "$a" "$b"; then
      echo "check.sh: chaos seed $seed is not deterministic" >&2
      rm -f "$a" "$b"
      exit 1
    fi
    echo "chaos smoke: seed $seed ok ($(wc -l < "$a") trace lines)"
  done
  rm -f "$a" "$b"
}

# Gray-failure gate: the shrinker must minimize a synthetic plan to its
# culprit op, 20 random gray plans must hold every invariant (plus
# determinism), two runs of one gray seed must emit byte-identical
# timelines, and the committed regression corpus must replay clean.
# (test_gray_chaos shrinks a property of real chaos runs.)
gray_smoke() {
  local gray="$1/bench/bench_gray_chaos"
  "$gray" --selftest 2> /dev/null \
    || { echo "check.sh: gray shrinker self-test failed" >&2; exit 1; }
  echo "gray gate: shrinker self-test ok"
  "$gray" --plans 20 --seed 1 \
    || { echo "check.sh: gray property suite failed" >&2; exit 1; }
  echo "gray gate: 20 random gray plans ok"
  local a b
  a="$(mktemp /tmp/gray_a_XXXXXX.txt)"
  b="$(mktemp /tmp/gray_b_XXXXXX.txt)"
  "$gray" --seed 5 --timeline > "$a" 2> /dev/null
  "$gray" --seed 5 --timeline > "$b" 2> /dev/null
  if ! cmp -s "$a" "$b"; then
    echo "check.sh: gray seed 5 is not deterministic" >&2
    rm -f "$a" "$b"
    exit 1
  fi
  echo "gray gate: timelines byte-identical ($(wc -l < "$a") trace lines)"
  rm -f "$a" "$b"
  "$gray" --corpus tests/gray_corpus \
    || { echo "check.sh: gray corpus replay failed" >&2; exit 1; }
  echo "gray gate: regression corpus ok"
}

# Trace gate: the span analyzer / trace-driven invariant checker must pass
# its synthetic self-test, agree with the chaos harness's state-based
# ground truth on 5 seeded gray plans and on every committed regression
# plan, flag the committed split-brain fixture (the view.change events of
# a run whose views came from outbound reachability alone, under the
# one-way cut of tests/gray_corpus/asym_one_way_cut.plan), and a real
# metrics export must survive the whole offline pipeline: JSON shape
# validation plus the tree/top/check file modes.
trace_smoke() {
  local trace="$1/tools/dedisys_trace"
  local validate="$1/bench/json_validate"
  "$trace" --selftest 2> /dev/null \
    || { echo "check.sh: dedisys_trace self-test failed" >&2; exit 1; }
  echo "trace gate: analyzer/checker self-test ok"
  "$trace" --cross-check 5 --seed 1 \
    || { echo "check.sh: trace/chaos cross-check failed" >&2; exit 1; }
  echo "trace gate: 5 seeded gray plans cross-checked ok"
  "$trace" --corpus tests/gray_corpus \
    || { echo "check.sh: trace corpus cross-check failed" >&2; exit 1; }
  echo "trace gate: regression corpus cross-checked ok"
  local rc=0 verdict
  verdict="$("$trace" --check tests/fixtures/split_brain_views.json)" \
    || rc=$?
  if [ "$rc" -ne 1 ] \
      || ! grep -q "one-primary-per-partition" <<< "$verdict"; then
    echo "check.sh: split-brain fixture: expected exit 1 and a" \
      "one-primary-per-partition violation, got exit $rc" >&2
    exit 1
  fi
  echo "trace gate: split-brain fixture flagged"
  local export_file
  export_file="$(mktemp /tmp/trace_export_XXXXXX.json)"
  "$trace" --export "$export_file" --seed 7 > /dev/null
  "$validate" --metrics "$export_file" \
    || { echo "check.sh: metrics export failed validation" >&2
         rm -f "$export_file"; exit 1; }
  "$trace" --tree "$export_file" > /dev/null \
    && "$trace" --top 3 "$export_file" > /dev/null \
    && "$trace" --check "$export_file" > /dev/null \
    || { echo "check.sh: offline trace modes failed on export" >&2
         rm -f "$export_file"; exit 1; }
  rm -f "$export_file"
  echo "trace gate: exported metrics document validated end to end"
}

# Constraint-lint gate: clean descriptors must pass even with warnings
# promoted and conflict detection on; the seeded-bad descriptors must be
# rejected with the documented exit codes — 1 for diagnostics (unknown
# attribute, conflicting pair, tautology under --werror), 2 for parse
# failures (which must not abort linting of the remaining files).
lint_gate() {
  local lint="$1/tools/dedisys_lint"
  local cls="examples/descriptors/classes.xml"
  local rc
  "$lint" --classes "$cls" --werror --conflicts \
    examples/descriptors/good_flight.xml \
    || { echo "check.sh: lint rejected the clean descriptor" >&2; exit 1; }
  rc=0; "$lint" --classes "$cls" --werror --conflicts \
    examples/descriptors/bad_unknown_attr.xml > /dev/null || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "check.sh: seeded-bad descriptor: expected exit 1, got $rc" >&2
    exit 1
  fi
  rc=0; "$lint" --classes "$cls" --conflicts \
    examples/descriptors/bad_conflict.xml > /dev/null || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "check.sh: conflicting pair: expected exit 1, got $rc" >&2
    exit 1
  fi
  rc=0; "$lint" --classes "$cls" \
    examples/descriptors/warn_tautology.xml > /dev/null || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "check.sh: tautology descriptor must pass without --werror" >&2
    exit 1
  fi
  rc=0; "$lint" --classes "$cls" --werror \
    examples/descriptors/warn_tautology.xml > /dev/null || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "check.sh: tautology descriptor must fail under --werror" >&2
    exit 1
  fi
  local junk
  junk="$(mktemp /tmp/lint_junk_XXXXXX.xml)"
  printf 'not xml at all' > "$junk"
  rc=0; "$lint" --classes "$cls" "$junk" \
    examples/descriptors/good_flight.xml > /dev/null 2>&1 || rc=$?
  rm -f "$junk"
  if [ "$rc" -ne 2 ]; then
    echo "check.sh: parse failure: expected exit 2, got $rc" >&2
    exit 1
  fi
  echo "lint gate: descriptors and exit codes ok"
}

# Shard gate: the routing/admission pins of test_shard, a cross-shard
# chaos soak (invariants must hold and two runs of one seed must emit
# byte-identical timelines), and a saturation smoke — the sweep must show
# a clean low-rate point and real shedding under overload (the binary
# self-asserts that) and its --json report must parse.
shard_smoke() {
  "$1/tests/test_shard" --gtest_brief=1 \
    || { echo "check.sh: test_shard failed" >&2; exit 1; }
  echo "shard gate: routing/admission pins ok"
  local soak="$1/bench/bench_chaos_soak"
  local a b
  a="$(mktemp /tmp/shard_chaos_a_XXXXXX.txt)"
  b="$(mktemp /tmp/shard_chaos_b_XXXXXX.txt)"
  for seed in 1 2; do
    "$soak" --seed "$seed" --nodes 4 --shards 2 --ops 40 --events 8 \
      --horizon-ms 250 --timeline > "$a" 2> /dev/null \
      || { echo "check.sh: sharded chaos seed $seed violated invariants" >&2
           rm -f "$a" "$b"; exit 1; }
    "$soak" --seed "$seed" --nodes 4 --shards 2 --ops 40 --events 8 \
      --horizon-ms 250 --timeline > "$b" 2> /dev/null
    if ! cmp -s "$a" "$b"; then
      echo "check.sh: sharded chaos seed $seed is not deterministic" >&2
      rm -f "$a" "$b"
      exit 1
    fi
    echo "shard gate: cross-shard chaos seed $seed ok"
  done
  rm -f "$a" "$b"
  local out
  out="$(mktemp /tmp/BENCH_shard_smoke_XXXXXX.json)"
  "$1/bench/bench_shard_saturation" --smoke --json "$out" > /dev/null \
    || { echo "check.sh: saturation smoke failed" >&2; rm -f "$out"; exit 1; }
  "$1/bench/json_validate" "$out" \
    || { echo "check.sh: saturation --json failed validation" >&2
         rm -f "$out"; exit 1; }
  rm -f "$out"
  echo "shard gate: saturation smoke + json ok"
}

# Perf gate: perfbench's own output checks plus the exact per-op counts
# of healthy_mix; wall-clock timings are reported only.
perf_gate() {
  local workload line
  for workload in healthy_mix threaded_mix partition_cycle; do
    line="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 3 --trace 1 2> /dev/null | tail -n 1)" \
      || { echo "check.sh: perfbench $workload failed" >&2; exit 1; }
    PERF_RESULT="$line" python3 - "$workload" <<'PY' || exit 1
import json, os, sys

workload = sys.argv[1]
result = json.loads(os.environ["PERF_RESULT"])
metrics = {name: m["value"] for name, m in result["metrics"].items()}
if result.get("correct") is not True:
    sys.exit(f"check.sh: perfbench {workload} failed its output checks")
exact = {"healthy_mix": {"constraints.lookups_per_op": 0,
                         "constraints.validations_per_op": 0.4}}
for name, want in exact.get(workload, {}).items():
    if metrics[name] != want:
        sys.exit(f"check.sh: {workload} {name} = {metrics[name]}, "
                 f"expected exactly {want}")
timings = ", ".join(f"{name} {value:.0f}" for name, value in
                    metrics.items() if name.endswith("_ns"))
print(f"perf gate: {workload} ok (ns, not gated: {timings})")
PY
  done
}

# Golden pins.  Every output below is a pure function of the source and
# the toolchain: the sim-time benches (stdout and --json), the chaos soak
# timelines with chaos_smoke's options, the sharded soak with
# shard_smoke's options, two gray timelines and the dedisys_trace export.
PIN_FILE="tests/pins.sha256"
PIN_BENCHES=(bench_fig5_1_ccm_overhead bench_fig5_2_healthy_degraded
  bench_fig5_3_fewer_nodes bench_fig5_4_replication_scaling
  bench_fig5_6_reconciliation bench_fig5_8_reduced_history
  bench_sec5_5_2_partition_sensitive bench_sec5_5_3_async_constraints
  bench_sim_availability bench_partition_duration bench_ablation_protocols
  bench_conclusion_tradeoffs bench_analysis_pruning bench_shard_saturation)
# Committed sim-time records: BENCH_<name>.json must equal the fresh
# bench_<name>.json byte for byte.
PIN_RECORDS=(analysis_pruning shard_saturation chaos_soak)

# Writes every pinned output into directory $2 (binaries from build $1).
pin_outputs() {
  local b out bench seed
  b="$(cd "$1" && pwd)"
  out="$2"
  (
    cd "$out"
    for bench in "${PIN_BENCHES[@]}"; do
      "$b/bench/$bench" --json "$bench.json" > "$bench.stdout"
    done
    for seed in 1 2 3; do
      "$b/bench/bench_chaos_soak" --seed "$seed" --ops 40 --events 8 \
        --horizon-ms 250 --timeline > "chaos_soak_seed$seed.timeline" \
        2> /dev/null
    done
    for seed in 1 2; do
      "$b/bench/bench_chaos_soak" --seed "$seed" --nodes 4 --shards 2 \
        --ops 40 --events 8 --horizon-ms 250 --timeline \
        > "chaos_soak_shards2_seed$seed.timeline" 2> /dev/null
    done
    for seed in 1 5; do
      "$b/bench/bench_gray_chaos" --seed "$seed" --timeline \
        > "gray_chaos_seed$seed.timeline" 2> /dev/null
    done
    "$b/tools/dedisys_trace" --export dedisys_trace_seed7.json --seed 7 \
      > /dev/null
    "$b/bench/bench_chaos_soak" --seed 1 --ops 40 --events 8 \
      --horizon-ms 250 --json bench_chaos_soak.json > /dev/null 2>&1
  )
}

# Compares fresh digests with $PIN_FILE (or rewrites it with --update)
# and each committed record with its fresh run.
pins_gate() {
  local update="$2" out digests record rc=0
  out="$(mktemp -d /tmp/pins_XXXXXX)"
  pin_outputs "$1" "$out"
  digests="$(cd "$out" && sha256sum -- *)"
  if [ "$update" = "update" ]; then
    {
      echo "# Golden pins: SHA-256 of every seed-pinned sim output, written by"
      echo "# scripts/check.sh --pins --update and checked by check.sh --pins."
      echo "# The digests hold for one toolchain only: g++ 12 (Debian 12.2)."
      echo "# A change that moves a digest names the output and says why."
      echo "$digests"
    } > "$PIN_FILE"
    echo "pins: rewrote $PIN_FILE ($(echo "$digests" | wc -l) outputs)"
  elif ! diff <(grep -v '^#' "$PIN_FILE") <(echo "$digests") > /dev/null; then
    echo "check.sh: golden pins differ from $PIN_FILE:" >&2
    diff <(grep -v '^#' "$PIN_FILE") <(echo "$digests") >&2 || true
    rc=1
  else
    echo "pins: $(echo "$digests" | wc -l) outputs match $PIN_FILE"
  fi
  for record in "${PIN_RECORDS[@]}"; do
    if ! cmp -s "BENCH_$record.json" "$out/bench_$record.json"; then
      echo "check.sh: BENCH_$record.json differs from a fresh run" >&2
      rc=1
    fi
  done
  [ "$rc" -eq 0 ] && echo "pins: committed sim-time BENCH_*.json reproduce"
  rm -rf "$out"
  [ "$rc" -eq 0 ] || exit 1
}

if [ "$MODE" = "asan" ]; then
  BUILD_DIR="build-asan"
  cmake -B "$BUILD_DIR" -S . -DDEDISYS_SANITIZE="address;undefined"
  cmake --build "$BUILD_DIR" -j "$JOBS"
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")
  echo "check.sh --asan: all green"
  exit 0
fi

if [ "$MODE" = "chaos" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_chaos_soak
  chaos_smoke "$BUILD_DIR"
  echo "check.sh --chaos: all green"
  exit 0
fi

if [ "$MODE" = "pins" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target "${PIN_BENCHES[@]}" \
    bench_chaos_soak bench_gray_chaos dedisys_trace
  pins_gate "$BUILD_DIR" "$PIN_UPDATE"
  echo "check.sh --pins: all green"
  exit 0
fi

if [ "$MODE" = "gray" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_gray_chaos
  gray_smoke "$BUILD_DIR"
  echo "check.sh --gray: all green"
  exit 0
fi

if [ "$MODE" = "shard" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target test_shard bench_chaos_soak bench_shard_saturation json_validate
  shard_smoke "$BUILD_DIR"
  echo "check.sh --shard: all green"
  exit 0
fi

if [ "$MODE" = "trace" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target dedisys_trace json_validate
  trace_smoke "$BUILD_DIR"
  echo "check.sh --trace: all green"
  exit 0
fi

if [ "$MODE" = "threads" ]; then
  BUILD_DIR="build-tsan"
  cmake -B "$BUILD_DIR" -S . -DDEDISYS_SANITIZE="thread"
  cmake --build "$BUILD_DIR" -j "$JOBS" --target test_runtime
  "$BUILD_DIR/tests/test_runtime"
  echo "check.sh --threads: all green"
  exit 0
fi

if [ "$MODE" = "lint" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target dedisys_lint
  lint_gate "$BUILD_DIR"
  echo "check.sh --lint: all green"
  exit 0
fi

if [ "$MODE" = "perf" ]; then
  perf_gate
  echo "check.sh --perf: all green"
  exit 0
fi

if [ "$MODE" = "tidy" ]; then
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "check.sh --tidy: clang-tidy not installed, skipping"
    exit 0
  fi
  cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  mapfile -t SOURCES < <(find src tools -name '*.cpp' | sort)
  clang-tidy -p "$BUILD_DIR" "${SOURCES[@]}"
  echo "check.sh --tidy: all green"
  exit 0
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"

(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

# Constraint lint gate (also available standalone as --lint).
lint_gate "$BUILD_DIR"

# Observability smoke: a traced bench run must export parseable JSON with
# latency percentiles.
OUT="$(mktemp /tmp/BENCH_smoke_XXXXXX.json)"
trap 'rm -f "$OUT"' EXIT
"$BUILD_DIR/bench/bench_fig5_2_healthy_degraded" --json "$OUT" > /dev/null
"$BUILD_DIR/bench/json_validate" --require-latencies "$OUT"

# Fault-tolerance gates: chaos smoke, the golden pins and the gray-failure
# gate on this build, then the sanitizer tiers (their own build dirs: TSan
# over the threaded-runtime suite, ASan+UBSan over the full test suite).
chaos_smoke "$BUILD_DIR"
pins_gate "$BUILD_DIR" ""
gray_smoke "$BUILD_DIR"
trace_smoke "$BUILD_DIR"
shard_smoke "$BUILD_DIR"
"$0" --threads
"$0" --asan

echo "check.sh: all green"
