#!/usr/bin/env bash
# Repo verification: the tier-1 build+test pass (ROADMAP.md), then a
# ThreadSanitizer build of the threaded-scheduler tests to catch data races
# the plain build can't see.
#
#   tools/check.sh                 # tier-1 + TSan
#   tools/check.sh --fast          # tier-1 only
#   tools/check.sh --bare          # tier-1 in build-bare, with the trace,
#                                  # audit and fault hooks compiled out
#                                  # (SELFSCHED_{TRACE,AUDIT,FAULT}=OFF)
#   tools/check.sh --explore       # tier-1 + TSan + schedule-sweep fuzz smoke
#   tools/check.sh --audit         # unit+explore tiers with the invariant
#                                  # auditor live (SELFSCHED_AUDIT=1 env:
#                                  # every run is audited, violations abort),
#                                  # then an ASan build of the same tiers
#   tools/check.sh --<tier>        # one row of the tier table below: a
#                                  # TSan build of the row's targets and
#                                  # its ctest filter, then the same under
#                                  # ASan with SELFSCHED_AUDIT=1 (every run
#                                  # audited, violations abort), then the
#                                  # row's extra commands (bench acceptance
#                                  # thresholds, stress/chaos harnesses,
#                                  # replay checks)
#   tools/check.sh --label unit    # restrict ctest to one tier
#                                  # (unit | stress | explore; repeatable
#                                  #  via ctest's -L regex semantics)
#
# Honors CMAKE_BUILD_PARALLEL_LEVEL for the build/test job count.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${CMAKE_BUILD_PARALLEL_LEVEL:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)}"

# The tier table.  One row per tier:
#   name | build targets | ctest regex | repeat | extra commands
# Every row runs the same pipeline (run_tier below): build the targets under
# TSan and run the regex, build them under ASan and run the regex with the
# auditor live, then run the extra commands, which may use either build.
# A non-empty `repeat` runs both ctest passes with --repeat until-fail:N
# next to $(nproc)+2 busy-spin processes (killed after each pass, and on
# any exit).
TIERS=(
  # The fault tests plus the suites that exercise cancellation-adjacent
  # machinery (teardown spins, Doacross waits, the thread team's exception
  # path): the cancellation/drain paths are where races and leaks hide.
  "faults|test_fault test_thread_team test_audit|FaultBody|FaultInject|FaultDeadline|FaultDrain|FaultReplay|FaultHooks|FaultDoacross|FaultWatchdog|AuditCancel|ThreadTeam||"
  # Strategy closed-form oracles, the adaptive tuner, the completion-time
  # model edge cases and the stall-under-adaptation fault test; then the
  # E16 acceptance thresholds.
  "adaptive|test_adaptive test_runtime_units test_analysis test_fault bench_adaptive|Strategy|Adaptive|PortfolioSweep|CompletionModel|FaultAdaptive||./build-asan/bench/bench_adaptive > /dev/null"
  # Every sharded-dispatch suite carries "Shard" (shard math, differential
  # matrix, auditor rules, sharded cancellation); then E17's thresholds.
  "shard|test_shard test_runtime_units test_audit test_fault bench_shard_scale|Shard||./build-asan/bench/bench_shard_scale > /dev/null"
  # Batched-ENTER differentials, sharded-arena units and the batch auditor
  # rules; then E18's thresholds.
  "hotpath|test_hotpath test_runtime_units test_audit bench_enter_batch|Hotpath|EnterBatch|AuditBatch||./build-asan/bench/bench_enter_batch > /dev/null"
  # The service suite, then the full serve-stress run (16 submitters, 224
  # audited programs, P=8, oracle-verified, fairness asserted) under both
  # sanitizers, the ASan one writing the fairness report.
  "serve|test_serve serve-stress|^Serve||./build-tsan/tools/serve-stress && ./build-asan/tools/serve-stress --json serve_fairness.json"
  # Retry/quarantine/shed, the stall watchdog and the seeded-jitter backoff;
  # then serve-chaos (224 programs under seeded injection, all audited)
  # under both sanitizers, the recovery report, and the deterministic
  # replay check.
  "resilience|test_serve test_fault test_sync serve-chaos|ServeResilience|FaultWatchdog|Backoff|Serve\.||./build-tsan/tools/serve-chaos && ./build-asan/tools/serve-chaos --json serve_chaos.json && ./build-asan/tools/serve-chaos --deterministic --replay-check"
  # Noisy neighbour: the threads-engine suites plus AuditRun.* repeated
  # until failure next to busy-spinning processes, so a check that is only
  # right on an idle host fails here.
  "noisy|test_scheduler_threads test_thread_team test_audit test_adaptive test_doacross test_extensions test_fault test_hotpath test_property_random test_sections test_shard test_smoke test_trace|Threads|ThreadTeam|AuditRun\.|20|"
)

usage() {
  local names=()
  for row in "${TIERS[@]}"; do names+=("[--${row%%|*}]"); done
  echo "usage: tools/check.sh [--fast] [--bare] [--explore] [--audit]" \
       "${names[*]}" \
       "[--label TIER]" >&2
  exit 2
}

SPINNERS=()
start_spinners() {
  for _ in $(seq $(( $(nproc) + 2 ))); do
    (while :; do :; done) &
    SPINNERS+=("$!")
  done
}
stop_spinners() {
  if [[ ${#SPINNERS[@]} -gt 0 ]]; then
    kill "${SPINNERS[@]}" 2>/dev/null || true
    wait "${SPINNERS[@]}" 2>/dev/null || true
  fi
  SPINNERS=()
}
trap stop_spinners EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# run_tier ROW: the whole TSan -> audited ASan -> extras pipeline of one row.
# The regex may itself contain '|', so the row splits from both ends.
run_tier() {
  local row="$1"
  local name="${row%%|*}"; row="${row#*|}"
  local targets="${row%%|*}"; row="${row#*|}"
  local extra="${row##*|}"; row="${row%|*}"
  local repeat="${row##*|}"
  local regex="${row%|*}"
  local ctest_args=(--output-on-failure -j "$JOBS" -R "$regex")
  [[ -z "$repeat" ]] || ctest_args+=(--repeat "until-fail:$repeat")
  # shellcheck disable=SC2086  # targets is a word list
  for san in thread address; do
    local dir=build-tsan audit=0
    if [[ "$san" == address ]]; then dir=build-asan audit=1; fi
    echo "== $name: $dir build, ctest -R '$regex' (SELFSCHED_AUDIT=$audit)" \
         "${repeat:+x$repeat next to busy-spin processes }=="
    cmake -B "$dir" -S . -DSELFSCHED_SANITIZE="$san"
    cmake --build "$dir" -j "$JOBS" --target $targets
    [[ -z "$repeat" ]] || start_spinners
    (cd "$dir" && SELFSCHED_AUDIT=$audit ctest "${ctest_args[@]}")
    stop_spinners
  done
  if [[ -n "$extra" ]]; then
    echo "== $name: $extra =="
    bash -c "set -euo pipefail; $extra"
  fi
  echo "== OK ($name) =="
}

FAST=0
BARE=0
EXPLORE=0
AUDIT=0
LABEL=""
TIER=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1; shift ;;
    --bare) BARE=1; shift ;;
    --explore) EXPLORE=1; shift ;;
    --audit) AUDIT=1; shift ;;
    --label) LABEL="${2:?--label needs an argument}"; shift 2 ;;
    --*)
      for row in "${TIERS[@]}"; do
        if [[ "--${row%%|*}" == "$1" ]]; then TIER="$row"; fi
      done
      [[ -n "$TIER" ]] || usage
      shift ;;
    *) usage ;;
  esac
done

if [[ -n "$TIER" ]]; then
  run_tier "$TIER"
  exit 0
fi

if [[ "$AUDIT" == 1 ]]; then
  echo "== audit: unit+explore tiers with SELFSCHED_AUDIT=1 =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && SELFSCHED_AUDIT=1 ctest --output-on-failure -j "$JOBS" \
      -L 'unit|explore')
  echo "== audit: ASan build, audited unit tier =="
  cmake -B build-asan -S . -DSELFSCHED_SANITIZE=address
  cmake --build build-asan -j "$JOBS"
  (cd build-asan && SELFSCHED_AUDIT=1 ctest --output-on-failure -j "$JOBS" \
      -L unit)
  echo "== OK (audit) =="
  exit 0
fi

CTEST_ARGS=(--output-on-failure -j "$JOBS")
if [[ -n "$LABEL" ]]; then
  CTEST_ARGS+=(-L "$LABEL")
fi

if [[ "$BARE" == 1 ]]; then
  echo "== bare: tier-1 with every kill switch off${LABEL:+ (label: $LABEL)} =="
  cmake -B build-bare -S . -DSELFSCHED_TRACE=OFF -DSELFSCHED_AUDIT=OFF \
      -DSELFSCHED_FAULT=OFF
  cmake --build build-bare -j "$JOBS"
  (cd build-bare && ctest "${CTEST_ARGS[@]}")
  echo "== OK (bare) =="
  exit 0
fi

echo "== tier-1: build + test suite${LABEL:+ (label: $LABEL)} =="
cmake -B build -S .
cmake --build build -j "$JOBS"
(cd build && ctest "${CTEST_ARGS[@]}")

if [[ "$EXPLORE" == 1 ]]; then
  echo "== explore: schedule-sweep differential fuzz smoke =="
  ./build/tools/selfsched-fuzz --seeds 1:100 --schedules 4 --quiet \
      --engine vtime
  ./build/tools/selfsched-fuzz --seeds 1:50 --schedules 3 --controller pct \
      --quiet --engine vtime
fi

if [[ "$FAST" == 1 ]]; then
  echo "== OK (tier-1 only) =="
  exit 0
fi

echo "== TSan: threaded scheduler tests =="
cmake -B build-tsan -S . -DSELFSCHED_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target test_scheduler_threads
./build-tsan/tests/test_scheduler_threads

echo "== OK =="
