// Tests of the fault-tolerance layer (runtime/fault.hpp + the cancellation
// protocol in high_level.hpp/worker.hpp): body-exception containment on
// both engines, deterministic fault injection, deadline expiry converting a
// wedged run into a structured timeout, pool drain after cancellation, and
// bit-identical failure replay via the kReplay schedule controller.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "audit/auditor.hpp"
#include "exec/instruments.hpp"
#include "exec/real_context.hpp"
#include "program/fig1.hpp"
#include "runtime/fault.hpp"
#include "runtime/high_level.hpp"
#include "runtime/scheduler.hpp"
#include "vtime/context.hpp"
#include "vtime/schedule_ctrl.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using fault::FailureRecord;
using fault::FaultPlan;
using runtime::OnBodyError;
using runtime::RunResult;
using runtime::SchedOptions;
using vtime::ControllerKind;

/// Flat Doall whose body throws at iteration `bad_j`.
program::NestedLoopProgram throwing_doall(i64 n, i64 bad_j) {
  return workloads::flat_doall(n, nullptr, [bad_j](ProcId, const IndexVec&,
                                                   i64 j) {
    if (j == bad_j) throw std::runtime_error("boom at j=" + std::to_string(j));
  });
}

// ----------------------------------------------- body-exception containment

TEST(FaultBody, VtimeThrowModeRethrowsTheOriginalException) {
  const auto prog = throwing_doall(40, 7);
  SchedOptions opts;  // default on_body_error = kThrow
  try {
    runtime::run_vtime(prog, 4, opts);
    FAIL() << "expected the body exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "boom at j=7");
  }
}

TEST(FaultBody, VtimeReturnModeFillsTheFailureRecord) {
  const auto prog = throwing_doall(40, 7);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kBodyException);
  EXPECT_EQ(r.failure->iteration, 7);
  EXPECT_NE(r.failure->loop, kNoLoop);
  EXPECT_NE(r.failure->message.find("boom at j=7"), std::string::npos);
  EXPECT_TRUE(r.failure->exception != nullptr);
  EXPECT_EQ(r.failure->progress.size(), 4u);
#if SELFSCHED_TRACE
  EXPECT_EQ(r.counters.cancellations, 1u);
#endif
  // The run stopped early: not every iteration can have executed.
  EXPECT_LT(r.total.iterations, 40u);
}

TEST(FaultBody, ThreadsContainAndReportTheException) {
  const auto prog = throwing_doall(200, 63);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  const RunResult r = runtime::run_threads(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kBodyException);
  EXPECT_EQ(r.failure->iteration, 63);
  EXPECT_NE(r.failure->message.find("boom at j=63"), std::string::npos);
#if SELFSCHED_TRACE
  EXPECT_EQ(r.counters.cancellations, 1u);
#endif
}

TEST(FaultBody, ThreadsThrowModeRethrows) {
  const auto prog = throwing_doall(200, 10);
  SchedOptions opts;
  EXPECT_THROW(runtime::run_threads(prog, 4, opts), std::runtime_error);
}

// ------------------------------------------------------ injected body throw
//
// Tests that need a fault to actually fire are gated on the hooks being
// compiled in (-DSELFSCHED_FAULT=OFF turns every armed plan into a no-op;
// UnmatchedPlanIsHarmless below passes under both configs and stays live).

#if SELFSCHED_FAULT
TEST(FaultInject, BodyThrowFiresAtTheArmedPoint) {
  const auto prog = workloads::flat_doall(40, nullptr);
  FaultPlan plan;
  plan.body_throw(/*loop=*/0, /*iteration=*/5);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_EQ(r.failure->iteration, 5);
  EXPECT_EQ(plan.total_fired(), 1u);
  EXPECT_EQ(r.counters.faults_injected, 1u);

  // reset() re-arms the plan for another (identical) run.
  plan.reset();
  EXPECT_EQ(plan.total_fired(), 0u);
  const RunResult r2 = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r2.failure.has_value());
  EXPECT_EQ(r2.failure->iteration, r.failure->iteration);
  EXPECT_EQ(r2.makespan, r.makespan);
}
#endif  // SELFSCHED_FAULT

TEST(FaultInject, UnmatchedPlanIsHarmless) {
  const auto prog = workloads::flat_doall(40, nullptr);
  SchedOptions plain;
  const RunResult base = runtime::run_vtime(prog, 4, plain);

  FaultPlan plan;
  plan.body_throw(/*loop=*/99, /*iteration=*/5);  // no such loop
  SchedOptions opts;
  opts.fault_plan = &plan;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  EXPECT_FALSE(r.failure.has_value());
  EXPECT_EQ(plan.total_fired(), 0u);
  // Matching is host-side only: the armed run is bit-identical.
  EXPECT_EQ(r.makespan, base.makespan);
  EXPECT_EQ(r.engine_ops, base.engine_ops);
}

// ------------------------------------------------------------ worker stalls

#if SELFSCHED_FAULT
TEST(FaultInject, FiniteStallDelaysButCompletesTheRun) {
  const auto prog = workloads::flat_doall(40, nullptr);
  SchedOptions plain;
  const RunResult base = runtime::run_vtime(prog, 4, plain);

  FaultPlan plan;
  plan.worker_stall(/*loop=*/0, /*iteration=*/3, /*cycles=*/5000);
  SchedOptions opts;
  opts.fault_plan = &plan;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  EXPECT_FALSE(r.failure.has_value());
  EXPECT_EQ(plan.total_fired(), 1u);
  EXPECT_EQ(r.total.iterations, base.total.iterations);
  EXPECT_GT(r.makespan, base.makespan);
}

TEST(FaultInject, IndefiniteStallIsRescuedByTheVtimeDeadline) {
  const auto prog = workloads::flat_doall(40, nullptr);
  FaultPlan plan;
  plan.worker_stall(/*loop=*/0, /*iteration=*/3, /*cycles=*/0);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  opts.deadline_vcycles = 50000;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  // The stall claims the record (it knows the failing point); the deadline
  // merely initiates the cancellation.
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_EQ(r.failure->iteration, 3);
  EXPECT_NE(r.failure->message.find("stall"), std::string::npos);
  EXPECT_EQ(r.counters.deadline_expirations, 1u);
  EXPECT_EQ(r.counters.cancellations, 1u);
}

TEST(FaultInject, IndefiniteStallIsRescuedByTheHostDeadline) {
  const auto prog = workloads::flat_doall(5000, nullptr);
  FaultPlan plan;
  plan.worker_stall(/*loop=*/0, /*iteration=*/3, /*cycles=*/0);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  opts.deadline_ms = 300;
  const RunResult r = runtime::run_threads(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_GE(r.counters.deadline_expirations, 1u);
}
#endif  // SELFSCHED_FAULT

// ----------------------------------------------------------- stall watchdog
//
// The watchdog (SchedOptions::watchdog_stall_ms / _vcycles) rescues a
// namespace that completes no chunk within its budget, with no deadline
// armed at all; the serve retry layer classifies its rescues as transient.

#if SELFSCHED_FAULT
TEST(FaultWatchdog, VtimeRescueOfAnIndefiniteStallIsDeterministic) {
  const auto prog = workloads::flat_doall(40, nullptr);
  FaultPlan plan;
  plan.worker_stall(/*loop=*/0, /*iteration=*/3, /*cycles=*/0);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  opts.watchdog_stall_vcycles = 20000;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  // The stall site claims the record (it knows the wedged point); the
  // watchdog merely initiates the rescue and counts it.
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_EQ(r.failure->iteration, 3);
  EXPECT_EQ(r.counters.serve_watchdog_rescues, 1u);
  EXPECT_EQ(r.counters.cancellations, 1u);
  EXPECT_EQ(r.counters.deadline_expirations, 0u);

  plan.reset();
  const RunResult r2 = runtime::run_vtime(prog, 4, opts);
  EXPECT_EQ(r2.makespan, r.makespan);
  EXPECT_EQ(r2.counters.serve_watchdog_rescues, 1u);
}

TEST(FaultWatchdog, ThreadsStallIsRescuedByTheWatchdog) {
  const auto prog = workloads::flat_doall(5000, nullptr);
  FaultPlan plan;
  plan.worker_stall(/*loop=*/0, /*iteration=*/3, /*cycles=*/0);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  opts.watchdog_stall_ms = 100;  // no deadline anywhere
  const RunResult r = runtime::run_threads(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  EXPECT_GE(r.counters.serve_watchdog_rescues, 1u);
  EXPECT_EQ(r.counters.deadline_expirations, 0u);
}
#endif  // SELFSCHED_FAULT

TEST(FaultWatchdog, ArmedIdleWatchdogIsBitIdenticalOnVtime) {
  // A watchdog that never fires adds no engine ops: the armed run's vtime
  // trajectory equals the unarmed one's bit for bit.
  const auto prog = workloads::flat_doall(40, nullptr);
  SchedOptions plain;
  const RunResult base = runtime::run_vtime(prog, 4, plain);

  SchedOptions armed;
  armed.watchdog_stall_vcycles = 1'000'000'000;
  const RunResult r = runtime::run_vtime(prog, 4, armed);
  EXPECT_FALSE(r.failure.has_value());
  EXPECT_EQ(r.makespan, base.makespan);
  EXPECT_EQ(r.engine_ops, base.engine_ops);
  EXPECT_EQ(r.counters.serve_watchdog_rescues, 0u);
}

TEST(FaultWatchdog, ClaimsTheRecordWhenNoRicherOneExists) {
  // No injected fault: one body oversleeps the budget, so the watchdog
  // itself wins the failure-record election and the result says kWatchdog.
  const auto prog = workloads::flat_doall(
      64, nullptr, [](ProcId, const IndexVec&, i64 j) {
        // Loop indices are 1-based (paper numbering).
        if (j == 1) std::this_thread::sleep_for(std::chrono::milliseconds(400));
      });
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.watchdog_stall_ms = 60;
  const RunResult r = runtime::run_threads(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kWatchdog);
  EXPECT_NE(r.failure->message.find("watchdog"), std::string::npos);
#if SELFSCHED_TRACE
  EXPECT_GE(r.counters.serve_watchdog_rescues, 1u);
#endif
}

// ---------------------------------------------------------------- deadlines

TEST(FaultDeadline, VtimeDeadlineYieldsAStructuredTimeout) {
  // No fault armed: a tight virtual deadline cuts a healthy run short.
  const auto prog = workloads::nested_pair(8, 8, 400);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.deadline_vcycles = 300;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kDeadline);
  EXPECT_EQ(r.failure->iteration, -1);
  EXPECT_EQ(r.failure->progress.size(), 4u);
#if SELFSCHED_TRACE
  EXPECT_EQ(r.counters.deadline_expirations, 1u);
#endif
}

TEST(FaultDeadline, DeadlineExpiryIsDeterministicUnderVtime) {
  const auto prog = workloads::triangular(8, 200);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.deadline_vcycles = 2000;
  const RunResult a = runtime::run_vtime(prog, 5, opts);
  const RunResult b = runtime::run_vtime(prog, 5, opts);
  ASSERT_TRUE(a.failure.has_value());
  ASSERT_TRUE(b.failure.has_value());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.engine_ops, b.engine_ops);
  EXPECT_EQ(a.failure->worker, b.failure->worker);
  EXPECT_EQ(a.total.iterations, b.total.iterations);
}

TEST(FaultDeadline, ThrowModeRaisesFailureError) {
  const auto prog = workloads::nested_pair(8, 8, 400);
  SchedOptions opts;
  opts.deadline_vcycles = 300;  // on_body_error = kThrow
  try {
    runtime::run_vtime(prog, 4, opts);
    FAIL() << "expected FailureError";
  } catch (const fault::FailureError& e) {
    EXPECT_EQ(e.record().kind, FailureRecord::Kind::kDeadline);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

// --------------------------------------------------------------- lock delay

#if SELFSCHED_FAULT
TEST(FaultInject, LockDelayPerturbsDeterministically) {
  const auto prog = workloads::triangular(8, 100);
  FaultPlan plan;
  plan.lock_delay(/*worker=*/1, /*lock_seq=*/2, /*cycles=*/700);
  SchedOptions opts;
  opts.fault_plan = &plan;
  const RunResult a = runtime::run_vtime(prog, 4, opts);
  EXPECT_EQ(plan.total_fired(), 1u);
  plan.reset();
  const RunResult b = runtime::run_vtime(prog, 4, opts);
  EXPECT_EQ(plan.total_fired(), 1u);
  EXPECT_FALSE(a.failure.has_value());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.engine_ops, b.engine_ops);
  EXPECT_EQ(a.counters.faults_injected, 1u);
}
#endif  // SELFSCHED_FAULT

// -------------------------------------------------- drain + replay (tentpole)

TEST(FaultDrain, CancelledRunsLeaveNothingBehindOnBothEngines) {
  // After a mid-flight cancellation the ICB arena, task pool and BAR_COUNT
  // table must be fully reclaimed — a second (clean) run on the same options
  // must still work, and the failed run's conservation is audited in
  // test_audit.cpp.
  for (const bool threads : {false, true}) {
    const auto prog = throwing_doall(300, 100);
    SchedOptions opts;
    opts.on_body_error = OnBodyError::kReturn;
    const RunResult r = threads ? runtime::run_threads(prog, 4, opts)
                                : runtime::run_vtime(prog, 4, opts);
    ASSERT_TRUE(r.failure.has_value()) << "threads=" << threads;
#if SELFSCHED_TRACE
    EXPECT_EQ(r.counters.cancellations, 1u);
#endif
  }
}

#if SELFSCHED_FAULT
TEST(FaultReplay, FailureRecordAndTraceReplayBitIdentically) {
  // Acceptance path: inject a fault under an explored schedule, record the
  // decision trace, then replay it — failure record and event trace must
  // come back bit-for-bit.
  const auto prog = workloads::triangular(8, 100);

  FaultPlan plan;
  plan.body_throw(/*loop=*/0, /*iteration=*/2);
  SchedOptions rec_opts;
  rec_opts.on_body_error = OnBodyError::kReturn;
  rec_opts.fault_plan = &plan;
  rec_opts.trace_events = true;
  rec_opts.schedule.kind = ControllerKind::kSeededShuffle;
  rec_opts.schedule.seed = 123;
  rec_opts.schedule.jitter = 2;
  rec_opts.record_schedule = true;
  const RunResult recorded = runtime::run_vtime(prog, 4, rec_opts);
  ASSERT_TRUE(recorded.failure.has_value());

  plan.reset();
  SchedOptions rep_opts = rec_opts;
  rep_opts.schedule = vtime::replay_of(rec_opts.schedule);
  rep_opts.schedule.decisions = recorded.schedule_decisions;
  const RunResult replayed = runtime::run_vtime(prog, 4, rep_opts);

  EXPECT_FALSE(replayed.schedule_diverged);
  EXPECT_EQ(recorded.makespan, replayed.makespan);
  EXPECT_EQ(recorded.engine_ops, replayed.engine_ops);

  ASSERT_TRUE(replayed.failure.has_value());
  const FailureRecord& fa = *recorded.failure;
  const FailureRecord& fb = *replayed.failure;
  EXPECT_EQ(fa.kind, fb.kind);
  EXPECT_EQ(fa.loop, fb.loop);
  EXPECT_TRUE(fa.ivec == fb.ivec);
  EXPECT_EQ(fa.iteration, fb.iteration);
  EXPECT_EQ(fa.worker, fb.worker);
  EXPECT_EQ(fa.message, fb.message);
  ASSERT_EQ(fa.progress.size(), fb.progress.size());
  for (std::size_t w = 0; w < fa.progress.size(); ++w) {
    EXPECT_EQ(fa.progress[w].iterations, fb.progress[w].iterations);
    EXPECT_EQ(fa.progress[w].dispatches, fb.progress[w].dispatches);
    EXPECT_EQ(fa.progress[w].sync_ops, fb.progress[w].sync_ops);
  }

  ASSERT_EQ(recorded.trace_events.size(), replayed.trace_events.size());
  for (std::size_t k = 0; k < recorded.trace_events.size(); ++k) {
    const trace::TraceEvent& ea = recorded.trace_events[k];
    const trace::TraceEvent& eb = replayed.trace_events[k];
    EXPECT_EQ(ea.worker, eb.worker);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.loop, eb.loop);
    EXPECT_EQ(ea.ivec_hash, eb.ivec_hash);
    EXPECT_EQ(ea.first, eb.first);
    EXPECT_EQ(ea.count, eb.count);
    EXPECT_EQ(ea.start, eb.start);
    EXPECT_EQ(ea.end, eb.end);
  }
}

TEST(FaultAdaptive, StallPerturbsTimingsButRunCompletesAndReplays) {
  // An armed finite worker_stall lands inside a timed chunk window, so the
  // adaptive tuner observes an inflated tau and retunes off it.  The run
  // must still complete the full iteration set, and — because the stall,
  // the timings, and the retune all flow through the deterministic engine —
  // a replay of the armed run must be bit-identical, trace and trajectory
  // included.
  const auto prog = workloads::flat_doall(400, nullptr);

  auto run_armed = [&](bool record, const RunResult* recorded) {
    FaultPlan plan;
    plan.worker_stall(/*loop=*/0, /*iteration=*/9, /*cycles=*/50000);
    SchedOptions opts;
    opts.strategy = runtime::Strategy::adaptive();
    opts.fault_plan = &plan;
    opts.trace_events = true;
    opts.schedule.kind = ControllerKind::kSeededShuffle;
    opts.schedule.seed = 77;
    opts.schedule.jitter = 2;
    opts.record_schedule = record;
    if (recorded) {
      opts.schedule = vtime::replay_of(opts.schedule);
      opts.schedule.decisions = recorded->schedule_decisions;
    }
    const RunResult r = runtime::run_vtime(prog, 4, opts);
    EXPECT_EQ(plan.total_fired(), 1u);
    return r;
  };

  SchedOptions plain;
  plain.strategy = runtime::Strategy::adaptive();
  const RunResult base = runtime::run_vtime(prog, 4, plain);
  const RunResult armed = run_armed(/*record=*/true, nullptr);

  EXPECT_FALSE(armed.failure.has_value()) << "finite stall must complete";
  EXPECT_EQ(armed.total.iterations, base.total.iterations);
  EXPECT_GT(armed.makespan, base.makespan) << "the stall must cost time";
  EXPECT_GE(armed.counters.adapt_feedbacks, 1u);

  const RunResult replayed = run_armed(/*record=*/false, &armed);
  EXPECT_FALSE(replayed.schedule_diverged);
  EXPECT_EQ(armed.makespan, replayed.makespan);
  EXPECT_EQ(armed.engine_ops, replayed.engine_ops);
  EXPECT_EQ(armed.counters.adapt_seeds, replayed.counters.adapt_seeds);
  EXPECT_EQ(armed.counters.adapt_feedbacks,
            replayed.counters.adapt_feedbacks);
  EXPECT_EQ(armed.counters.adapt_retunes, replayed.counters.adapt_retunes);
  ASSERT_EQ(armed.trace_events.size(), replayed.trace_events.size());
  for (std::size_t k = 0; k < armed.trace_events.size(); ++k) {
    const trace::TraceEvent& ea = armed.trace_events[k];
    const trace::TraceEvent& eb = replayed.trace_events[k];
    EXPECT_EQ(ea.worker, eb.worker);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.first, eb.first);
    EXPECT_EQ(ea.count, eb.count);
    EXPECT_EQ(ea.start, eb.start);
    EXPECT_EQ(ea.end, eb.end);
  }
}
#endif  // SELFSCHED_FAULT

// ------------------------------------------------ the instrumentation seam

struct BareContext {};
static_assert(!exec::InstrumentedContext<BareContext>,
              "a context without instruments() must compile every hook away");
static_assert(exec::InstrumentedContext<exec::RContext>);
static_assert(exec::InstrumentedContext<vtime::VContext>);

TEST(FaultHooks, MatchIsInertOnAFaultlessContext) {
  // match_body on a context without the seam is a constant nullptr; this
  // is the bare row bench_hook_overhead measures.
  BareContext ctx;
  IndexVec iv;
  EXPECT_EQ(fault::match_body(ctx, 0, iv, 0, 0), nullptr);
  fault::on_lock(ctx);  // must be a no-op, not a compile error
}

TEST(InstrumentSeam, AllSubscribersAtOnceAreBitIdenticalOnVtime) {
  // Trace events, a live auditor and an armed-but-unmatched plan together
  // do host work only: the simulated run must not move by one cycle.
  const auto prog = program::make_fig1();
  SchedOptions opts;
  opts.record_schedule = true;
  const RunResult bare = runtime::run_vtime(prog, 3, opts);

  audit::Auditor auditor;
  FaultPlan plan;
  plan.body_throw(/*loop=*/999, /*iteration=*/-1);  // never matches
  opts.trace_events = true;
  opts.audit_sink = &auditor;
  opts.fault_plan = &plan;
  const RunResult all = runtime::run_vtime(prog, 3, opts);

  EXPECT_EQ(all.makespan, bare.makespan);
  EXPECT_EQ(all.engine_ops, bare.engine_ops);
  EXPECT_EQ(all.schedule_decisions, bare.schedule_decisions);
  EXPECT_FALSE(bare.schedule_decisions.empty());
  EXPECT_FALSE(all.failure.has_value());
  EXPECT_EQ(plan.total_fired(), 0u);
  EXPECT_EQ(all.audit_violations, 0u) << all.audit_report;
#if SELFSCHED_TRACE
  EXPECT_FALSE(all.trace_events.empty());
#endif
#if SELFSCHED_TRACE && SELFSCHED_AUDIT
  EXPECT_GT(all.counters.audit_events, 0u);
#endif
}

// ------------------------------------------------------- doacross cancelling

#if SELFSCHED_FAULT
TEST(FaultDoacross, CancellationUnblocksPostWaiters) {
  // A body throw in a Doacross chain: workers blocked in the post-wait spin
  // must observe the cancellation and unwind instead of waiting forever for
  // a post that will never come.
  const auto prog = workloads::doacross_chain(64, 1, 0.3, 50);
  FaultPlan plan;
  plan.body_throw(/*loop=*/0, /*iteration=*/10);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.fault_plan = &plan;
  for (const bool threads : {false, true}) {
    plan.reset();
    const RunResult r = threads ? runtime::run_threads(prog, 4, opts)
                                : runtime::run_vtime(prog, 4, opts);
    ASSERT_TRUE(r.failure.has_value()) << "threads=" << threads;
    EXPECT_EQ(r.failure->kind, FailureRecord::Kind::kInjectedFault);
  }
}
#endif  // SELFSCHED_FAULT

// --------------------------------------------------- sharded cancellation

TEST(FaultShard, CancelledShardedRunDrainsAllShardsOnBothEngines) {
  // A body throw mid-run with a sharded index: poison_pool must stop every
  // shard (each shard's index is poisoned past its own hi), the pool must
  // drain, and the cancelled-mode auditor must stay silent.  A second run
  // on recycled ICBs then reuses the shard arrays cleanly.
  for (const bool threads : {false, true}) {
    const auto prog = throwing_doall(300, 100);
    SchedOptions opts;
    opts.on_body_error = OnBodyError::kReturn;
    opts.index_shards = 4;
    opts.audit = true;
    opts.audit_abort = false;
    const RunResult r = threads ? runtime::run_threads(prog, 4, opts)
                                : runtime::run_vtime(prog, 4, opts);
    ASSERT_TRUE(r.failure.has_value()) << "threads=" << threads;
#if SELFSCHED_TRACE
    EXPECT_EQ(r.counters.cancellations, 1u);
#endif
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;

    const auto clean = workloads::flat_doall(120, nullptr);
    const RunResult r2 = threads ? runtime::run_threads(clean, 4, opts)
                                 : runtime::run_vtime(clean, 4, opts);
    EXPECT_FALSE(r2.failure.has_value()) << "threads=" << threads;
    EXPECT_EQ(r2.total.iterations, 120u);
  }
}

TEST(FaultShard, DeadlineExpiryDrainsShardedInstancesDeterministically) {
  // Virtual-deadline cancellation of a run whose instances are sharded:
  // expiry is deterministic (same makespan, ops, iterations twice), yields
  // a structured kDeadline failure, and leaves nothing undrained.
  const auto prog = workloads::nested_pair(8, 8, 400);
  SchedOptions opts;
  opts.on_body_error = OnBodyError::kReturn;
  opts.deadline_vcycles = 300;
  opts.index_shards = 4;
  opts.audit = true;
  opts.audit_abort = false;
  const RunResult a = runtime::run_vtime(prog, 4, opts);
  const RunResult b = runtime::run_vtime(prog, 4, opts);
  ASSERT_TRUE(a.failure.has_value());
  EXPECT_EQ(a.failure->kind, FailureRecord::Kind::kDeadline);
#if SELFSCHED_TRACE
  EXPECT_EQ(a.counters.deadline_expirations, 1u);
#endif
  EXPECT_EQ(a.audit_violations, 0u) << a.audit_report;
  ASSERT_TRUE(b.failure.has_value());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.engine_ops, b.engine_ops);
  EXPECT_EQ(a.total.iterations, b.total.iterations);
}

}  // namespace
}  // namespace selfsched
