// Strategy-conformance suite for the adaptive portfolio (ISSUE 7): the
// kAdaptive meta-strategy must seed at the analytical optimum, retune from
// per-chunk timing feedback, stay bit-replayable on the vtime engine, and —
// like every new portfolio member — preserve the serial iteration multiset
// and the auditor's conservation invariants under schedule sweeps.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "helpers.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/verify.hpp"
#include "trace/ring.hpp"
#include "vtime/costs.hpp"
#include "workloads/iteration_cost.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using runtime::RunResult;
using runtime::SchedOptions;
using runtime::Strategy;

/// The dispatched-chunk log of a run: every kChunk trace event as
/// (worker, loop, first, count, start, end) in merged start-time order.
/// Two vtime runs at the same seed must produce identical logs.
using ChunkGrant = std::tuple<ProcId, LoopId, i64, i64, Cycles, Cycles>;

std::vector<ChunkGrant> chunk_log(const RunResult& r) {
  std::vector<ChunkGrant> out;
  for (const auto& e : r.trace_events) {
    if (e.kind == trace::EventKind::kChunk) {
      out.emplace_back(e.worker, e.loop, e.first, e.count, e.start, e.end);
    }
  }
  return out;
}

// ------------------------------------------------- deterministic replay --

TEST(Adaptive, VtimeChunkTrajectoryBitIdenticalAcrossRuns) {
  // Same program, same cost model, same schedule seed: the whole adaptation
  // trajectory — every grant's (worker, first, count, start, end), the
  // schedule-decision trace, and the adapt_* counters — must match bit for
  // bit, because all adaptive state flows through engine-serialized sync
  // ops and a host-pure argmin.
  auto run_once = [] {
    auto prog =
        workloads::flat_doall(600, workloads::uniform_cost(7, 20, 400));
    SchedOptions opts;
    opts.strategy = Strategy::adaptive();
    opts.trace_events = true;
    opts.record_schedule = true;
    opts.schedule.kind = vtime::ControllerKind::kSeededShuffle;
    opts.schedule.seed = 11;
    opts.schedule.jitter = 3;
    return runtime::run_vtime(prog, 8, opts);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.engine_ops, b.engine_ops);
  EXPECT_EQ(a.schedule_decisions, b.schedule_decisions);
  EXPECT_EQ(chunk_log(a), chunk_log(b)) << "adaptation trajectory diverged";
  EXPECT_EQ(a.counters.adapt_seeds, b.counters.adapt_seeds);
  EXPECT_EQ(a.counters.adapt_feedbacks, b.counters.adapt_feedbacks);
  EXPECT_EQ(a.counters.adapt_retunes, b.counters.adapt_retunes);
  EXPECT_EQ(a.trace_events_dropped, 0u);
}

// These three read the chunk trajectory from trace events.
#if SELFSCHED_TRACE

std::vector<i64> chunk_sizes(const RunResult& r) {
  std::vector<i64> out;
  for (const auto& e : r.trace_events) {
    if (e.kind == trace::EventKind::kChunk) out.push_back(e.count);
  }
  return out;
}

/// The vtime engine's tuner inputs, replicated from adaptive_inputs():
/// o1 = 2 sync ops per dispatch, o2 = 3 sync ops + 4 list steps per SEARCH.
runtime::AdaptiveInputs vtime_inputs(const vtime::CostModel& c, i64 tau) {
  runtime::AdaptiveInputs in;
  in.tau = static_cast<double>(tau);
  in.o1 = 2.0 * static_cast<double>(c.sync_op);
  in.o2 = 3.0 * static_cast<double>(c.sync_op) +
          4.0 * static_cast<double>(c.list_step);
  return in;
}

TEST(Adaptive, SeedChunkMatchesAnalyticalModel) {
  // The first dispatched chunk of a fresh instance must be exactly the
  // completion-time optimum for the prior tau under the vtime cost model.
  SchedOptions opts;
  opts.strategy = Strategy::adaptive(/*tau_prior=*/10);
  opts.trace_events = true;
  const auto in = vtime_inputs(opts.costs, 10);
  const i64 k0 = runtime::adaptive_chunk_for(in.tau, in.o1, in.o2,
                                             /*b=*/800, /*procs=*/8);
  auto prog = workloads::flat_doall(800, workloads::constant_cost(400));
  const RunResult r = runtime::run_vtime(prog, 8, opts);
  const auto sizes = chunk_sizes(r);
  ASSERT_FALSE(sizes.empty());
  EXPECT_EQ(sizes.front(), k0)
      << "seed chunk diverged from the analysis model";
  EXPECT_EQ(r.counters.adapt_seeds, 1u) << "exactly one seeding election";
}

TEST(Adaptive, FeedbackRetunesChunkTowardMeasuredTau) {
  // Prior tau = 10 vcycles but bodies cost 400: the measured tau must pull
  // the chunk size down (tail imbalance dominates at large tau) within the
  // instance.  The trajectory must actually move — at least one retune and
  // at least two distinct non-tail chunk sizes.
  SchedOptions opts;
  opts.strategy = Strategy::adaptive(/*tau_prior=*/10);
  opts.trace_events = true;
  auto prog = workloads::flat_doall(800, workloads::constant_cost(400));
  const RunResult r = runtime::run_vtime(prog, 8, opts);
  EXPECT_GE(r.counters.adapt_feedbacks, 1u);
  EXPECT_GE(r.counters.adapt_retunes, 1u);
  const auto sizes = chunk_sizes(r);
  ASSERT_GE(sizes.size(), 2u);
  const std::set<i64> distinct(sizes.begin(), sizes.end());
  EXPECT_GE(distinct.size(), 2u) << "chunk size never moved";
  // Retuned steady-state chunks are smaller than the optimistic seed.
  EXPECT_LT(sizes[sizes.size() / 2], sizes.front());
}

TEST(Adaptive, HonorsMinAndMaxChunkClamps) {
  SchedOptions opts;
  opts.strategy = Strategy::adaptive(/*tau_prior=*/0, /*min_chunk=*/4,
                                     /*max_chunk=*/6);
  opts.trace_events = true;
  auto prog = workloads::flat_doall(500, workloads::uniform_cost(3, 10, 500));
  const RunResult r = runtime::run_vtime(prog, 8, opts);
  const auto sizes = chunk_sizes(r);
  ASSERT_FALSE(sizes.empty());
  EXPECT_GE(sizes.front(), 4);
  for (const i64 c : sizes) {
    EXPECT_LE(c, 6) << "chunk exceeded adapt_max";
    EXPECT_GE(c, 1);
  }
}

#endif  // SELFSCHED_TRACE

// ------------------------------------------- sweep differential + audit --

runtime::ProgramBuilder random_builder(u64 seed) {
  workloads::RandomProgramConfig cfg;
  return [seed, cfg](const program::BodyFactory& bodies) {
    return workloads::random_program(seed, cfg, bodies);
  };
}

class PortfolioSweep : public ::testing::TestWithParam<u32> {};

TEST_P(PortfolioSweep, PreservesIterationSetAndAuditConservation) {
  // Every new portfolio member, swept across seeded-shuffle schedules with
  // the invariant auditor shadowing each run: the parallel iteration
  // multiset must equal the serial oracle and the auditor must stay silent.
  const std::vector<Strategy> portfolio = {
      Strategy::factoring2(),
      Strategy::weighted_factoring(0x0102040101020401ULL),
      Strategy::trapezoid_tuned(),
      Strategy::random_steal(99),
      Strategy::adaptive(),
  };
  const Strategy s = portfolio[GetParam()];
  for (const u64 seed : {3ULL, 17ULL}) {
    SchedOptions opts;
    opts.strategy = s;
    opts.audit = true;  // audit_abort=true: violations fail loudly
    runtime::ScheduleSweep sweep;
    sweep.schedules = 4;
    sweep.base_seed = 21;
    const auto d = runtime::differential_check(
        random_builder(seed), /*procs=*/4, runtime::EngineKind::kVtime, opts,
        sweep);
    EXPECT_TRUE(d.ok) << s.name() << " seed=" << seed << ": " << d.detail;
    EXPECT_EQ(d.schedules_run, 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllNewKinds, PortfolioSweep,
                         ::testing::Range(0u, 5u));

TEST(Adaptive, ThreadsEngineMatchesSerialOracle) {
  // The threaded clock path (CLOCK_THREAD_CPUTIME_ID feedback) must not
  // perturb correctness: same differential oracle, real threads.
  SchedOptions opts;
  opts.strategy = Strategy::adaptive();
  opts.audit = true;
  const auto d = runtime::differential_check(
      random_builder(5), /*procs=*/4, runtime::EngineKind::kThreads, opts);
  EXPECT_TRUE(d.ok) << d.detail;
}

TEST(Adaptive, CancellationStopsAdaptiveGrabs) {
  // A poisoned index must defeat the adaptive grab like any other strategy:
  // a vtime deadline cancels mid-run and the pool still drains.
  SchedOptions opts;
  opts.strategy = Strategy::adaptive();
  opts.on_body_error = runtime::OnBodyError::kReturn;
  opts.deadline_vcycles = 2000;  // well before ~800*400 cycles of work
  auto prog = workloads::flat_doall(800, workloads::constant_cost(400));
  const RunResult r = runtime::run_vtime(prog, 8, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, fault::FailureRecord::Kind::kDeadline);
}

}  // namespace
}  // namespace selfsched
