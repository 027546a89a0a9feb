// Instance-churn hot path (batched ENTER + sharded ICB arena, ISSUE 9):
// the batched-vs-unbatched differential battery across the strategy
// portfolio, shard counts and both engines; default-path bit-identity
// (enter_batch=false / icb_shards=1 must be indistinguishable from the
// seed path); recorded batched runs replaying bit for bit; the directed
// regressions for the eval_bound constant-path bound check and the named
// normalizer diagnostic; and the sharded-arena / quiescence-token unit
// surface (steal migration, configure-once, atomic allocated() sampling).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "audit/auditor.hpp"
#include "exec/real_context.hpp"
#include "program/ast.hpp"
#include "runtime/bar_count.hpp"
#include "runtime/high_level.hpp"
#include "runtime/icb_pool.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/verify.hpp"
#include "vtime/costs.hpp"
#include "workloads/iteration_cost.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using exec::RContext;
using runtime::EngineKind;
using runtime::RunResult;
using runtime::SchedOptions;
using runtime::Strategy;

/// The full strategy portfolio, in Kind order.
const std::vector<Strategy>& portfolio() {
  static const std::vector<Strategy> p = {
      Strategy::self(),
      Strategy::chunked(3),
      Strategy::gss(),
      Strategy::factoring(),
      Strategy::trapezoid(8, 2),
      Strategy::factoring2(),
      Strategy::weighted_factoring(0x0102040101020401ULL),
      Strategy::trapezoid_tuned(),
      Strategy::random_steal(7),
      Strategy::adaptive(),
  };
  return p;
}

/// Doall nest with a wide sibling set: an outer parallel loop of n1
/// instances of an inner Doall of n2 iterations.  Entering the outer loop
/// activates all n1 siblings in one walk — exactly the Fig. 8(b) set a
/// batched ENTER coalesces into one pool pass.
runtime::ProgramBuilder doall_builder(i64 n1, i64 n2) {
  return [n1, n2](const program::BodyFactory& bodies) {
    program::NodeSeq top;
    top.push_back(program::par(
        n1, program::seq(program::doall("inner", n2, bodies("inner"),
                                        workloads::constant_cost(20)))));
    return program::NestedLoopProgram(std::move(top));
  };
}

/// Doacross chain under an activating parallel container, so batched
/// flushes carry needs_da instances through init's flag-array sizing.
runtime::ProgramBuilder doacross_builder(i64 n) {
  return [n](const program::BodyFactory& bodies) {
    program::DoacrossSpec spec;
    spec.distance = 2;
    spec.post_fraction = 0.5;
    program::NodeSeq top;
    top.push_back(program::doacross("chain", n, spec, bodies("chain"),
                                    workloads::constant_cost(30)));
    return program::NestedLoopProgram(std::move(top));
  };
}

/// Every kChunk trace event as (worker, loop, first, count, start, end) in
/// merged order — the grant log two bit-identical runs must agree on.
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

// ------------------------------------------ differential matrix (vtime) --

class EnterBatchMatrix
    : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(EnterBatchMatrix, BatchedDoallMatchesSerialOracleAcrossSchedules) {
  const auto [si, g] = GetParam();
  SchedOptions opts;
  opts.strategy = portfolio()[si];
  opts.enter_batch = true;
  opts.icb_shards = g;
  opts.audit = true;  // audit_abort=true: any lifecycle forgery fails loudly
  runtime::ScheduleSweep sweep;
  sweep.schedules = 4;
  sweep.base_seed = 53;
  const auto d = runtime::differential_check(
      doall_builder(6, 30), /*procs=*/6, EngineKind::kVtime, opts, sweep);
  EXPECT_TRUE(d.ok) << portfolio()[si].name() << " G=" << g << ": "
                    << d.detail;
  EXPECT_EQ(d.schedules_run, 4u);
}

TEST_P(EnterBatchMatrix, BatchedDoacrossMatchesSerialOracleAcrossSchedules) {
  const auto [si, g] = GetParam();
  SchedOptions opts;
  opts.doacross_strategy = portfolio()[si];
  opts.enter_batch = true;
  opts.icb_shards = g;
  opts.audit = true;
  runtime::ScheduleSweep sweep;
  sweep.schedules = 4;
  sweep.base_seed = 61;
  const auto d = runtime::differential_check(
      doacross_builder(40), /*procs=*/6, EngineKind::kVtime, opts, sweep);
  EXPECT_TRUE(d.ok) << portfolio()[si].name() << " G=" << g << ": "
                    << d.detail;
  EXPECT_EQ(d.schedules_run, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllShardCounts, EnterBatchMatrix,
    ::testing::Combine(::testing::Range(0u, 10u),
                       ::testing::Values(1u, 2u, 4u)));

TEST(EnterBatchThreads, BatchedMatchesSerialOracleOnThreads) {
  // Real contention: batched flushes racing searchers and the sharded
  // arena's steal path under actual threads, audited.
  for (const u32 g : {2u, 4u}) {
    SchedOptions opts;
    opts.strategy = Strategy::gss();
    opts.enter_batch = true;
    opts.icb_shards = g;
    opts.audit = true;
    const auto d = runtime::differential_check(
        doall_builder(6, 40), /*procs=*/4, EngineKind::kThreads, opts);
    EXPECT_TRUE(d.ok) << "G=" << g << ": " << d.detail;
  }
}

TEST(EnterBatchRandomSweep, RandomProgramsHoldUnderBatching) {
  // Seeded random nests (serial containers, IFs, Doacross leaves, zero and
  // expression bounds): vacuous completions racing the batch collection,
  // guard chains splitting the sibling set, mixed pool_list destinations.
  for (u64 seed = 900; seed < 908; ++seed) {
    auto builder = [seed](const program::BodyFactory& bodies) {
      return workloads::random_program(seed, {}, bodies);
    };
    SchedOptions opts;
    opts.enter_batch = true;
    opts.icb_shards = 1 + static_cast<u32>(seed % 4);
    opts.audit = true;
    const auto d = runtime::differential_check(builder, 5, EngineKind::kVtime,
                                               opts);
    EXPECT_TRUE(d.ok) << "seed=" << seed << " G=" << opts.icb_shards << "\n"
                      << d.detail;
  }
}

// ------------------------------------------------- determinism / replay --

TEST(HotpathFlatEquivalence, ExplicitDefaultsAreBitIdenticalToSeedPath) {
  // enter_batch=false / icb_shards=1 must not merely be correct — they
  // must take the flat seed code path: identical makespan, op count and
  // grant log to a run with all-default options, and no batch or steal
  // counter may tick.
  const SchedOptions defaults;
  EXPECT_FALSE(defaults.enter_batch) << "batching must be opt-in";
  EXPECT_EQ(defaults.icb_shards, 1u) << "single freelist must be the default";
  auto run_with = [](bool explicit_flags) {
    SchedOptions opts;
    opts.strategy = Strategy::factoring2();
    if (explicit_flags) {
      opts.enter_batch = false;
      opts.icb_shards = 1;
    }
    opts.trace_events = true;
    auto prog = workloads::nested_pair(4, 50, 30);
    return runtime::run_vtime(prog, 8, opts);
  };
  const RunResult seed = run_with(false);
  const RunResult flat = run_with(true);
  EXPECT_EQ(seed.makespan, flat.makespan);
  EXPECT_EQ(seed.engine_ops, flat.engine_ops);
  EXPECT_EQ(chunk_log(seed), chunk_log(flat));
  EXPECT_EQ(flat.counters.enter_batches, 0u);
  EXPECT_EQ(flat.counters.icb_steals, 0u);
}

TEST(EnterBatchReplay, RecordedBatchedRunReplaysBitIdentical) {
  // A batched, arena-sharded run under a seeded-shuffle schedule: record
  // it, replay the decision trace, and require the whole execution — the
  // grant log and the batch/steal counters included — to match bit for
  // bit.
  for (const u64 seed : {5ull, 13ull}) {
    SchedOptions rec_opts;
    rec_opts.strategy = Strategy::gss();
    rec_opts.enter_batch = true;
    rec_opts.icb_shards = 4;
    rec_opts.trace_events = true;
    rec_opts.record_schedule = true;
    rec_opts.schedule.kind = vtime::ControllerKind::kSeededShuffle;
    rec_opts.schedule.seed = 200 + seed;
    rec_opts.schedule.jitter = 3;
    auto prog = workloads::nested_pair(6, 30, 20);
    const RunResult recorded = runtime::run_vtime(prog, 8, rec_opts);
#if SELFSCHED_TRACE
    ASSERT_GT(recorded.counters.enter_batches, 0u)
        << "seed=" << seed << ": no batched flush to replay";
#endif

    SchedOptions rep_opts = rec_opts;
    rep_opts.schedule = vtime::replay_of(rec_opts.schedule);
    rep_opts.schedule.decisions = recorded.schedule_decisions;
    auto prog2 = workloads::nested_pair(6, 30, 20);
    const RunResult replayed = runtime::run_vtime(prog2, 8, rep_opts);

    EXPECT_FALSE(replayed.schedule_diverged) << "seed=" << seed;
    EXPECT_EQ(recorded.makespan, replayed.makespan) << "seed=" << seed;
    EXPECT_EQ(recorded.engine_ops, replayed.engine_ops) << "seed=" << seed;
    EXPECT_EQ(chunk_log(recorded), chunk_log(replayed)) << "seed=" << seed;
    EXPECT_EQ(recorded.counters.enter_batches,
              replayed.counters.enter_batches);
    EXPECT_EQ(recorded.counters.icb_steals, replayed.counters.icb_steals);
    EXPECT_EQ(recorded.trace_events_dropped, 0u);
  }
}

// ----------------------------------------------------- counter semantics --

TEST(EnterBatchCounters, BatchAndStealCountersAreConsistent) {
  // Every batched flush activates at least one instance (enters >=
  // enter_batches), every activation is still released exactly once, and
  // with one arena shard there is nowhere to steal from.
  SchedOptions opts;
  opts.strategy = Strategy::gss();
  opts.enter_batch = true;
  opts.icb_shards = 1;
  opts.audit = true;
  auto prog = workloads::nested_pair(6, 40, 25);
  const RunResult r = runtime::run_vtime(prog, 8, opts);
#if SELFSCHED_TRACE
  EXPECT_GT(r.counters.enter_batches, 0u);
  EXPECT_GE(r.total.enters, r.counters.enter_batches);
#endif
  EXPECT_EQ(r.total.enters, r.total.icbs_released);
  EXPECT_EQ(r.counters.icb_steals, 0u);
}

TEST(EnterBatchCounters, BatchedRunsAuditCleanOnBothEngines) {
  for (const u32 g : {2u, 8u}) {
    SchedOptions opts;
    opts.enter_batch = true;
    opts.icb_shards = g;
    opts.strategy = Strategy::gss();
    audit::Auditor vsink;
    opts.audit_sink = &vsink;
    const RunResult rv =
        runtime::run_vtime(workloads::nested_pair(3, 40, 25), 6, opts);
    EXPECT_EQ(rv.audit_violations, 0u) << "vtime G=" << g << "\n"
                                       << rv.audit_report;
#if SELFSCHED_TRACE
    EXPECT_GT(rv.counters.enter_batches, 0u);
#endif

    audit::Auditor tsink;
    opts.audit_sink = &tsink;
    const RunResult rt =
        runtime::run_threads(workloads::nested_pair(3, 40, 25), 4, opts);
    EXPECT_EQ(rt.audit_violations, 0u) << "threads G=" << g << "\n"
                                       << rt.audit_report;
#if SELFSCHED_TRACE
    EXPECT_GT(rt.counters.enter_batches, 0u);
#endif
  }
}

TEST(EnterBatchCancel, CancelledBatchedRunDrainsClean) {
  // A body failure mid-batch: the cancellation drain must reclaim batched
  // ICBs parked across arena shards with the auditor silent.
  auto cancelling = [] {
    return workloads::flat_doall(300, nullptr,
                                 [](ProcId, const IndexVec&, i64 j) {
                                   if (j == 100) {
                                     throw std::runtime_error("x");
                                   }
                                 });
  };
  for (const auto engine : {EngineKind::kVtime, EngineKind::kThreads}) {
    audit::Auditor auditor;
    SchedOptions opts;
    opts.enter_batch = true;
    opts.icb_shards = 4;
    opts.audit_sink = &auditor;
    opts.on_body_error = runtime::OnBodyError::kReturn;
    const RunResult r = engine == EngineKind::kVtime
                            ? runtime::run_vtime(cancelling(), 4, opts)
                            : runtime::run_threads(cancelling(), 4, opts);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  }
}

// ------------------------------------- eval_bound regression (satellite) --

TEST(HotpathBound, EvalBoundRejectsNegativeConstantBound) {
  // Regression: the constant path used to return the raw value unchecked,
  // so a raw CompiledProgram (no normalizer) fed a negative trip count
  // straight into Icb::init and BAR_COUNT.  The check is host-side and
  // release-mode.
  RContext ctx(0, 1);
  IndexVec ivec;
  EXPECT_EQ(runtime::eval_bound(ctx, program::Bound(7), ivec), 7);
  EXPECT_EQ(runtime::eval_bound(ctx, program::Bound(0), ivec), 0);
  EXPECT_THROW(runtime::eval_bound(ctx, program::Bound(-5), ivec),
               std::logic_error);
}

TEST(HotpathBound, NormalizerNamesTheOffendingLoopInTheDiagnostic) {
  // Regression: the compile-time rejection used to fire before leaf
  // auto-naming and without naming the loop at all, so a multi-loop
  // program's diagnostic gave no way to find the offender.
  auto diag_of = [](program::NodeSeq top) {
    try {
      program::NestedLoopProgram p(std::move(top));
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  program::NodeSeq named;
  named.push_back(program::doall("offender", -3));
  const std::string d1 = diag_of(std::move(named));
  EXPECT_NE(d1.find("offender"), std::string::npos) << d1;
  EXPECT_NE(d1.find("-3"), std::string::npos) << d1;

  // An unnamed leaf is auto-named before the check, so the diagnostic
  // carries the same "L<k>" label every other report uses.
  program::NodeSeq anon;
  anon.push_back(program::doall("", -2));
  const std::string d2 = diag_of(std::move(anon));
  EXPECT_NE(d2.find("L1"), std::string::npos) << d2;

  // Container loops have no leaf name; the diagnostic says so explicitly.
  program::NodeSeq container;
  container.push_back(program::par(-4, program::seq(program::doall("x", 3))));
  const std::string d3 = diag_of(std::move(container));
  EXPECT_NE(d3.find("<anonymous>"), std::string::npos) << d3;
}

// ------------------------------------------- sharded-arena unit surface --

TEST(HotpathPool, StealMigratesBlocksAcrossShards) {
  // Two shards, two workers (block mapping homes worker 0 on shard 0 and
  // worker 1 on shard 1): a block freed on shard 0 must satisfy worker 1's
  // acquire via the steal path — same address, no arena growth — and then
  // migrate to shard 1 on release.
  runtime::IcbPool<RContext> pool;
  pool.configure(2);
  EXPECT_EQ(pool.shard_count(), 2u);
  RContext c0(0, 2);
  RContext c1(1, 2);
  runtime::Icb<RContext>* p = pool.acquire(c0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(pool.allocated(), 1u);
  pool.release(c0, p);
  runtime::Icb<RContext>* q = pool.acquire(c1);
  EXPECT_EQ(q, p) << "home shard empty: the acquire must steal, not grow";
  EXPECT_EQ(pool.allocated(), 1u);
  pool.release(c1, q);
  // Now homed on shard 1: worker 1 reacquires it without stealing; worker
  // 0 has to grow a fresh block.
  EXPECT_EQ(pool.acquire(c1), p);
  EXPECT_NE(pool.acquire(c0), p);
  EXPECT_EQ(pool.allocated(), 2u);
}

TEST(HotpathPool, AcquireBatchDrainsHomeThenStealsThenGrows) {
  runtime::IcbPool<RContext> pool;
  pool.configure(2);
  RContext c0(0, 2);
  RContext c1(1, 2);
  // Park three free blocks on shard 0.
  std::vector<runtime::Icb<RContext>*> seedv;
  pool.acquire_batch(c0, seedv, 3);
  for (auto* p : seedv) pool.release(c0, p);
  ASSERT_EQ(pool.allocated(), 3u);
  // Worker 1 wants four: home shard 1 is empty, three come from the steal
  // sweep over shard 0, the last grows shard 1's arena.
  std::vector<runtime::Icb<RContext>*> got;
  pool.acquire_batch(c1, got, 4);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(pool.allocated(), 4u);
  for (auto* p : seedv) {
    EXPECT_NE(std::find(got.begin(), got.end(), p), got.end())
        << "every parked block must be reused before the arena grows";
  }
}

TEST(HotpathPool, ConfigureOnPopulatedPoolThrows) {
  runtime::IcbPool<RContext> pool;
  RContext ctx(0, 1);
  pool.release(ctx, pool.acquire(ctx));
  EXPECT_THROW(pool.configure(4), std::logic_error);
}

TEST(HotpathPool, AllocatedIsSafeToSampleUnderChurn) {
  // Regression for the allocated() data race: a host thread sampling the
  // high-water mark while workers churn the sharded freelists must be
  // clean under TSan (the counter is atomic; the freelists stay locked).
  runtime::IcbPool<RContext> pool;
  pool.configure(4);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3000;
  std::atomic<bool> done{false};
  std::atomic<u64> max_seen{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const u64 a = pool.allocated();
      u64 prev = max_seen.load();
      while (a > prev && !max_seen.compare_exchange_weak(prev, a)) {
      }
    }
  });
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&pool, t] {
      RContext ctx(static_cast<ProcId>(t), kThreads);
      std::vector<runtime::Icb<RContext>*> mine;
      for (int r = 0; r < kRounds; ++r) {
        runtime::Icb<RContext>* p = pool.acquire(ctx);
        p->init(static_cast<LoopId>(t), 1 + r % 7, IndexVec{}, r % 3 == 0);
        mine.push_back(p);
        if (mine.size() >= 4) {
          pool.release(ctx, mine.back());
          mine.pop_back();
        }
      }
      for (auto* p : mine) pool.release(ctx, p);
    });
  }
  for (auto& t : team) t.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_LE(pool.allocated(), static_cast<u64>(kThreads) * 5);
  EXPECT_LE(max_seen.load(), pool.allocated());
}

// ------------------------------------------- quiescence token (satellite) --

#ifndef NDEBUG

TEST(HotpathQuiescence, HostAccessorsThrowWhileTokenIsRevoked) {
  // The token is granted by default (hand-driven tests see no change) and
  // revoked by ProgramRun while workers are live; a host-side structural
  // read in that window is the race the SS_DCHECKs now reject.
  runtime::TaskPool<RContext> pool(2);
  pool.set_host_quiescent(false);
  EXPECT_THROW(pool.empty(), std::logic_error);
  EXPECT_THROW(pool.host_clear(), std::logic_error);
  pool.set_host_quiescent(true);
  EXPECT_TRUE(pool.empty());

  runtime::IcbPool<RContext> icbs;
  icbs.set_host_quiescent(false);
  EXPECT_THROW(icbs.host_drain([](runtime::Icb<RContext>*) {}),
               std::logic_error);
  icbs.set_host_quiescent(true);
  icbs.host_drain([](runtime::Icb<RContext>*) {});

  runtime::BarCountTable<RContext> bars(8);
  bars.set_host_quiescent(false);
  EXPECT_THROW(bars.live_counters(), std::logic_error);
  EXPECT_THROW(bars.host_clear(), std::logic_error);
  bars.set_host_quiescent(true);
  EXPECT_EQ(bars.live_counters(), 0u);
}

#endif  // NDEBUG

}  // namespace
}  // namespace selfsched
