// Unit tests of the runtime building blocks in isolation, driven through a
// single-processor real context: ICB pool recycling, BAR_COUNT semantics,
// task-pool list surgery with SW invariants, the dispatch strategies'
// exact grab sequences, and the Gantt timeline renderer.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/real_context.hpp"
#include "runtime/bar_count.hpp"
#include "runtime/icb_pool.hpp"
#include "runtime/stats.hpp"
#include "runtime/strategy.hpp"
#include "runtime/task_pool.hpp"

namespace selfsched::runtime {
namespace {

using exec::RContext;

IndexVec iv(std::initializer_list<i64> values) {
  IndexVec v;
  for (i64 x : values) v.push_back(x);
  return v;
}

// ---------------------------------------------------------------- IcbPool --

TEST(IcbPool, AcquireInitializesAndRecycles) {
  RContext ctx(0, 1);
  IcbPool<RContext> pool;
  Icb<RContext>* a = pool.acquire(ctx);
  a->init(3, 10, iv({1, 2}), /*needs_da_flags=*/false);
  EXPECT_EQ(a->loop, 3u);
  EXPECT_EQ(a->bound, 10);
  EXPECT_EQ(a->index.load(), 1);
  EXPECT_EQ(a->icount.load(), 0);
  EXPECT_EQ(a->pcount.load(), 0);
  Icb<RContext>* b = pool.acquire(ctx);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.allocated(), 2u);
  pool.release(ctx, a);
  Icb<RContext>* c = pool.acquire(ctx);
  EXPECT_EQ(c, a) << "released block must be recycled";
  EXPECT_EQ(pool.allocated(), 2u);
}

TEST(IcbPool, DoacrossFlagArrayIsZeroedOnReuse) {
  RContext ctx(0, 1);
  IcbPool<RContext> pool;
  Icb<RContext>* a = pool.acquire(ctx);
  a->init(0, 5, iv({}), /*needs_da_flags=*/true);
  a->da_flags[3].store(1);
  pool.release(ctx, a);
  Icb<RContext>* b = pool.acquire(ctx);
  ASSERT_EQ(a, b);
  b->init(0, 4, iv({}), /*needs_da_flags=*/true);  // smaller: reuses array
  for (i64 j = 0; j <= 4; ++j) EXPECT_EQ(b->da_flags[j].load(), 0);
}

// ------------------------------------------------------------- BarCount --

TEST(BarCount, TripsExactlyAtBound) {
  RContext ctx(0, 1);
  BarCountTable<RContext> bars(16);
  const IndexVec prefix = iv({1, 4});
  EXPECT_FALSE(bars.increment_and_check(ctx, 7, 2, prefix, 3));
  EXPECT_FALSE(bars.increment_and_check(ctx, 7, 2, prefix, 3));
  EXPECT_TRUE(bars.increment_and_check(ctx, 7, 2, prefix, 3));
  EXPECT_EQ(bars.live_counters(), 0u) << "tripped counter must be reclaimed";
}

TEST(BarCount, DistinguishesInstancesAndLoops) {
  RContext ctx(0, 1);
  BarCountTable<RContext> bars(16);
  // Same uid, different prefixes: independent counters.
  EXPECT_FALSE(bars.increment_and_check(ctx, 1, 1, iv({1}), 2));
  EXPECT_FALSE(bars.increment_and_check(ctx, 1, 1, iv({2}), 2));
  // Different uid, same prefix: independent counters.
  EXPECT_FALSE(bars.increment_and_check(ctx, 2, 1, iv({1}), 2));
  EXPECT_EQ(bars.live_counters(), 3u);
  EXPECT_TRUE(bars.increment_and_check(ctx, 1, 1, iv({1}), 2));
  EXPECT_TRUE(bars.increment_and_check(ctx, 1, 1, iv({2}), 2));
  EXPECT_TRUE(bars.increment_and_check(ctx, 2, 1, iv({1}), 2));
  EXPECT_EQ(bars.live_counters(), 0u);
}

TEST(BarCount, BoundOneTripsImmediately) {
  RContext ctx(0, 1);
  BarCountTable<RContext> bars(4);
  EXPECT_TRUE(bars.increment_and_check(ctx, 9, 0, iv({}), 1));
  EXPECT_EQ(bars.live_counters(), 0u);
}

TEST(BarCount, ReusedKeyAfterTripStartsFresh) {
  RContext ctx(0, 1);
  BarCountTable<RContext> bars(4);
  EXPECT_FALSE(bars.increment_and_check(ctx, 3, 1, iv({5}), 2));
  EXPECT_TRUE(bars.increment_and_check(ctx, 3, 1, iv({5}), 2));
  // A later instance may legitimately reuse the same (uid, prefix) key
  // (e.g. the same loop re-entered in a new serial iteration of an outer
  // loop is keyed by a longer prefix, but semantically a fresh barrier
  // starts at zero).
  EXPECT_FALSE(bars.increment_and_check(ctx, 3, 1, iv({5}), 2));
  EXPECT_TRUE(bars.increment_and_check(ctx, 3, 1, iv({5}), 2));
}

TEST(BarCount, ManyKeysCollideSafely) {
  RContext ctx(0, 1);
  BarCountTable<RContext> bars(2);  // tiny: forces chains
  for (i64 k = 1; k <= 100; ++k) {
    EXPECT_FALSE(bars.increment_and_check(ctx, 1, 1, iv({k}), 2));
  }
  EXPECT_EQ(bars.live_counters(), 100u);
  for (i64 k = 1; k <= 100; ++k) {
    EXPECT_TRUE(bars.increment_and_check(ctx, 1, 1, iv({k}), 2));
  }
  EXPECT_EQ(bars.live_counters(), 0u);
}

// ------------------------------------------------------------- TaskPool --

TEST(TaskPool, AppendSetsSwAndLinks) {
  RContext ctx(0, 1);
  TaskPool<RContext> pool(4);
  IcbPool<RContext> icbs;
  EXPECT_EQ(pool.sw().leading_one(ctx), CtxControlWord<RContext>::kEmpty);

  Icb<RContext>* a = icbs.acquire(ctx);
  a->init(2, 3, iv({}), false);
  pool.append(ctx, 2, a);
  EXPECT_EQ(pool.sw().leading_one(ctx), 2u);
  EXPECT_EQ(pool.list_head(2), a);

  Icb<RContext>* b = icbs.acquire(ctx);
  b->init(2, 3, iv({}), false);
  pool.append(ctx, 2, b);
  EXPECT_EQ(pool.list_head(2), a);
  EXPECT_EQ(a->right, b);
  EXPECT_EQ(b->left, a);
  EXPECT_EQ(b->right, nullptr);
}

TEST(TaskPool, DeleteMiddleHeadTail) {
  RContext ctx(0, 1);
  TaskPool<RContext> pool(1);
  IcbPool<RContext> icbs;
  Icb<RContext>* n[3];
  for (auto& p : n) {
    p = icbs.acquire(ctx);
    p->init(0, 1, iv({}), false);
    pool.append(ctx, 0, p);
  }
  // Delete middle.
  pool.delete_icb(ctx, 0, n[1]);
  EXPECT_EQ(pool.list_head(0), n[0]);
  EXPECT_EQ(n[0]->right, n[2]);
  EXPECT_EQ(n[2]->left, n[0]);
  EXPECT_EQ(pool.sw().leading_one(ctx), 0u);
  // Delete head.
  pool.delete_icb(ctx, 0, n[0]);
  EXPECT_EQ(pool.list_head(0), n[2]);
  EXPECT_EQ(n[2]->left, nullptr);
  EXPECT_EQ(pool.sw().leading_one(ctx), 0u);
  // Delete tail == last element: SW must clear.
  pool.delete_icb(ctx, 0, n[2]);
  EXPECT_EQ(pool.list_head(0), nullptr);
  EXPECT_EQ(pool.sw().leading_one(ctx),
            CtxControlWord<RContext>::kEmpty);
  EXPECT_TRUE(pool.empty());
}

TEST(TaskPool, ManyListsIndependent) {
  RContext ctx(0, 1);
  for (const bool hier : {true, false}) {
    TaskPool<RContext> pool(130, hier);  // multi-word SW
    IcbPool<RContext> icbs;
    Icb<RContext>* a = icbs.acquire(ctx);
    a->init(129, 1, iv({}), false);
    pool.append(ctx, 129, a);
    EXPECT_EQ(pool.sw().leading_one(ctx), 129u);
    Icb<RContext>* b = icbs.acquire(ctx);
    b->init(5, 1, iv({}), false);
    pool.append(ctx, 5, b);
    EXPECT_EQ(pool.sw().leading_one(ctx), 5u);
    pool.delete_icb(ctx, 5, b);
    EXPECT_EQ(pool.sw().leading_one(ctx), 129u);
    pool.delete_icb(ctx, 129, a);
    EXPECT_TRUE(pool.empty());
  }
}

// -------------------------------------------------------- CtxControlWord --

TEST(CtxControlWord, LeafBoundaryBits) {
  // Bits 63/64/65 straddle the first leaf-word boundary; the context-side
  // SW must behave identically with and without the summary level.
  RContext ctx(0, 1);
  for (const bool hier : {false, true}) {
    CtxControlWord<RContext> sw(130, hier);
    EXPECT_EQ(sw.hierarchical(), hier);
    for (const u32 bit : {63u, 64u, 65u}) {
      sw.set(ctx, bit);
      EXPECT_TRUE(sw.test(ctx, bit)) << "bit=" << bit << " hier=" << hier;
    }
    EXPECT_EQ(sw.leading_one(ctx), 63u);
    sw.reset(ctx, 63);
    EXPECT_FALSE(sw.test(ctx, 63));
    EXPECT_EQ(sw.leading_one(ctx), 64u);
    sw.reset(ctx, 64);
    EXPECT_EQ(sw.leading_one(ctx), 65u);
    EXPECT_EQ(sw.leading_one(ctx, 66), 65u) << "wrap across the boundary";
    sw.reset(ctx, 65);
    EXPECT_EQ(sw.leading_one(ctx), CtxControlWord<RContext>::kEmpty);
  }
}

TEST(CtxControlWord, SingleWordNeverGrowsASummary) {
  RContext ctx(0, 1);
  CtxControlWord<RContext> small(64, /*hierarchical=*/true);
  EXPECT_FALSE(small.hierarchical());
  CtxControlWord<RContext> big(65, /*hierarchical=*/true);
  EXPECT_TRUE(big.hierarchical());
  big.set(ctx, 64);
  EXPECT_EQ(big.leading_one(ctx), 64u);
}

TEST(CtxControlWord, RaggedTailAndRotation) {
  RContext ctx(0, 1);
  for (const bool hier : {false, true}) {
    CtxControlWord<RContext> sw(130, hier);
    sw.set(ctx, 129);
    EXPECT_EQ(sw.leading_one(ctx), 129u);
    EXPECT_EQ(sw.leading_one(ctx, 129), 129u);
    sw.set(ctx, 2);
    EXPECT_EQ(sw.leading_one(ctx, 3), 129u);
    sw.reset(ctx, 129);
    EXPECT_EQ(sw.leading_one(ctx, 3), 2u) << "wrap from the ragged tail";
  }
}

TEST(CtxControlWord, HierarchicalMatchesFlatOnRandomOps) {
  // The summary level is an accelerator, not a semantic change: one
  // deterministic op stream, identical observable state throughout.
  RContext ctx(0, 1);
  constexpr u32 kBits = 200;
  CtxControlWord<RContext> flat(kBits, /*hierarchical=*/false);
  CtxControlWord<RContext> hier(kBits, /*hierarchical=*/true);
  u64 rng = 0x243f6a8885a308d3ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 3000; ++step) {
    const u32 bit = static_cast<u32>(next() % kBits);
    if (next() % 3 != 0) {
      flat.set(ctx, bit);
      hier.set(ctx, bit);
    } else {
      flat.reset(ctx, bit);
      hier.reset(ctx, bit);
    }
    const u32 start = static_cast<u32>(next() % kBits);
    ASSERT_EQ(flat.leading_one(ctx, start), hier.leading_one(ctx, start))
        << "step=" << step << " start=" << start;
    ASSERT_EQ(flat.test(ctx, bit), hier.test(ctx, bit)) << "step=" << step;
  }
}

// ------------------------------------------------------------ Strategies --

/// Drain an ICB of bound `b` split into `g_count` index shards with strategy
/// `s`, single-threaded as proc 0 of `procs`, returning every grab in
/// dispatch order and checking coverage invariants: exactly-once coverage
/// of [1, b], and the completion election fires exactly once, on the final
/// grab.
std::vector<Dispatch> drain_grabs(i64 b, u32 g_count, const Strategy& s,
                                  u32 procs) {
  RContext ctx(0, procs);
  Icb<RContext> icb;
  icb.init(0, b, IndexVec{}, false, kMaxDepth, g_count);
  std::vector<Dispatch> grabs;
  std::set<i64> covered;
  bool saw_last = false;
  for (;;) {
    const Dispatch d = dispatch_iterations(ctx, icb, s);
    if (d.count == 0) break;
    EXPECT_FALSE(saw_last) << "grab after last_scheduled";
    grabs.push_back(d);
    for (i64 j = d.first; j < d.first + d.count; ++j) {
      EXPECT_TRUE(covered.insert(j).second) << "iteration " << j
                                            << " dispatched twice";
      EXPECT_GE(j, 1);
      EXPECT_LE(j, b);
    }
    saw_last = d.last_scheduled;
  }
  EXPECT_TRUE(saw_last || b == 0) << "completion election never fired";
  EXPECT_EQ(static_cast<i64>(covered.size()), b) << "incomplete coverage";
  return grabs;
}

/// The grab sizes of a flat drain, in dispatch order.
std::vector<i64> drain(i64 b, const Strategy& s, u32 procs = 4) {
  std::vector<i64> sizes;
  for (const Dispatch& d : drain_grabs(b, 1, s, procs)) {
    sizes.push_back(d.count);
  }
  return sizes;
}

TEST(Strategy, SelfGrabsOneAtATime) {
  const auto sizes = drain(7, Strategy::self());
  EXPECT_EQ(sizes, (std::vector<i64>{1, 1, 1, 1, 1, 1, 1}));
}

TEST(Strategy, ChunkGrabsFixedBlocks) {
  const auto sizes = drain(10, Strategy::chunked(4));
  EXPECT_EQ(sizes, (std::vector<i64>{4, 4, 2}));
}

TEST(Strategy, ChunkLargerThanBound) {
  const auto sizes = drain(3, Strategy::chunked(100));
  EXPECT_EQ(sizes, (std::vector<i64>{3}));
}

TEST(Strategy, GssGuidedDecrease) {
  // P=4, b=100: ceil(100/4)=25, ceil(75/4)=19, ceil(56/4)=14, ...
  const auto sizes = drain(100, Strategy::gss(), 4);
  EXPECT_EQ(sizes.front(), 25);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], sizes[i - 1]) << "GSS chunks must not grow";
  }
  EXPECT_EQ(sizes.back(), 1);
}

TEST(Strategy, FactoringHalvesGssChunks) {
  const auto gss_sizes = drain(256, Strategy::gss(), 4);
  const auto fac_sizes = drain(256, Strategy::factoring(), 4);
  EXPECT_EQ(fac_sizes.front(), 32);  // ceil(256 / (2*4))
  EXPECT_LT(fac_sizes.front(), gss_sizes.front());
}

// The three grab protocols of dispatch_range, restated here so the replay
// below checks which counter each kind sizes its chunk off.
enum class Grab { kFixed, kSequenced, kRemaining };

// Single-worker replay of strategy `s` draining bound `b` under protocol
// `grab`, calling the dispatcher's own pure chunk rules.  With one worker
// the remaining protocol's CAS never retries, so this checks the protocol
// plumbing (the counter each kind sizes off, the clamp at b, the sum); the
// literal exact-sequence tests pin the formulas themselves.
std::vector<i64> replay(i64 b, const Strategy& s, Grab grab, u32 procs) {
  RContext ctx(0, procs);
  // No feedback flows through drain() (it calls only the dispatcher), so an
  // adaptive chunk stays pinned at the threaded-engine seed; self() carries
  // chunk 1.
  const i64 fixed = s.kind == Strategy::Kind::kAdaptive
                        ? runtime::adaptive_seed_chunk(ctx, s, b, procs)
                        : s.chunk;
  std::vector<i64> out;
  for (i64 index = 1, seq = 0; index <= b; ++seq) {
    const i64 remaining = b - index + 1;
    i64 want = fixed;
    switch (grab) {
      case Grab::kFixed: break;
      case Grab::kSequenced:
        want = runtime::sequenced_chunk(s, b, procs, seq, 0);
        break;
      case Grab::kRemaining:
        want = runtime::remaining_chunk(s, remaining, index, procs);
        break;
    }
    out.push_back(std::min(want, remaining));
    index += want;
  }
  return out;
}

// Every strategy kind, with non-default parameters where they change the
// rule, paired with the protocol it grabs under.
const std::vector<std::pair<Strategy, Grab>>& rule_cases() {
  static const std::vector<std::pair<Strategy, Grab>> cases = {
      {Strategy::self(), Grab::kFixed},
      {Strategy::chunked(4), Grab::kFixed},
      {Strategy::gss(), Grab::kRemaining},
      {Strategy::gss(8), Grab::kRemaining},
      {Strategy::factoring(), Grab::kRemaining},
      {Strategy::factoring(3), Grab::kRemaining},
      {Strategy::trapezoid(16, 2), Grab::kSequenced},
      {Strategy::trapezoid(0, 1), Grab::kSequenced},
      {Strategy::factoring2(), Grab::kSequenced},
      {Strategy::factoring2(3), Grab::kSequenced},
      {Strategy::weighted_factoring(0x0101020401020301ULL), Grab::kSequenced},
      {Strategy::trapezoid_tuned(16, 2), Grab::kSequenced},
      {Strategy::trapezoid_tuned(0, 1), Grab::kSequenced},
      {Strategy::random_steal(42), Grab::kRemaining},
      {Strategy::random_steal(1, 4), Grab::kRemaining},
      {Strategy::adaptive(), Grab::kFixed},
      {Strategy::adaptive(10, 2, 64), Grab::kFixed},
  };
  return cases;
}

i64 sum(const std::vector<i64>& v) {
  i64 s = 0;
  for (i64 x : v) s += x;
  return s;
}

TEST(Strategy, GssExactSequence) {
  // b=20, P=4: ceil(20/4)=5, ceil(15/4)=4, ceil(11/4)=3, ceil(8/4)=2,
  // ceil(6/4)=2, then 1s.
  EXPECT_EQ(drain(20, Strategy::gss(), 4),
            (std::vector<i64>{5, 4, 3, 2, 2, 1, 1, 1, 1}));
}

TEST(Strategy, GssMinChunkExactSequence) {
  // min_chunk=8 floors the tail: 25,19,14,11,8 then max(8,·) until the
  // final short grab of the 7 leftover iterations.
  EXPECT_EQ(drain(100, Strategy::gss(8), 4),
            (std::vector<i64>{25, 19, 14, 11, 8, 8, 8, 7}));
}

TEST(Strategy, FactoringExactSequence) {
  // b=20, P=2: divisor 2P=4 gives the same decrease as GSS at P=4.
  EXPECT_EQ(drain(20, Strategy::factoring(), 2),
            (std::vector<i64>{5, 4, 3, 2, 2, 1, 1, 1, 1}));
}

TEST(Strategy, TrapezoidExactSequence) {
  // first=16, last=2, b=128, P=4: avg=9, N=ceil(128/9)=15,
  // delta=(16-2)/14=1 — chunks decrease by one per dispatch until the
  // bound clamps the final grab.
  EXPECT_EQ(drain(128, Strategy::trapezoid(16, 2), 4),
            (std::vector<i64>{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 2}));
}

TEST(Strategy, TrapezoidAutoFirstChunk) {
  // tss_first=0 selects first = b/(2P) = 128/8 = 16 (Tzen/Ni's conservative
  // default), decreasing to last=1.
  const auto sizes = drain(128, Strategy::trapezoid(0, 1), 4);
  EXPECT_EQ(sizes.front(), 16);
  EXPECT_EQ(sizes,
            (std::vector<i64>{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 2}));
}

TEST(Strategy, TrapezoidBoundSmallerThanLastChunk) {
  // b=3 with trapezoid(8,4): the single dispatch wants 8 but the bound
  // clamps it to the whole loop.
  EXPECT_EQ(drain(3, Strategy::trapezoid(8, 4), 4), (std::vector<i64>{3}));
  // Tiny auto-first: b < 2P makes first = max(1, b/(2P)) = 1.
  EXPECT_EQ(drain(3, Strategy::trapezoid(0, 1), 4),
            (std::vector<i64>{1, 1, 1}));
}

TEST(Strategy, Factoring2BatchedEqualChunks) {
  // b=100, P=4: batch chunks ceil(R/2P) with R after each full batch of 4
  // equal grabs: 13 (R=100), 6 (R=48), 3 (R=24), 2 (R=12), 1 (R=4).
  EXPECT_EQ(drain(100, Strategy::factoring2(), 4),
            (std::vector<i64>{13, 13, 13, 13, 6, 6, 6, 6, 3, 3, 3, 3, 2, 2,
                              2, 2, 1, 1, 1, 1}));
}

TEST(Strategy, Factoring2MinChunkFloorsBatches) {
  const auto sizes = drain(100, Strategy::factoring2(5), 4);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    EXPECT_GE(sizes[i], 5) << "batch chunk fell below the floor";
  }
  EXPECT_EQ(sum(sizes), 100);
}

TEST(Strategy, WeightedFactoringUniformMatchesFactoring2) {
  // An all-zero weight word means weight 1 everywhere: identical schedule.
  EXPECT_EQ(drain(100, Strategy::weighted_factoring(0), 4),
            drain(100, Strategy::factoring2(), 4));
}

TEST(Strategy, WeightedFactoringScalesChunkByWorkerWeight) {
  // Worker 0 weight 4, workers 1-3 weight 1 (wsum 7): its batch-0 chunk is
  // ceil(13*4*4/7) = 30 instead of 13, and batch 1 (k=6) still gives it
  // ceil(6*4*4/7) = 14 > the 10 left.  drain() dispatches as worker 0.
  EXPECT_EQ(drain(100, Strategy::weighted_factoring(0x04), 4),
            (std::vector<i64>{30, 30, 30, 10}));
}

TEST(Strategy, Tss2ExactSequence) {
  // Auto first: f = ceil(128/8) = 16, l = 1, N = ceil(256/17) = 16,
  // delta = (15<<16)/15 = 1.0 fixed-point: 16,15,14,... until the bound
  // clamps the final grab.
  EXPECT_EQ(drain(128, Strategy::trapezoid_tuned(0, 1), 4),
            (std::vector<i64>{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 2}));
}

TEST(Strategy, Tss2CeilFirstDiffersFromTrapezoidFloor) {
  // b=100, P=4: classic trapezoid floors first to 100/8 = 12; tss2 takes
  // ceil(100/8) = 13 (Tzen/Ni's bound-covering choice).  Classic: avg =
  // 13/2 = 6, N = ceil(100/6) = 17, delta = 11/16 floors to 0 — constant.
  EXPECT_EQ(drain(100, Strategy::trapezoid(0, 1), 4),
            (std::vector<i64>{12, 12, 12, 12, 12, 12, 12, 12, 4}));
  EXPECT_EQ(drain(100, Strategy::trapezoid_tuned(0, 1), 4).front(), 13);
}

TEST(Strategy, Tss2FractionalSlopeKeepsDecreasing) {
  // f-l < N-1 floors the classic trapezoid's integer delta to 0 (constant
  // chunks); the 16.16 fixed-point ramp still decreases.
  const auto classic = drain(1000, Strategy::trapezoid(8, 1), 4);
  const auto tuned = drain(1000, Strategy::trapezoid_tuned(8, 1), 4);
  EXPECT_EQ(classic[0], classic[classic.size() - 2])
      << "precondition: integer delta floored to 0";
  EXPECT_GT(tuned.front(), tuned[tuned.size() - 2])
      << "fixed-point ramp must actually decrease";
  EXPECT_EQ(sum(tuned), 1000);
}

TEST(Strategy, RandomStealChunksStayInGssLikeBand) {
  // While remaining R > 2P every draw c lies in [ceil(R/4P), R/2P], i.e.
  // 4P*c >= R >= 2P*c; the endgame degrades to single-iteration steals.
  const i64 p = 4;
  i64 remaining = 1000;
  for (const i64 c : drain(1000, Strategy::random_steal(7), 4)) {
    if (remaining > 2 * p) {
      EXPECT_GE(4 * p * c, remaining);
      EXPECT_LE(2 * p * c, remaining);
    } else {
      EXPECT_EQ(c, 1);
    }
    remaining -= c;
  }
  EXPECT_EQ(remaining, 0);
}

TEST(Strategy, RandomStealExactSequence) {
  // b=100, P=4: hashed draws in [ceil(R/16), R/4] until R <= 2P = 8, then
  // single-iteration steals.
  EXPECT_EQ(drain(100, Strategy::random_steal(42), 4),
            (std::vector<i64>{8, 10, 10, 7, 5, 5, 5, 5, 5, 3, 3, 3,
                              2, 2, 2, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1,
                              1, 1, 1, 1, 1, 1, 1, 1, 1, 1}));
}

TEST(Strategy, RandomStealSeedDeterminesSequence) {
  EXPECT_EQ(drain(500, Strategy::random_steal(42), 4),
            drain(500, Strategy::random_steal(42), 4));
  EXPECT_NE(drain(500, Strategy::random_steal(42), 4),
            drain(500, Strategy::random_steal(43), 4));
}

TEST(Strategy, AdaptiveConstantChunkWithoutFeedback) {
  // drain() never feeds timings back, so every grab uses the seed chunk —
  // which must be exactly the analysis-model optimum for the threaded
  // engine's calibrated overheads.
  const i64 k0 = runtime::adaptive_chunk_for(
      runtime::kAdaptiveDefaultTau, runtime::kAdaptiveThreadO1,
      runtime::kAdaptiveThreadO2, 1000, 4);
  EXPECT_EQ(k0, 10);
  const auto sizes = drain(1000, Strategy::adaptive(), 4);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], k0) << "unfed adaptive chunk drifted";
  }
}

TEST(Strategy, AllKindsMatchClosedFormAndCoverBound) {
  // Sweep every strategy kind across bounds and processor counts: the
  // dispatched sequence must equal its protocol's replay grab for grab and
  // sum exactly to the bound (drain() additionally asserts no iteration is
  // dispatched twice).
  for (const i64 b : {1, 7, 64, 100, 333, 1000}) {
    for (const u32 procs : {1u, 2u, 4u, 8u}) {
      for (const auto& [s, grab] : rule_cases()) {
        const auto got = drain(b, s, procs);
        EXPECT_EQ(got, replay(b, s, grab, procs))
            << s.name() << " b=" << b << " P=" << procs;
        EXPECT_EQ(sum(got), b) << s.name() << " b=" << b << " P=" << procs;
      }
    }
  }
}

TEST(Strategy, ExhaustedIcbYieldsZero) {
  RContext ctx(0, 2);
  Icb<RContext> icb;
  icb.init(0, 1, IndexVec{}, false);
  const Dispatch first = dispatch_iterations(ctx, icb, Strategy::self());
  EXPECT_EQ(first.count, 1);
  EXPECT_TRUE(first.last_scheduled);
  const Dispatch second = dispatch_iterations(ctx, icb, Strategy::self());
  EXPECT_EQ(second.count, 0);
}

TEST(Strategy, Names) {
  EXPECT_STREQ(Strategy::self().name(), "self(1)");
  EXPECT_STREQ(Strategy::gss().name(), "gss");
  EXPECT_STREQ(Strategy::chunked(5).name(), "chunk");
  EXPECT_STREQ(Strategy::factoring2().name(), "factoring2");
  EXPECT_STREQ(Strategy::weighted_factoring().name(), "wfactoring");
  EXPECT_STREQ(Strategy::trapezoid_tuned().name(), "tss2");
  EXPECT_STREQ(Strategy::random_steal().name(), "randsteal");
  EXPECT_STREQ(Strategy::adaptive().name(), "adaptive");
}

// ------------------------------------------------------------- shard math --

TEST(ShardMath, PartitionTilesTheBoundExactly) {
  // For every (b, G): shards are contiguous left to right, sizes differ by
  // at most one (balanced split of b = G*(b/G) + b%G), they sum to b, and
  // exactly min(b, G) shards are non-empty.
  for (const i64 b : {0, 1, 2, 3, 7, 10, 64, 100, 333}) {
    for (const u32 g_count : {1u, 2u, 3u, 4u, 7u, 8u, 64u}) {
      i64 next = 1;
      i64 total = 0;
      u32 nonempty = 0;
      i64 min_size = b + 1;
      i64 max_size = -1;
      for (u32 g = 0; g < g_count; ++g) {
        const i64 lo = shard::shard_lo(b, g_count, g);
        const i64 size = shard::shard_size(b, g_count, g);
        const i64 hi = shard::shard_hi(b, g_count, g);
        EXPECT_EQ(lo, next) << "b=" << b << " G=" << g_count << " g=" << g;
        EXPECT_EQ(hi, lo + size - 1);
        next = hi + 1;
        total += size;
        if (size > 0) ++nonempty;
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
      }
      EXPECT_EQ(total, b) << "b=" << b << " G=" << g_count;
      EXPECT_LE(max_size - min_size, 1) << "b=" << b << " G=" << g_count;
      EXPECT_EQ(nonempty, shard::live_shards(b, g_count))
          << "b=" << b << " G=" << g_count;
    }
  }
}

TEST(ShardMath, RaggedBoundExactSplit) {
  // b=10, G=4: 10 = 3+3+2+2, remainder shards first.
  const i64 b = 10;
  EXPECT_EQ(shard::shard_lo(b, 4, 0), 1);
  EXPECT_EQ(shard::shard_hi(b, 4, 0), 3);
  EXPECT_EQ(shard::shard_lo(b, 4, 1), 4);
  EXPECT_EQ(shard::shard_hi(b, 4, 1), 6);
  EXPECT_EQ(shard::shard_lo(b, 4, 2), 7);
  EXPECT_EQ(shard::shard_hi(b, 4, 2), 8);
  EXPECT_EQ(shard::shard_lo(b, 4, 3), 9);
  EXPECT_EQ(shard::shard_hi(b, 4, 3), 10);
  EXPECT_EQ(shard::live_shards(b, 4), 4u);
}

TEST(ShardMath, BoundSmallerThanShardCountDegenerates) {
  // b=3, G=8: shards 0..2 own one iteration each; 3..7 are empty (lo > hi)
  // and must never be granted from or counted in the completion election.
  const i64 b = 3;
  for (u32 g = 0; g < 3; ++g) {
    EXPECT_EQ(shard::shard_lo(b, 8, g), static_cast<i64>(g) + 1);
    EXPECT_EQ(shard::shard_size(b, 8, g), 1);
  }
  for (u32 g = 3; g < 8; ++g) {
    EXPECT_EQ(shard::shard_size(b, 8, g), 0);
    EXPECT_GT(shard::shard_lo(b, 8, g), shard::shard_hi(b, 8, g));
  }
  EXPECT_EQ(shard::live_shards(b, 8), 3u);
}

TEST(ShardMath, HomeShardBlockMapping) {
  // proc*G/P: proc 0 always homes shard 0 (the Doacross liveness anchor),
  // the mapping is monotone in proc, stays in range, and when P >= G every
  // shard is some worker's home.
  for (const u32 procs : {1u, 2u, 4u, 8u, 12u}) {
    for (const u32 g_count : {1u, 2u, 4u, 8u}) {
      EXPECT_EQ(shard::home_shard_of(0, procs, g_count), 0u);
      std::set<u32> homes;
      u32 prev = 0;
      for (u32 p = 0; p < procs; ++p) {
        const u32 h = shard::home_shard_of(p, procs, g_count);
        EXPECT_LT(h, g_count);
        EXPECT_GE(h, prev) << "home mapping must be monotone";
        prev = h;
        homes.insert(h);
      }
      if (procs >= g_count) {
        EXPECT_EQ(homes.size(), g_count) << "P=" << procs << " G=" << g_count;
      }
    }
  }
}

TEST(Shard, IcbInitSetsCountersToShardRangesAndRecycles) {
  RContext ctx(0, 4);
  Icb<RContext> icb;
  icb.init(0, 10, IndexVec{}, false, kMaxDepth, /*index_shards=*/4);
  EXPECT_EQ(icb.num_shards, 4u);
  EXPECT_EQ(icb.live_shards, 4u);
  EXPECT_EQ(icb.sched_done.load(), 0);
  for (u32 g = 0; g < 4; ++g) {
    EXPECT_EQ(icb.shards[g].lo, shard::shard_lo(10, 4, g));
    EXPECT_EQ(icb.shards[g].hi, shard::shard_hi(10, 4, g));
    EXPECT_EQ(icb.shards[g].index.load(), icb.shards[g].lo);
    EXPECT_EQ(icb.shards[g].aux.load(), 0);
  }
  // Recycle into a wider, degenerate split: capacity grows, empty shards
  // (b < G) come out with lo > hi, and the live count shrinks to b.
  icb.init(1, 3, IndexVec{}, false, kMaxDepth, /*index_shards=*/8);
  EXPECT_EQ(icb.num_shards, 8u);
  EXPECT_EQ(icb.live_shards, 3u);
  for (u32 g = 3; g < 8; ++g) {
    EXPECT_GT(icb.shards[g].lo, icb.shards[g].hi);
  }
  // And back down to the flat layout: sharded state must not leak.
  icb.init(2, 5, IndexVec{}, false);
  EXPECT_EQ(icb.num_shards, 1u);
  EXPECT_EQ(icb.index.load(), 1);
}

/// Drain a sharded ICB (drain_grabs' checks), returning the grab sizes per
/// shard in dispatch order and checking that every grab stays inside the
/// granting shard's range.
std::vector<std::vector<i64>> sharded_drain(i64 b, u32 g_count,
                                            const Strategy& s, u32 procs) {
  std::vector<std::vector<i64>> per_shard(g_count);
  for (const Dispatch& d : drain_grabs(b, g_count, s, procs)) {
    // Attribute the grab to the shard whose range contains it; the grab
    // must not straddle a shard boundary.
    u32 g = g_count;
    for (u32 cand = 0; cand < g_count; ++cand) {
      if (d.first >= shard::shard_lo(b, g_count, cand) &&
          d.first <= shard::shard_hi(b, g_count, cand)) {
        g = cand;
        break;
      }
    }
    EXPECT_LT(g, g_count) << "grab outside every shard range";
    if (g >= g_count) return per_shard;
    EXPECT_LE(d.first + d.count - 1, shard::shard_hi(b, g_count, g))
        << "grab straddles a shard boundary";
    per_shard[g].push_back(d.count);
  }
  return per_shard;
}

TEST(Shard, PerShardChunkSequencesMatchClosedForm) {
  // Each shard runs the strategy's chunk rule against its own sub-range with
  // the shard's worker share as P — so a shard of size n on P/G workers
  // must produce exactly replay(n, s, grab, shard_procs(P, G)), grab for
  // grab.  kAdaptive is excluded because its chunk is deliberately tuned
  // instance-globally, not per shard; kRandomSteal because its draw hashes
  // the absolute index, and only shard 0 starts at 1.
  const u32 procs = 8;
  for (const i64 b : {7, 64, 100, 333}) {
    for (const u32 g_count : {2u, 4u}) {
      const u32 sprocs = shard::shard_procs(procs, g_count);
      for (const auto& [s, grab] : rule_cases()) {
        if (s.kind == Strategy::Kind::kAdaptive ||
            s.kind == Strategy::Kind::kRandomSteal) {
          continue;
        }
        const auto got = sharded_drain(b, g_count, s, procs);
        for (u32 g = 0; g < g_count; ++g) {
          const i64 size = shard::shard_size(b, g_count, g);
          const auto want = replay(size, s, grab, sprocs);
          EXPECT_EQ(got[g], want) << s.name() << " b=" << b
                                  << " G=" << g_count << " shard=" << g;
        }
      }
    }
  }
}

TEST(Shard, SingleShardMatchesFlatSequences) {
  // G=1 must be indistinguishable from the flat dispatcher: same grabs, in
  // the same order, for every strategy the flat conformance sweep covers.
  for (const auto& s : {Strategy::gss(), Strategy::factoring2(),
                        Strategy::trapezoid_tuned(), Strategy::chunked(5)}) {
    const auto flat = drain(100, s, 4);
    const auto sharded = sharded_drain(100, 1, s, 4);
    EXPECT_EQ(sharded[0], flat) << s.name();
  }
}

TEST(Shard, StealOrderIsHomeFirstThenRotation) {
  // A single worker of an 8-proc team homes shard 0 and, as each shard
  // drains, rotates upward: shard g's first grab comes only after every
  // grab of shards 0..g-1.  With chunk(3), b=10, G=4 the expected global
  // grab order is [1,3],[4..6] from shard 0... i.e. firsts ascend.
  RContext ctx(0, 8);
  Icb<RContext> icb;
  icb.init(0, 10, IndexVec{}, false, kMaxDepth, 4);
  const Strategy s = Strategy::chunked(3);
  i64 prev_first = 0;
  u32 grabs = 0;
  bool last = false;
  for (;;) {
    const Dispatch d = dispatch_iterations(ctx, icb, s);
    if (d.count == 0) break;
    EXPECT_GT(d.first, prev_first) << "single-thread probe order regressed";
    prev_first = d.first;
    ++grabs;
    last = d.last_scheduled;
  }
  EXPECT_TRUE(last);
  EXPECT_EQ(grabs, 4u);  // shards of size 3,3,2,2: one chunk(3) grab each
  EXPECT_EQ(icb.sched_done.load(), 4);  // every live shard drained once
}

// ------------------------------------------------------------ render_gantt --

constexpr char kGanttHeader[] =
    "gantt over 10 cycles ('#'=body '+'=iter-sync 's'=search 'E'=exit/enter "
    "'.'=idle 'w'=doacross-wait 't'=teardown)\n";

RunResult gantt_result() {
  RunResult r;
  r.procs = 2;
  r.makespan = 10;
  r.timeline.resize(2);
  return r;
}

TEST(RenderGantt, SnapshotTwoProcs) {
  RunResult r = gantt_result();
  r.timeline[0] = {{exec::Phase::kBody, 0, 5}, {exec::Phase::kSearch, 5, 10}};
  r.timeline[1] = {{exec::Phase::kBody, 0, 10}};
  EXPECT_EQ(render_gantt(r, 10), std::string(kGanttHeader) +
                                     "p00 |#####sssss|\n"
                                     "p01 |##########|\n");
}

TEST(RenderGantt, ZeroLengthIntervalIsSkipped) {
  // A [3,3) interval has no area; it must neither paint a column nor
  // underflow the end-1 column computation.
  RunResult r = gantt_result();
  r.timeline[0] = {{exec::Phase::kSearch, 3, 3}, {exec::Phase::kBody, 0, 10}};
  r.timeline[1] = {{exec::Phase::kSearch, 0, 0}};
  EXPECT_EQ(render_gantt(r, 10), std::string(kGanttHeader) +
                                     "p00 |##########|\n"
                                     "p01 |          |\n");
}

TEST(RenderGantt, EmptyTimelineReturnsPlaceholder) {
  RunResult r;
  r.procs = 2;
  r.makespan = 10;
  EXPECT_EQ(render_gantt(r, 10),
            "(no timeline recorded; set SchedOptions::phase_timeline)\n");
}

TEST(RenderGantt, ZeroMakespanReturnsPlaceholder) {
  RunResult r = gantt_result();
  r.makespan = 0;
  r.timeline[0] = {{exec::Phase::kBody, 0, 0}};
  EXPECT_EQ(render_gantt(r, 10),
            "(no timeline recorded; set SchedOptions::phase_timeline)\n");
  EXPECT_EQ(render_gantt(gantt_result(), 0),
            "(no timeline recorded; set SchedOptions::phase_timeline)\n");
}

}  // namespace
}  // namespace selfsched::runtime
