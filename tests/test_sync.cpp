// Unit tests of the synchronization substrate: the Cedar test-and-op
// vocabulary, SyncVar atomicity, the control word with leading-one
// detection, the paper's lock and semaphore, backoff, and the barrier.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sync/backoff.hpp"
#include "sync/barrier.hpp"
#include "sync/control_word.hpp"
#include "sync/semaphore.hpp"
#include "sync/spin_lock.hpp"
#include "sync/sync_var.hpp"

namespace selfsched::sync {
namespace {

// ------------------------------------------------------------- semantics --

TEST(TestOp, TestRelations) {
  EXPECT_TRUE(test_holds(sync::Test::kNone, 5, -100));
  EXPECT_TRUE(test_holds(sync::Test::kGT, 5, 4));
  EXPECT_FALSE(test_holds(sync::Test::kGT, 5, 5));
  EXPECT_TRUE(test_holds(sync::Test::kGE, 5, 5));
  EXPECT_FALSE(test_holds(sync::Test::kGE, 4, 5));
  EXPECT_TRUE(test_holds(sync::Test::kLT, 4, 5));
  EXPECT_FALSE(test_holds(sync::Test::kLT, 5, 5));
  EXPECT_TRUE(test_holds(sync::Test::kLE, 5, 5));
  EXPECT_FALSE(test_holds(sync::Test::kLE, 6, 5));
  EXPECT_TRUE(test_holds(sync::Test::kEQ, 5, 5));
  EXPECT_FALSE(test_holds(sync::Test::kEQ, 5, 6));
  EXPECT_TRUE(test_holds(sync::Test::kNE, 5, 6));
  EXPECT_FALSE(test_holds(sync::Test::kNE, 5, 5));
}

TEST(TestOp, OpSemantics) {
  EXPECT_EQ(apply_op(sync::Op::kFetch, 7, 99), 7);
  EXPECT_EQ(apply_op(sync::Op::kStore, 7, 99), 99);
  EXPECT_EQ(apply_op(sync::Op::kIncrement, 7, 99), 8);
  EXPECT_EQ(apply_op(sync::Op::kDecrement, 7, 99), 6);
  EXPECT_EQ(apply_op(sync::Op::kFetchAdd, 7, -3), 4);
  EXPECT_EQ(apply_op(sync::Op::kFetchOr, 0b0101, 0b0011), 0b0111);
  EXPECT_EQ(apply_op(sync::Op::kFetchAnd, 0b0101, 0b0011), 0b0001);
}

TEST(TestOp, Names) {
  EXPECT_STREQ(test_name(sync::Test::kGE), ">=");
  EXPECT_STREQ(op_name(sync::Op::kFetchAdd), "Fetch&Add");
}

// ---------------------------------------------------------------- SyncVar --

struct TryOpCase {
  Test test;
  i64 test_value;
  Op op;
  i64 operand;
  i64 initial;
  bool want_success;
  i64 want_fetched;
  i64 want_after;
};

// gtest names each case by printing its parameter; without this it dumps the
// struct's bytes, padding included, and the case names change per build.
void PrintTo(const TryOpCase& c, std::ostream* os) {
  *os << "A=" << c.initial << " {";
  if (c.test != Test::kNone) *os << "A" << test_name(c.test) << c.test_value << " ";
  *os << op_name(c.op) << "(" << c.operand << ")}";
}

class SyncVarTruthTable : public ::testing::TestWithParam<TryOpCase> {};

TEST_P(SyncVarTruthTable, TryOp) {
  const TryOpCase& c = GetParam();
  SyncVar v(c.initial);
  const SyncResult r = v.try_op(c.test, c.test_value, c.op, c.operand);
  EXPECT_EQ(r.success, c.want_success);
  if (c.want_success) {
    EXPECT_EQ(r.fetched, c.want_fetched);
  }
  EXPECT_EQ(v.load(), c.want_after);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SyncVarTruthTable,
    ::testing::Values(
        // The paper's example: {A < 100; Fetch(a)&add(3)}.
        TryOpCase{sync::Test::kLT, 100, sync::Op::kFetchAdd, 3, 42, true, 42, 45},
        TryOpCase{sync::Test::kLT, 100, sync::Op::kFetchAdd, 3, 100, false, 0, 100},
        // P operation: {S > 0; Decrement}.
        TryOpCase{sync::Test::kGT, 0, sync::Op::kDecrement, 0, 1, true, 1, 0},
        TryOpCase{sync::Test::kGT, 0, sync::Op::kDecrement, 0, 0, false, 0, 0},
        // V operation: null test.
        TryOpCase{sync::Test::kNone, 0, sync::Op::kIncrement, 0, 0, true, 0, 1},
        // Lock acquire: {L == 1; Decrement}.
        TryOpCase{sync::Test::kEQ, 1, sync::Op::kDecrement, 0, 1, true, 1, 0},
        TryOpCase{sync::Test::kEQ, 1, sync::Op::kDecrement, 0, 0, false, 0, 0},
        // CAS via equality: {x == 7; Fetch&Add(5)}.
        TryOpCase{sync::Test::kEQ, 7, sync::Op::kFetchAdd, 5, 7, true, 7, 12},
        TryOpCase{sync::Test::kEQ, 7, sync::Op::kFetchAdd, 5, 8, false, 0, 8},
        // Store with test.
        TryOpCase{sync::Test::kNE, 3, sync::Op::kStore, 9, 4, true, 4, 9},
        TryOpCase{sync::Test::kNE, 3, sync::Op::kStore, 9, 3, false, 0, 3},
        // Pure fetch with failing test leaves value alone.
        TryOpCase{sync::Test::kGE, 10, sync::Op::kFetch, 0, 9, false, 0, 9},
        TryOpCase{sync::Test::kGE, 10, sync::Op::kFetch, 0, 10, true, 10, 10},
        // Bitwise extensions.
        TryOpCase{sync::Test::kNone, 0, sync::Op::kFetchOr, 0b100, 0b001, true, 0b001,
                  0b101},
        TryOpCase{sync::Test::kNone, 0, sync::Op::kFetchAnd, 0b110, 0b011, true, 0b011,
                  0b010}));

TEST(SyncVar, ContendedFetchAddSumsExactly) {
  SyncVar v(0);
  constexpr int kThreads = 4;
  constexpr i64 kPer = 20000;
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&v] {
      for (i64 i = 0; i < kPer; ++i) {
        v.try_op(sync::Test::kNone, 0, sync::Op::kFetchAdd, 1);
      }
    });
  }
  for (auto& t : team) t.join();
  EXPECT_EQ(v.load(), kThreads * kPer);
}

TEST(SyncVar, BoundedFetchAddNeverOvershoots) {
  // The paper's "start:" instruction: {index <= b; Fetch&Increment}.
  // Under contention, exactly b successes must occur.
  constexpr i64 kBound = 10000;
  SyncVar index(1);
  std::atomic<i64> successes{0};
  std::vector<std::thread> team;
  for (int t = 0; t < 4; ++t) {
    team.emplace_back([&] {
      for (;;) {
        const SyncResult r =
            index.try_op(sync::Test::kLE, kBound, sync::Op::kIncrement);
        if (!r.success) return;
        successes.fetch_add(1);
        EXPECT_GE(r.fetched, 1);
        EXPECT_LE(r.fetched, kBound);
      }
    });
  }
  for (auto& t : team) t.join();
  EXPECT_EQ(successes.load(), kBound);
  EXPECT_EQ(index.load(), kBound + 1);
}

TEST(SyncVar, IsCacheLineSized) {
  EXPECT_EQ(sizeof(SyncVar), kCacheLine);
}

// ------------------------------------------------------------ ControlWord --

TEST(ControlWord, SetResetTest) {
  ControlWord sw(8);
  EXPECT_EQ(sw.popcount(), 0u);
  sw.set(3);
  sw.set(5);
  EXPECT_TRUE(sw.test(3));
  EXPECT_TRUE(sw.test(5));
  EXPECT_FALSE(sw.test(4));
  EXPECT_EQ(sw.popcount(), 2u);
  sw.reset(3);
  EXPECT_FALSE(sw.test(3));
  EXPECT_EQ(sw.popcount(), 1u);
}

TEST(ControlWord, LeadingOneFindsLowestSetBit) {
  ControlWord sw(64);
  EXPECT_EQ(sw.leading_one(), ControlWord::kEmpty);
  sw.set(42);
  sw.set(17);
  EXPECT_EQ(sw.leading_one(), 17u);
  sw.reset(17);
  EXPECT_EQ(sw.leading_one(), 42u);
}

TEST(ControlWord, MultiWordScan) {
  ControlWord sw(200);
  sw.set(199);
  EXPECT_EQ(sw.leading_one(), 199u);
  sw.set(64);
  EXPECT_EQ(sw.leading_one(), 64u);
  sw.set(63);
  EXPECT_EQ(sw.leading_one(), 63u);
}

TEST(ControlWord, RotatedOriginWrapsAround) {
  ControlWord sw(128);
  sw.set(10);
  // Starting the scan above the only set bit must still find it.
  EXPECT_EQ(sw.leading_one(100), 10u);
  sw.set(100);
  EXPECT_EQ(sw.leading_one(100), 100u);
  EXPECT_EQ(sw.leading_one(101), 10u);
}

TEST(ControlWord, OutOfRangeStartIsNormalized) {
  ControlWord sw(16);
  sw.set(7);
  EXPECT_EQ(sw.leading_one(9999), 7u);
}

TEST(ControlWord, SingleWordNeverGrowsASummary) {
  // m <= 64 is the paper's machine: one leading-one instruction, no
  // summary level even when hierarchical construction is requested.
  ControlWord sw(64, /*hierarchical=*/true);
  EXPECT_FALSE(sw.hierarchical());
  ControlWord big(65, /*hierarchical=*/true);
  EXPECT_TRUE(big.hierarchical());
  ControlWord flat(65, /*hierarchical=*/false);
  EXPECT_FALSE(flat.hierarchical());
}

TEST(ControlWord, LeafBoundaryBits) {
  // Bits 63/64/65 straddle the first leaf-word boundary: set/reset/
  // leading-one must agree across it in both flat and hierarchical modes.
  for (const bool hier : {false, true}) {
    ControlWord sw(130, hier);
    EXPECT_EQ(sw.hierarchical(), hier);
    for (const u32 bit : {63u, 64u, 65u}) {
      sw.set(bit);
      EXPECT_TRUE(sw.test(bit)) << "bit=" << bit << " hier=" << hier;
    }
    EXPECT_EQ(sw.popcount(), 3u);
    EXPECT_EQ(sw.leading_one(), 63u);
    sw.reset(63);
    EXPECT_FALSE(sw.test(63));
    EXPECT_EQ(sw.leading_one(), 64u);
    sw.reset(64);
    EXPECT_EQ(sw.leading_one(), 65u);
    EXPECT_EQ(sw.leading_one(66), 65u) << "wrap must cross the boundary";
    sw.reset(65);
    EXPECT_EQ(sw.leading_one(), ControlWord::kEmpty);
    EXPECT_EQ(sw.popcount(), 0u);
  }
}

TEST(ControlWord, SizeNotAMultipleOfWordSize) {
  // m = 130: three leaves, the last holding only two live bits — the top
  // bit must be reachable, and a rotated origin inside the ragged leaf
  // must wrap cleanly.
  for (const bool hier : {false, true}) {
    ControlWord sw(130, hier);
    sw.set(129);
    EXPECT_EQ(sw.leading_one(), 129u);
    EXPECT_EQ(sw.leading_one(129), 129u);
    sw.set(0);
    EXPECT_EQ(sw.leading_one(129), 129u);
    sw.reset(129);
    EXPECT_EQ(sw.leading_one(129), 0u) << "wrap from the ragged tail";
  }
}

TEST(ControlWord, RotatedOriginAcrossLeaves) {
  for (const bool hier : {false, true}) {
    ControlWord sw(256, hier);
    sw.set(5);
    sw.set(200);
    EXPECT_EQ(sw.leading_one(64), 200u);
    EXPECT_EQ(sw.leading_one(200), 200u);
    EXPECT_EQ(sw.leading_one(201), 5u);
    sw.reset(200);
    EXPECT_EQ(sw.leading_one(64), 5u);
  }
}

TEST(ControlWord, HierarchicalMatchesFlatOnRandomOps) {
  // Differential check: the summary level is an accelerator, not a
  // semantic change.  Apply one deterministic op stream to a flat and a
  // hierarchical word and require identical observable state throughout.
  constexpr u32 kBits = 300;
  ControlWord flat(kBits, /*hierarchical=*/false);
  ControlWord hier(kBits, /*hierarchical=*/true);
  u64 rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 4000; ++step) {
    const u32 bit = static_cast<u32>(next() % kBits);
    if (next() % 3 != 0) {
      flat.set(bit);
      hier.set(bit);
    } else {
      flat.reset(bit);
      hier.reset(bit);
    }
    const u32 start = static_cast<u32>(next() % kBits);
    ASSERT_EQ(flat.leading_one(start), hier.leading_one(start))
        << "step=" << step << " start=" << start;
    ASSERT_EQ(flat.test(bit), hier.test(bit)) << "step=" << step;
    ASSERT_EQ(flat.popcount(), hier.popcount()) << "step=" << step;
  }
}

TEST(ControlWord, HierarchicalSetVisibleUnderContention) {
  // Threads hammer set/reset on disjoint bit ranges spanning several
  // leaves while a scanner polls leading_one(); every bit a thread leaves
  // set must be found (the advisory summary may only cost retries).
  ControlWord sw(256, /*hierarchical=*/true);
  constexpr int kThreads = 4;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&sw, t] {
      const u32 base = static_cast<u32>(t) * 64;
      for (int round = 0; round < 2000; ++round) {
        const u32 bit = base + static_cast<u32>(round % 64);
        sw.set(bit);
        sw.reset(bit);
      }
      sw.set(base + 63);  // leave exactly one survivor per range
    });
  }
  for (auto& t : ts) t.join();
  for (int t = 0; t < kThreads; ++t) {
    const u32 survivor = static_cast<u32>(t) * 64 + 63;
    EXPECT_TRUE(sw.test(survivor));
    EXPECT_EQ(sw.leading_one(survivor), survivor);
  }
  EXPECT_EQ(sw.leading_one(), 63u);
  EXPECT_EQ(sw.popcount(), 4u);
}

// --------------------------------------------------------- Lock/Semaphore --

TEST(SpinLock, MutualExclusionUnderContention) {
  SpinLock lock;
  i64 counter = 0;  // unprotected except by `lock`
  constexpr int kThreads = 4;
  constexpr i64 kPer = 20000;
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&] {
      for (i64 i = 0; i < kPer; ++i) {
        SpinLockGuard g(lock);
        counter += 1;
      }
    });
  }
  for (auto& t : team) t.join();
  EXPECT_EQ(counter, kThreads * kPer);
  EXPECT_FALSE(lock.is_locked());
}

TEST(SpinLock, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_TRUE(lock.is_locked());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Semaphore, CountingSemantics) {
  Semaphore s(2);
  EXPECT_TRUE(s.try_p());
  EXPECT_TRUE(s.try_p());
  EXPECT_FALSE(s.try_p());
  s.v();
  EXPECT_TRUE(s.try_p());
  EXPECT_EQ(s.value(), 0);
}

TEST(Semaphore, ProducerConsumer) {
  Semaphore items(0);
  i64 consumed = 0;
  std::thread consumer([&] {
    for (int i = 0; i < 1000; ++i) {
      items.p();
      ++consumed;
    }
  });
  for (int i = 0; i < 1000; ++i) items.v();
  consumer.join();
  EXPECT_EQ(consumed, 1000);
  EXPECT_EQ(items.value(), 0);
}

// ----------------------------------------------------------------- misc --

TEST(Backoff, DoublesAndCaps) {
  Backoff b(2, 16);
  EXPECT_EQ(b.next(), 2);
  EXPECT_EQ(b.next(), 4);
  EXPECT_EQ(b.next(), 8);
  EXPECT_EQ(b.next(), 16);
  EXPECT_EQ(b.next(), 16);
  b.reset();
  EXPECT_EQ(b.next(), 2);
}

TEST(Backoff, GrowthIsMonotoneAndNeverExceedsTheCap) {
  // Non-power-of-two cap: doubling from 3 gives 3,6,12,24,48 — one more
  // doubling would pass 50, so the sequence parks exactly at the cap.
  Backoff b(3, 50);
  Cycles prev = 0;
  for (int k = 0; k < 64; ++k) {
    const Cycles c = b.next();
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 50);
    prev = c;
  }
  EXPECT_EQ(prev, 50);
}

TEST(Backoff, ResetRestartsFromTheInitialValueEveryTime) {
  Backoff b(4, 4096);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(b.next(), 4);
    EXPECT_EQ(b.next(), 8);
    b.reset();
  }
}

TEST(Backoff, CapAtOrBelowInitialPinsTheSequence) {
  // The Doacross wait uses a tight cap (doacross_backoff_max); a cap equal
  // to the initial value must degenerate to a constant pause, not zero.
  Backoff b(16, 16);
  EXPECT_EQ(b.next(), 16);
  EXPECT_EQ(b.next(), 16);
  Backoff d;  // defaults: initial 1, cap 1024
  EXPECT_EQ(d.next(), 1);
  Cycles last = 0;
  for (int k = 0; k < 20; ++k) last = d.next();
  EXPECT_EQ(last, 1024);
}

TEST(Backoff, SeededJitterStaysInsideTheUpperHalfOfTheEnvelope) {
  // The k-th unjittered envelope from (2, 16) is 2, 4, 8, 16, 16, ...; a
  // seeded draw must land in [ceil(env/2), env] every time.
  Backoff b(2, 16);
  b.seed_jitter(1987);
  Cycles env = 2;
  for (int k = 0; k < 32; ++k) {
    const Cycles c = b.next();
    EXPECT_GE(c, env - env / 2) << "draw " << k;
    EXPECT_LE(c, env) << "draw " << k;
    env = env * 2 <= 16 ? env * 2 : 16;
  }
}

TEST(Backoff, SeededJitterIsAPureFunctionOfTheSeed) {
  const auto draw = [](u64 seed, int n) {
    Backoff b(1, 4096);
    b.seed_jitter(seed);
    std::vector<Cycles> out;
    for (int k = 0; k < n; ++k) out.push_back(b.next());
    return out;
  };
  // Same seed: bit-identical; different seed: some draw differs (the
  // envelope is wide enough from attempt 3 on that a full collision would
  // mean the hash is ignoring the seed).
  EXPECT_EQ(draw(7, 24), draw(7, 24));
  EXPECT_NE(draw(7, 24), draw(8, 24));
}

TEST(Backoff, SeededResetReplaysTheExactDrawSequence) {
  Backoff b(2, 1024);
  b.seed_jitter(42);
  std::vector<Cycles> first, second;
  for (int k = 0; k < 12; ++k) first.push_back(b.next());
  b.reset();
  for (int k = 0; k < 12; ++k) second.push_back(b.next());
  EXPECT_EQ(first, second);
}

TEST(Backoff, UnseededModeIsUnchangedByTheJitterFeature) {
  // A Backoff that never calls seed_jitter must reproduce the historical
  // envelope exactly — the spin paths pay nothing for jitter existing.
  Backoff b(2, 16);
  EXPECT_EQ(b.next(), 2);
  EXPECT_EQ(b.next(), 4);
  EXPECT_EQ(b.next(), 8);
  EXPECT_EQ(b.next(), 16);
  EXPECT_EQ(b.next(), 16);
}

TEST(SpinBarrier, RendezvousRepeats) {
  constexpr u32 kThreads = 4;
  SpinBarrier barrier(kThreads);
  std::atomic<int> phase_count[3] = {{0}, {0}, {0}};
  std::vector<std::thread> team;
  for (u32 t = 0; t < kThreads; ++t) {
    team.emplace_back([&] {
      for (int phase = 0; phase < 3; ++phase) {
        phase_count[phase].fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier, every thread must see the full count.
        EXPECT_EQ(phase_count[phase].load(), static_cast<int>(kThreads));
      }
    });
  }
  for (auto& t : team) t.join();
}

}  // namespace
}  // namespace selfsched::sync
