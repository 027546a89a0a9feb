// Context-generic synchronization building blocks used by the scheduler:
// the paper's lock protocol and the control word SW, expressed purely in
// terms of ExecutionContext::sync_op so the virtual-time engine can
// timestamp and charge every access (the standalone real-hardware versions
// live in sync/).
#pragma once

#include <bit>
#include <memory>

#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "exec/context.hpp"
#include "runtime/fault.hpp"
#include "sync/backoff.hpp"
#include "sync/test_op.hpp"
#include "trace/recorder.hpp"

namespace selfsched::runtime {

using sync::Op;
using sync::Test;

/// Paper lock acquire: spin: {L = 1; Decrement}; if (failure) goto spin.
/// Fault-injection seam: an armed kLockDelay fault pauses the matching
/// worker here, perturbing lock-arrival order (compiles out without a plan).
template <exec::ExecutionContext C>
void ctx_lock(C& ctx, typename C::Sync& l) {
  fault::on_lock(ctx);
  sync::Backoff backoff;
  while (!ctx.sync_op(l, Test::kEQ, 1, Op::kDecrement).success) {
    trace::bump(ctx, &trace::Counters::backoff_iterations);
    ctx.pause(backoff.next());
  }
  trace::bump(ctx, &trace::Counters::lock_acquisitions);
}

template <exec::ExecutionContext C>
bool ctx_try_lock(C& ctx, typename C::Sync& l) {
  const bool acquired = ctx.sync_op(l, Test::kEQ, 1, Op::kDecrement).success;
  if (acquired) trace::bump(ctx, &trace::Counters::lock_acquisitions);
  return acquired;
}

/// Paper lock release: {L; Increment}.
template <exec::ExecutionContext C>
void ctx_unlock(C& ctx, typename C::Sync& l) {
  ctx.sync_op(l, Test::kNone, 0, Op::kIncrement);
}

/// Charge simulated bookkeeping cycles; a no-op on real hardware, where the
/// bookkeeping itself takes the time.
template <exec::ExecutionContext C>
void charge_cycles([[maybe_unused]] C& ctx, [[maybe_unused]] Cycles c) {
  if constexpr (C::kIsSimulated) ctx.charge(c);
}

/// The control word SW over context sync variables: bit i set while linked
/// list i is non-empty.  leading_one() models the paper's hardware
/// leading-one-detection: one Fetch per 64-bit word (a single instruction
/// for m <= 64, exactly the paper's machine).
///
/// For m > 64 the word is hierarchical (unless constructed flat): a summary
/// level carries one bit per leaf word, so a probe costs one summary Fetch
/// plus one leaf Fetch instead of m/64 Fetches — and, more importantly on
/// real hardware, searchers stop sweeping every leaf cache line.  Leaves
/// are cache-line padded.  The summary is advisory exactly like SW itself:
/// reset() repairs it with a clear/re-check step, and leading_one() falls
/// back to a direct leaf scan (repairing the summary) when the summary
/// reads empty, so a stale summary bit costs a retry, never lost work.
template <exec::ExecutionContext C>
class CtxControlWord {
 public:
  /// @param hierarchical  maintain the summary level when the word spans
  ///   more than one leaf; false reproduces the flat multi-word scan (the
  ///   ablation baseline).  Irrelevant for num_bits <= 64.
  explicit CtxControlWord(u32 num_bits, bool hierarchical = true)
      : num_bits_(num_bits),
        num_words_((num_bits + 63) / 64),
        num_summary_(hierarchical && num_words_ > 1 ? (num_words_ + 63) / 64
                                                    : 0),
        words_(std::make_unique<Padded[]>(num_words_)),
        summary_(num_summary_ != 0 ? std::make_unique<Padded[]>(num_summary_)
                                   : nullptr) {
    SS_CHECK(num_bits > 0);
  }

  static constexpr u32 kEmpty = 0xffffffffu;

  u32 size() const { return num_bits_; }
  bool hierarchical() const { return num_summary_ != 0; }

  void set(C& ctx, u32 i) {
    SS_DCHECK(i < num_bits_);
    const u32 w = i >> 6;
    const auto r = ctx.sync_op(words_[w].v, Test::kNone, 0, Op::kFetchOr,
                               static_cast<i64>(bit_mask(i)));
    if (num_summary_ != 0 && r.fetched == 0) {
      // Leaf transitioned empty -> non-empty: publish it one level up.
      ctx.sync_op(summary_[w >> 6].v, Test::kNone, 0, Op::kFetchOr,
                  static_cast<i64>(bit_mask(w)));
    }
  }

  void reset(C& ctx, u32 i) {
    SS_DCHECK(i < num_bits_);
    const u32 w = i >> 6;
    const auto r = ctx.sync_op(words_[w].v, Test::kNone, 0, Op::kFetchAnd,
                               static_cast<i64>(~bit_mask(i)));
    if (num_summary_ == 0 ||
        (static_cast<u64>(r.fetched) & ~bit_mask(i)) != 0) {
      return;
    }
    // The leaf went empty: clear its summary bit, then re-check the leaf.
    // A set() racing between our Fetch&And and the summary clear would
    // otherwise be hidden; re-publishing after the clear closes the race.
    ctx.sync_op(summary_[w >> 6].v, Test::kNone, 0, Op::kFetchAnd,
                static_cast<i64>(~bit_mask(w)));
    const u64 again = static_cast<u64>(
        ctx.sync_op(words_[w].v, Test::kNone, 0, Op::kFetch).fetched);
    if (again != 0) {
      ctx.sync_op(summary_[w >> 6].v, Test::kNone, 0, Op::kFetchOr,
                  static_cast<i64>(bit_mask(w)));
    }
  }

  /// Host-side read of bit i — no sync_op, so no virtual-time charge and no
  /// schedule perturbation.  Exact only where the caller owns the ordering:
  /// all SW(i) mutations happen under list i's lock, so holding that lock
  /// (as the audit hooks do) makes the peek authoritative.
  bool peek(u32 i) const {
    SS_DCHECK(i < num_bits_);
    const u64 bits = static_cast<u64>(words_[i >> 6].v.load());
    return (bits & bit_mask(i)) != 0;
  }

  /// One-bit probe (the local-list-first fast path of SEARCH): one Fetch.
  bool test(C& ctx, u32 i) {
    SS_DCHECK(i < num_bits_);
    const u64 bits = static_cast<u64>(
        ctx.sync_op(words_[i >> 6].v, Test::kNone, 0, Op::kFetch).fetched);
    return (bits & bit_mask(i)) != 0;
  }

  /// First set bit at or after `start`, wrapping, or kEmpty.  Each word
  /// inspected costs one Fetch; with the summary level a populated pool
  /// costs one summary Fetch + one leaf Fetch regardless of m.
  u32 leading_one(C& ctx, u32 start = 0) {
    trace::bump(ctx, &trace::Counters::sw_scans);
    if (start >= num_bits_) start = 0;
    const u32 start_word = start >> 6;

    if (num_summary_ == 0) {
      for (u32 k = 0; k < num_words_; ++k) {
        const u32 wi = (start_word + k) % num_words_;
        const u64 mask = k == 0 ? ~u64{0} << (start & 63) : ~u64{0};
        const u32 bit = scan_leaf(ctx, wi, mask);
        if (bit != kEmpty) return bit;
      }
      if ((start & 63) != 0) {
        const u32 bit =
            scan_leaf(ctx, start_word, (u64{1} << (start & 63)) - 1);
        if (bit != kEmpty) return bit;
      }
      return kEmpty;
    }

    // Hierarchical: fetch each summary word at most twice (once per
    // monotone run of the rotated walk) and only the flagged leaves.
    u32 cached_s = kEmpty;
    u64 cached_bits = 0;
    const auto summary_has = [&](u32 wi) {
      const u32 s = wi >> 6;
      if (s != cached_s) {
        cached_s = s;
        cached_bits = static_cast<u64>(
            ctx.sync_op(summary_[s].v, Test::kNone, 0, Op::kFetch).fetched);
      }
      return ((cached_bits >> (wi & 63)) & 1) != 0;
    };
    for (u32 k = 0; k < num_words_; ++k) {
      const u32 wi = (start_word + k) % num_words_;
      if (!summary_has(wi)) continue;
      const u64 mask = k == 0 ? ~u64{0} << (start & 63) : ~u64{0};
      const u32 bit = scan_leaf(ctx, wi, mask);
      if (bit != kEmpty) return bit;
    }
    if ((start & 63) != 0 && summary_has(start_word)) {
      const u32 bit =
          scan_leaf(ctx, start_word, (u64{1} << (start & 63)) - 1);
      if (bit != kEmpty) return bit;
    }

    // Liveness fallback: a set bit whose summary publication is in flight
    // (or was lost to a racing reset's clear) must not be unreachable.
    for (u32 wi = 0; wi < num_words_; ++wi) {
      const u32 bit = scan_leaf(ctx, wi, ~u64{0});
      if (bit != kEmpty) {
        trace::bump(ctx, &trace::Counters::sw_summary_repairs);
        ctx.sync_op(summary_[wi >> 6].v, Test::kNone, 0, Op::kFetchOr,
                    static_cast<i64>(bit_mask(wi)));
        return bit;
      }
    }
    return kEmpty;
  }

 private:
  // Leaves (and summary words) live on their own cache lines so searchers
  // sweeping SW do not false-share with list surgery on neighboring lists.
  struct alignas(kCacheLine) Padded {
    typename C::Sync v;
  };

  static constexpr u64 bit_mask(u32 i) { return u64{1} << (i & 63); }

  u32 scan_leaf(C& ctx, u32 wi, u64 mask) {
    const u64 bits =
        static_cast<u64>(
            ctx.sync_op(words_[wi].v, Test::kNone, 0, Op::kFetch).fetched) &
        mask;
    if (bits == 0) return kEmpty;
    const u32 bit = wi * 64 + static_cast<u32>(std::countr_zero(bits));
    return bit < num_bits_ ? bit : kEmpty;
  }

  u32 num_bits_;
  u32 num_words_;
  u32 num_summary_;  // summary words; 0 => flat (no summary level)
  std::unique_ptr<Padded[]> words_;
  std::unique_ptr<Padded[]> summary_;
};

}  // namespace selfsched::runtime
