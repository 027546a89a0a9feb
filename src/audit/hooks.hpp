// Invariant-auditor instrumentation hooks.  The scheduler templates call the
// named wrappers below; each hands its Auditor call to deliver(), which
// reaches the auditor through the instrumentation seam
// (`ctx.instruments().auditor`, exec/instruments.hpp).  A context without
// the seam — or a build configured with -DSELFSCHED_AUDIT=0 — compiles
// every hook away to nothing, which bench_hook_overhead measures.
//
// Layering: this header depends only on audit/auditor.hpp and trace/ (for
// counter folding); the runtime headers include it, never the reverse.
#pragma once

#include <cstddef>
#include <string>

#include "audit/auditor.hpp"
#include "common/types.hpp"
#include "exec/instruments.hpp"
#include "trace/recorder.hpp"

#ifndef SELFSCHED_AUDIT
#define SELFSCHED_AUDIT 1
#endif

namespace selfsched::audit {

/// Host-side read of a context synchronization variable — no sync_op, so no
/// virtual-time charge and no schedule perturbation.  Sound only where the
/// caller already owns the ordering (inside the lock protecting the value,
/// or at quiescence after every worker has joined).
template <typename S>
inline i64 sync_peek(S& s) {
  return s.load();
}

/// The one delivery path every hook shares: enabled build + instrumented
/// context + installed auditor, else a constant-folded no-op.  `call` runs
/// the Auditor method; the delivery (and any violations it recorded) is
/// folded into the trace counters so audited runs report audit_* next to
/// the protocol counters.
template <typename C, typename Call>
inline void deliver(C& ctx, Call&& call) {
  if constexpr (SELFSCHED_AUDIT && exec::InstrumentedContext<C>) {
    if (Auditor* a = ctx.instruments().auditor) {
      const u32 violations = call(*a);
      trace::bump(ctx, &trace::Counters::audit_events);
      if (violations != 0) {
        trace::bump(ctx, &trace::Counters::audit_violations, violations);
      }
    }
  }
}

/// The ICB's current audit generation, read on the host before an op that
/// may let the ICB be released and recycled (the pcount Decrement), so the
/// hook that follows the op names the generation it belongs to.  0 when
/// the auditor is off.
template <typename C>
inline u64 generation(C& ctx, const void* icb) {
  if constexpr (SELFSCHED_AUDIT && exec::InstrumentedContext<C>) {
    if (Auditor* a = ctx.instruments().auditor) return a->generation(icb);
  }
  return 0;
}

template <typename C>
inline void on_acquire(C& ctx, const void* icb) {
  deliver(ctx, [&](Auditor& a) { return a.on_acquire(ctx.proc(), icb); });
}

template <typename C>
inline void on_publish(C& ctx, const void* icb, LoopId loop, u64 ivec_hash,
                       i64 bound, u32 list, u32 shards = 1) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_publish(ctx.proc(), icb, loop, ivec_hash, bound, list, shards);
  });
}

/// Convenience wrapper over on_publish for call sites holding the ICB
/// itself: derives (loop, ivec hash, bound) from its fields, and — unlike
/// spelling the arguments at the call site — only computes the ivec hash
/// when the hook is live.
template <typename C, typename IcbT>
inline void on_publish_icb(C& ctx, const IcbT* ip, u32 list) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_publish(ctx.proc(), ip, ip->loop,
                        trace::ivec_hash(ip->ivec, ip->depth), ip->bound,
                        list, ip->num_shards);
  });
}

template <typename C>
inline void on_attach(C& ctx, const void* icb) {
  deliver(ctx, [&](Auditor& a) { return a.on_attach(ctx.proc(), icb); });
}

/// `gen` is generation(ctx, icb) read before the revoking Decrement.
template <typename C>
inline void on_attach_revoked(C& ctx, const void* icb, u64 gen) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_attach_revoked(ctx.proc(), icb, gen);
  });
}

/// `gen` is generation(ctx, icb) read before the detaching Decrement.
template <typename C>
inline void on_detach(C& ctx, const void* icb, i64 pcount_before, u64 gen) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_detach(ctx.proc(), icb, pcount_before, gen);
  });
}

template <typename C>
inline void on_dispatch(C& ctx, const void* icb, i64 first, i64 count) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_dispatch(ctx.proc(), icb, first, count);
  });
}

template <typename C>
inline void on_complete(C& ctx, const void* icb, i64 icount_before,
                        i64 count) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_complete(ctx.proc(), icb, icount_before, count);
  });
}

/// Successful grab of [first, first+count) from shard `shard` of a sharded
/// index; `stolen` marks a grant from a non-home shard.
template <typename C>
inline void on_shard_grant(C& ctx, const void* icb, u32 shard, i64 first,
                           i64 count, bool stolen) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_shard_grant(ctx.proc(), icb, shard, first, count, stolen);
  });
}

/// The grab above took shard `shard`'s final iteration; `elected` marks the
/// sched_done increment that won the instance-wide completion election.
template <typename C>
inline void on_shard_exhaust(C& ctx, const void* icb, u32 shard,
                             bool elected) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_shard_exhaust(ctx.proc(), icb, shard, elected);
  });
}

template <typename C>
inline void on_unlink(C& ctx, const void* icb) {
  deliver(ctx, [&](Auditor& a) { return a.on_unlink(ctx.proc(), icb); });
}

template <typename C>
inline void on_release(C& ctx, const void* icb) {
  deliver(ctx, [&](Auditor& a) { return a.on_release(ctx.proc(), icb); });
}

template <typename C>
inline void on_da_post(C& ctx, const void* icb, i64 j) {
  deliver(ctx, [&](Auditor& a) { return a.on_da_post(ctx.proc(), icb, j); });
}

template <typename C>
inline void on_bar_count(C& ctx, u32 loop_uid, bool created, i64 count,
                         i64 bound, bool tripped) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_bar_count(ctx.proc(), loop_uid, created, count, bound,
                          tripped);
  });
}

/// One batched-ENTER flush: `batch_size` sibling ICBs about to be
/// published, whose per-instance `outstanding` increments were coalesced
/// into a single Increment-by-`outstanding_delta` sync op.
template <typename C>
inline void on_enter_batch(C& ctx, u64 batch_size, i64 outstanding_delta) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_enter_batch(ctx.proc(), batch_size, outstanding_delta);
  });
}

/// Batched-ENTER BAR_COUNT coalescing: one activator pre-created (or
/// found) the sibling set's barrier counter before any arrival.
template <typename C>
inline void on_bar_prepare(C& ctx, u32 loop_uid, bool created) {
  deliver(ctx, [&](Auditor& a) {
    return a.on_bar_prepare(ctx.proc(), loop_uid, created);
  });
}

template <typename C>
inline void on_terminate(C& ctx) {
  deliver(ctx, [&](Auditor& a) { return a.on_terminate(ctx.proc()); });
}

template <typename C>
inline void on_cancel(C& ctx) {
  deliver(ctx, [&](Auditor& a) { return a.on_cancel(ctx.proc()); });
}

/// What is structurally wrong with one task-pool list (empty if nothing):
/// head/tail agreement, left/right back-link consistency, cycle
/// boundedness, and SW-bit/list-emptiness agreement.
template <typename Node>
std::string list_problem(const Node* head, const Node* tail, bool sw_bit) {
  if ((head == nullptr) != (tail == nullptr)) {
    return "one of head/tail null, the other not";
  }
  if (sw_bit != (head != nullptr)) {
    return head != nullptr ? "SW bit clear on a non-empty list"
                           : "SW bit set on an empty list";
  }
  constexpr std::size_t kMaxSteps = std::size_t{1} << 22;
  const Node* prev = nullptr;
  std::size_t steps = 0;
  for (const Node* p = head; p != nullptr; p = p->right) {
    if (p->left != prev) return "left back-link does not match the predecessor";
    if (++steps > kMaxSteps) return "walk exceeded the step bound (cycle?)";
    prev = p;
  }
  return prev != tail ? "forward walk did not end at tail" : "";
}

/// Structural check of one task-pool list, called while its lock is still
/// held (so the walk is race-free) right after a lock region restored the
/// control word.  `sw_bit_fn` is invoked (only when the hook is live) to
/// host-side-peek SW(list) — all SW(list) mutations happen under list
/// `list`'s lock, so the peek is exact here.
template <typename C, typename Node, typename SwBitFn>
inline void check_list(C& ctx, u32 list, const Node* head, const Node* tail,
                       SwBitFn&& sw_bit_fn) {
  deliver(ctx, [&](Auditor& a) -> u32 {
    const std::string problem = list_problem(head, tail, sw_bit_fn());
    return problem.empty() ? 0 : a.on_list_violation(ctx.proc(), list,
                                                     problem);
  });
}

}  // namespace selfsched::audit
