// Runtime invariant auditor (compile-time removable via SELFSCHED_AUDIT,
// mirroring the SELFSCHED_TRACE pattern — see audit/hooks.hpp for the
// instrumentation seams).
//
// The two-level protocol of §III is held together by conservation laws the
// end-state oracle can only check indirectly: pcount attach/detach symmetry,
// icount reaching `bound` exactly once, `outstanding` never reaching 0 while
// instances remain, task-pool list integrity, BAR_COUNT reclamation, and
// Doacross post-at-most-once.  The Auditor shadow-tracks the lifecycle of
// every ICB
//
//     free -> acquired -> published -> draining -> released -> (recycled)
//
// and validates each transition the moment it happens, so a protocol
// violation surfaces as a structured report at the faulting event instead of
// as a hung test or a silently wrong counter much later.
//
// Concurrency discipline: hooks are delivered from worker threads (carrier
// threads, under the vtime engine) and serialized by one host-side mutex.
// Hook delivery for transitions of the SAME ICB is ordered by the protocol
// itself — acquire/release fire inside the ICB-pool lock region,
// publish/attach/unlink inside the list-lock region, and dispatch/complete
// precede the issuing worker's detach in program order — so the state
// machine below observes transitions in a linearization-consistent order.
// Quantities whose hooks are NOT mutually ordered (detach, icount updates,
// BAR_COUNT deltas across buckets) are validated against the *fetched*
// values of the underlying synchronization instructions, which commute, and
// their shadow balances are only compared at quiescence, after every worker
// has joined and all hooks have drained.
//
// The auditor performs host work only: no sync_op, no virtual-time charge.
// Under the vtime engine an audited run is therefore bit-identical to an
// unaudited one, and — because every hook fires inside a protocol-ordered
// region — a violation report is a pure function of (program, cost model,
// schedule spec): pair it with RunResult::schedule_decisions and a kReplay
// controller and the failure reproduces exactly.
#pragma once

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace selfsched::audit {

/// Shadow lifecycle state of one ICB generation.
enum class IcbState : u32 {
  kFree,       // never used, or recycled and not yet re-acquired
  kAcquired,   // popped from the ICB pool, owned by the activating worker
  kPublished,  // APPENDed to a task-pool list, visible to searchers
  kDraining,   // DELETEd from its list; attached workers still executing
  kReleased,   // returned to the ICB pool
};

const char* icb_state_name(IcbState s);

/// One invariant violation, with enough identity to line the failure up
/// against trace events and — under vtime — a recorded schedule.
struct Violation {
  std::string rule;    // stable kebab-case id, e.g. "double-release"
  std::string detail;  // human-readable specifics
  LoopId loop = kNoLoop;
  u64 ivec_hash = 0;   // trace::ivec_hash of the instance (0 if unknown)
  ProcId worker = 0;   // processor whose event tripped the check
  u64 icb_serial = 0;  // auditor-assigned ICB generation (0 = none)
};

/// Shadow state and invariant checks for one scheduled program execution.
/// All methods are thread-safe; each returns the number of violations the
/// call recorded (0 on the fast path) so inline hooks can fold the result
/// into the trace counters.
class Auditor {
 public:
  Auditor() = default;
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // --- ICB lifecycle (hook seams in icb_pool/task_pool/high_level/worker) --
  u32 on_acquire(ProcId w, const void* icb);
  u32 on_publish(ProcId w, const void* icb, LoopId loop, u64 ivec_hash,
                 i64 bound, u32 list, u32 shards = 1);
  /// Successful {pcount < bound ; Increment} in SEARCH (under the list lock).
  u32 on_attach(ProcId w, const void* icb);
  /// Post-attach re-check failed: the attach was revoked before dispatch.
  /// `gen` is generation(icb) read before the revoking Decrement.
  u32 on_attach_revoked(ProcId w, const void* icb, u64 gen);
  /// {pcount ; Decrement}; `pcount_before` is the fetched value and `gen`
  /// is generation(icb) read before the op.  The Decrement can let the
  /// completer release (and a new activation recycle) the ICB before this
  /// hook lands, so the hook is applied to the generation it names, never
  /// to whichever generation the address holds by then.  A generation this
  /// auditor never issued is the "unknown-generation" rule.
  u32 on_detach(ProcId w, const void* icb, i64 pcount_before, u64 gen);
  /// The generation number on_acquire assigned to the ICB at `icb` (0 if
  /// it was never acquired).
  u64 generation(const void* icb) const;
  /// Successful low-level grab of [first, first+count).
  u32 on_dispatch(ProcId w, const void* icb, i64 first, i64 count);
  /// Successful grab of [first, first+count) from shard `shard` of a sharded
  /// index (`stolen` = non-home shard).  Checks are order-independent —
  /// cross-worker hook delivery is unordered, so each grant is validated
  /// against the shard geometry (recomputed from bound and the shard count
  /// via shard_math) and the running per-shard grant sum, never against
  /// arrival order.
  u32 on_shard_grant(ProcId w, const void* icb, u32 shard, i64 first,
                     i64 count, bool stolen);
  /// The grant that took shard `shard`'s final iteration; `elected` marks
  /// the sched_done increment that won the completion election.
  u32 on_shard_exhaust(ProcId w, const void* icb, u32 shard, bool elected);
  /// {icount ; Fetch&Add(count)}; `icount_before` is the fetched value.
  u32 on_complete(ProcId w, const void* icb, i64 icount_before, i64 count);
  /// DELETE from the task-pool list (under the list lock).
  u32 on_unlink(ProcId w, const void* icb);
  u32 on_release(ProcId w, const void* icb);

  // --- Doacross / barrier / pool-structure checks ---
  /// Post of iteration j's dependence flag.
  u32 on_da_post(ProcId w, const void* icb, i64 j);
  /// One BAR_COUNT increment: `created`/`tripped` say whether the counter
  /// node was allocated / reclaimed by this arrival; `count` is the value
  /// after the increment.
  u32 on_bar_count(ProcId w, u32 loop_uid, bool created, i64 count, i64 bound,
                   bool tripped);
  /// Batched-ENTER BAR_COUNT coalescing: the activator find-or-created the
  /// sibling set's counter (count untouched) before any arrival.
  u32 on_bar_prepare(ProcId w, u32 loop_uid, bool created);
  /// One batched-ENTER flush: `batch_size` sibling ICBs about to publish,
  /// their per-instance `outstanding` increments coalesced into a single
  /// Increment-by-`outstanding_delta` sync op.  The conservation balance
  /// still counts per-publish (each on_publish adds one), so the only new
  /// law is delta == batch_size — a drifting coalesced increment would
  /// otherwise corrupt `outstanding` silently.
  u32 on_enter_batch(ProcId w, u64 batch_size, i64 outstanding_delta);
  /// Structural damage found by audit::check_list (hooks.hpp).
  u32 on_list_violation(ProcId w, u32 list, const std::string& detail);
  /// The all-done flag was stored; later activations are protocol breaches.
  u32 on_terminate(ProcId w);

  // --- structured cancellation (runtime/fault.hpp, docs/robustness.md) ---
  /// Cancellation initiated: done := 1 WITHOUT a protocol termination
  /// (post-cancel completers may still legitimately publish successors).
  /// Switches the auditor into cancelled mode, in which the host-side
  /// post-join drain may retire leftovers via the on_drain_* hooks below.
  u32 on_cancel(ProcId w);
  /// Host-side drain of one orphaned ICB (published or draining) after a
  /// cancelled run; counts as its release for the conservation balances.
  u32 on_drain_release(const void* icb);
  /// Host-side drain reclaimed `n` live BAR_COUNT counter nodes.
  u32 on_drain_bars(u64 n);

  /// End-of-run conservation checks; call after every worker has joined.
  /// `outstanding` is the final value of SchedState::outstanding and
  /// `live_bar_counters` of BarCountTable::live_counters().
  u32 on_quiescence(bool pool_empty, u64 live_bar_counters, i64 outstanding);

  /// Label this auditor with the namespace it audits (e.g. a serve tenant:
  /// "tenant 3 sub 17").  Reports lead with it, so a violation in a
  /// many-tenant service names its namespace.  Set before hooks fire.
  void set_scope(std::string scope);
  std::string scope() const;

  /// Test-only fault injection: the next release of an ICB of `loop` is
  /// processed twice, as if the worker called IcbPool::release twice.
  void arm_double_release(LoopId loop);

  /// Clear all shadow state, ready for another run.  An Auditor audits ONE
  /// scheduled execution (done_seen_, ICB generations, and the conservation
  /// balances are per-run); an external sink reused across runs must be
  /// reset between them, with no run in flight.
  void reset();

  u64 violation_count() const;
  u64 events() const;
  /// Stored violations (capped at kMaxStoredViolations; the count keeps
  /// running past the cap).
  std::vector<Violation> violations() const;
  /// Multi-line report: one line per violation plus — when provided — the
  /// recorded schedule-decision trace that replays the run via kReplay.
  std::string report(const std::vector<ProcId>& schedule_decisions = {}) const;

  static constexpr std::size_t kMaxStoredViolations = 64;

 private:
  struct Shadow {
    IcbState state = IcbState::kFree;
    u64 serial = 0;        // generation number, assigned at acquire
    LoopId loop = kNoLoop;
    u64 ivec_hash = 0;
    i64 bound = 0;
    u32 list = 0;
    i64 attach_balance = 0;  // attaches - (revokes + detaches), per generation
    i64 completions = 0;     // icount updates that reached the bound
    std::vector<bool> da_posted;  // lazily sized bound+1 (Doacross only)
    // Sharded-index shadow (num_shards > 1 generations only):
    u32 nshards = 1;
    std::vector<i64> shard_granted;    // iterations granted per shard
    std::vector<i64> shard_exhausted;  // exhaust hooks seen per shard
    i64 shard_elections = 0;           // elected exhausts (must end at 1)
    bool retired = false;  // a recycled generation kept in retired_
  };

  Shadow& shadow(const void* icb);  // caller holds mu_
  /// The shadow of generation `gen` of `icb`: the live one, or a retired
  /// generation's; nullptr (after recording the violation in `v`) for a
  /// generation never issued.  Caller holds mu_.
  Shadow* generation_shadow(ProcId w, const void* icb, u64 gen, u32& v);
  /// Drop a retired generation once its attach balance is back to zero.
  void settle(u64 gen, const Shadow& s);  // caller holds mu_
  u32 violate(const Shadow* s, ProcId w, const char* rule,
              std::string detail);  // caller holds mu_
  u32 release_locked(ProcId w, const void* icb);

  mutable std::mutex mu_;
  std::unordered_map<const void*, Shadow> icbs_;
  /// Recycled generations whose attach balance was still open at recycle
  /// time (a late detach in flight), keyed by serial.  Settled entries are
  /// dropped; what remains at quiescence is a real imbalance.
  std::unordered_map<u64, Shadow> retired_;
  u64 next_serial_ = 0;
  u64 events_ = 0;
  u64 violation_count_ = 0;
  i64 outstanding_shadow_ = 0;  // publishes - releases
  i64 live_bars_ = 0;           // BAR_COUNT nodes allocated - reclaimed
  bool done_seen_ = false;
  bool cancelled_ = false;      // on_cancel seen; on_drain_* become legal
  LoopId armed_double_release_ = kNoLoop;
  std::string scope_;           // namespace label for reports
  std::vector<Violation> violations_;
};

}  // namespace selfsched::audit
