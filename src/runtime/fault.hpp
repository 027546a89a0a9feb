// Fault-tolerance primitives: deterministic fault injection, structured
// failure records, and the shared cancellation state of one run.
//
// Injection is one subscriber of the instrumentation seam
// (exec/instruments.hpp): the hooks below reach the armed plan through
// `ctx.instruments().faults`.  A context without the seam — or a build
// configured with -DSELFSCHED_FAULT=0 — compiles every hook away to
// nothing, which bench_hook_overhead measures.  With no plan installed
// each hook is one branch on a pointer.
//
// Determinism: a fault fires as a pure function of per-worker scheduler
// state (which worker executes which (loop, ivec, j) point, the per-worker
// lock-acquisition sequence).  Under the vtime engine those are functions
// of (program, cost model, schedule spec), so an injected fault — and the
// whole cancellation protocol it triggers, which signals exclusively
// through engine-serialized synchronization variables — replays
// bit-identically via ScheduleController kReplay.  See docs/robustness.md.
//
// Layering: this header depends only on common/ and trace/ (for counter
// folding); the runtime headers include it, never the reverse.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "exec/instruments.hpp"
#include "trace/recorder.hpp"

#ifndef SELFSCHED_FAULT
#define SELFSCHED_FAULT 1
#endif

namespace selfsched::fault {

enum class FaultKind : u32 {
  kBodyThrow,    // throw from inside an iteration body
  kWorkerStall,  // stop making progress at an iteration (cycles = stall
                 // length; 0 = wedge until cancellation or a deadline)
  kLockDelay,    // pause before a paper-lock acquisition (perturbation)
};

inline const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kBodyThrow: return "body-throw";
    case FaultKind::kWorkerStall: return "worker-stall";
    case FaultKind::kLockDelay: return "lock-delay";
  }
  return "?";
}

/// One armed fault.  Body faults (kBodyThrow/kWorkerStall) fire exactly
/// once, at the first body point matching (loop, iteration, ivec, worker):
/// an unpinned spec's filters can match concurrently on several threaded
/// workers, so the fire state is an atomic and match_body elects the single
/// firer by CAS — lock-free, no further discipline needed.  (For the firing
/// *point* to be deterministic under vtime the filters must still identify
/// a unique body point, e.g. by pinning `iteration` — each iteration of a
/// loop instance executes exactly once.)  kLockDelay requires `worker` and
/// fires at that worker's `lock_seq`-th ctx_lock acquisition (0-based).
struct FaultSpec {
  FaultKind kind = FaultKind::kBodyThrow;
  LoopId loop = kNoLoop;  // body faults: innermost loop to hit (kNoLoop=any)
  i64 iteration = -1;     // body faults: iteration j (-1 = any)
  IndexVec ivec;          // body faults: required enclosing-index prefix
                          // ({} = any instance)
  i32 worker = -1;        // processor filter (-1 = any)
  u64 lock_seq = 0;       // kLockDelay: 0-based per-worker acquisition index
  Cycles cycles = 0;      // kWorkerStall: stall length (0 = until cancelled);
                          // kLockDelay: pause length

  // --- per-run fire state (FaultPlan::reset() clears) ---
  std::atomic<u64> fired{0};  // times this spec fired
  std::atomic<u64> seen{0};   // kLockDelay: acquisitions seen by the worker

  FaultSpec() = default;
  FaultSpec(const FaultSpec& o)
      : kind(o.kind),
        loop(o.loop),
        iteration(o.iteration),
        ivec(o.ivec),
        worker(o.worker),
        lock_seq(o.lock_seq),
        cycles(o.cycles),
        fired(o.fired.load(std::memory_order_relaxed)),
        seen(o.seen.load(std::memory_order_relaxed)) {}
  FaultSpec& operator=(const FaultSpec& o) {
    if (this != &o) {
      kind = o.kind;
      loop = o.loop;
      iteration = o.iteration;
      ivec = o.ivec;
      worker = o.worker;
      lock_seq = o.lock_seq;
      cycles = o.cycles;
      fired.store(o.fired.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      seen.store(o.seen.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    }
    return *this;
  }
};

/// A set of armed faults for one run.  Borrowed by SchedOptions::fault_plan
/// (mirroring audit_sink); reset() re-arms it for another run.
struct FaultPlan {
  std::vector<FaultSpec> specs;

  void reset() {
    for (FaultSpec& s : specs) {
      s.fired.store(0, std::memory_order_relaxed);
      s.seen.store(0, std::memory_order_relaxed);
    }
  }

  u64 total_fired() const {
    u64 n = 0;
    for (const FaultSpec& s : specs) {
      n += s.fired.load(std::memory_order_relaxed);
    }
    return n;
  }

  FaultPlan& body_throw(LoopId loop, i64 iteration, IndexVec ivec = {},
                        i32 worker = -1) {
    FaultSpec s;
    s.kind = FaultKind::kBodyThrow;
    s.loop = loop;
    s.iteration = iteration;
    s.ivec = std::move(ivec);
    s.worker = worker;
    specs.push_back(std::move(s));
    return *this;
  }

  FaultPlan& worker_stall(LoopId loop, i64 iteration, Cycles cycles = 0,
                          IndexVec ivec = {}, i32 worker = -1) {
    FaultSpec s;
    s.kind = FaultKind::kWorkerStall;
    s.loop = loop;
    s.iteration = iteration;
    s.ivec = std::move(ivec);
    s.worker = worker;
    s.cycles = cycles;
    specs.push_back(std::move(s));
    return *this;
  }

  FaultPlan& lock_delay(i32 worker, u64 lock_seq, Cycles cycles) {
    FaultSpec s;
    s.kind = FaultKind::kLockDelay;
    s.worker = worker;
    s.lock_seq = lock_seq;
    s.cycles = cycles;
    specs.push_back(std::move(s));
    return *this;
  }
};

/// The exception an armed kBodyThrow fault raises from inside the body.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Internal unwind token: a worker observed cancellation inside a blocking
/// region (Doacross post-wait, injected stall) and abandons its current
/// dispatch.  Never escapes worker_loop; deliberately not a std::exception
/// so user catch(std::exception&) handlers in bodies cannot swallow it.
struct Cancelled {};

/// Per-worker progress snapshot attached to failure records, harvested
/// from the existing WorkerStats counters after the team joins.
struct WorkerProgress {
  ProcId worker = 0;
  u64 iterations = 0;
  u64 dispatches = 0;
  u64 searches = 0;
  u64 sync_ops = 0;
};

/// Structured description of why a run was cancelled.
struct FailureRecord {
  enum class Kind : u32 {
    kBodyException,  // an iteration body threw
    kInjectedFault,  // an armed FaultSpec fired (throw or indefinite stall)
    kDeadline,       // SchedOptions deadline expired
    kCancelled,      // externally cancelled (serve::Handle::cancel, stop)
    kWatchdog,       // the stall watchdog saw no progress within its budget
    kShed,           // pending work dropped by serve overload shedding
  };

  Kind kind = Kind::kBodyException;
  LoopId loop = kNoLoop;  // innermost loop of the failing point (if any)
  IndexVec ivec;          // enclosing index vector of the failing instance
  i64 iteration = -1;     // failing iteration j (-1 if not at a body point)
  ProcId worker = 0;      // processor that claimed the failure
  std::string message;
  /// The original body exception (kBodyException / kInjectedFault); the
  /// runner rethrows it under OnBodyError::kThrow.
  std::exception_ptr exception;
  std::vector<WorkerProgress> progress;

  std::string summary() const {
    std::string s = "run failed (";
    s += kind_name(kind);
    s += ") at loop ";
    s += loop == kNoLoop ? std::string("<none>") : std::to_string(loop);
    s += " ivec=[";
    for (std::size_t k = 0; k < ivec.size(); ++k) {
      if (k != 0) s += ',';
      s += std::to_string(ivec[k]);
    }
    s += "] j=";
    s += std::to_string(iteration);
    s += " worker=";
    s += std::to_string(worker);
    if (!message.empty()) {
      s += ": ";
      s += message;
    }
    return s;
  }

  static const char* kind_name(Kind k) {
    switch (k) {
      case Kind::kBodyException: return "body-exception";
      case Kind::kInjectedFault: return "injected-fault";
      case Kind::kDeadline: return "deadline";
      case Kind::kCancelled: return "cancelled";
      case Kind::kWatchdog: return "watchdog";
      case Kind::kShed: return "shed";
    }
    return "?";
  }
};

/// Thrown by the runners under OnBodyError::kThrow when the failure has no
/// original exception to rethrow (injected stalls, deadlines).
class FailureError : public std::runtime_error {
 public:
  explicit FailureError(FailureRecord rec)
      : std::runtime_error(rec.summary()), record_(std::move(rec)) {}
  const FailureRecord& record() const { return record_; }

 private:
  FailureRecord record_;
};

/// Best-effort description of an arbitrary exception_ptr.
inline std::string describe_exception(const std::exception_ptr& e) {
  if (!e) return "<no exception>";
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "<non-standard exception>";
  }
}

/// Host steady clock as nanoseconds-since-epoch: the threaded stall
/// watchdog's time base (one i64, cheap to store in a relaxed atomic).
inline i64 host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shared cancellation state of one scheduled execution (a member of
/// SchedState).  `claim` elects the single failure-record owner and `latch`
/// the single cancellation initiator — both via engine-serialized
/// {== 0 ; Increment}, so the winners are deterministic under vtime.  The
/// `cancelled` host mirror serves the threaded engine's fast cancellation
/// probes and the runner's post-join harvest only; virtual workers never
/// read it mid-run (bit-replayability).
template <typename SyncT>
struct CancelState {
  SyncT claim;   // 0 until the first failure claims the record
  SyncT latch;   // 0 until cancellation is initiated
  std::atomic<u32> cancelled{0};
  FailureRecord record;  // written only by the claim winner

  /// Virtual-time deadline, in absolute virtual cycles (0 = none).
  Cycles vdeadline = 0;
  /// Threaded-engine deadline on the host clock.
  bool host_deadline_armed = false;
  std::chrono::steady_clock::time_point host_deadline{};

  // --- stall watchdog (docs/robustness.md; both budgets 0 = disarmed) ---
  // Progress is marked at chunk completion (the icount update): the last
  // mark plus the budget is the rescue point.  On vtime the mark is a plain
  // field — every write/read is engine-serialized, so rescues replay
  // bit-identically; on threads it is a relaxed atomic on the host clock.
  /// Virtual-time budget: rescue after this many vcycles without progress.
  Cycles stall_vcycles = 0;
  /// Threaded budget: rescue after this many host ns without progress.
  i64 stall_ns = 0;
  /// vtime: virtual time of the last completed chunk (engine-serialized).
  Cycles watch_vt = 0;
  /// Threads: host_now_ns() of the last completed chunk.
  std::atomic<i64> watch_host{0};
};

// ---------------------------------------------------------------------------
// Injection hooks (compile-out pattern; see header comment).
// ---------------------------------------------------------------------------

/// Body-point hook: the first armed body fault matching
/// (loop, ivec, j, worker) fires and is returned; nullptr otherwise.
template <typename C>
inline FaultSpec* match_body(C& ctx, LoopId loop, const IndexVec& ivec,
                             u32 depth, i64 j) {
  if constexpr (SELFSCHED_FAULT && exec::InstrumentedContext<C>) {
    FaultPlan* plan = ctx.instruments().faults;
    if (plan == nullptr) return nullptr;
    for (FaultSpec& s : plan->specs) {
      if (s.kind == FaultKind::kLockDelay ||
          s.fired.load(std::memory_order_relaxed) != 0) {
        continue;
      }
      if (s.loop != kNoLoop && s.loop != loop) continue;
      if (s.iteration >= 0 && s.iteration != j) continue;
      if (s.worker >= 0 && static_cast<ProcId>(s.worker) != ctx.proc()) {
        continue;
      }
      if (!s.ivec.empty()) {
        const std::size_t n =
            std::min<std::size_t>(s.ivec.size(), static_cast<std::size_t>(depth));
        bool match = true;
        for (std::size_t k = 0; k < n; ++k) {
          if (s.ivec[k] != ivec[k]) {
            match = false;
            break;
          }
        }
        if (!match) continue;
      }
      // Unpinned filters can match concurrently: the CAS elects exactly
      // one firer.
      u64 expected = 0;
      if (!s.fired.compare_exchange_strong(expected, 1,
                                           std::memory_order_relaxed)) {
        continue;
      }
      trace::bump(ctx, &trace::Counters::faults_injected);
      return &s;
    }
  }
  return nullptr;
}

/// Lock-acquisition hook (called by ctx_lock): an armed kLockDelay spec for
/// this worker pauses it `cycles` before the `lock_seq`-th acquisition.
template <typename C>
inline void on_lock(C& ctx) {
  if constexpr (SELFSCHED_FAULT && exec::InstrumentedContext<C>) {
    FaultPlan* plan = ctx.instruments().faults;
    if (plan == nullptr) return;
    for (FaultSpec& s : plan->specs) {
      if (s.kind != FaultKind::kLockDelay) continue;
      if (s.worker < 0 || static_cast<ProcId>(s.worker) != ctx.proc()) {
        continue;
      }
      // Only the pinned worker reaches here, so seen/fired have a single
      // writer; atomics keep the spec copyable alongside the body kinds.
      const u64 seq = s.seen.fetch_add(1, std::memory_order_relaxed);
      if (s.fired.load(std::memory_order_relaxed) == 0 &&
          seq == s.lock_seq) {
        s.fired.store(1, std::memory_order_relaxed);
        trace::bump(ctx, &trace::Counters::faults_injected);
        ctx.pause(s.cycles);
      }
    }
  }
}

}  // namespace selfsched::fault
