// Real-hardware execution context: synchronization instructions map to
// sync::SyncVar (std::atomic CAS loops), work() maps to an optimization-
// resistant spin kernel (used only by synthetic workloads — real programs
// run their body lambdas directly), and phase time is wall-clock nanoseconds
// from std::chrono::steady_clock.  One RContext per worker thread.
#pragma once

#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "common/cpu_relax.hpp"
#include "common/types.hpp"
#include "exec/context.hpp"
#include "exec/instruments.hpp"
#include "sync/sync_var.hpp"

namespace selfsched::exec {

class RContext {
 public:
  using Sync = sync::SyncVar;
  static constexpr bool kIsSimulated = false;

  /// @param measure_phases  when false, set_phase() is a plain enum swap and
  ///   no clock is read — for throughput benches where the ~20 ns clock read
  ///   per transition would perturb the measured overheads.
  RContext(ProcId proc, u32 num_procs, bool measure_phases = true)
      : proc_(proc),
        num_procs_(num_procs),
        measure_(measure_phases),
        mark_(Clock::now()) {
    SS_CHECK(proc < num_procs);
  }

  RContext(const RContext&) = delete;
  RContext& operator=(const RContext&) = delete;

  ProcId proc() const { return proc_; }
  u32 num_procs() const { return num_procs_; }

  sync::SyncResult sync_op(Sync& v, sync::Test t, i64 test_value,
                           sync::Op op, i64 operand = 0) {
    ++stats_.sync_ops;
    const sync::SyncResult r = v.try_op(t, test_value, op, operand);
    if (!r.success) ++stats_.failed_sync_ops;
    return r;
  }

  /// Spin for `c` abstract work units.  The dependent integer recurrence
  /// defeats vectorization/const-folding, so elapsed time scales linearly
  /// with c; the absolute unit is irrelevant (benches report ratios).
  void work(Cycles c) {
    u64 x = sink_ + 0x9e3779b97f4a7c15ULL;
    for (Cycles i = 0; i < c; ++i) x = x * 0xd1342543de82ef95ULL + 1;
    sink_ = x;  // keep the result live
  }

  /// A pause budget at the backoff escalation cap means the awaited event
  /// is far overdue — almost always because its producer thread is
  /// descheduled (oversubscribed box, sanitizer slowdown).  Donate the
  /// timeslice instead of spinning through it: on a loaded single core a
  /// cpu_relax loop burns the whole OS quantum the producer needs.
  static constexpr Cycles kPauseYieldThreshold = 1024;

  void pause(Cycles c) {
    if (c >= kPauseYieldThreshold) {
      std::this_thread::yield();
      return;
    }
    for (Cycles i = 0; i < c; ++i) cpu_relax();
  }

  Phase set_phase(Phase p) {
    const Phase prev = phase_;
    phase_ = p;
    if (measure_) {
      const auto now = Clock::now();
      stats_[prev] += std::chrono::duration_cast<std::chrono::nanoseconds>(
                          now - mark_)
                          .count();
      mark_ = now;
    }
    return prev;
  }

  /// Flush the open phase interval into the stats (call before reading
  /// stats at the end of a run).
  void finish() { set_phase(phase_); }

  WorkerStats& stats() { return stats_; }

  /// The instrumentation seam (exec/instruments.hpp); trace_now() is
  /// nanoseconds since the installed epoch.
  void set_instruments(const Instruments& in) { instruments_ = in; }
  const Instruments& instruments() const { return instruments_; }
  Cycles trace_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - instruments_.epoch)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;

  ProcId proc_;
  u32 num_procs_;
  bool measure_;
  Phase phase_ = Phase::kOther;
  Clock::time_point mark_;
  WorkerStats stats_;
  Instruments instruments_;
  u64 sink_ = 0;
};

static_assert(ExecutionContext<RContext>);

}  // namespace selfsched::exec
