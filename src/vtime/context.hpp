// Virtual-time execution context: adapts the Engine to the ExecutionContext
// concept.  Every synchronization instruction costs CostModel::sync_op
// cycles and executes at a deterministic point on the virtual clock; work()
// and pause() advance the clock without blocking.  When the engine carries
// a ScheduleController, "deterministic" means per (controller, seed): the
// same spec replays the same grant order bit-for-bit, and different seeds
// explore different legal tie-break interleavings.  Phase attribution is
// exact: each charged cycle lands in the bucket of the phase that was
// current when it was charged, so O1/O2/O3 of the paper's analysis fall
// straight out of WorkerStats.
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "exec/context.hpp"
#include "exec/instruments.hpp"
#include "vtime/costs.hpp"
#include "vtime/engine.hpp"

namespace selfsched::vtime {

class VContext {
 public:
  using Sync = VSync;
  using Phase = exec::Phase;
  static constexpr bool kIsSimulated = true;

  /// @param log_timeline  record (phase, start, end) intervals for Gantt
  ///   rendering; each phase switch then reads the engine clock.
  VContext(Engine& engine, ProcId proc, const CostModel& costs,
           bool log_timeline = false)
      : engine_(&engine), costs_(costs), proc_(proc) {
    if (log_timeline) {
      timeline_.emplace();
      interval_start_ = 0;
    }
  }

  VContext(const VContext&) = delete;
  VContext& operator=(const VContext&) = delete;

  ProcId proc() const { return proc_; }
  u32 num_procs() const { return engine_->num_procs(); }

  sync::SyncResult sync_op(Sync& v, sync::Test t, i64 test_value,
                           sync::Op op, i64 operand = 0) {
    ++stats_.sync_ops;
    stats_[phase_] += costs_.sync_op;
    const sync::SyncResult r =
        engine_->sync_execute(proc_, costs_.sync_op, v, t, test_value, op,
                              operand);
    if (!r.success) ++stats_.failed_sync_ops;
    return r;
  }

  /// Loop-body work: advance the virtual clock by c cycles.
  void work(Cycles c) {
    stats_[phase_] += c;
    engine_->advance(proc_, c);
  }

  /// Spin backoff: identical clock effect, separate intent at call sites.
  void pause(Cycles c) { work(c); }

  /// Bookkeeping overhead charge (list walking, ivec copies, DESCRPT
  /// stepping...) — attributed to the current phase.
  void charge(Cycles c) { work(c); }

  const CostModel& costs() const { return costs_; }

  Phase set_phase(Phase p) {
    const Phase prev = phase_;
    if (timeline_ && p != phase_) {
      const Cycles t = engine_->now(proc_);
      if (t > interval_start_) {
        timeline_->push_back({phase_, interval_start_, t});
      }
      interval_start_ = t;
    }
    phase_ = p;
    return prev;
  }

  /// Close the open interval; call once when the worker finishes.
  void finish_timeline() {
    if (!timeline_) return;
    const Cycles t = engine_->now(proc_);
    if (t > interval_start_) {
      timeline_->push_back({phase_, interval_start_, t});
    }
    interval_start_ = t;
  }

  /// Recorded intervals (empty unless log_timeline was set).
  std::vector<exec::PhaseInterval> take_timeline() {
    return timeline_ ? std::move(*timeline_) : std::vector<exec::PhaseInterval>{};
  }

  exec::WorkerStats& stats() { return stats_; }

  Cycles now() const { return engine_->now(proc_); }

  /// The instrumentation seam (exec/instruments.hpp).  Every subscriber
  /// is host-only and reading the virtual clock does not advance it, so a
  /// traced, audited or plan-armed (but unfired) vtime run is bit-identical
  /// to a bare one; a fired fault perturbs the run only through context
  /// operations (pause, sync_op), so armed runs stay replayable.
  void set_instruments(const exec::Instruments& in) { instruments_ = in; }
  const exec::Instruments& instruments() const { return instruments_; }
  Cycles trace_now() const { return engine_->now(proc_); }

 private:
  Engine* engine_;
  CostModel costs_;
  ProcId proc_;
  Phase phase_ = Phase::kOther;
  exec::Instruments instruments_;
  exec::WorkerStats stats_;
  std::optional<std::vector<exec::PhaseInterval>> timeline_;
  Cycles interval_start_ = 0;
};

static_assert(exec::ExecutionContext<VContext>);

}  // namespace selfsched::vtime
