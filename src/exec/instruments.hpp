// The instrumentation seam: one per-worker struct through which the
// scheduler templates reach every subscriber that observes a run —
//
//   trace   per-worker WorkerSink (metric counters + event ring), plus the
//           steady-clock epoch real-time contexts timestamp events against;
//   audit   the invariant Auditor shadow-tracking the ICB protocol;
//   fault   the armed FaultPlan the injection hooks match against.
//
// Both execution contexts hold an Instruments by value and expose it via
// instruments(), so every hook does the same single member load off the
// context.  A context without the accessor (InstrumentedContext fails) —
// or a build with the subscriber's SELFSCHED_TRACE / SELFSCHED_AUDIT /
// SELFSCHED_FAULT switch off — compiles that subscriber's hooks away;
// bench_hook_overhead measures all of it against one bare baseline.
//
// Every subscriber is host-only: counters, auditor checks and plan
// matching issue no sync_op and charge no cycles, and reading the virtual
// clock does not advance it.  A vtime run is therefore bit-identical with
// any combination of subscribers installed (unless a plan actually fires).
#pragma once

#include <chrono>
#include <concepts>

#include "common/types.hpp"

namespace selfsched::trace {
struct WorkerSink;
}

namespace selfsched::audit {
class Auditor;
}

namespace selfsched::fault {
struct FaultPlan;
}

namespace selfsched::exec {

struct Instruments {
  trace::WorkerSink* trace = nullptr;
  /// Timestamp origin for real-time contexts (trace_now() = ns since it);
  /// the vtime context stamps events with its virtual clock instead.
  std::chrono::steady_clock::time_point epoch{};
  audit::Auditor* auditor = nullptr;
  fault::FaultPlan* faults = nullptr;
};

/// A context opts into the seam with instruments() and trace_now().
template <typename C>
concept InstrumentedContext = requires(const C& ctx) {
  { ctx.instruments() } -> std::same_as<const Instruments&>;
  { ctx.trace_now() } -> std::convertible_to<Cycles>;
};

}  // namespace selfsched::exec
