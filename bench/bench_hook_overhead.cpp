// E11/E13/E14: cost of the instrumentation seam (exec/instruments.hpp) on
// the threaded engine — tracing, the invariant auditor and fault injection,
// each measured against one shared bare baseline.
//
// Five rows of the same self(1) flat-Doall run:
//
//   bare          worker_loop instantiated over BareContext, a context with
//                 no instruments() — exec::InstrumentedContext fails and
//                 every trace, audit and fault hook compiles to nothing.
//                 This is what a build with SELFSCHED_TRACE, SELFSCHED_AUDIT
//                 and SELFSCHED_FAULT all off produces, measurable inside a
//                 normal build (compiling this TU with the macros off would
//                 ODR-collide with the library's instantiations).
//   default       RContext with the shipping defaults: a counters-only
//                 trace sink, no auditor, no fault plan.
//   trace_events  events recorded into the per-worker rings as well.
//   live_auditor  default plus a live Auditor shadow-tracking every ICB.
//   armed_plan    default plus a plan whose one spec never matches (wrong
//                 loop), so every body point walks the spec list — the
//                 worst case short of actually firing.
//
// The reps of all rows are interleaved (rep r runs every row once, in an
// order rotated by r), and vs_bare is the median over reps of row/bare
// within the same rep: every ratio shares one baseline, and host speed
// drift between reps cancels.  The claim to check: default <= 1.02x bare
// even on a dispatch-bound loop.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "audit/auditor.hpp"
#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "exec/instruments.hpp"
#include "exec/real_context.hpp"
#include "runtime/fault.hpp"
#include "runtime/high_level.hpp"
#include "runtime/worker.hpp"
#include "sync/barrier.hpp"
#include "trace/recorder.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

/// RContext minus instruments().  Composition, not inheritance, so the
/// accessor cannot leak through and InstrumentedContext<BareContext> is
/// false — every hook in the pool/worker/high-level seams vanishes.
class BareContext {
 public:
  using Sync = sync::SyncVar;
  static constexpr bool kIsSimulated = false;

  BareContext(ProcId proc, u32 num_procs, bool measure_phases)
      : inner_(proc, num_procs, measure_phases) {}

  ProcId proc() const { return inner_.proc(); }
  u32 num_procs() const { return inner_.num_procs(); }
  sync::SyncResult sync_op(Sync& v, sync::Test t, i64 test_value, sync::Op op,
                           i64 operand = 0) {
    return inner_.sync_op(v, t, test_value, op, operand);
  }
  void work(Cycles c) { inner_.work(c); }
  void pause(Cycles c) { inner_.pause(c); }
  exec::Phase set_phase(exec::Phase p) { return inner_.set_phase(p); }
  exec::WorkerStats& stats() { return inner_.stats(); }

 private:
  exec::RContext inner_;
};

static_assert(exec::ExecutionContext<BareContext>);

constexpr i64 kIters = 200000;
constexpr Cycles kBodyWork = 32;  // near-empty body => dispatch-bound
constexpr int kReps = 11;

/// One run of worker_loop on `procs` threads over context type Ctx; wall
/// ns.  `setup(ctx, id)` installs the row's instruments (or nothing).
template <typename Ctx, typename Setup>
double run_once(const program::NestedLoopProgram& prog, u32 procs,
                const runtime::SchedOptions& opts, Setup setup) {
  runtime::SchedState<Ctx> st(prog.tables(), opts);
  sync::SpinBarrier start_line(procs);
  Stopwatch watch;

  auto body = [&](ProcId id) {
    // measure_phases=false: phase timing reads the clock per transition
    // and would swamp the nanoseconds this bench is after.
    Ctx ctx(id, procs, /*measure_phases=*/false);
    setup(ctx, id);
    start_line.arrive_and_wait();
    if (id == 0) {
      watch.reset();
      runtime::seed_program(ctx, st);
    }
    runtime::worker_loop(ctx, st);
  };
  std::vector<std::thread> team;
  team.reserve(procs);
  for (u32 id = 1; id < procs; ++id) team.emplace_back(body, id);
  body(0);
  for (std::thread& t : team) t.join();
  return static_cast<double>(watch.elapsed_ns());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace
}  // namespace selfsched

int main() {
  using namespace selfsched;
  const u32 hw = std::thread::hardware_concurrency();
  const u32 procs = hw ? std::min(4u, hw) : 4u;
  runtime::SchedOptions opts;
  opts.strategy = runtime::Strategy::self();
  opts.measure_phases = false;
  const auto prog = workloads::flat_doall(
      kIters, [](const IndexVec&, i64) -> Cycles { return kBodyWork; });

  bench::banner(
      "E11/E13/E14: instrumentation-seam overhead (threads engine, self(1), "
      "dispatch-bound)",
      "compiled-out hooks are free; the shipping default stays within 1.02x");
  std::printf("procs=%u iters=%lld body_work=%lld reps=%d (interleaved, "
              "median)\n",
              procs, static_cast<long long>(kIters),
              static_cast<long long>(kBodyWork), kReps);

  trace::Recorder counters_only(procs, /*events_on=*/false,
                                opts.trace_ring_capacity);
  trace::Recorder with_events(procs, /*events_on=*/true,
                              opts.trace_ring_capacity);
  audit::Auditor auditor;
  fault::FaultPlan plan;
  plan.body_throw(/*loop=*/999, /*iteration=*/-1);  // never matches

  // One RContext row: install `base` plus this worker's trace sink.
  const auto real_row = [&](trace::Recorder& rec, exec::Instruments base) {
    return [&, base] {
      return run_once<exec::RContext>(
          prog, procs, opts, [&, base](exec::RContext& ctx, ProcId id) {
            exec::Instruments in = base;
            in.trace = &rec.sink(id);
            in.epoch = rec.epoch();
            ctx.set_instruments(in);
          });
    };
  };
  struct Row {
    const char* name;
    std::function<double()> run;
    std::vector<double> ns = {};
    double vs_bare = 0;
  };
  std::vector<Row> rows = {
      {"bare",
       [&] {
         return run_once<BareContext>(prog, procs, opts,
                                      [](BareContext&, ProcId) {});
       }},
      {"default", real_row(counters_only, {})},
      {"trace_events", real_row(with_events, {})},
      {"live_auditor",
       [&, run = real_row(counters_only, {.auditor = &auditor})] {
         auditor.reset();  // an Auditor audits one run
         return run();
       }},
      {"armed_plan",
       [&, run = real_row(counters_only, {.faults = &plan})] {
         plan.reset();
         return run();
       }},
  };

  for (Row& r : rows) (void)r.run();  // warm-up: page in code + allocators
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t k = 0; k < rows.size(); ++k) {
      Row& r = rows[(k + static_cast<std::size_t>(rep)) % rows.size()];
      r.ns.push_back(r.run());
    }
  }

  bench::Table t({"config", "median_ms", "ns_per_iter", "vs_bare"});
  const std::vector<double>& bare = rows[0].ns;
  for (Row& r : rows) {
    std::vector<double> ratios;
    for (std::size_t k = 0; k < bare.size(); ++k) {
      ratios.push_back(r.ns[k] / bare[k]);
    }
    r.vs_bare = median(ratios);
    const double ns = median(r.ns);
    t.row({r.name, bench::fmt(ns / 1e6, 2),
           bench::fmt(ns / static_cast<double>(kIters), 1),
           bench::fmt(r.vs_bare, 3)});
  }
  t.print();

  std::printf("\nevents in the trace_events rings: %zu, dropped: %llu\n",
              with_events.harvest_events().size(),
              static_cast<unsigned long long>(with_events.events_dropped()));
  std::printf("auditor saw %llu events, %llu violations in the last rep "
              "(want 0)\n",
              static_cast<unsigned long long>(auditor.events()),
              static_cast<unsigned long long>(auditor.violation_count()));
  std::printf("armed plan fired %llu times (want 0)\n",
              static_cast<unsigned long long>(plan.total_fired()));
  std::printf("default vs bare: %.3fx (target <= 1.02x; median of %d "
              "interleaved wall-clock reps)\n",
              rows[1].vs_bare, kReps);
  return auditor.violation_count() == 0 && plan.total_fired() == 0 ? 0 : 1;
}
