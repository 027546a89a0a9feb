// The two batch workloads: the paper's Fig. 1 nest (instance churn) and a
// flat irregular Doall (one instance), each run on a persistent 3-worker
// ThreadTeam and once on the virtual-time engine.
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "baselines/sequential.hpp"
#include "exec/thread_team.hpp"
#include "lang/parser.hpp"
#include "runtime/scheduler.hpp"
#include "support.hpp"
#include "sync/control_word.hpp"
#include "sync/spin_lock.hpp"
#include "sync/sync_var.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* source;
  WorkShape shape;
};

// Fig. 1 of the paper at NI=64, NJ=16 with leaf D a Doacross: ~8.4k
// innermost instances of 16-32 iterations, so SEARCH, EXIT/ENTER, the ICB
// pool, BAR_COUNT and the Doacross post/wait path dominate the overhead.
constexpr const char* kNestChurn = R"(
DOALL I = 1, 64
  LOOP A t = 1, 16
  DOALL J = 1, 16
    LOOP B t = 1, 24
    DO K = 1, 3
      LOOP C t = 1, 16
      DOACROSS D t = 1, 16 DIST 1
    END
    LOOP E t = 1, 24
  END
  IF (I % 2 == 1) THEN
    LOOP F t = 1, 16
  ELSE
    LOOP G t = 1, 16
  END
  LOOP H t = 1, 32
END
)";

// One Doall instance: the high level runs once, so only per-iteration
// dispatch (O1) and the bodies remain.
constexpr const char* kFlatIrregular = "LOOP X t = 1, 100000\n";

Workload workload_named(const std::string& name) {
  if (name == "nest_churn") return {kNestChurn, {200, 800, 0, 0}};
  // Bimodal bodies: ~0.3-0.7 us, and 1 in 64 iterations ~8 us.
  return {kFlatIrregular, {160, 380, 64, 4400}};
}

/// One fresh set-up of the system under test: the seeded program compiled
/// for the threaded engine and a started team.
struct System {
  Checksum sums{kProcs};
  std::unique_ptr<program::NestedLoopProgram> prog;
  std::unique_ptr<exec::ThreadTeam> team;
};

std::unique_ptr<program::NestedLoopProgram> compile(const Workload& w,
                                                    u64 seed, Checksum& sums,
                                                    bool with_cost,
                                                    Spans& spans) {
  program::NodeSeq ast;
  {
    SpanScope s(spans, "lang.parse_to_ast");
    ast = lang::parse_to_ast(w.source);
  }
  const auto depths = attach_work(ast, seed, w.shape, sums, with_cost);
  std::unique_ptr<program::NestedLoopProgram> prog;
  {
    SpanScope s(spans, "program.compile");
    prog = std::make_unique<program::NestedLoopProgram>(std::move(ast));
  }
  for (u32 i = 0; i < prog->num_loops(); ++i)
    SS_CHECK_MSG(depths.at(prog->loop(i).name) == prog->loop(i).depth,
                 "leaf depth differs from the compiled tables");
  return prog;
}

std::unique_ptr<System> set_up(const Workload& w, u64 seed, Spans& spans) {
  SpanScope s(spans, "setup");
  auto sys = std::make_unique<System>();
  sys->prog = compile(w, seed, sys->sums, false, spans);
  SpanScope t(spans, "exec.team_start");
  sys->team = std::make_unique<exec::ThreadTeam>(kProcs);
  sys->team->run([](ProcId) {});
  return sys;
}

runtime::SchedOptions sched_options(bool measure_phases) {
  runtime::SchedOptions o;
  o.measure_phases = measure_phases;
  o.on_body_error = runtime::OnBodyError::kReturn;
  return o;
}

struct ParallelRun {
  double ms = 0;
  runtime::RunResult r;
};

/// One timed run_threads_on call, checked against the oracle's checksum.
ParallelRun run_parallel(System& sys, bool phases, const Checksum::Total& want,
                         Report& rep, Spans& spans) {
  ParallelRun out;
  const runtime::SchedOptions o = sched_options(phases);
  {
    SpanScope s(spans, phases ? "runtime.run_threads_on.phases"
                              : "runtime.run_threads_on");
    const auto t0 = Clock::now();
    out.r = runtime::run_threads_on(*sys.team, *sys.prog, o);
    out.ms = ms_between(t0, Clock::now());
  }
  const Checksum::Total got = sys.sums.take();
  if (out.r.failure) {
    rep.op(false, "run_threads_on reported a failure");
  } else if (!(got == want) || out.r.total.iterations != want.iterations) {
    rep.op(false, "checksum or iteration count differs from the oracle");
  } else {
    rep.op(true);
  }
  return out;
}

double run_serial(System& sys, Checksum::Total& got, Spans& spans) {
  SpanScope s(spans, "baselines.run_sequential");
  const auto t0 = Clock::now();
  baselines::run_sequential(*sys.prog);
  const double ms = ms_between(t0, Clock::now());
  got = sys.sums.take();
  return ms;
}

/// Load the host until it settles (see HostWarmth), alternating parallel
/// runs with host calibrations.
void warm_up(System& sys, const Checksum::Total& want, HostWarmth& h,
             Report& rep, Spans& spans) {
  SpanScope s(spans, "host.warmup");
  while (!h.settled(run_parallel(sys, false, want, rep, spans).ms,
                    calibrate(*sys.team, kSpinSteps))) {
  }
}

// Keeps microbenchmark results live.
volatile u64 g_sink = 0;


struct VtimeOutcome {
  runtime::RunResult r;
  Cycles body_cycles = 0;
};

/// The virtual-time run: P=3 under the cedar cost model with the canonical
/// schedule, so every number it gives is a pure function of the seed.
VtimeOutcome run_vt(const Workload& w, u64 seed, Report& rep, Spans& spans) {
  SpanScope s(spans, "vtime");
  Checksum sums(kProcs);
  auto prog = compile(w, seed, sums, true, spans);
  VtimeOutcome out;
  {
    SpanScope o(spans, "baselines.run_sequential.vt");
    out.body_cycles = baselines::run_sequential(*prog).total_body_cost;
  }
  const Checksum::Total want = sums.take();
  {
    SpanScope v(spans, "vtime.run_vtime");
    out.r = runtime::run_vtime(*prog, kProcs, sched_options(true));
  }
  const Checksum::Total got = sums.take();
  if (out.r.failure)
    rep.op(false, "run_vtime reported a failure");
  else if (!(got == want) || out.r.total.iterations != want.iterations)
    rep.op(false, "run_vtime checksum differs from the serial oracle");
  else
    rep.op(true);
  return out;
}

template <typename Fn>
double ns_per_op(u64 ops, Fn&& fn) {
  std::vector<double> v;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    fn(ops);
    v.push_back(ms_between(t0, Clock::now()) * 1e6 / static_cast<double>(ops));
  }
  return median(v);
}

/// Per-layer microbenchmarks of the sync primitives and the team, taken in
/// the traced run only.
void layer_microbenches(System& sys, Report& rep, Spans& spans) {
  {
    std::vector<double> us;
    for (int i = 0; i < 2000; ++i) {
      SpanScope s(spans, "exec.team_run");
      const auto t0 = Clock::now();
      sys.team->run([](ProcId) {});
      us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    rep.metric("exec.team_run_us", median(us), "us");
  }
  SpanScope s(spans, "sync");
  sync::SyncVar v;
  rep.metric("sync.fetch_add_ns", ns_per_op(1u << 21, [&](u64 n) {
               for (u64 i = 0; i < n; ++i)
                 v.try_op(sync::Test::kNone, 0, sync::Op::kFetchAdd, 1);
             }),
             "ns");
  rep.metric("sync.fetch_add_contended_ns", ns_per_op(1u << 18, [&](u64 n) {
               sys.team->run([&](ProcId) {
                 for (u64 i = 0; i < n; ++i)
                   v.try_op(sync::Test::kNone, 0, sync::Op::kFetchAdd, 1);
               });
             }),
             "ns");
  const u32 m = sys.prog->num_loops();
  sync::ControlWord cw(m);
  cw.set(m - 1);
  u64 sink = 0;
  rep.metric("sync.leading_one_ns", ns_per_op(1u << 21, [&](u64 n) {
               for (u64 i = 0; i < n; ++i) sink += cw.leading_one(0);
             }),
             "ns");
  sync::SpinLock lock;
  rep.metric("sync.spin_lock_ns", ns_per_op(1u << 21, [&](u64 n) {
               for (u64 i = 0; i < n; ++i) {
                 lock.lock();
                 lock.unlock();
               }
             }),
             "ns");
  g_sink = sink;
}

double share(Cycles part, Cycles whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

void runtime_layer_metrics(const std::vector<runtime::RunResult>& runs,
                           const std::vector<double>& call_overhead_us,
                           Report& rep) {
  using exec::Phase;
  exec::WorkerStats t;
  trace::Counters c;
  for (const runtime::RunResult& r : runs) {
    t.merge(r.total);
    c.merge(r.counters);
  }
  const double iters = static_cast<double>(std::max<u64>(t.iterations, 1));
  const double n = static_cast<double>(std::max<std::size_t>(runs.size(), 1));
  auto d = [](auto x) { return static_cast<double>(x); };
  const Cycles all = t.total_cycles();
  rep.metric("runtime.o1_ns_per_iter", d(t[Phase::kIterSync]) / iters, "ns");
  rep.metric("runtime.o2_ns_per_iter", d(t[Phase::kSearch]) / iters, "ns");
  rep.metric("runtime.o3_ns_per_iter", d(t[Phase::kExitEnter]) / iters, "ns");
  rep.metric("runtime.search_steps_per_search",
             static_cast<double>(t.search_steps) /
                 static_cast<double>(std::max<u64>(t.searches, 1)),
             "count");
  rep.metric("runtime.search_retries", d(c.search_retries) / n, "count");
  rep.metric("runtime.list_lock_failures", d(c.list_lock_failures) / n,
             "count");
  rep.metric("runtime.backoff_iterations", d(c.backoff_iterations) / n,
             "count");
  rep.metric("runtime.idle_share", share(t[Phase::kPoolIdle], all), "share");
  rep.metric("runtime.teardown_share", share(t[Phase::kTeardown], all),
             "share");
  rep.metric("runtime.doacross_wait_share",
             share(t[Phase::kDoacrossWait], all), "share");
  rep.metric("runtime.body_share", share(t[Phase::kBody], all), "share");
  rep.metric("runtime.sync_ops_per_iter", d(t.sync_ops) / iters, "count");
  rep.metric("runtime.failed_sync_share",
             static_cast<double>(t.failed_sync_ops) /
                 static_cast<double>(std::max<u64>(t.sync_ops, 1)),
             "share");
  rep.metric("runtime.call_overhead_us", median(call_overhead_us), "us");
}

void vtime_layer_metrics(const runtime::RunResult& r, Report& rep) {
  using exec::Phase;
  auto k = [&](Phase p) { return static_cast<double>(r.total[p]) / 1e3; };
  rep.metric("vtime.o1_kcycles", k(Phase::kIterSync), "kcycles");
  rep.metric("vtime.o2_kcycles", k(Phase::kSearch), "kcycles");
  rep.metric("vtime.o3_kcycles", k(Phase::kExitEnter), "kcycles");
  rep.metric("vtime.idle_kcycles", k(Phase::kPoolIdle), "kcycles");
  rep.metric("vtime.teardown_kcycles", k(Phase::kTeardown), "kcycles");
  rep.metric("vtime.doacross_wait_kcycles", k(Phase::kDoacrossWait),
             "kcycles");
  rep.metric("vtime.engine_ops", static_cast<double>(r.engine_ops), "count");
}

}  // namespace

int run_batch(const Args& a) {
  const Workload w = workload_named(a.workload);
  Report rep;
  Spans spans(a.trace);
  rep.plan(0);

  const VtimeOutcome vt = run_vt(w, a.seed, rep, spans);

  std::unique_ptr<System> sys = set_up(w, a.seed, spans);
  Checksum::Total want;
  const double first_serial_ms = run_serial(*sys, want, spans);
  if (a.inject_abort) std::abort();
  if (a.inject_hang) std::this_thread::sleep_for(std::chrono::hours(1));
  HostWarmth host(kProcs, rep);
  warm_up(*sys, want, host, rep, spans);
  const double warmup_s = host.seconds();

  // Fresh set-ups on the warmed host; the warmed system stays the one
  // measured.
  std::vector<double> setup_s;
  for (int i = 0; i < 101; ++i) {
    const auto t0 = Clock::now();
    auto fresh = set_up(w, a.seed, spans);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  if (a.trace) layer_microbenches(*sys, rep, spans);

  std::vector<double> par_ms, traced_ms, serial_ms{first_serial_ms}, ratio,
      call_overhead_us;
  std::vector<Calibration> calibrations;
  std::vector<runtime::RunResult> traced;
  const auto t0 = Clock::now();
  for (u64 pair = 0; ms_between(t0, Clock::now()) < a.seconds * 1e3; ++pair) {
    Checksum::Total serial_sum;
    const double s_ms = run_serial(*sys, serial_sum, spans);
    rep.op(serial_sum == want, "serial runs disagree");
    if (a.corrupt && pair == 2) g_corrupt_next = true;
    ParallelRun p = run_parallel(*sys, false, want, rep, spans);
    serial_ms.push_back(s_ms);
    par_ms.push_back(p.ms);
    ratio.push_back(s_ms / p.ms);
    call_overhead_us.push_back(p.ms * 1e3 -
                               static_cast<double>(p.r.makespan) / 1e3);
    if (a.trace) {
      ParallelRun q = run_parallel(*sys, true, want, rep, spans);
      traced_ms.push_back(q.ms);
      traced.push_back(std::move(q.r));
    }
    if (pair % 4 == 0) {
      SpanScope s(spans, "host.spin");
      calibrations.push_back(calibrate(*sys->team, kSpinSteps));
    }
  }
  host.check_window(calibrations);

  const double vt_kcycles = static_cast<double>(vt.r.makespan) / 1e3;
  const double vt_speedup = static_cast<double>(vt.body_cycles) /
                            static_cast<double>(vt.r.makespan);
  if (!a.trace) {
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("makespan_ms", median(par_ms), "ms");
    rep.tail_metric("makespan_tail_ms", tail_of(par_ms));
    rep.metric("speedup", median(ratio), "x");
    rep.metric("vt_makespan_kcycles", vt_kcycles, "kcycles");
    rep.metric("vt_speedup", vt_speedup, "x");
  } else {
    rep.metric("lang.parse_us", median(spans.self_us("lang.parse_to_ast")),
               "us");
    rep.metric("program.compile_us",
               median(spans.self_us("program.compile")), "us");
    rep.metric("exec.team_start_us",
               median(spans.self_us("exec.team_start")), "us");
    runtime_layer_metrics(traced, call_overhead_us, rep);
    vtime_layer_metrics(vt.r, rep);
    rep.metric("baselines.serial_ms", median(serial_ms), "ms");
    rep.metric("trace_overhead", median(traced_ms) / median(par_ms), "x");
  }
  calibration_metrics(calibrations, rep);
  rep.metric("host.warmup_s", warmup_s, "s");
  finish(a, spans, rep);
  return 0;
}

}  // namespace perfbench
