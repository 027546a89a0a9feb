#include "runtime/scheduler.hpp"

#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"
#include "exec/real_context.hpp"
#include "runtime/run_lifecycle.hpp"
#include "runtime/worker.hpp"
#include "sync/barrier.hpp"
#include "vtime/context.hpp"
#include "vtime/engine.hpp"
#include "vtime/schedule_ctrl.hpp"

namespace selfsched::runtime {

RunResult run_vtime(const program::NestedLoopProgram& prog, u32 procs,
                    const SchedOptions& opts) {
  ProgramRun<vtime::VContext> run(prog.tables(), opts, procs);
  vtime::Engine engine(procs, opts.trace);
  const std::unique_ptr<vtime::ScheduleController> ctrl =
      vtime::make_controller(opts.schedule, procs);
  engine.set_schedule_controller(ctrl.get());
  engine.set_record_schedule(opts.record_schedule);
  std::vector<std::vector<exec::PhaseInterval>> timeline(
      opts.phase_timeline ? procs : 0);

  const Cycles makespan = engine.run([&](ProcId id) {
    vtime::VContext ctx(engine, id, opts.costs, opts.phase_timeline);
    ctx.set_instruments(run.instruments(id));
    if (id == 0) seed_program(ctx, run.st);
    worker_loop(ctx, run.st);
    ctx.finish_timeline();
    if (opts.phase_timeline) timeline[id] = ctx.take_timeline();
    run.stats[id] = ctx.stats();
  });

  RunResult pre;
  pre.engine_ops = engine.total_ops();
  pre.schedule_decisions = engine.schedule_decisions();
  pre.schedule_diverged = ctrl != nullptr && ctrl->diverged();
  pre.timeline = std::move(timeline);
  RunResult r = run.finish(procs, makespan, std::move(pre));
  maybe_throw_failure(opts, r);
  return r;
}

namespace {

/// Shared core of the threaded runners: `dispatch` must invoke its
/// argument once per ProcId 0..procs-1 concurrently and return when all
/// have finished.
template <typename Dispatch>
RunResult run_threads_impl(const program::NestedLoopProgram& prog, u32 procs,
                           const SchedOptions& opts, Dispatch&& dispatch) {
  SS_CHECK(procs >= 1);
  ProgramRun<exec::RContext> run(prog.tables(), opts, procs);
  sync::SpinBarrier start_line(procs);
  Stopwatch watch;

  dispatch([&](ProcId id) {
    exec::RContext ctx(id, procs, opts.measure_phases);
    ctx.set_instruments(run.instruments(id));
    start_line.arrive_and_wait();
    if (id == 0) {
      watch.reset();  // time from the moment the full team is assembled
      seed_program(ctx, run.st);
    }
    worker_loop(ctx, run.st);
    ctx.finish();
    run.stats[id] = ctx.stats();
  });

  RunResult r = run.finish(procs, watch.elapsed_ns());
  maybe_throw_failure(opts, r);
  return r;
}

}  // namespace

RunResult run_threads(const program::NestedLoopProgram& prog, u32 procs,
                      const SchedOptions& opts) {
  return run_threads_impl(
      prog, procs, opts, [procs](const std::function<void(ProcId)>& body) {
        std::vector<std::thread> team;
        team.reserve(procs);
        for (u32 id = 1; id < procs; ++id) team.emplace_back(body, id);
        body(0);
        for (std::thread& t : team) t.join();
      });
}

RunResult run_threads_on(exec::ThreadTeam& team,
                         const program::NestedLoopProgram& prog,
                         const SchedOptions& opts) {
  return run_threads_impl(
      prog, team.procs(), opts,
      [&team](const std::function<void(ProcId)>& body) { team.run(body); });
}

}  // namespace selfsched::runtime
