// E15: cost of residency — the serve::Service against the batch scheduler
// on the same program mix.
//
// Two questions (docs/serving.md):
//
//   latency     submit -> first dispatch: how long does an admitted
//               submission queue before a pooled worker is granted into its
//               namespace (RunResult's tenant row records queue_wait)?
//   throughput  N identical programs through the resident service
//               (admission, priority queues, slice re-arbitration) vs the
//               same N run back-to-back with run_threads_on on one
//               ThreadTeam — the service's dispatch machinery is pure
//               overhead here, so the ratio is its price.
//
// Wall-clock and load-sensitive: informational only, never gated (the
// bench_gate.py fold marks every row gate:false).
//
// Usage: bench_serve [--json PATH] [--programs N] [--iters N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/thread_team.hpp"
#include "runtime/scheduler.hpp"
#include "serve/service.hpp"
#include "workloads/programs.hpp"

using namespace selfsched;

namespace {

using Clock = std::chrono::steady_clock;

using bench::Metric;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

program::NestedLoopProgram make_work(i64 iters) {
  return workloads::flat_doall(
      iters, [](const IndexVec&, i64) -> Cycles { return 300; });
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  i64 programs = 32;
  i64 iters = 1000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--programs") == 0 && i + 1 < argc) {
      programs = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::strtoll(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--programs N] [--iters N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<Metric> metrics;
  std::printf("E15: resident service vs batch, %lld programs x %lld iters\n\n",
              static_cast<long long>(programs), static_cast<long long>(iters));
  std::printf("%-6s %14s %14s %16s %16s\n", "procs", "batch prog/s",
              "serve prog/s", "dispatch mean us", "dispatch p95 us");

  for (u32 procs : {4u, 8u}) {
    // Batch baseline: back-to-back runs on one persistent team.
    exec::ThreadTeam team(procs);
    const Clock::time_point b0 = Clock::now();
    for (i64 i = 0; i < programs; ++i) {
      auto prog = make_work(iters);
      runtime::SchedOptions opts;
      opts.measure_phases = false;
      const auto r = runtime::run_threads_on(team, prog, opts);
      if (r.total.iterations != static_cast<u64>(iters)) {
        std::fprintf(stderr, "batch run %lld wrong iteration count\n",
                     static_cast<long long>(i));
        return 1;
      }
    }
    const double batch_s = seconds_since(b0);

    // Served: everything submitted up front, then awaited — queue depth and
    // tenant count sized so admission never rejects and the dispatch path
    // itself is what gets measured.
    serve::ServeOptions so;
    so.priorities = 1;
    so.max_queue_depth = static_cast<u32>(programs) + 1;
    so.max_tenants = 1;
    so.max_active = 2;
    std::vector<double> waits_us;
    const Clock::time_point s0 = Clock::now();
    double serve_s = 0;
    {
      serve::Service svc(procs, so);
      std::vector<serve::Handle> handles;
      for (i64 i = 0; i < programs; ++i) {
        serve::SubmitOptions s;
        s.sched.measure_phases = false;
        auto out = svc.submit(make_work(iters), s);
        if (!out.accepted()) {
          std::fprintf(stderr, "submission %lld rejected (%s)\n",
                       static_cast<long long>(i),
                       serve::submit_status_name(out.status));
          return 1;
        }
        handles.push_back(out.handle);
      }
      for (auto& h : handles) {
        const auto r = h.await();
        if (r.failure.has_value() ||
            r.total.iterations != static_cast<u64>(iters)) {
          std::fprintf(stderr, "served run failed\n");
          return 1;
        }
        for (const auto& row : r.tenants) {
          waits_us.push_back(static_cast<double>(row.queue_wait) / 1000.0);
        }
      }
      serve_s = seconds_since(s0);
    }

    std::sort(waits_us.begin(), waits_us.end());
    double mean_us = 0;
    for (double w : waits_us) mean_us += w;
    mean_us /= static_cast<double>(std::max<std::size_t>(1, waits_us.size()));
    const double p95_us =
        waits_us.empty()
            ? 0
            : waits_us[std::min(waits_us.size() - 1,
                                static_cast<std::size_t>(
                                    static_cast<double>(waits_us.size()) *
                                    0.95))];
    const double batch_tput = static_cast<double>(programs) / batch_s;
    const double serve_tput = static_cast<double>(programs) / serve_s;
    std::printf("%-6u %14.1f %14.1f %16.1f %16.1f\n", procs, batch_tput,
                serve_tput, mean_us, p95_us);

    const std::string pfx = "serve/p" + std::to_string(procs) + "/";
    metrics.push_back({pfx + "submit_to_dispatch_mean_us", mean_us, "us",
                       "less"});
    metrics.push_back({pfx + "submit_to_dispatch_p95_us", p95_us, "us",
                       "less"});
    metrics.push_back({pfx + "throughput_progs_per_s", serve_tput, "prog/s",
                       "more"});
    metrics.push_back({pfx + "throughput_vs_batch", serve_tput / batch_tput,
                       "ratio", "more"});
  }
  std::printf(
      "\nexpect: throughput_vs_batch near 1.0 on a machine with >= procs "
      "cores — slicing and arbitration should cost little when programs "
      "arrive faster than they drain.  On an oversubscribed host the ratio "
      "rises well above 1: batch keeps every worker spinning in each run's "
      "SEARCH/teardown while the service parks grant-less workers on a "
      "condvar.  Dispatch latency grows with queue depth ahead of a "
      "submission.\n");

  if (!json_path.empty() &&
      !bench::write_json(json_path, "bench_serve", false, metrics)) {
    return 1;
  }
  return 0;
}
