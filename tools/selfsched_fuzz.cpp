// selfsched-fuzz: differential fuzzing of the two-level scheduler.
//
//   selfsched-fuzz [--seeds LO:HI] [--engine vtime|threads|both]
//                  [--max-procs P] [--depth D] [--quiet]
//                  [--schedules N] [--controller canonical|shuffle|pct]
//                  [--jitter J] [--repro FILE] [--replay FILE]
//
// For each seed, generates a random general parallel nested loop, derives a
// processor count and strategy from the seed, runs it serially and under
// the scheduler, and compares iteration multisets and bookkeeping
// invariants (runtime/verify.hpp).  Exit status 0 iff every seed passes.
//
// Schedule exploration (vtime engine): --schedules N checks each program
// under N different tie-break schedules of the chosen --controller
// (seeded per schedule), multiplying the interleavings covered per seed.
// On the first failure, --repro FILE writes a replay file capturing the
// program seed, configuration, and the failing schedule's recorded
// decision trace; --replay FILE re-runs exactly that case (see
// docs/schedule-exploration.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runtime/verify.hpp"
#include "vtime/schedule_ctrl.hpp"
#include "workloads/programs.hpp"

using namespace selfsched;

namespace {

/// One fuzz case, fully determined: everything needed to rebuild the
/// program and scheduler configuration without re-deriving from CLI state.
struct FuzzCase {
  u64 program_seed = 0;
  u32 procs = 1;
  u32 depth = 4;
  u32 pool_shards = 1;
  u32 index_shards = 1;
  bool enter_batch = false;
  u32 icb_shards = 1;
  bool central_queue = false;
  u32 strategy_kind = 0;  // runtime::Strategy::Kind as u32
  i64 strategy_chunk = 1;
  u64 strategy_aux = 0;   // wf_weights / rs_seed, by kind
  bool threads_engine = false;
};

FuzzCase case_for_seed(u64 seed, u32 max_procs, u32 depth) {
  FuzzCase c;
  c.program_seed = seed;
  c.depth = depth;
  const runtime::Strategy s = workloads::strategy_for_seed(seed);
  c.strategy_kind = static_cast<u32>(s.kind);
  c.strategy_chunk = s.chunk;
  c.strategy_aux = s.wf_weights != 0 ? s.wf_weights : s.rs_seed;
  c.pool_shards = 1 + static_cast<u32>(seed % 3);
  c.index_shards = 1 + static_cast<u32>(seed % 4);
  c.enter_batch = seed % 2 == 1;
  c.icb_shards = 1 + static_cast<u32>(seed / 5 % 4);
  c.central_queue = seed % 7 == 0;
  c.procs = 1 + static_cast<u32>(seed % max_procs);
  return c;
}

runtime::SchedOptions options_for(const FuzzCase& c) {
  runtime::SchedOptions opts;
  opts.strategy.kind =
      static_cast<runtime::Strategy::Kind>(c.strategy_kind);
  opts.strategy.chunk = c.strategy_chunk;
  if (opts.strategy.kind == runtime::Strategy::Kind::kWeightedFactoring) {
    opts.strategy.wf_weights = c.strategy_aux;
  } else if (opts.strategy.kind == runtime::Strategy::Kind::kRandomSteal) {
    opts.strategy.rs_seed = c.strategy_aux != 0 ? c.strategy_aux : 1;
  }
  opts.pool_shards = c.pool_shards;
  opts.index_shards = c.index_shards;
  opts.enter_batch = c.enter_batch;
  opts.icb_shards = c.icb_shards;
  opts.central_queue = c.central_queue;
  return opts;
}

runtime::ProgramBuilder builder_for(const FuzzCase& c) {
  workloads::RandomProgramConfig cfg;
  cfg.max_depth = c.depth;
  return [seed = c.program_seed, cfg](const program::BodyFactory& bodies) {
    return workloads::random_program(seed, cfg, bodies);
  };
}

u64 parse_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

vtime::ReproFile repro_for(const FuzzCase& c,
                           const vtime::ScheduleSpec& failed) {
  vtime::ReproFile r;
  r.schedule = failed;
  auto put = [&r](const char* k, u64 v) {
    r.extra.emplace_back(k, std::to_string(v));
  };
  put("program_seed", c.program_seed);
  put("procs", c.procs);
  put("depth", c.depth);
  put("pool_shards", c.pool_shards);
  put("index_shards", c.index_shards);
  put("enter_batch", c.enter_batch ? 1 : 0);
  put("icb_shards", c.icb_shards);
  put("central_queue", c.central_queue ? 1 : 0);
  put("strategy_kind", c.strategy_kind);
  put("strategy_chunk", static_cast<u64>(c.strategy_chunk));
  put("strategy_aux", c.strategy_aux);
  put("engine", c.threads_engine ? 1 : 0);
  return r;
}

bool case_from_repro(const vtime::ReproFile& r, FuzzCase& c) {
  bool have_seed = false;
  for (const auto& [k, v] : r.extra) {
    if (k == "program_seed") {
      c.program_seed = parse_u64(v);
      have_seed = true;
    } else if (k == "procs") {
      c.procs = static_cast<u32>(parse_u64(v));
    } else if (k == "depth") {
      c.depth = static_cast<u32>(parse_u64(v));
    } else if (k == "pool_shards") {
      c.pool_shards = static_cast<u32>(parse_u64(v));
    } else if (k == "index_shards") {
      c.index_shards = static_cast<u32>(parse_u64(v));
    } else if (k == "enter_batch") {
      c.enter_batch = parse_u64(v) != 0;
    } else if (k == "icb_shards") {
      c.icb_shards = static_cast<u32>(parse_u64(v));
    } else if (k == "central_queue") {
      c.central_queue = parse_u64(v) != 0;
    } else if (k == "strategy_kind") {
      c.strategy_kind = static_cast<u32>(parse_u64(v));
    } else if (k == "strategy_chunk") {
      c.strategy_chunk = static_cast<i64>(parse_u64(v));
    } else if (k == "strategy_aux") {
      c.strategy_aux = parse_u64(v);
    } else if (k == "engine") {
      c.threads_engine = parse_u64(v) != 0;
    }
  }
  return have_seed && c.procs >= 1;
}

int run_replay(const std::string& path) {
  const auto repro = vtime::read_repro_file(path);
  if (!repro) {
    std::fprintf(stderr, "cannot read repro file %s\n", path.c_str());
    return 2;
  }
  FuzzCase c;
  if (!case_from_repro(*repro, c)) {
    std::fprintf(stderr, "repro file %s lacks program context\n",
                 path.c_str());
    return 2;
  }
  runtime::SchedOptions opts = options_for(c);
  opts.schedule = vtime::replay_of(repro->schedule);
  opts.record_schedule = true;
  const auto r = runtime::differential_check(
      builder_for(c), c.procs,
      c.threads_engine ? runtime::EngineKind::kThreads
                       : runtime::EngineKind::kVtime,
      opts);
  std::printf("replay seed=%llu procs=%u controller=%s decisions=%zu: %s\n",
              static_cast<unsigned long long>(c.program_seed), c.procs,
              vtime::controller_kind_name(repro->schedule.kind),
              repro->schedule.decisions.size(), r.ok ? "ok" : "FAIL");
  if (!r.ok) std::printf("%s", r.detail.c_str());
  return r.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  u64 lo = 1, hi = 200;
  std::string engine = "vtime";
  u32 max_procs = 9;
  u32 depth = 4;
  bool quiet = false;
  u32 schedules = 0;
  vtime::ControllerKind controller = vtime::ControllerKind::kSeededShuffle;
  Cycles jitter = 1;
  std::string repro_path;
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      const std::string v = next();
      const auto colon = v.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--seeds expects LO:HI\n");
        return 2;
      }
      lo = std::strtoull(v.c_str(), nullptr, 10);
      hi = std::strtoull(v.c_str() + colon + 1, nullptr, 10);
    } else if (arg == "--engine") {
      engine = next();
    } else if (arg == "--max-procs") {
      max_procs = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--depth") {
      depth = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--schedules") {
      schedules = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--controller") {
      const std::string v = next();
      const auto k = vtime::parse_controller_kind(v);
      if (!k || *k == vtime::ControllerKind::kReplay) {
        std::fprintf(stderr,
                     "--controller expects canonical|shuffle|pct\n");
        return 2;
      }
      controller = *k;
    } else if (arg == "--jitter") {
      jitter = static_cast<Cycles>(std::strtoll(next(), nullptr, 10));
    } else if (arg == "--repro") {
      repro_path = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  if (!replay_path.empty()) return run_replay(replay_path);

  runtime::ScheduleSweep sweep;
  sweep.schedules = schedules;
  sweep.controller = controller;
  sweep.jitter = jitter;

  u64 failures = 0, runs = 0;
  bool repro_written = false;
  for (u64 seed = lo; seed <= hi; ++seed) {
    FuzzCase c = case_for_seed(seed, max_procs, depth);
    const runtime::SchedOptions opts = options_for(c);
    const auto builder = builder_for(c);
    for (const auto kind : {runtime::EngineKind::kVtime,
                            runtime::EngineKind::kThreads}) {
      if (kind == runtime::EngineKind::kVtime && engine == "threads") continue;
      if (kind == runtime::EngineKind::kThreads && engine == "vtime") continue;
      c.threads_engine = kind == runtime::EngineKind::kThreads;
      // Per-program sweep seeds: decorrelate schedules across fuzz seeds.
      sweep.base_seed = seed * 1009 + 1;
      ++runs;
      const auto r =
          runtime::differential_check(builder, c.procs, kind, opts, sweep);
      if (!r.ok) {
        ++failures;
        std::printf(
            "FAIL seed=%llu procs=%u strategy=%s engine=%s schedule=%u/%u\n%s",
            static_cast<unsigned long long>(seed), c.procs,
            opts.strategy.name(),
            c.threads_engine ? "threads" : "vtime", r.schedules_run,
            std::max<u32>(sweep.schedules, 1), r.detail.c_str());
        if (!repro_path.empty() && !repro_written &&
            kind == runtime::EngineKind::kVtime) {
          if (vtime::write_repro_file(repro_path,
                                      repro_for(c, r.failed_schedule))) {
            repro_written = true;
            std::printf("repro written to %s (run with --replay %s)\n",
                        repro_path.c_str(), repro_path.c_str());
          } else {
            std::fprintf(stderr, "cannot write repro file %s\n",
                         repro_path.c_str());
          }
        }
      } else if (!quiet) {
        std::printf("ok seed=%llu procs=%u iters=%llu schedules=%u\n",
                    static_cast<unsigned long long>(seed), c.procs,
                    static_cast<unsigned long long>(r.parallel_iterations),
                    r.schedules_run);
      }
    }
  }
  std::printf("%llu runs, %llu failures\n",
              static_cast<unsigned long long>(runs),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}
