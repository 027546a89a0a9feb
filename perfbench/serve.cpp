// serve_open: an open loop of seeded small nests into a resident
// serve::Service(3).  One submitter thread (this one) sends requests at
// seeded exponential intervals on a fixed ladder of offered rates and polls
// Handle::done() between sends; every request is timed from when it was
// due, so a stalled generator shows as latency, and how late the generator
// ran is reported on its own.
#include <memory>
#include <random>
#include <string>
#include <thread>

#include "baselines/sequential.hpp"
#include "common/cpu_relax.hpp"
#include "lang/parser.hpp"
#include "serve/service.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

constexpr u32 kTenants = 8;
constexpr u32 kPrograms = 8;
// Offered rates, requests per second, each held for an equal share of the
// run.  The reference rate is well under capacity.
constexpr double kLadder[] = {200, 400, 800, 1600, 2400};
constexpr double kReferenceRate = 400;
// complete_tail_ms limit a rung must meet to count towards max_rate_per_s.
constexpr double kCompleteLimitMs = 25;

struct Mix {
  struct Entry {
    std::shared_ptr<const program::NestedLoopProgram> prog;
    std::unique_ptr<Checksum> sums;
    Checksum::Total want;  // one submission's oracle checksum
    u64 submitted_ok = 0;  // submissions that completed without failure
    bool failed = false;   // some submission of this program failed
  };
  std::vector<Entry> programs;
};

/// The program mix: two-level nests DOALL I ⊃ LOOP X of ~0.5-2 ms of serial
/// work, shapes drawn from the seed.
Mix make_mix(u64 seed, Spans& spans) {
  Mix mix;
  std::mt19937_64 rng(seed ^ 0x5e7e5e7eULL);
  for (u32 k = 0; k < kPrograms; ++k) {
    const i64 n1 = 16 + static_cast<i64>(rng() % 17);
    const i64 n2 = 24 + static_cast<i64>(rng() % 25);
    const std::string src = "DOALL I = 1, " + std::to_string(n1) +
                            "\n  LOOP X t = 1, " + std::to_string(n2) +
                            "\nEND\n";
    Mix::Entry e;
    e.sums = std::make_unique<Checksum>(kProcs);
    program::NodeSeq ast;
    {
      SpanScope s(spans, "lang.parse_to_ast");
      ast = lang::parse_to_ast(src);
    }
    attach_work(ast, mix64(seed + k), WorkShape{200, 800, 0, 0}, *e.sums,
                false);
    {
      SpanScope s(spans, "program.compile");
      e.prog = std::make_shared<const program::NestedLoopProgram>(
          std::move(ast));
    }
    mix.programs.push_back(std::move(e));
  }
  return mix;
}

struct Arrival {
  double due_ms = 0;  // offset from the start of the open loop
  u32 rung = 0;
  u32 program = 0;
  u64 tenant = 0;
};

std::vector<Arrival> make_schedule(u64 seed, double seconds) {
  std::mt19937_64 rng(seed);
  std::vector<Arrival> out;
  const double rung_ms = seconds * 1e3 / std::size(kLadder);
  for (u32 r = 0; r < std::size(kLadder); ++r) {
    std::exponential_distribution<double> gap(kLadder[r] / 1e3);
    for (double t = r * rung_ms + gap(rng); t < (r + 1) * rung_ms;
         t += gap(rng)) {
      const u64 tenant = rng() % kTenants;
      out.push_back({t, r, static_cast<u32>(rng() % kPrograms), tenant});
    }
  }
  return out;
}

serve::SubmitOptions submit_options(const Arrival& a, bool measure_phases) {
  serve::SubmitOptions o;
  o.tenant = a.tenant;
  o.priority = static_cast<u32>(a.tenant % 2);
  o.sched.measure_phases = measure_phases;
  return o;
}

struct Request {
  serve::Handle handle;
  bool accepted = false;
  bool phases = false;
  double submit_us = 0;
  double late_ms = 0;
  double complete_ms = 0;  // due -> done() first observed true
  double first_dispatch_ms = 0;
  double done_at_ms = 0;  // offset from the open loop's start
  runtime::RunResult result;
};

/// Record a finished request: check it and take its latencies.
void harvest(Request& q, const Arrival& a, Mix& mix, double now_ms,
             Report& rep) {
  q.done_at_ms = now_ms;
  q.complete_ms = now_ms - a.due_ms;
  q.result = q.handle.await();
  Mix::Entry& e = mix.programs[a.program];
  const double wait_ms =
      q.result.tenants.empty()
          ? 0.0
          : static_cast<double>(q.result.tenants[0].queue_wait) / 1e6;
  q.first_dispatch_ms = q.late_ms + wait_ms;
  if (q.result.failure) {
    e.failed = true;
    rep.op(false, "served run reported a failure");
  } else if (q.result.total.iterations != e.want.iterations) {
    e.failed = true;
    rep.op(false, "served run iteration count differs from the oracle");
  } else {
    ++e.submitted_ok;
    rep.op(true);
  }
}

/// Closed-loop warm-up: one request at a time, each followed by a spin
/// calibration on a side team, until the host settles (HostWarmth).
void warm_up(serve::Service& svc, exec::ThreadTeam& side, Mix& mix,
             HostWarmth& h, Report& rep) {
  for (u32 i = 0;; ++i) {
    const Arrival a{0, 0, i % kPrograms, i % kTenants};
    const auto s = Clock::now();
    serve::SubmitOutcome so =
        svc.submit(mix.programs[a.program].prog, submit_options(a, false));
    if (!so.accepted()) {
      rep.op(false, "warm-up submission refused");
      continue;
    }
    Request q;
    q.accepted = true;
    q.handle = so.handle;
    harvest(q, a, mix, 0, rep);
    if (h.settled(ms_between(s, Clock::now()), calibrate(side, kSpinSteps)))
      return;
  }
}

}  // namespace

int run_serve(const Args& a) {
  Report rep;
  Spans spans(a.trace);

  // Fresh set-ups: inputs (programs and arrival schedule) and a started
  // service.  The last one is kept.
  std::vector<double> setup_s, start_us;
  Mix mix;
  std::vector<Arrival> arrivals;
  std::unique_ptr<serve::Service> svc;
  for (int i = 0; i < 11; ++i) {
    svc.reset();
    const auto t0 = Clock::now();
    SpanScope s(spans, "setup");
    mix = make_mix(a.seed, spans);
    arrivals = make_schedule(a.seed, a.seconds);
    const auto t1 = Clock::now();
    {
      SpanScope t(spans, "serve.start");
      svc = std::make_unique<serve::Service>(kProcs);
    }
    start_us.push_back(ms_between(t1, Clock::now()) * 1e3);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  for (Mix::Entry& e : mix.programs) {
    baselines::run_sequential(*e.prog);
    e.want = e.sums->take();
  }

  // Spin calibrations run on a side team, before and after the open loop.
  exec::ThreadTeam side(kProcs);
  HostWarmth host(kProcs, rep);
  warm_up(*svc, side, mix, host, rep);
  const double warmup_s = host.seconds();
  std::vector<Calibration> calibrations;
  auto calibrate_host = [&] {
    for (int i = 0; i < 5; ++i)
      calibrations.push_back(calibrate(side, kSpinSteps));
  };
  calibrate_host();
  rep.plan(rep.attempted() + arrivals.size());

  std::vector<Request> reqs(arrivals.size());
  std::vector<std::size_t> outstanding;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  auto now_ms = [&] { return ms_between(start, Clock::now()); };
  auto poll = [&] {
    for (std::size_t k = 0; k < outstanding.size();) {
      Request& q = reqs[outstanding[k]];
      if (q.handle.done()) {
        harvest(q, arrivals[outstanding[k]], mix, now_ms(), rep);
        outstanding[k] = outstanding.back();
        outstanding.pop_back();
      } else {
        ++k;
      }
    }
  };
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& ar = arrivals[i];
    // Poll every ~25 us while waiting for the next due time.
    for (auto next_poll = Clock::now(); now_ms() < ar.due_ms;) {
      if (Clock::now() >= next_poll) {
        poll();
        next_poll = Clock::now() + std::chrono::microseconds(25);
      }
      cpu_relax();
    }
    Request& q = reqs[i];
    q.late_ms = now_ms() - ar.due_ms;
    q.phases = a.trace && i % 2 == 0;
    serve::SubmitOutcome so;
    {
      SpanScope s(spans, "serve.submit", static_cast<i64>(i));
      const auto t0 = Clock::now();
      so = svc->submit(mix.programs[ar.program].prog,
                       submit_options(ar, q.phases));
      q.submit_us = ms_between(t0, Clock::now()) * 1e3;
    }
    if (!so.accepted()) {
      rep.op(false, std::string("submission refused: ") +
                        serve::submit_status_name(so.status));
      continue;
    }
    q.accepted = true;
    q.handle = so.handle;
    outstanding.push_back(i);
  }
  while (!outstanding.empty()) {
    poll();
    cpu_relax();
  }
  const trace::Counters counters = svc->counters();
  svc.reset();
  calibrate_host();
  host.check_window(calibrations);

  // Body checksums, per program: every completed submission of a program
  // adds the oracle's checksum once.
  for (Mix::Entry& e : mix.programs) {
    const Checksum::Total got = e.sums->take();
    const Checksum::Total want{e.want.sum * e.submitted_ok,
                               e.want.iterations * e.submitted_ok};
    if (!e.failed && !(got == want))
      rep.op(false, "served body checksums differ from the oracle");
  }

  // Latencies at the reference rate; max_rate over the whole ladder.
  std::vector<double> first, complete, late, submit_us, wait_ms;
  std::vector<double> complete_phases, complete_plain;
  double slices = 0, preemptions = 0, granted_ms = 0, served = 0;
  double max_rate = 0;
  for (u32 r = 0; r < std::size(kLadder); ++r) {
    std::vector<double> rung_complete;
    u64 arrived = 0, in_window = 0, missed = 0;
    const double rung_end = (r + 1) * a.seconds * 1e3 / std::size(kLadder);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i].rung != r) continue;
      const Request& q = reqs[i];
      ++arrived;
      late.push_back(q.late_ms);
      if (!q.accepted || q.result.failure) {
        ++missed;
        continue;
      }
      rung_complete.push_back(q.complete_ms);
      if (q.done_at_ms <= rung_end) ++in_window;
      submit_us.push_back(q.submit_us);
      (q.phases ? complete_phases : complete_plain).push_back(q.complete_ms);
      if (!q.result.tenants.empty()) {
        const runtime::TenantStats& t = q.result.tenants[0];
        wait_ms.push_back(static_cast<double>(t.queue_wait) / 1e6);
        slices += static_cast<double>(t.slices);
        preemptions += static_cast<double>(t.preemptions);
        granted_ms += static_cast<double>(t.granted) / 1e6;
        served += 1;
      }
      if (kLadder[r] == kReferenceRate && !q.phases) {
        first.push_back(q.first_dispatch_ms);
        complete.push_back(q.complete_ms);
      }
    }
    const Tail t = tail_of(rung_complete);
    const bool meets = missed == 0 && t.valid() &&
                       t.value <= kCompleteLimitMs &&
                       static_cast<double>(in_window) >=
                           0.9 * static_cast<double>(arrived);
    std::fprintf(stderr,
                 "rung %.0f/s: %llu arrivals, %llu missed, complete p50 %.3f "
                 "ms tail %.3f ms (p%.1f), %llu done in window%s\n",
                 kLadder[r], static_cast<unsigned long long>(arrived),
                 static_cast<unsigned long long>(missed),
                 median(rung_complete), t.value, t.percentile,
                 static_cast<unsigned long long>(in_window),
                 meets ? "" : " — misses the limit");
    if (meets) max_rate = kLadder[r];
  }

  if (!a.trace) {
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("first_dispatch_p50_ms", median(first), "ms");
    rep.tail_metric("first_dispatch_tail_ms", tail_of(first));
    rep.metric("complete_p50_ms", median(complete), "ms");
    rep.tail_metric("complete_tail_ms", tail_of(complete));
    rep.metric("max_rate_per_s", max_rate, "1/s");
  } else {
    served = std::max(served, 1.0);
    rep.metric("lang.parse_us", median(spans.self_us("lang.parse_to_ast")),
               "us");
    rep.metric("program.compile_us",
               median(spans.self_us("program.compile")), "us");
    rep.metric("serve.start_us", median(start_us), "us");
    rep.metric("serve.submit_us", median(submit_us), "us");
    rep.metric("serve.queue_wait_p50_ms", median(wait_ms), "ms");
    rep.metric("serve.slices_per_sub", slices / served, "count");
    rep.metric("serve.preemptions_per_sub", preemptions / served, "count");
    rep.metric("serve.granted_ms_per_sub", granted_ms / served, "ms");
    rep.metric("serve.rejections",
               static_cast<double>(counters.serve_rejections), "count");
    rep.metric("trace_overhead",
               median(complete_phases) / median(complete_plain), "x");
  }
  rep.tail_metric("serve.generator_late_tail_ms", tail_of(late));
  calibration_metrics(calibrations, rep);
  rep.metric("host.warmup_s", warmup_s, "s");
  finish(a, spans, rep);
  return 0;
}

}  // namespace perfbench
