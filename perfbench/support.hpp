// Shared pieces of the perfbench binary: the seeded iteration body and its
// checksum, timing statistics, span recording, and the line protocol the
// binary speaks to run.py on stdout.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/cacheline.hpp"
#include "common/types.hpp"
#include "exec/thread_team.hpp"
#include "program/ast.hpp"

namespace perfbench {

using namespace selfsched;
using Clock = std::chrono::steady_clock;

// Workers on both engines and in the service: on a 4-vCPU host three
// workers leave a core for the OS, and P=3 medians were much steadier than
// P=4.
constexpr u32 kProcs = 3;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline u64 mix64(u64 x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// The body's work: `len` dependent xorshift-multiply steps.  A chain of
/// dependent steps cannot be vectorised or folded, so its time is linear in
/// `len` (about 1.5-2 ns a step on a current x86 core).
inline u64 hash_chain(u64 x, u32 len) {
  for (u32 i = 0; i < len; ++i) {
    x ^= x >> 29;
    x *= 0x9e3779b97f4a7c15ULL;
  }
  return x;
}

/// Chain lengths of a workload's iterations, drawn from the iteration key.
struct WorkShape {
  u32 lo = 0;       // uniform range of chain lengths [lo, hi]
  u32 hi = 0;
  u32 heavy_one_in = 0;  // 0 = none; else 1 in N iterations is heavy
  u32 heavy_len = 0;

  u32 length(u64 key) const {
    if (heavy_one_in != 0 && (key >> 40) % heavy_one_in == 0) return heavy_len;
    return lo + static_cast<u32>(key % (hi - lo + 1));
  }
};

/// Key of one iteration: (seed, leaf, enclosing indices, iteration).  Only
/// the leaf's own index prefix is hashed: past a leaf's depth the runtime's
/// IndexVec entries are not defined to match the serial oracle's.
inline u64 iteration_key(u64 leaf_key, const IndexVec& ivec, u32 depth,
                         i64 j) {
  u64 k = leaf_key;
  const std::size_t n = std::min<std::size_t>(ivec.size(), depth);
  for (std::size_t i = 0; i < n; ++i) k = mix64(k ^ static_cast<u64>(ivec[i]));
  return mix64(k ^ (static_cast<u64>(j) << 1));
}

/// Per-worker body checksums: each iteration adds its chain result to the
/// executing worker's slot, so the sum over slots is independent of which
/// worker ran what and can be compared with the serial oracle.
class Checksum {
 public:
  explicit Checksum(u32 procs) : slots_(procs) {}

  void add(ProcId p, u64 v) {
    Slot& s = slots_[p];
    s.sum += v;
    ++s.iterations;
  }

  struct Total {
    u64 sum = 0;
    u64 iterations = 0;
    bool operator==(const Total&) const = default;
  };

  Total take() {
    Total t;
    for (Slot& s : slots_) {
      t.sum += s.sum;
      t.iterations += s.iterations;
      s = Slot{};
    }
    return t;
  }

 private:
  struct alignas(kCacheLine) Slot {
    u64 sum = 0;
    u64 iterations = 0;
  };
  std::vector<Slot> slots_;
};

/// Self-test hook: when set, the next body executed adds a wrong value to
/// its checksum (one corrupted result), which the run must report as a
/// failed operation.
inline std::atomic<bool> g_corrupt_next{false};

/// Walk a parsed AST and attach the seeded body (and, for the virtual-time
/// copy, a cost of one cycle per chain step) to every innermost leaf.
/// Returns the leaf depths by name (enclosing loops + the implicit wrapper)
/// so the caller can check them against the compiled tables.
inline std::map<std::string, u32> attach_work(program::NodeSeq& seq,
                                              u64 seed, const WorkShape& shape,
                                              Checksum& sums, bool with_cost,
                                              u32 depth = 1) {
  std::map<std::string, u32> depths;
  for (program::NodePtr& n : seq) {
    switch (n->kind) {
      case program::NodeKind::kInnermost: {
        u64 leaf_key = seed;
        for (const char c : n->name) leaf_key = mix64(leaf_key ^ u64(c));
        depths[n->name] = depth;
        n->body = [leaf_key, depth, shape, &sums](
                      ProcId p, const IndexVec& ivec, i64 j) {
          const u64 key = iteration_key(leaf_key, ivec, depth, j);
          u64 r = hash_chain(key, shape.length(key));
          if (g_corrupt_next.load(std::memory_order_relaxed) &&
              g_corrupt_next.exchange(false))
            ++r;
          sums.add(p, r);
        };
        if (with_cost) {
          n->cost = [leaf_key, depth, shape](const IndexVec& ivec,
                                             i64 j) -> Cycles {
            return shape.length(iteration_key(leaf_key, ivec, depth, j));
          };
        } else {
          n->cost = nullptr;
        }
        break;
      }
      case program::NodeKind::kParallelLoop:
      case program::NodeKind::kSerialLoop:
        depths.merge(attach_work(n->children, seed, shape, sums, with_cost,
                                 depth + 1));
        break;
      case program::NodeKind::kIf:
        depths.merge(
            attach_work(n->children, seed, shape, sums, with_cost, depth));
        depths.merge(attach_work(n->else_children, seed, shape, sums,
                                 with_cost, depth));
        break;
      case program::NodeKind::kSections:
        for (program::NodeSeq& b : n->section_branches)
          depths.merge(attach_work(b, seed, shape, sums, with_cost, depth));
        break;
    }
  }
  return depths;
}

// ---------------------------------------------------------------- statistics

/// NaN when there are no samples, which Report::metric turns into a failed
/// operation instead of a value.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest sample that still has exactly ten samples beyond it — the
/// highest percentile the sample count supports.  NaN, and not valid(), with
/// fewer than eleven samples.
struct Tail {
  double value = std::nan("");
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool valid() const { return beyond >= 10; }
};

inline Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - 11;
  t.value = v[idx];
  t.beyond = v.size() - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

// ------------------------------------------------------------------- spans

/// In-memory span recorder for the traced run.  Spans are opened and closed
/// on the benchmark's own thread around calls into each layer; a span's parent
/// is the span open when it started.  Written out as Chrome-trace JSON when
/// the run ends.
class Spans {
 public:
  struct Span {
    std::string name;
    i64 start_ns = 0;
    i64 end_ns = 0;
    i64 parent = -1;
    i64 request = -1;
  };

  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  i64 open(std::string name, i64 request = -1) {
    if (!enabled_) return -1;
    const i64 parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent, request});
    stack_.push_back(static_cast<i64>(spans_.size() - 1));
    return stack_.back();
  }

  void close(i64 id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Self time of every span called `name`, in microseconds: its duration
  /// minus the part of it its child spans cover.
  std::vector<double> self_us(const std::string& name) const {
    std::vector<i64> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name)
        out.push_back(static_cast<double>(spans_[i].end_ns -
                                          spans_[i].start_ns - child_ns[i]) /
                      1e3);
    return out;
  }

  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"request\":%lld}}",
                   i ? ",\n" : "\n", s.name.c_str(),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  i64 now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<i64> stack_;
};

/// RAII span scope.
class SpanScope {
 public:
  SpanScope(Spans& s, std::string name, i64 request = -1)
      : s_(s), id_(s.open(std::move(name), request)) {}
  ~SpanScope() { s_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& s_;
  i64 id_;
};

// ------------------------------------------------------------ line protocol

/// One flushed stdout line, so a crash loses nothing already reported.
[[gnu::format(printf, 1, 2)]] inline void emit(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// The binary's stdout protocol, read by run.py:
///   plan <ops>                      operations the run will attempt at most
///   progress <attempted> <failed>   running tally (sent as operations end)
///   metric <name> <value> <unit> [note]
///   result <correct 0|1> <attempted> <failed>
class Report {
 public:
  void plan(u64 ops) {
    emit("plan %llu", static_cast<unsigned long long>(ops));
  }

  /// Count one finished operation; `why` names the failure when !ok.
  void op(bool ok, const std::string& why = "") {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 5) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
    }
    const auto now = Clock::now();
    if (!ok || now - last_ > std::chrono::milliseconds(100)) {
      last_ = now;
      progress();
    }
  }

  /// A value that is not finite (a median of no samples, a ratio over
  /// zero) is left out and fails the run instead of reading as a result.
  void metric(const std::string& name, double value, const char* unit,
              const std::string& note = "") {
    if (!std::isfinite(value)) {
      op(false, name + " has no finite value");
      return;
    }
    emit("metric %s %.17g %s%s%s", name.c_str(), value, unit,
         note.empty() ? "" : " ", note.c_str());
  }

  /// A tail with fewer than ten samples beyond it is left out and fails the
  /// run.
  void tail_metric(const std::string& name, const Tail& t) {
    if (!t.valid()) {
      op(false, name + " has fewer than ten samples beyond its tail");
      return;
    }
    char note[96];
    std::snprintf(note, sizeof note, "p%.1f of %zu samples, %zu beyond",
                  t.percentile, t.samples, t.beyond);
    metric(name, t.value, "ms", note);
  }

  u64 attempted() const { return attempted_; }

  void result() {
    progress();
    emit("result %d %llu %llu", failed_ == 0 ? 1 : 0,
         static_cast<unsigned long long>(attempted_),
         static_cast<unsigned long long>(failed_));
  }

 private:
  void progress() {
    emit("progress %llu %llu", static_cast<unsigned long long>(attempted_),
         static_cast<unsigned long long>(failed_));
  }

  u64 attempted_ = 0;
  u64 failed_ = 0;
  Clock::time_point last_{};
};

// --------------------------------------------------------- host calibration

/// One host calibration on a team: single-thread speed, and the throughput
/// ratio the host gives P busy threads against one (ideal = P).
struct Calibration {
  double step_ns = 0;  // one thread's time per chain step
  double scaling = 0;
};

/// Pure spin on the team: each active thread runs `steps` chain steps; with
/// one thread the other members return at once.
inline Calibration calibrate(exec::ThreadTeam& team, u32 steps) {
  std::atomic<u64> sink{0};
  auto spin_ms = [&](u32 active) {
    const auto t0 = Clock::now();
    team.run([&](ProcId p) {
      if (p < active) sink.fetch_add(hash_chain(p + 1, steps));
    });
    return ms_between(t0, Clock::now());
  };
  const double one = spin_ms(1);
  const double all = spin_ms(team.procs());
  return {one * 1e6 / steps, static_cast<double>(team.procs()) * one / all};
}

// Chain steps of one host calibration: ~2 ms per thread.
constexpr u32 kSpinSteps = 1u << 20;

inline std::vector<double> column(const std::vector<Calibration>& v,
                                  double Calibration::*field) {
  std::vector<double> out;
  for (const Calibration& c : v) out.push_back(c.*field);
  return out;
}

/// Host warm-up, and the check that the host stayed warm.
///
/// A VM left idle for a few seconds first runs P busy threads about as fast
/// as one: parallel runs take ~3x their settled time and spin scaling reads
/// ~1.0 for the first 1-2 s of load, then both step to their settled
/// values.  The slow phase is itself steady, so settling is judged against
/// an absolute bar as well: the last five calibrations must give a spin
/// scaling of at least P/2, and the medians of the last five workload
/// samples and of the last five single-thread step times must each be
/// within 5% of the five before.  A host that has not settled after 30 s
/// fails the run.
///
/// The settled single-thread step time is the host's reference speed.  A
/// measured window whose calibrations read more than 10% off it, or whose
/// spin scaling falls below P/2, fails the run: its wall-clock figures were
/// taken on another host speed than the one it warmed up to.
class HostWarmth {
 public:
  HostWarmth(u32 procs, Report& rep) : procs_(procs), rep_(rep) {}

  /// Feed one workload sample and one calibration; true once settled, or
  /// once the warm-up has timed out (which fails the run).
  bool settled(double sample, Calibration c) {
    samples_.push_back(sample);
    step_ns_.push_back(c.step_ns);
    scaling_.push_back(c.scaling);
    if (ms_between(t0_, Clock::now()) > kTimeoutMs) {
      rep_.op(false, "host did not settle within 30 s of warm-up");
      return true;
    }
    if (samples_.size() < 10) return false;
    return median(last5(scaling_, 0)) >= procs_ / 2.0 &&
           agree(samples_) && agree(step_ns_);
  }

  double seconds() const { return ms_between(t0_, Clock::now()) / 1e3; }

  /// Fail the run if the window's calibrations left the settled range.
  void check_window(const std::vector<Calibration>& window) {
    const double ref = median(last5(step_ns_, 0));
    const double got = median(column(window, &Calibration::step_ns));
    if (!(std::abs(got - ref) <= 0.10 * ref)) {
      char why[128];
      std::snprintf(why, sizeof why,
                    "host speed left its settled range: %.4g ns/step "
                    "against %.4g after warm-up",
                    got, ref);
      rep_.op(false, why);
    }
    if (!(median(column(window, &Calibration::scaling)) >= procs_ / 2.0))
      rep_.op(false, "host spin scaling fell below P/2 in the window");
  }

 private:
  static constexpr double kTimeoutMs = 30000;

  /// The five samples that end `back` samples before the last.
  static std::vector<double> last5(const std::vector<double>& v,
                                   std::size_t back) {
    const auto e = v.end() - static_cast<std::ptrdiff_t>(back);
    return {e - 5, e};
  }

  static bool agree(const std::vector<double>& v) {
    const double last = median(last5(v, 0));
    const double prev = median(last5(v, 5));
    return std::abs(last - prev) <= 0.05 * prev;
  }

  u32 procs_;
  Report& rep_;
  Clock::time_point t0_ = Clock::now();
  std::vector<double> samples_, step_ns_, scaling_;
};

/// Median spin scaling and single-thread step time of a set of calibrations.
inline void calibration_metrics(const std::vector<Calibration>& window,
                                Report& rep) {
  rep.metric("host.spin_scaling",
             median(column(window, &Calibration::scaling)), "x");
  rep.metric("host.step_ns", median(column(window, &Calibration::step_ns)),
             "ns");
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  // Self-test hooks (never used by a measured run).
  bool corrupt = false;
  bool inject_abort = false;
  bool inject_hang = false;
};

/// End a run: write the traced run's spans, then the result line.
inline void finish(const Args& a, const Spans& spans, Report& rep) {
  if (a.trace && !a.trace_out.empty() &&
      !spans.write_chrome_trace(a.trace_out))
    std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
  rep.result();
}

int run_batch(const Args& a);
int run_serve(const Args& a);

}  // namespace perfbench
