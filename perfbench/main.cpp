// perfbench: one workload run of the selfsched benchmark.  Normally started
// by run.py, which builds it, isolates it in a child process under a
// wall-clock limit and turns its line protocol (support.hpp) into the
// benchmark's JSON result.
//
//   perfbench --workload nest_churn|flat_irregular|serve_open --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//             [--corrupt] [--inject-abort] [--inject-hang]
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "support.hpp"

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else if (k == "--corrupt") {
      a.corrupt = true;
    } else if (k == "--inject-abort") {
      a.inject_abort = true;
    } else if (k == "--inject-hang") {
      a.inject_hang = true;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", k.c_str());
      return 2;
    }
  }
  if (!(a.seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  try {
    if (a.workload == "nest_churn" || a.workload == "flat_irregular")
      return perfbench::run_batch(a);
    if (a.workload == "serve_open") return perfbench::run_serve(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               a.workload.c_str());
  return 2;
}
