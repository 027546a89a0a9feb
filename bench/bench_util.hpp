// Shared helpers for the experiment harnesses: aligned table printing and
// common sweep plumbing.  Each bench binary reproduces one experiment from
// DESIGN.md §4 and prints a self-describing table (CSV-ish) whose shape can
// be compared against the paper's analytical claims; EXPERIMENTS.md records
// the outcomes.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace selfsched::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    print_row(headers_, width);
    std::string sep;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      sep += std::string(width[c], '-');
      sep += (c + 1 < headers_.size()) ? "-+-" : "";
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& r : rows_) print_row(r, width);
  }

 private:
  static void print_row(const std::vector<std::string>& cells,
                        const std::vector<std::size_t>& width) {
    std::string line;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::string cell = cells[c];
      cell.resize(width[c], ' ');
      line += cell;
      line += (c + 1 < cells.size()) ? " | " : "";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt(i64 v) { return std::to_string(v); }
inline std::string fmt(u64 v) { return std::to_string(v); }
inline std::string fmt(u32 v) { return std::to_string(v); }

/// One metric of a bench's --json document (selfsched-bench/v1, see
/// docs/benchmarking.md).
struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* better;  // "less" | "more"
  bool gate = false;   // compared against the committed baseline in CI
};

/// Write `metrics` as bench `bench`'s --json document at `path`; every
/// metric carries the bench-wide `deterministic` flag.  Returns false
/// (after saying so on stderr) if the file cannot be written.
inline bool write_json(const std::string& path, const char* bench,
                       bool deterministic, const std::vector<Metric>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const char* det = deterministic ? "true" : "false";
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench);
  std::fprintf(f, "  \"deterministic\": %s,\n  \"metrics\": [\n", det);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& mt = metrics[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": "
                 "\"%s\", \"better\": \"%s\", \"deterministic\": %s, "
                 "\"gate\": %s}%s\n",
                 mt.name.c_str(), mt.value, mt.unit, mt.better, det,
                 mt.gate ? "true" : "false",
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics.size());
  return true;
}

inline void banner(const char* experiment, const char* claim) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

}  // namespace selfsched::bench
