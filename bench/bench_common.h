// Shared helpers for the figure-reproduction benches.
//
// Every figure bench prints: a header naming the paper figure it
// regenerates, the series the figure plots (one row per point), and a
// trailing NOTES section explaining how to read the shape. Absolute
// numbers differ from the paper (different hardware, no OMNeT++, no GPU);
// the shapes are the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace esim::bench {

/// True when the ESIM_BENCH_QUICK environment variable is set: benches
/// shrink durations/training to smoke-test size.
inline bool quick_mode() {
  const char* v = std::getenv("ESIM_BENCH_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Median and range of repeated measurements.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Spread of `v` (all zero when empty).
inline Spread spread_of(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return {n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]), v.front(),
          v.back()};
}

inline void print_header(const std::string& figure,
                         const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  if (quick_mode()) std::printf("(ESIM_BENCH_QUICK: reduced scale)\n");
  std::printf("==============================================================\n");
}

inline void print_note(const std::string& note) {
  std::printf("NOTE: %s\n", note.c_str());
}

}  // namespace esim::bench
