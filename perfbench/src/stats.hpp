// Order statistics for the benchmark's latency reports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of an ascending-sorted vector.
double percentile_sorted(const std::vector<double>& sorted, double p);

double median(std::vector<double> v);

/// A tail latency: the highest percentile of the reporting ladder
/// (50, 90, 95) that has at least `kMinBeyond` samples strictly above its
/// rank, with the count that backs it. The ladder stops at p95: on the
/// shared 4-vCPU VM the benchmark was defined on, host CPU steal stalls
/// about 1% of 2 ms requests for milliseconds, and p99 of identical code
/// moved by 74–91% between runs (p99.9 by 77%).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;   // samples ranked above the reported one
  std::size_t samples = 0;
};

inline constexpr std::size_t kMinBeyond = 10;

/// Tail of `v`. With fewer than kMinBeyond + 1 samples no ladder step
/// qualifies and the result has percentile 0 (callers treat it as a
/// failed measurement).
Tail tail(std::vector<double> v);

}  // namespace perfbench
