#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

// Nearest rank: the smallest 1-based rank r with r >= p/100 * n.
std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  std::sort(v.begin(), v.end());
  for (const double p : {95.0, 90.0, 50.0}) {
    if (v.empty()) break;
    const std::size_t beyond = v.size() - nearest_rank(v.size(), p);
    if (beyond < kMinBeyond) continue;
    t.value = percentile_sorted(v, p);
    t.percentile = p;
    t.beyond = beyond;
    break;
  }
  return t;
}

}  // namespace perfbench
