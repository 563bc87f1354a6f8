// Tests of the benchmark's own helpers: tail-percentile selection, host
// normalization arithmetic and span self time.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "floor.hpp"
#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

TEST(Tail, PicksHighestLadderStepWithTenBeyond) {
  // n = 200: p95 has rank 190 and 10 beyond.
  const Tail t = tail(one_to(200));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 190.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 200u);
  // The ladder tops out at p95 however many samples there are.
  EXPECT_EQ(tail(one_to(100000)).percentile, 95.0);
  EXPECT_EQ(tail(one_to(100000)).beyond, 5000u);
}

TEST(Tail, SmallerSamplesFallDownTheLadder) {
  // n = 199: p95 -> rank 190, 9 beyond, so p90 (rank 180, 19 beyond).
  EXPECT_EQ(tail(one_to(199)).percentile, 90.0);
  EXPECT_EQ(tail(one_to(199)).value, 180.0);
  EXPECT_EQ(tail(one_to(199)).beyond, 19u);
  // n = 100: p90 -> rank 90, 10 beyond.
  EXPECT_EQ(tail(one_to(100)).percentile, 90.0);
  // n = 99: p90 has 9 beyond, so p50.
  EXPECT_EQ(tail(one_to(99)).percentile, 50.0);
}

TEST(Tail, TooFewSamplesHasNoTail) {
  EXPECT_EQ(tail(one_to(10)).percentile, 0.0);
  EXPECT_EQ(tail({}).percentile, 0.0);
  // n = 20: p50 has rank 10 and 10 beyond.
  EXPECT_EQ(tail(one_to(20)).percentile, 50.0);
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Normalize, ScalesTimesByReferenceOverAdjacentFloor) {
  // A host running twice as slow as the reference doubles both the op and
  // the floor; the normalized time is the reference-host time.
  EXPECT_DOUBLE_EQ(normalize_time(10.0, 2 * kReferenceFloorMs, kReferenceFloorMs),
                   5.0);
  EXPECT_DOUBLE_EQ(normalize_time(10.0, kReferenceFloorMs, kReferenceFloorMs),
                   10.0);
  EXPECT_DOUBLE_EQ(normalize_time(3.0, 0.5, 1.5), 9.0);
}

TEST(Floor, KernelsTakeMeasurableTime) {
  const double f = sample_floor_ms();
  EXPECT_GT(f, 0.0);
  EXPECT_TRUE(std::isfinite(f));
  RpcFloor rpc;
  // A round trip runs the kernel on the echo thread, so it costs more.
  EXPECT_GT(rpc.sample_ms(), f);
}

TEST(SelfTime, ParentMinusChildren) {
  // root [0, 100) with children [10, 30) and [40, 90); the second child
  // has its own child [50, 60).
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 40, 90, 0, 1},
      {"c", 50, 60, 2, 1},
  };
  std::map<std::string, LayerTime> out;
  accumulate_self_times(spans, out);
  EXPECT_DOUBLE_EQ(out["root"].self_ms, 30e-6);
  EXPECT_DOUBLE_EQ(out["root"].total_ms, 100e-6);
  EXPECT_DOUBLE_EQ(out["a"].self_ms, 20e-6);
  EXPECT_DOUBLE_EQ(out["b"].self_ms, 40e-6);
  EXPECT_DOUBLE_EQ(out["c"].self_ms, 10e-6);
  EXPECT_EQ(out["root"].count, 1u);
}

TEST(SelfTime, RecorderNestsScopesAndRecordedIntervals) {
  ThreadTrace tt(true);
  {
    const auto outer = tt.span("outer", 7);
    tt.record("inner", now_ns(), now_ns(), 7);
    { const auto mid = tt.span("mid", 7); }
  }
  ASSERT_EQ(tt.spans().size(), 3u);
  EXPECT_EQ(tt.spans()[0].parent, -1);
  EXPECT_EQ(tt.spans()[1].parent, 0);
  EXPECT_EQ(tt.spans()[2].parent, 0);
  EXPECT_EQ(tt.spans()[2].op, 7u);
  EXPECT_GE(tt.spans()[0].end_ns, tt.spans()[2].end_ns);

  ThreadTrace off(false);
  { const auto s = off.span("x", 1); }
  off.record("y", 0, 1, 1);
  EXPECT_TRUE(off.spans().empty());
}
