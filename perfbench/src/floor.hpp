// Host normalization: fixed reference kernels timed between ops.
//
// Shared hosts drift in speed by tens of percent over seconds. The benchmark
// therefore times small, fixed kernels (a dense matmul plus exp, or text
// formatting, parsing and key scans; no library code) right next to the
// ops it measures, outside the timed intervals, and
// reports every timing as
//
//   normalized = raw * reference_floor_ms / adjacent_floor_ms
//
// so a host that runs 20% slow for a while inflates both the op and its
// floor, and the ratio cancels. The floor has the shape of the op: the
// tuner's decisions are floating-point work on one thread, so they use the
// matmul kernel timed on that thread (sample_floor_ms); a crowd request is
// text work across a loopback socket to another thread, so requests use a
// text kernel behind the same kind of round trip (RpcFloor), which also
// feels the wake-up delays and CPU steal that a bare kernel does not.
#pragma once

#include <cstddef>
#include <thread>
#include <vector>

namespace perfbench {

/// The floors' median times (ms) on the host the benchmark was defined on
/// (4-vCPU Xeon VM, RelWithDebInfo build of this directory). Constants:
/// changing one rescales every timing normalized by that floor.
inline constexpr double kReferenceFloorMs = 0.28;
inline constexpr double kReferenceRpcFloorMs = 1.6;
inline constexpr double kReferenceRpcFloorTailMs = 1.9;  // the RpcFloor's p95

/// One floor sample: the median of three kernel runs, in ms. Each run's
/// time is also appended to `calls` when given.
double sample_floor_ms(std::vector<double>* calls = nullptr);

/// The service-path floor: a benchmark-owned echo thread behind a loopback
/// TCP connection runs the text kernel for every request, so a sample
/// has the shape of a crowd request (send, wake-up of another thread,
/// compute on another CPU, reply) and feels the host's scheduling delays
/// and CPU steal as requests do. Its references are kReferenceRpcFloorMs
/// and, for its p95, kReferenceRpcFloorTailMs.
/// Not thread-safe: one thread at a time samples it.
class RpcFloor {
 public:
  RpcFloor();
  ~RpcFloor();
  RpcFloor(const RpcFloor&) = delete;
  RpcFloor& operator=(const RpcFloor&) = delete;

  /// The median of three round trips, in ms. Each round trip's time is
  /// also appended to `calls` when given.
  double sample_ms(std::vector<double>* calls = nullptr);

 private:
  void echo() noexcept;

  int client_fd_ = -1;
  int server_fd_ = -1;
  std::thread echo_;  // last: started after the descriptors it uses
};

/// raw * reference_floor_ms / adjacent_floor_ms.
double normalize_time(double raw, double adjacent_floor_ms,
                      double reference_floor_ms);

}  // namespace perfbench
