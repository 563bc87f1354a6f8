// Shared declarations of the perfbench workloads.
//
// Every workload measures one kind of op from outside the library, by
// timing calls into its public functions:
//
//   tune_ensemble  op = one tuner decision (previous evaluation recorded ->
//                  next objective call), Fig. 4(b) Ensemble(proposed);
//   crowd_query    op = one query_evaluations request (source download).
//
// Each reports the same end-to-end metrics (setup_s, throughput_ops_s,
// op_p50_ms, op_tail_ms; timings host-normalized, see floor.hpp) and, in a
// traced run, the same per-layer metrics (layers.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crowd/repo.hpp"
#include "floor.hpp"
#include "space/space.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = gptc::core;
namespace crowd = gptc::crowd;
namespace json = gptc::json;
namespace space = gptc::space;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path workdir;  // scratch space inside the checkout
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;  // human-readable lines printed first

  void gate(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
  /// Notes the value of end-to-end `metric` under the name the workload's
  /// domain gives it (e.g. decision_p50_ms for op_p50_ms).
  void alias(const std::string& name, const std::string& metric);
};

/// Latencies of one op class, raw and host-normalized, the measured (busy)
/// time they were collected in, and every floor call timed around them.
struct OpLog {
  explicit OpLog(double reference = kReferenceFloorMs,
                 double reference_tail = 0.0)
      : reference_floor_ms(reference), reference_floor_tail_ms(reference_tail) {}

  double reference_floor_ms;  // of the floor the ops are normalized by
  /// When set, the tail is normalized by the floor calls' own tail, not op
  /// by op: raw tail * reference_floor_tail_ms / the same percentile of
  /// floor_calls_ms. For ops of a few ms, whose tail is set by host stalls
  /// (ms-long preemptions) that the floor samples next to an op rarely
  /// catch but the floor calls' tail does.
  double reference_floor_tail_ms;
  std::vector<double> raw_ms;
  std::vector<double> norm_ms;
  double raw_busy_s = 0.0;
  std::vector<double> floor_calls_ms;

  /// One op of `raw` ms, normalized by the floor measured next to it.
  void add(double raw, double adjacent_floor_ms);
  void merge(const OpLog& other);
};

/// Fills end_to_end (normalized) and the raw.* / host.* / op.* / trace.*
/// per-layer metrics from the ops of `threads` load threads and the
/// `window_spans` spans recorded while they ran; notes name `what` an op is.
/// Latencies are normalized op by op (OpLog::add); throughput, a mean over
/// the whole window, by the mean of every floor call in it, which also
/// counts the stalls that slow a share of the ops.
void report_ops(Report& r, const OpLog& ops, double threads,
                std::size_t window_spans, const std::string& what);

// --- Crowd repository fixture ----------------------------------------------

/// One seeded source task: m = n = size, and the record ids its upload got.
struct SeededTask {
  std::int64_t size = 0;
  std::vector<std::int64_t> ids;
};

/// A durable crowd repository seeded the way a production one looks: many
/// registered users, PDGEQRF records of many tasks, `crowdctl serve`'s
/// engine options (async group commit, default checkpoint threshold).
struct CrowdFixture {
  std::filesystem::path dir;
  std::unique_ptr<crowd::SharedRepo> repo;
  std::vector<std::string> keys;  // one API key per registered user
  std::vector<SeededTask> tasks;
  std::size_t seeded_records = 0;
};

/// PDGEQRF on 8 Cori Haswell nodes, the problem of Fig. 4.
const space::TuningProblem& pdgeqrf_problem();

CrowdFixture make_fixture(const std::filesystem::path& dir, std::uint64_t seed,
                          std::size_t users,
                          const std::vector<std::int64_t>& task_sizes,
                          int samples_per_task);

/// The repository every workload runs over: 1,000 users and 200 PDGEQRF
/// tasks m = n = 2040, 2080, ..., 10000 (so Fig. 4's sources 6000, 8000
/// and 10000 are among them) of 100 records each, 20k records in all.
inline constexpr std::size_t kCrowdUsers = 1000;
inline constexpr std::size_t kCrowdTasks = 200;
CrowdFixture seeded_crowd_repo(const std::filesystem::path& dir,
                               std::uint64_t seed);

/// Recovery gate, outside the timed window: closes fx.repo, reopens its
/// directory with open_durable and checks that it holds exactly the seeded
/// records plus `acked`. fx.repo is the reopened repository afterwards.
void gate_reopen(Report& r, CrowdFixture& fx, std::uint64_t seed,
                 const std::vector<std::int64_t>& acked);

/// The WHERE clause of one source-task download.
std::string task_where(std::int64_t size);

/// Record ids of a query result, in result order.
std::vector<std::int64_t> record_ids(const std::vector<json::Json>& records);

/// A source history for the tuner from downloaded records.
core::TaskHistory history_from_records(const std::vector<json::Json>& records);

/// `n` evaluations of random configurations for task m = n = size, as the
/// upload a tuner session would send.
std::vector<crowd::EvalUpload> session_evaluations(std::int64_t size, int n,
                                                   std::uint64_t seed);

/// Counts *.snapshot files renamed into a directory (inotify), i.e. engine
/// checkpoints, while it is alive. The kernel merges identical unread
/// events, so a watcher thread drains them as they arrive.
class SnapshotCounter {
 public:
  explicit SnapshotCounter(const std::filesystem::path& dir);
  ~SnapshotCounter();
  SnapshotCounter(const SnapshotCounter&) = delete;
  SnapshotCounter& operator=(const SnapshotCounter&) = delete;
  /// Stops watching and returns the count.
  std::uint64_t stop();

 private:
  void watch() noexcept;

  int fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> count_{0};
  std::thread thread_;  // last: started after the members it uses
};

// --- Workloads ---------------------------------------------------------------

Report run_tune_ensemble(const Options& o, Tracer& tracer);
Report run_crowd_query(const Options& o, Tracer& tracer);

/// The workload data the traced run's layer probes work on.
struct LayerData {
  std::vector<core::TaskHistory> sources;  // tuner sources (3 tasks)
  space::Config target;
  crowd::SharedRepo* repo = nullptr;
  std::filesystem::path repo_dir;
  std::string api_key;
  std::int64_t query_size = 0;   // a seeded task to download
  std::size_t query_records = 0;
};

/// Per-arm decision bookkeeping shared by the tuning workload and probes.
struct ArmDecisions {
  std::map<std::string, OpLog> by_arm;  // keyed by metric-safe arm name
};
std::string arm_key(const std::string& proposed_by);
void report_arms(Report& r, const ArmDecisions& arms);

}  // namespace perfbench
