#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>

#include "apps/pdgeqrf.hpp"
#include "bench.hpp"
#include "core/tuner.hpp"
#include "floor.hpp"
#include "rng/rng.hpp"

namespace perfbench {

using namespace gptc;

void Report::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  notes.push_back("GATE FAILED: " + what);
}

void Report::alias(const std::string& name, const std::string& metric) {
  const auto it = end_to_end.find(metric);
  if (it == end_to_end.end()) return;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", it->second.value);
  notes.push_back(name + " = " + buf + " " + it->second.unit + " (" + metric +
                  ")");
}

void OpLog::add(double raw, double adjacent_floor_ms) {
  raw_ms.push_back(raw);
  norm_ms.push_back(normalize_time(raw, adjacent_floor_ms, reference_floor_ms));
}

void OpLog::merge(const OpLog& other) {
  raw_ms.insert(raw_ms.end(), other.raw_ms.begin(), other.raw_ms.end());
  norm_ms.insert(norm_ms.end(), other.norm_ms.begin(), other.norm_ms.end());
  raw_busy_s += other.raw_busy_s;
  floor_calls_ms.insert(floor_calls_ms.end(), other.floor_calls_ms.begin(),
                        other.floor_calls_ms.end());
}

namespace {

std::string fmt(const char* f, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c, d);
  return buf;
}

}  // namespace

void report_ops(Report& r, const OpLog& ops, double threads,
                std::size_t window_spans, const std::string& what) {
  const double n = static_cast<double>(ops.norm_ms.size());
  const Tail norm_tail = tail(ops.norm_ms);
  const Tail raw_tail = tail(ops.raw_ms);
  r.gate(norm_tail.percentile > 0,
         "fewer than 11 " + what + " samples: no tail percentile");
  const double raw_thr = ops.raw_busy_s > 0 ? n * threads / ops.raw_busy_s : 0;
  double floor_mean = 0.0;
  for (const double f : ops.floor_calls_ms) floor_mean += f;
  floor_mean /= static_cast<double>(std::max<std::size_t>(ops.floor_calls_ms.size(), 1));
  // A rate scales inversely: rate * F_adjacent / F_ref.
  const double thr = raw_thr * floor_mean / ops.reference_floor_ms;
  r.end_to_end["throughput_ops_s"] = {thr, "1/s"};
  std::vector<double> floors = ops.floor_calls_ms;
  std::sort(floors.begin(), floors.end());
  const double floor_tail = percentile_sorted(floors, raw_tail.percentile);
  const double op_tail =
      ops.reference_floor_tail_ms > 0
          ? normalize_time(raw_tail.value, floor_tail,
                           ops.reference_floor_tail_ms)
          : norm_tail.value;
  r.end_to_end["op_p50_ms"] = {median(ops.norm_ms), "ms"};
  r.end_to_end["op_tail_ms"] = {op_tail, "ms"};
  r.per_layer["raw.throughput_ops_s"] = {raw_thr, "1/s"};
  r.per_layer["raw.op_p50_ms"] = {median(ops.raw_ms), "ms"};
  r.per_layer["raw.op_tail_ms"] = {raw_tail.value, "ms"};
  r.per_layer["host.floor_ms"] = {median(ops.floor_calls_ms), "ms"};
  r.per_layer["host.floor_tail_ms"] = {floor_tail, "ms"};
  r.per_layer["op.samples"] = {n, "count"};
  r.per_layer["op.tail_percentile"] = {norm_tail.percentile, "%"};
  // Per op, so that a program that completes more ops does not read as
  // recording more spans.
  r.per_layer["trace.spans_per_op"] = {
      n > 0 ? static_cast<double>(window_spans) / n : 0.0, "spans/op"};
  r.note("op = " + what + "; " +
         fmt("%.0f ops; tail = p%g with %.0f samples beyond", n,
             norm_tail.percentile, static_cast<double>(norm_tail.beyond)));
  r.note(fmt("host floor median %.4f ms (reference %.4f ms), raw p50 %.3f ms "
             "-> normalized %.3f ms",
             median(ops.floor_calls_ms), ops.reference_floor_ms, median(ops.raw_ms),
             median(ops.norm_ms)));
  if (ops.reference_floor_tail_ms > 0)
    r.note(fmt("host floor tail %.4f ms (reference %.4f ms), raw tail %.3f "
               "ms -> normalized %.3f ms",
               floor_tail, ops.reference_floor_tail_ms, raw_tail.value,
               op_tail));
}

// --- Crowd repository fixture ----------------------------------------------

const space::TuningProblem& pdgeqrf_problem() {
  static const space::TuningProblem problem =
      apps::make_pdgeqrf_problem(hpcsim::MachineModel::cori_haswell(), 8);
  return problem;
}

namespace {

crowd::EvalUpload to_upload(const space::TuningProblem& p, std::int64_t size,
                            const core::EvalRecord& e) {
  crowd::EvalUpload u;
  u.task_parameters = json::Json::object();
  u.task_parameters["m"] = size;
  u.task_parameters["n"] = size;
  u.tuning_parameters = p.param_space.config_to_json(e.params);
  u.output = e.output;
  u.machine_configuration["machine_name"] = "Cori";
  u.machine_configuration["nodes"] = std::int64_t{8};
  return u;
}

}  // namespace

std::vector<crowd::EvalUpload> session_evaluations(std::int64_t size, int n,
                                                   std::uint64_t seed) {
  const auto& p = pdgeqrf_problem();
  const auto h = core::collect_random_samples(
      p, {space::Value(size), space::Value(size)}, n, seed);
  std::vector<crowd::EvalUpload> out;
  for (const auto& e : h.evals()) out.push_back(to_upload(p, size, e));
  return out;
}

CrowdFixture make_fixture(const std::filesystem::path& dir, std::uint64_t seed,
                          std::size_t users,
                          const std::vector<std::int64_t>& task_sizes,
                          int samples_per_task) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CrowdFixture fx;
  fx.dir = dir;
  db::engine::EngineOptions eo;
  eo.async_commit = true;  // `crowdctl serve`: default checkpoint threshold
  fx.repo = std::make_unique<crowd::SharedRepo>(
      crowd::SharedRepo::open_durable(dir, rng::splitmix64(seed), eo));
  fx.repo->add_machine_alias("Cori", {"cori", "cori-haswell"});
  for (std::size_t u = 0; u < users; ++u)
    fx.keys.push_back(fx.repo->register_user(
        "user" + std::to_string(u), "user" + std::to_string(u) + "@crowd"));
  for (std::size_t t = 0; t < task_sizes.size(); ++t) {
    const auto evals = session_evaluations(
        task_sizes[t], samples_per_task,
        rng::splitmix64(seed * 7919 + t));
    const std::string& key = fx.keys[t % fx.keys.size()];
    const auto receipt = fx.repo->upload_batch(key, "pdgeqrf", evals);
    fx.repo->wait_uploads_durable(receipt);
    fx.tasks.push_back({task_sizes[t], receipt.ids});
    fx.seeded_records += receipt.ids.size();
  }
  fx.repo->sync();
  return fx;
}

CrowdFixture seeded_crowd_repo(const std::filesystem::path& dir,
                               std::uint64_t seed) {
  std::vector<std::int64_t> sizes;
  for (std::size_t k = 0; k < kCrowdTasks; ++k)
    sizes.push_back(2040 + 40 * static_cast<std::int64_t>(k));
  return make_fixture(dir, seed, kCrowdUsers, sizes, 100);
}

void gate_reopen(Report& r, CrowdFixture& fx, std::uint64_t seed,
                 const std::vector<std::int64_t>& acked) {
  fx.repo->sync();
  fx.repo.reset();
  db::engine::EngineOptions eo;
  eo.async_commit = true;
  fx.repo = std::make_unique<crowd::SharedRepo>(
      crowd::SharedRepo::open_durable(fx.dir, rng::splitmix64(seed), eo));
  std::set<std::int64_t> expected(acked.begin(), acked.end());
  for (const SeededTask& t : fx.tasks)
    expected.insert(t.ids.begin(), t.ids.end());
  const auto ids = record_ids(
      fx.repo->query_where(fx.keys[0], "pdgeqrf", "task_parameters.m >= 0"));
  const std::set<std::int64_t> found(ids.begin(), ids.end());
  r.gate(ids.size() == expected.size() && found == expected,
         "reopened repository holds " + std::to_string(ids.size()) +
             " records, expected seeded + acked = " +
             std::to_string(expected.size()));
}

std::string task_where(std::int64_t size) {
  const std::string s = std::to_string(size);
  return "task_parameters.m = " + s + " AND task_parameters.n = " + s;
}

std::vector<std::int64_t> record_ids(const std::vector<json::Json>& records) {
  std::vector<std::int64_t> ids;
  ids.reserve(records.size());
  for (const auto& rec : records) ids.push_back(rec.at("_id").as_int());
  return ids;
}

core::TaskHistory history_from_records(const std::vector<json::Json>& records) {
  const auto& p = pdgeqrf_problem();
  if (records.empty()) return core::TaskHistory();
  core::TaskHistory h(p.task_space.config_from_json(
      records.front().at("task_parameters")));
  for (const auto& rec : records) {
    const json::Json& out = rec.at("output").at("runtime");
    h.add(p.param_space.config_from_json(rec.at("tuning_parameters")),
          out.is_number() ? out.as_double()
                          : std::numeric_limits<double>::quiet_NaN());
  }
  return h;
}

SnapshotCounter::SnapshotCounter(const std::filesystem::path& dir) {
  fd_ = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (fd_ < 0) throw std::runtime_error("inotify_init1 failed");
  if (inotify_add_watch(fd_, dir.c_str(), IN_MOVED_TO) < 0) {
    ::close(fd_);
    throw std::runtime_error("inotify_add_watch failed on " + dir.string());
  }
  thread_ = std::thread([this] { watch(); });
}

SnapshotCounter::~SnapshotCounter() {
  stop();
  ::close(fd_);
}

std::uint64_t SnapshotCounter::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return count_.load();
}

void SnapshotCounter::watch() noexcept {
  const std::string suffix = ".snapshot";
  alignas(inotify_event) char buf[16384];
  for (;;) {
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, 20);
    const bool stopping = stop_.load();
    if (ready > 0) {
      for (;;) {
        const ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n <= 0) break;
        for (ssize_t off = 0; off < n;) {
          inotify_event ev;
          std::memcpy(&ev, buf + off, sizeof ev);
          const std::string name =
              ev.len > 0 ? std::string(buf + off + sizeof ev) : std::string();
          if (name.size() >= suffix.size() &&
              name.compare(name.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            count_.fetch_add(1);
          off += static_cast<ssize_t>(sizeof ev + ev.len);
        }
      }
    }
    if (stopping) return;
  }
}

// --- Per-arm decision bookkeeping ------------------------------------------

std::string arm_key(const std::string& proposed_by) {
  if (proposed_by == "WeightedSum(equal)") return "ws_equal";
  if (proposed_by == "WeightedSum(dynamic)") return "ws_dynamic";
  if (proposed_by == "Stacking") return "stacking";
  if (proposed_by == "Multitask(TS)") return "multitask_ts";
  return "other";
}

void report_arms(Report& r, const ArmDecisions& arms) {
  for (const char* arm : {"ws_equal", "ws_dynamic", "stacking", "multitask_ts"}) {
    const auto it = arms.by_arm.find(arm);
    const OpLog empty;
    const OpLog& log = it == arms.by_arm.end() ? empty : it->second;
    const std::string a(arm);
    r.per_layer["core.tuner.decision_ms." + a] = {median(log.norm_ms), "ms"};
    r.per_layer["core.tuner.decisions." + a] = {
        static_cast<double>(log.norm_ms.size()), "count"};
  }
}

}  // namespace perfbench
