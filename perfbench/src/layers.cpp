// Layer probes of the traced run.
//
// The benchmark changes nothing in the library, so it cannot put spans
// inside Tuner::tune or the server. Instead, after the traced workload, it
// calls each layer's public functions on the workload's own data — the
// tuner's three sources and target, the seeded repository and one of its
// users — under a span per call, and reports each layer's median self
// time. Every workload runs the same probes, so every traced run reports
// every per-layer metric; the end-to-end metric each one should move is
// listed in BENCHMARK.json's workload rationale and CHANGES.md.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/acquisition.hpp"
#include "core/tla.hpp"
#include "floor.hpp"
#include "gp/gaussian_process.hpp"
#include "gp/lcm.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "rng/rng.hpp"
#include "tuning.hpp"

namespace perfbench {

using namespace gptc;

namespace {

constexpr std::int64_t kStormProbeNs = 3'000'000'000;

/// Times `fn` `reps` times under span `name`, each call normalized by a
/// floor sample taken right after it; returns the median normalized ms.
double probe(ThreadTrace& tt, const char* name, int reps,
             const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    {
      const auto span = tt.span(name, static_cast<std::uint64_t>(i));
      fn();
    }
    const double raw = static_cast<double>(now_ns() - t0) * 1e-6;
    ms.push_back(normalize_time(raw, sample_floor_ms(), kReferenceFloorMs));
  }
  return median(ms);
}

std::uint64_t wal_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().extension() == ".wal") total += e.file_size();
  return total;
}

void probe_tuning_layers(const LayerData& data, std::uint64_t seed,
                         ThreadTrace& tt, TuningLogs& logs, Report& r) {
  const space::TuningProblem& problem = pdgeqrf_problem();
  const core::TunerOptions fig4 =
      fig4_options(core::TlaKind::EnsembleProposed, seed, 10);
  const core::TaskHistory target_history = core::collect_random_samples(
      problem, data.target, 10, rng::splitmix64(seed + 17));
  core::TlaContext ctx;
  ctx.param_space = &problem.param_space;
  ctx.sources = &data.sources;
  ctx.target = &target_history;
  rng::Rng rng(rng::splitmix64(seed + 29));

  r.per_layer["core.tla.fit_source_gps_ms"] = {
      probe(tt, "core.tla.fit_source_gps", 2,
            [&] {
              rng::Rng local = rng.split("fit");
              (void)core::fit_source_gps(ctx, fig4.tla.gp, local,
                                         fig4.tla.max_source_samples);
            }),
      "ms"};

  // One source task's data: n = 100, d = 4, as every source GP sees it.
  const core::TrainingData td =
      data.sources.front().valid_data(problem.param_space);
  gp::GaussianProcess gp(problem.param_space.dim(), fig4.tla.gp);
  r.per_layer["gp.fit_ms"] = {probe(tt, "gp.fit", 3,
                                    [&] {
                                      rng::Rng local = rng.split("gp");
                                      gp.fit(td.x, td.y, local);
                                    }),
                              "ms"};
  r.per_layer["gp.kernel_gram_ms"] = {
      probe(tt, "gp.kernel_gram", 30, [&] { (void)gp.kernel().gram(td.x); }),
      "ms"};
  la::Matrix k = gp.kernel().gram(td.x);
  for (std::size_t i = 0; i < k.rows(); ++i) k(i, i) += gp.noise_variance();
  r.per_layer["la.cholesky_ms"] = {
      probe(tt, "la.cholesky", 30, [&] { (void)la::Cholesky(k); }), "ms"};
  r.per_layer["gp.nll_ms"] = {
      probe(tt, "gp.nll", 30,
            [&] {
              gp.refit_state(td.x, td.y);
              (void)gp.log_marginal_likelihood();
            }),
      "ms"};
  la::Vector x0(td.x.cols());
  for (std::size_t j = 0; j < x0.size(); ++j) x0[j] = td.x(0, j);
  r.per_layer["gp.predict_us"] = {
      1e3 * probe(tt, "gp.predict", 200, [&] { (void)gp.predict(x0); }), "us"};
  double best = 0.0;
  for (const double y : td.y) best = std::min(best == 0.0 ? y : best, y);
  r.per_layer["core.acquisition.maximize_ei_ms"] = {
      probe(tt, "core.acquisition.maximize_ei", 3,
            [&] {
              rng::Rng local = rng.split("ei");
              (void)core::maximize_ei(gp, best, local, {},
                                      fig4.tla.acquisition);
            }),
      "ms"};

  // The LCM of Multitask(TS): three sources capped at 80 samples plus the
  // target's 10, stacked.
  std::vector<gp::TaskData> tasks;
  std::size_t stacked = 0;
  for (const auto& h : data.sources) {
    core::TrainingData d = h.valid_data(problem.param_space);
    rng::Rng sub = rng.split("sub");
    d = core::subsample_training_data(d, fig4.tla.lcm.max_samples_per_task,
                                      sub);
    stacked += d.size();
    tasks.push_back({d.x, d.y});
  }
  {
    const core::TrainingData d = target_history.valid_data(problem.param_space);
    stacked += d.size();
    tasks.push_back({d.x, d.y});
  }
  r.per_layer["gp.lcm_fit_ms"] = {
      probe(tt, "gp.lcm_fit", 1,
            [&] {
              gp::LcmModel lcm(problem.param_space.dim(), tasks.size(),
                               fig4.tla.lcm);
              rng::Rng local = rng.split("lcm");
              lcm.fit(tasks, local);
            }),
      "ms"};
  la::Matrix xs(stacked, problem.param_space.dim());
  std::size_t row = 0;
  for (const auto& t : tasks)
    for (std::size_t i = 0; i < t.x.rows(); ++i, ++row)
      for (std::size_t j = 0; j < t.x.cols(); ++j) xs(row, j) = t.x(i, j);
  la::Matrix ks = gp.kernel().gram(xs);
  for (std::size_t i = 0; i < ks.rows(); ++i) ks(i, i) += 1e-6;
  r.per_layer["la.cholesky_lcm_ms"] = {
      probe(tt, "la.cholesky_lcm", 10, [&] { (void)la::Cholesky(ks); }), "ms"};

  // One short forced-arm tuning run per TLA arm, so every arm's decision
  // cost is measured on this workload's data.
  std::uint64_t op = 1000;
  for (const core::TlaKind arm :
       {core::TlaKind::WeightedSumEqual, core::TlaKind::WeightedSumDynamic,
        core::TlaKind::Stacking, core::TlaKind::MultitaskTS}) {
    (void)run_timed_tuning(fig4_options(arm, rng::splitmix64(seed + op), 4),
                           data.target, data.sources, tt, op, logs);
    ++op;
  }
  report_arms(r, logs.arms);
  r.per_layer["apps.objective_ms"] = {median(logs.objective.norm_ms), "ms"};
}

void probe_service_layers(const LayerData& data, ThreadTrace& tt, Report& r,
                          std::vector<std::int64_t>& acked_ids) {
  crowd::SharedRepo& repo = *data.repo;
  const std::string where = task_where(data.query_size);
  const auto user = repo.authenticate_user(data.api_key);
  r.gate(user.has_value(), "probe user failed to authenticate");
  if (!user) return;

  r.per_layer["crowd.auth_us"] = {
      1e3 * probe(tt, "crowd.auth", 50,
                  [&] { (void)repo.authenticate_user(data.api_key); }),
      "us"};
  std::vector<json::Json> recs;
  r.per_layer["crowd.query_where_us"] = {
      1e3 * probe(tt, "crowd.query_where", 50,
                  [&] { recs = repo.query_where(*user, "pdgeqrf", where); }),
      "us"};
  r.gate(recs.size() == data.query_records,
         "probe query returned the wrong record count");

  const json::Json plan = repo.explain_where(*user, "pdgeqrf", where);
  double candidates = 0.0;
  for (const auto& shard : plan.at("shards").as_array())
    candidates += shard.at("candidates").as_double();
  r.per_layer["db.query.candidates_per_result"] = {
      recs.empty() ? 0.0 : candidates / static_cast<double>(recs.size()),
      "ratio"};

  json::Json response = json::Json::object();
  response["records"] = json::Json(json::Json::Array(recs.begin(), recs.end()));
  std::string text;
  r.per_layer["json.dump_us"] = {
      1e3 * probe(tt, "json.dump", 50, [&] { text = response.dump(); }), "us"};
  r.per_layer["json.parse_us"] = {
      1e3 * probe(tt, "json.parse", 50,
                  [&] { (void)json::Json::parse(text); }),
      "us"};

  // Acked batch uploads of 10 evaluations, and the WAL bytes each record
  // costs (batches during which a checkpoint truncated the WAL are skipped).
  std::vector<double> bytes_per_record;
  int batch = 0;
  std::mutex acked_mu;
  std::atomic<std::uint64_t> unacked{0};  // uploads acked with too few ids
  auto upload_acked = [&](const std::vector<crowd::EvalUpload>& evals) {
    const auto receipt = repo.upload_batch(*user, "pdgeqrf", evals);
    repo.wait_uploads_durable(receipt);
    if (receipt.ids.size() != evals.size()) ++unacked;
    std::lock_guard<std::mutex> lock(acked_mu);
    acked_ids.insert(acked_ids.end(), receipt.ids.begin(), receipt.ids.end());
  };
  r.per_layer["crowd.upload_batch_us"] = {
      1e3 * probe(tt, "crowd.upload_batch", 20,
                  [&] {
                    const auto evals = session_evaluations(
                        1001 + 2 * batch, 10, static_cast<std::uint64_t>(batch));
                    ++batch;
                    const std::uint64_t before =
                        wal_bytes(data.repo_dir);
                    upload_acked(evals);
                    const std::uint64_t after =
                        wal_bytes(data.repo_dir);
                    if (after > before)
                      bytes_per_record.push_back(
                          static_cast<double>(after - before) /
                          static_cast<double>(evals.size()));
                  }),
      "us"};
  r.per_layer["engine.wal_bytes_per_record"] = {median(bytes_per_record),
                                                "bytes"};

  // The checkpoint storm: two writers upload acked 10-record batches
  // straight into the repository for a few seconds, at the engine's default
  // 1 MiB checkpoint threshold. checkpoint_shard compacts the WAL only if
  // nothing was appended during its snapshot I/O; with a second writer
  // something nearly always was, so every later upload checkpoints again.
  {
    SnapshotCounter snapshots(data.repo_dir);
    const std::int64_t until = now_ns() + kStormProbeNs;
    std::atomic<std::uint64_t> uploads{0};
    std::vector<std::thread> writers;
    for (std::uint64_t w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        for (std::uint64_t i = 0; now_ns() < until; ++i) {
          const auto evals = session_evaluations(
              static_cast<std::int64_t>(50001 + 2 * (i * 2 + w) % 40000), 10,
              i * 2 + w);
          upload_acked(evals);
          uploads.fetch_add(1);
        }
      });
    }
    for (auto& t : writers) t.join();
    const std::uint64_t count = snapshots.stop();
    r.gate(unacked.load() == 0, std::to_string(unacked.load()) +
                                    " probe uploads were not acked with one "
                                    "id per record");
    r.per_layer["engine.snapshots"] = {static_cast<double>(count), "count"};
    char buf[120];
    std::snprintf(buf, sizeof buf,
                  "storm probe: %llu acked uploads and %llu snapshots in %.0f s "
                  "with two writers",
                  static_cast<unsigned long long>(uploads.load()),
                  static_cast<unsigned long long>(count),
                  static_cast<double>(kStormProbeNs) * 1e-9);
    r.note(buf);
  }

  net::ServerOptions so;
  so.workers = 1;
  net::CrowdServer server(repo, so);
  server.start();
  {
    net::CrowdClient client("127.0.0.1", server.port());
    r.per_layer["net.health_rtt_us"] = {
        1e3 * probe(tt, "net.health", 200, [&] { (void)client.health(); }),
        "us"};
    json::Json req = json::Json::object();
    req["op"] = "query_evaluations";
    req["api_key"] = data.api_key;
    req["problem"] = "pdgeqrf";
    req["where"] = where;
    r.per_layer["net.response_bytes"] = {
        static_cast<double>(client.call(req).dump().size()), "bytes"};
  }
  const net::ServerStats stats = server.stats();
  server.stop();
  // A workload that served load reports its own server's counters.
  r.per_layer.emplace("server.requests_error",
                      Metric{static_cast<double>(stats.requests_error),
                             "count"});
  r.per_layer.emplace("server.connections_rejected",
                      Metric{static_cast<double>(stats.connections_rejected),
                             "count"});
}

}  // namespace

void probe_layers(const LayerData& data, std::uint64_t seed, Tracer& tracer,
                  TuningLogs& logs, Report& r,
                  std::vector<std::int64_t>& acked_ids) {
  ThreadTrace& tt = tracer.open_thread();
  probe_tuning_layers(data, seed, tt, logs, r);
  probe_service_layers(data, tt, r, acked_ids);
}

}  // namespace perfbench
