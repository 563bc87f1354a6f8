// tune_ensemble: Fig. 4(b) — PDGEQRF, three crowd sources (m = n = 10000,
// 8000, 6000; 100 samples each), target m = n = 12000, Ensemble(proposed)
// with budget 10, num_threads = 0 and bench_fig4's default model budgets.
//
// Four load threads replay one seeded list of tuning runs (run i always
// gets the same tuner seed), starting runs until the window closes (and at
// least kMinRuns have started) and finishing the ones in flight. An op is
// one decision: the time from the previous evaluation being recorded
// (TunerOptions::on_evaluation) to the next objective call, while the
// allocated nodes would sit idle. The host floor is sampled inside
// on_evaluation, outside every decision.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "bench_common.hpp"
#include "core/tuner.hpp"
#include "floor.hpp"
#include "rng/rng.hpp"
#include "tuning.hpp"

namespace perfbench {

using namespace gptc;

core::TunerOptions fig4_options(core::TlaKind kind, std::uint64_t seed,
                                int budget) {
  // bench_fig4_pdgeqrf's defaults: neither --fast nor --full.
  gptc::bench::BenchConfig config;
  config.budget = budget;
  core::TunerOptions o = config.tuner_options(kind, seed);
  o.num_threads = 0;
  return o;
}

core::TuningResult run_timed_tuning(const core::TunerOptions& base,
                                    const space::Config& target,
                                    const std::vector<core::TaskHistory>& sources,
                                    ThreadTrace& tt, std::uint64_t op,
                                    TuningLogs& logs) {
  space::TuningProblem problem = pdgeqrf_problem();
  const space::Objective objective = problem.objective;
  double floor_before = sample_floor_ms(&logs.decisions.floor_calls_ms);
  std::int64_t decision_start = now_ns();
  double pending_raw_ms = 0.0;
  std::vector<double> raw_decisions;
  std::vector<double> floors;

  problem.objective = [&](const space::Config& task,
                          const space::Config& params) {
    const std::int64_t t0 = now_ns();
    pending_raw_ms = static_cast<double>(t0 - decision_start) * 1e-6;
    tt.record("tune.decision", decision_start, t0, op);
    const double y = objective(task, params);
    const std::int64_t t1 = now_ns();
    tt.record("apps.objective", t0, t1, op);
    logs.objective.add(static_cast<double>(t1 - t0) * 1e-6, floor_before);
    return y;
  };
  core::TunerOptions options = base;
  options.on_evaluation = [&](int, const core::EvalRecord&, double) {
    const std::int64_t f0 = now_ns();
    const double floor_after = sample_floor_ms(&logs.decisions.floor_calls_ms);
    tt.record("host.floor", f0, now_ns(), op);
    const double adjacent = 0.5 * (floor_before + floor_after);
    raw_decisions.push_back(pending_raw_ms);
    floors.push_back(adjacent);
    floor_before = floor_after;
    decision_start = now_ns();
  };

  core::TuningResult result;
  {
    const auto run_span = tt.span("tune.run", op);
    result = core::Tuner(problem, options).tune(target, sources);
  }
  for (std::size_t i = 0; i < raw_decisions.size(); ++i) {
    logs.decisions.add(raw_decisions[i], floors[i]);
    logs.decisions.raw_busy_s += raw_decisions[i] * 1e-3;
    OpLog& arm = logs.arms.by_arm[arm_key(result.proposed_by[i])];
    arm.add(raw_decisions[i], floors[i]);
  }
  return result;
}

namespace {

constexpr int kBudget = 10;
constexpr int kLoadThreads = 4;
// Runs keep starting until the window has closed and this many have
// started: 200 decisions keep the tail at p95 (10 samples beyond) on a
// slow host.
constexpr std::uint64_t kMinRuns = 20;

std::uint64_t run_seed(std::uint64_t seed, std::uint64_t index) {
  return rng::splitmix64(seed * 0x9e3779b97f4a7c15ULL + index);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

Report run_tune_ensemble(const Options& o, Tracer& tracer) {
  Report r;
  const std::int64_t source_sizes[] = {10000, 8000, 6000};
  const space::Config target = {space::Value(std::int64_t{12000}),
                                space::Value(std::int64_t{12000})};

  // Set-up: build the crowd repository (as every workload does) and
  // download the three source tasks from it as the tuner's TLA sources.
  std::vector<double> setup_s;
  CrowdFixture fx;
  std::vector<core::TaskHistory> sources;
  for (int rep = 0; rep < 3; ++rep) {
    fx = CrowdFixture();  // closing the previous set-up is not set-up time
    const std::int64_t t0 = now_ns();
    fx = seeded_crowd_repo(o.workdir / ("repo" + std::to_string(rep)), o.seed);
    sources.clear();
    for (const std::int64_t size : source_sizes)
      sources.push_back(history_from_records(
          fx.repo->query_where(fx.keys[0], "pdgeqrf", task_where(size))));
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  for (int rep = 0; rep < 2; ++rep)
    std::filesystem::remove_all(o.workdir / ("repo" + std::to_string(rep)));
  r.end_to_end["setup_s"] = {median(setup_s), "s"};

  // Load.
  std::mutex mu;
  std::map<std::uint64_t, core::TuningResult> results;  // guarded_by: mu
  TuningLogs all;                                       // guarded_by: mu
  std::atomic<std::uint64_t> next_run{0};
  std::atomic<std::uint64_t> failed{0};
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&] {
      ThreadTrace& tt = tracer.open_thread();
      TuningLogs logs;
      for (;;) {
        const std::uint64_t i = next_run.fetch_add(1);
        if (now_ns() >= deadline && i >= kMinRuns) break;
        try {
          auto res = run_timed_tuning(
              fig4_options(core::TlaKind::EnsembleProposed, run_seed(o.seed, i),
                           kBudget),
              target, sources, tt, i, logs);
          std::lock_guard<std::mutex> lock(mu);
          results.emplace(i, std::move(res));
        } catch (const std::exception&) {
          failed.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      all.merge(logs);
    });
  }
  for (auto& th : threads) th.join();
  const std::size_t window_spans = tracer.span_count();

  // Correctness gates (outside the timed window).
  r.failed = failed.load() * kBudget;
  r.attempted = all.decisions.norm_ms.size() + r.failed;
  r.gate(failed.load() == 0, "a tuning run threw");
  double best_sum = 0.0;
  for (const auto& [i, res] : results) {
    const bool full = res.best_so_far.size() == kBudget &&
                      res.history.size() == kBudget;
    const auto best = res.best_output();
    r.gate(full && best && std::isfinite(*best),
           "tuning run " + std::to_string(i) + " did not finish its budget " +
               "with a finite best");
    best_sum += best.value_or(0.0);
  }
  r.gate(!results.empty(), "no tuning run completed");
  if (results.count(0) != 0) {
    ThreadTrace tt(false);
    TuningLogs replay;
    const auto again = run_timed_tuning(
        fig4_options(core::TlaKind::EnsembleProposed, run_seed(o.seed, 0),
                     kBudget),
        target, sources, tt, 0, replay);
    r.gate(same_bits(again.best_so_far, results.at(0).best_so_far) &&
               again.proposed_by == results.at(0).proposed_by,
           "replaying tuning run 0 gave a different best_so_far");
  }

  const double tuned_best =
      results.empty() ? 0.0 : best_sum / static_cast<double>(results.size());
  report_ops(r, all.decisions, kLoadThreads, window_spans,
             "one tuner decision");
  char line[160];
  std::snprintf(line, sizeof line,
                "tuned_best_s = %.6f s (mean best PDGEQRF runtime at budget "
                "%d over %zu tuning runs)",
                tuned_best, kBudget, results.size());
  r.note(line);
  r.alias("decision_p50_ms", "op_p50_ms");
  r.alias("decision_tail_ms", "op_tail_ms");

  std::vector<std::int64_t> acked_ids;  // the probes' uploads
  if (o.trace) {
    LayerData data;
    data.sources = sources;
    data.target = target;
    data.repo = fx.repo.get();
    data.repo_dir = fx.dir;
    data.api_key = fx.keys[kCrowdUsers / 2];
    data.query_size = fx.tasks[kCrowdTasks / 2].size;
    data.query_records = fx.tasks[kCrowdTasks / 2].ids.size();
    probe_layers(data, o.seed, tracer, all, r, acked_ids);
  }
  gate_reopen(r, fx, o.seed, acked_ids);
  return r;
}

}  // namespace perfbench
