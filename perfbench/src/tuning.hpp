// Timed tuning runs, shared by the tune_ensemble workload and the layer
// probes of the traced run.
#pragma once

#include <vector>

#include "bench.hpp"
#include "core/tuner.hpp"

namespace perfbench {

/// Decision latencies (overall and by proposing arm) and objective times.
struct TuningLogs {
  OpLog decisions;
  OpLog objective;
  ArmDecisions arms;

  void merge(const TuningLogs& other) {
    decisions.merge(other.decisions);
    objective.merge(other.objective);
    for (const auto& [arm, log] : other.arms.by_arm) arms.by_arm[arm].merge(log);
  }
};

/// Tuner options of bench_fig4_pdgeqrf (default model budgets), serial.
gptc::core::TunerOptions fig4_options(gptc::core::TlaKind kind,
                                      std::uint64_t seed, int budget);

/// Runs one tuning of PDGEQRF with every decision timed: the objective is
/// wrapped to stamp the decision's end, and on_evaluation samples the host
/// floor and stamps the next decision's start.
gptc::core::TuningResult run_timed_tuning(
    const gptc::core::TunerOptions& base, const gptc::space::Config& target,
    const std::vector<gptc::core::TaskHistory>& sources, ThreadTrace& tt,
    std::uint64_t op, TuningLogs& logs);

/// Layer probes for the traced run: times public functions of every layer
/// on the workload's own data and adds the per-layer metrics. Decisions of
/// the probe's forced-arm tuning runs are added to `logs`, and the ids of
/// the records its uploads got acked to `acked_ids`.
void probe_layers(const LayerData& data, std::uint64_t seed, Tracer& tracer,
                  TuningLogs& logs, Report& r,
                  std::vector<std::int64_t>& acked_ids);

}  // namespace perfbench
