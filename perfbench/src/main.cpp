// perfbench — the repository benchmark (see perfbench/run.py for the one
// command that builds and runs it).
//
//   perfbench --workload tune_ensemble|crowd_query --seed N
//             --seconds S --trace 0|1 --workdir DIR [--spans FILE]
//
// Prints human-readable lines (every metric by name with its unit, op
// counts, the tail percentile used and its sample count, and any failed
// correctness gate), then, as the last line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Exits 1 when any correctness gate failed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "bench.hpp"
#include "floor.hpp"

using namespace perfbench;

namespace {

// The metric sets of BENCHMARK.json: every workload reports all of them.
const std::set<std::string> kEndToEnd = {"setup_s", "throughput_ops_s",
                                         "op_p50_ms", "op_tail_ms"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tune_ensemble|crowd_query --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--spans FILE]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string spans_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") o.workload = v;
      else if (arg == "--seed") o.seed = std::stoull(v), have_seed = true;
      else if (arg == "--seconds") o.seconds = std::stod(v), have_seconds = true;
      else if (arg == "--trace") o.trace = std::stoi(v) != 0, have_trace = true;
      else if (arg == "--workdir") o.workdir = v;
      else if (arg == "--spans") spans_path = v;
      else return usage(("unknown argument " + arg).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || o.workdir.empty())
    return usage("--seed, --seconds, --trace and --workdir are required");
  if (!(o.seconds > 0)) return usage("--seconds must be positive");

  std::filesystem::remove_all(o.workdir);
  std::filesystem::create_directories(o.workdir);
  Tracer tracer(o.trace);
  Report r;
  try {
    if (o.workload == "tune_ensemble") r = run_tune_ensemble(o, tracer);
    else if (o.workload == "crowd_query") r = run_crowd_query(o, tracer);
    else return usage(("unknown workload " + o.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  std::filesystem::remove_all(o.workdir);

  if (o.trace) {
    for (const char* m : {"throughput_ops_s", "op_p50_ms", "op_tail_ms"})
      r.per_layer[std::string("traced.") + m] = r.end_to_end[m];
    if (!spans_path.empty()) tracer.write_jsonl(spans_path);
    r.note("span self time (name: spans, total ms, self ms):");
    for (const auto& [name, lt] : tracer.self_times()) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "  %-32s %8zu %12.3f %12.3f",
                    name.c_str(), lt.count, lt.total_ms, lt.self_ms);
      r.note(buf);
    }
  }

  std::set<std::string> have;
  for (const auto& [name, m] : r.end_to_end) have.insert(name);
  r.gate(have == kEndToEnd, "end-to-end metric set differs from BENCHMARK.json");
  const auto& reported = o.trace ? r.per_layer : r.end_to_end;
  for (const auto& [name, m] : reported)
    r.gate(std::isfinite(m.value), name + " is not finite");

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  std::printf("ops attempted %llu failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto* group : {&r.end_to_end, &r.per_layer})
    for (const auto& [name, m] : *group)
      std::printf("%-40s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  if (!r.correct) {
    std::fprintf(stderr, "perfbench: correctness gate failed\n");
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(reported).c_str());
  return 0;
}
