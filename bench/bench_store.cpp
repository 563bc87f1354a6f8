// google-benchmark microbenchmarks of the storage engine
// (src/db/engine/): indexed point/range queries vs. full collection scans
// at 10^3..10^6 records, and durable-insert latency and throughput with
// EngineOptions::async_commit off (the insert returns durable) and on (the
// writer acks through wait_durable), for one writer and racing writers.
//
//   $ ./bench_store [--benchmark_filter=...] [--json]
//
// --json is shorthand for --benchmark_format=json (machine-readable
// results on stdout, same flag spelling as bench_server --json).
//
// The ISSUE acceptance bar: an indexed $eq at 1e5 records must beat the
// scan by >= 10x — compare BM_QueryIndexed/100000 vs BM_QueryScan/100000.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "db/document_store.hpp"
#include "db/engine/engine.hpp"
#include "json/json.hpp"

using namespace gptc;
using json::Json;

namespace {

/// One synthetic function-evaluation-shaped record. `key` is drawn from a
/// 256-value space so selective queries hit ~n/256 documents.
Json make_record(std::int64_t i) {
  Json d = Json::object();
  d["key"] = i % 256;
  d["runtime"] = static_cast<double>(i % 977) * 0.25;
  Json task = Json::object();
  task["m"] = i % 64;
  d["task_parameters"] = std::move(task);
  return d;
}

/// Builds (once per size, cached) a collection of n records, optionally
/// indexed on "key" and "task_parameters.m".
db::Collection& collection_of(std::int64_t n, bool indexed) {
  static std::map<std::pair<std::int64_t, bool>, db::DocumentStore> stores;
  const auto key = std::make_pair(n, indexed);
  auto it = stores.find(key);
  if (it == stores.end()) {
    it = stores.emplace(key, db::DocumentStore()).first;
    auto& c = it->second.collection("samples");
    if (indexed) {
      c.create_index("key");
      c.create_index("task_parameters.m");
    }
    for (std::int64_t i = 0; i < n; ++i) c.insert(make_record(i));
  }
  return it->second.collection("samples");
}

void BM_QueryScan(benchmark::State& state) {
  auto& c = collection_of(state.range(0), /*indexed=*/false);
  const Json q = Json::parse(R"({"key":17})");
  for (auto _ : state) benchmark::DoNotOptimize(c.find(q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_QueryScan)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Complexity();

void BM_QueryIndexed(benchmark::State& state) {
  auto& c = collection_of(state.range(0), /*indexed=*/true);
  const Json q = Json::parse(R"({"key":17})");
  for (auto _ : state) benchmark::DoNotOptimize(c.find(q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_QueryIndexed)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Complexity();

void BM_RangeScan(benchmark::State& state) {
  auto& c = collection_of(state.range(0), /*indexed=*/false);
  const Json q = Json::parse(R"({"task_parameters.m":{"$gte":10,"$lt":14}})");
  for (auto _ : state) benchmark::DoNotOptimize(c.count(q));
}
BENCHMARK(BM_RangeScan)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RangeIndexed(benchmark::State& state) {
  auto& c = collection_of(state.range(0), /*indexed=*/true);
  const Json q = Json::parse(R"({"task_parameters.m":{"$gte":10,"$lt":14}})");
  for (auto _ : state) benchmark::DoNotOptimize(c.count(q));
}
BENCHMARK(BM_RangeIndexed)->Arg(1000)->Arg(10000)->Arg(100000);

/// Durable insert latency, one writer. Arg is EngineOptions::async_commit:
/// 0 = the insert itself returns once its frame is fsynced; 1 = it returns
/// once logged and the caller acks through wait_durable. Both pay one
/// fsync per insert here — with one writer there is nothing to share it.
void BM_WalAppend(benchmark::State& state) {
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("gptc_bench_wal_" + std::to_string(state.range(0)));
  std::filesystem::remove_all(dir);
  db::engine::EngineOptions opts;
  opts.async_commit = state.range(0) != 0;
  opts.checkpoint_wal_bytes = ~std::uint64_t{0};  // never checkpoint
  auto store = db::DocumentStore::open_durable(dir, opts);
  auto& c = store.collection("samples");
  std::int64_t i = 0;
  for (auto _ : state) {
    const auto r = c.insert_batch({make_record(i++)});
    store.storage_engine()->wait_durable(r.ticket);  // no-op when sync
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["wal_bytes"] = static_cast<double>(
      store.storage_engine()->wal_bytes("samples.s0of1"));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Multi-writer durable-insert throughput vs. shard count. Arg0 is the
/// shard count, arg1 EngineOptions::async_commit (0 = the insert returns
/// durable; 1 = it returns logged and the writer acks through
/// wait_durable, the server's upload path); ->Threads(T) supplies the
/// writer count. Either way writers racing on one WAL share its fsyncs
/// (WalWriter::sync_to). One shard puts every writer on a single shard
/// mutex + WAL; N shards spread them over N independent WAL/mutex pairs
/// (inserts land on shard _id % N), so up to N fsyncs overlap in the
/// kernel.
void BM_ShardedAppend(benchmark::State& state) {
  static db::DocumentStore* store = nullptr;
  static std::filesystem::path dir;
  if (state.thread_index() == 0) {
    dir = std::filesystem::temp_directory_path() /
          ("gptc_bench_shards_" + std::to_string(state.range(0)) + "_" +
           std::to_string(state.range(1)));
    std::filesystem::remove_all(dir);
    db::engine::EngineOptions opts;
    opts.async_commit = state.range(1) != 0;
    opts.shards = static_cast<std::size_t>(state.range(0));
    opts.checkpoint_wal_bytes = ~std::uint64_t{0};  // never checkpoint
    store = new db::DocumentStore(db::DocumentStore::open_durable(dir, opts));
    store->collection("samples");  // create before the other threads look
  }
  // `store` is only guaranteed visible after the framework barrier at loop
  // entry, so the collection lookup has to happen inside the loop (it is a
  // read-only map find once thread 0 created the entry above).
  std::int64_t i = state.thread_index() * 1000003;
  for (auto _ : state) {
    const auto r =
        store->collection("samples").insert_batch({make_record(i++)});
    store->storage_engine()->wait_durable(r.ticket);  // no-op when sync
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
    std::filesystem::remove_all(dir);
  }
}
BENCHMARK(BM_ShardedAppend)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Threads(1)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Cold-start recovery of an n-record store: restore per-shard snapshots
/// and replay per-shard WAL tails, serially or on a thread pool. Arg0 is
/// the shard count, arg1 the recovery thread count.
void BM_ParallelRecovery(benchmark::State& state) {
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("gptc_bench_recover_" + std::to_string(state.range(0)) + "_" +
       std::to_string(state.range(1)));
  std::filesystem::remove_all(dir);
  constexpr std::int64_t kDocs = 20000;
  {
    db::engine::EngineOptions opts;
    opts.async_commit = true;  // setup only: durable once the store closes
    opts.shards = static_cast<std::size_t>(state.range(0));
    opts.checkpoint_wal_bytes = ~std::uint64_t{0};  // recover pure WAL tails
    auto store = db::DocumentStore::open_durable(dir, opts);
    auto& c = store.collection("samples");
    for (std::int64_t i = 0; i < kDocs; ++i) c.insert(make_record(i));
  }
  db::engine::EngineOptions opts;
  opts.shards = static_cast<std::size_t>(state.range(0));
  opts.recovery_threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto store = db::DocumentStore::open_durable(dir, opts);
    benchmark::DoNotOptimize(store.collection("samples").size());
  }
  state.SetItemsProcessed(state.iterations() * kDocs);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ParallelRecovery)
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN(), plus a --json alias so both bench binaries speak the
// same flag for machine-readable output.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char json_flag[] = "--benchmark_format=json";
  for (char*& arg : args) {
    if (std::string_view(arg) == "--json") arg = json_flag;
  }
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
