// crowd_query: the crowd repository service under load.
//
// Seeds the crowd repository of seeded_crowd_repo() — 1,000 registered
// users and 200 PDGEQRF source tasks of 100 records each (20k records),
// opened with `crowdctl serve`'s engine options — and serves it from an
// in-process CrowdServer with two workers to two closed-loop client
// connections. Every request downloads one source task
// (WHERE task_parameters.m = X AND task_parameters.n = X, 100 records) with
// a registered user's own API key: auth, plan, execute and JSON encoding.
//
// The connections time requests in slices of about 100 ms. At the end of
// every slice both meet at a barrier, each samples its own RpcFloor, and
// both meet again before the next slice: the floors run side by side, as
// the two connections' requests do, but never beside a request, so they
// measure the host and not the server under test. A request's latency is
// normalized by the mean of its connection's floor samples before and
// after its slice.
#include <barrier>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "floor.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "rng/rng.hpp"
#include "tuning.hpp"

namespace perfbench {

using namespace gptc;

namespace {

constexpr int kConnections = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kTunerSources = 3;  // sources the layer probes tune on
constexpr std::int64_t kSliceNs = 100'000'000;

struct ThreadOut {
  OpLog ops{kReferenceRpcFloorMs, kReferenceRpcFloorTailMs};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // responses that failed verification
};

}  // namespace

Report run_crowd_query(const Options& o, Tracer& tracer) {
  Report r;

  // Set-up: build the crowd inputs, open and seed the repository, register
  // the users and start the server, three times; the last one serves.
  std::vector<double> setup_s;
  CrowdFixture fx;
  std::unique_ptr<net::CrowdServer> server;
  for (int rep = 0; rep < 3; ++rep) {
    server.reset();  // closing the previous set-up is not set-up time
    fx = CrowdFixture();
    const std::int64_t t0 = now_ns();
    fx = seeded_crowd_repo(o.workdir / ("repo" + std::to_string(rep)), o.seed);
    net::ServerOptions so;
    so.workers = kWorkers;
    server = std::make_unique<net::CrowdServer>(*fx.repo, so);
    server->start();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  for (int rep = 0; rep < 2; ++rep)
    std::filesystem::remove_all(o.workdir / ("repo" + std::to_string(rep)));
  r.end_to_end["setup_s"] = {median(setup_s), "s"};

  // Every connection waits here twice a slice: once its requests are done,
  // and once its floor sample is. The completion decides, with everyone
  // parked, whether the window has closed.
  bool stop = false;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  auto check_deadline = [&]() noexcept { stop = now_ns() >= deadline; };
  std::barrier sync(kConnections, check_deadline);

  std::vector<ThreadOut> outs(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ThreadOut& out = outs[static_cast<std::size_t>(c)];
      ThreadTrace& tt = tracer.open_thread();
      rng::Rng rng(rng::splitmix64(o.seed * 31 + static_cast<std::uint64_t>(c)));
      auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
      };
      try {
        net::CrowdClient client("127.0.0.1", server->port());
        RpcFloor rpc;
        sync.arrive_and_wait();  // both floors exist before either samples
        double floor_before = rpc.sample_ms(&out.ops.floor_calls_ms);
        sync.arrive_and_wait();
        std::uint64_t op = 0;
        for (;;) {
          std::vector<double> raw_ms;
          const std::int64_t s0 = now_ns();
          {
            const auto slice_span = tt.span("crowd.slice", op);
            while (now_ns() - s0 < kSliceNs) {
              const SeededTask& task = fx.tasks[pick(fx.tasks.size())];
              const std::string& key = fx.keys[pick(fx.keys.size())];
              ++out.attempted;
              try {
                const std::int64_t t0 = now_ns();
                auto recs = client.query(key, "pdgeqrf", task_where(task.size));
                const std::int64_t t1 = now_ns();
                tt.record("client.query", t0, t1, op);
                raw_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
                if (record_ids(recs) != task.ids) ++out.wrong;
              } catch (const std::exception& e) {
                ++out.failed;
                if (out.failed == 1)
                  std::fprintf(stderr, "perfbench: request failed: %s\n",
                               e.what());
              }
              ++op;
            }
          }
          out.ops.raw_busy_s += static_cast<double>(now_ns() - s0) * 1e-9;
          sync.arrive_and_wait();  // no request in flight from here ...
          const std::int64_t f0 = now_ns();
          const double floor_after = rpc.sample_ms(&out.ops.floor_calls_ms);
          tt.record("host.floor", f0, now_ns(), op);
          sync.arrive_and_wait();  // ... to here
          const double adjacent = 0.5 * (floor_before + floor_after);
          floor_before = floor_after;
          for (const double raw : raw_ms) out.ops.add(raw, adjacent);
          if (stop) break;
        }
      } catch (const std::exception& e) {
        ++out.failed;
        std::fprintf(stderr, "perfbench: connection failed: %s\n", e.what());
        sync.arrive_and_drop();
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::size_t window_spans = tracer.span_count();
  const net::ServerStats stats = server->stats();
  server.reset();

  ThreadOut total;
  for (const ThreadOut& out : outs) {
    total.ops.merge(out.ops);
    total.attempted += out.attempted;
    total.failed += out.failed;
    total.wrong += out.wrong;
  }
  r.attempted = total.attempted;
  r.failed = total.failed;
  r.gate(total.failed == 0, "a request failed");
  r.gate(total.wrong == 0,
         std::to_string(total.wrong) +
             " responses did not return exactly the seeded record ids");

  report_ops(r, total.ops, kConnections, window_spans,
             "one source-task download (100 records)");
  r.alias("query_p50_ms", "op_p50_ms");
  r.alias("query_tail_ms", "op_tail_ms");

  std::vector<std::int64_t> acked_ids;  // the probes' uploads
  if (o.trace) {
    r.per_layer["server.requests_error"] = {
        static_cast<double>(stats.requests_error), "count"};
    r.per_layer["server.connections_rejected"] = {
        static_cast<double>(stats.connections_rejected), "count"};
    LayerData data;
    for (std::size_t s = 0; s < kTunerSources; ++s) {
      const SeededTask& t = fx.tasks[s * 60];
      data.sources.push_back(history_from_records(
          fx.repo->query_where(fx.keys[0], "pdgeqrf", task_where(t.size))));
    }
    data.target = {space::Value(std::int64_t{12000}),
                   space::Value(std::int64_t{12000})};
    data.repo = fx.repo.get();
    data.repo_dir = fx.dir;
    data.api_key = fx.keys[kCrowdUsers / 2];
    data.query_size = fx.tasks[kCrowdTasks / 2].size;
    data.query_records = fx.tasks[kCrowdTasks / 2].ids.size();
    TuningLogs logs;
    probe_layers(data, o.seed, tracer, logs, r, acked_ids);
  }
  gate_reopen(r, fx, o.seed, acked_ids);
  return r;
}

}  // namespace perfbench
