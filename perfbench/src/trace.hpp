// In-memory span recording for the traced run.
//
// Each load thread records into its own ThreadTrace (no locking on the hot
// path). A span carries its name, start and end, the span that encloses it
// (its parent, on the same thread) and the op it belongs to. Spans are kept
// in memory and written out as JSON lines when the run ends; a layer's self
// time is its span's duration minus the part its child spans cover.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal: spans never own their name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the same thread's spans, -1 = root
  std::uint64_t op = 0;
};

struct LayerTime {
  double self_ms = 0.0;
  double total_ms = 0.0;
  std::size_t count = 0;
};

/// Self and total time per span name over one thread's spans (parents are
/// indices into `spans`). Adds into `out` so threads can be merged.
void accumulate_self_times(const std::vector<Span>& spans,
                           std::map<std::string, LayerTime>& out);

std::int64_t now_ns();

class ThreadTrace {
 public:
  explicit ThreadTrace(bool enabled) : enabled_(enabled) {}
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  /// Closes its span when destroyed. Scopes on one thread must nest.
  class Scope {
   public:
    Scope(ThreadTrace* owner, std::size_t index)
        : owner_(owner), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }

   private:
    ThreadTrace* owner_;
    std::size_t index_;
  };

  /// Opens a span; a no-op when tracing is off.
  [[nodiscard]] Scope span(const char* name, std::uint64_t op);

  /// Records an already-measured interval as a child of the open span
  /// (for intervals that callbacks, not scopes, delimit).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t op);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  void close(std::size_t index);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Owns every thread's recorder for one run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// A recorder for one thread; the reference stays valid for the
  /// Tracer's lifetime.
  ThreadTrace& open_thread();

  /// Self time per span name across every thread. Call after the load
  /// threads have joined.
  std::map<std::string, LayerTime> self_times() const;
  std::size_t span_count() const;

  /// Writes one JSON object per span: name, start_ns, end_ns, parent (a
  /// run-wide span id or -1), op, thread.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::deque<ThreadTrace> threads_;  // guarded_by: mu_
};

}  // namespace perfbench
