#include "trace.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void accumulate_self_times(const std::vector<Span>& spans,
                           std::map<std::string, LayerTime>& out) {
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t total = spans[i].end_ns - spans[i].start_ns;
    LayerTime& lt = out[spans[i].name];
    lt.total_ms += static_cast<double>(total) * 1e-6;
    lt.self_ms += static_cast<double>(total - covered[i]) * 1e-6;
    lt.count += 1;
  }
}

ThreadTrace::Scope ThreadTrace::span(const char* name, std::uint64_t op) {
  if (!enabled_) return Scope(nullptr, 0);
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void ThreadTrace::record(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, std::uint64_t op) {
  if (!enabled_) return;
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(Span{name, start_ns, end_ns, parent, op});
}

void ThreadTrace::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

ThreadTrace& Tracer::open_thread() {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.emplace_back(enabled_);
}

std::map<std::string, LayerTime> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerTime> out;
  for (const ThreadTrace& t : threads_) accumulate_self_times(t.spans(), out);
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const ThreadTrace& t : threads_) n += t.spans().size();
  return n;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  std::int64_t base = 0;
  std::size_t thread = 0;
  for (const ThreadTrace& t : threads_) {
    for (const Span& s : t.spans()) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << (s.parent < 0 ? -1 : base + s.parent)
          << ",\"op\":" << s.op << ",\"thread\":" << thread << "}\n";
    }
    base += static_cast<std::int64_t>(t.spans().size());
    ++thread;
  }
}

}  // namespace perfbench
