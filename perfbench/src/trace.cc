#include "trace.h"

#include <atomic>
#include <fstream>
#include <unordered_map>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last. One tracer is live per
// process, so the stack needs no per-tracer key.
thread_local std::vector<SpanRecord> open_stack;

uint32_t ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

// Span names are literals of [a-z._]; escaping is defensive only.
std::string JsonString(const char* s) {
  std::string out = "\"";
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
  return out + "\"";
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint64_t Tracer::Begin(const char* name) {
  SpanRecord span;
  span.id = next_id_.fetch_add(1);
  span.parent = open_stack.empty() ? 0 : open_stack.back().id;
  span.thread = ThreadId();
  span.name = name;
  span.start_ns = NowNs();
  open_stack.push_back(span);
  return span.id;
}

void Tracer::End(uint64_t id) {
  const int64_t now = NowNs();
  if (open_stack.empty() || open_stack.back().id != id) return;  // unbalanced: drop
  SpanRecord span = open_stack.back();
  open_stack.pop_back();
  span.end_ns = now;
  std::lock_guard<std::mutex> lock(mu_);
  closed_.push_back(span);
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children nest inside their parent on one thread, so the part of a
  // parent covered by children is the sum of the children's durations.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanRecord& s : closed_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : closed_) {
    SpanTotals& t = totals[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const int64_t covered = it == child_ns.end() ? 0 : it->second;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  return totals;
}

double Tracer::FirstDuration(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : closed_) {
    if (name == s.name) return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return 0.0;
}

crowder::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return crowder::Status::IOError("cannot open trace output " + path);
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& s : closed_) {
    if (!first) out << ",\n";
    first = false;
    // ts/dur are microseconds in this format; keep the nanosecond digits.
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"name\":" << JsonString(s.name)
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return crowder::Status::IOError("short write to trace output " + path);
  return crowder::Status::OK();
}

}  // namespace perfbench
