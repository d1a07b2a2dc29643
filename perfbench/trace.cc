#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {
namespace {

/// The innermost open span on this thread.
thread_local const ScopedSpan* t_current = nullptr;

uint32_t ThreadNumber() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<uint64_t, int64_t> Tracer::SelfTimesNs() const {
  const std::vector<Span> all = spans();
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent_id != 0) children[s.parent_id].push_back(&s);
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& s : all) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const Span* c : children[s.span_id]) {
      const int64_t b = std::max(c->start_ns, s.start_ns);
      const int64_t e = std::min(c->end_ns, s.end_ns);
      if (b < e) covered.emplace_back(b, e);
    }
    std::sort(covered.begin(), covered.end());
    // Length of the union of the children's intervals.
    int64_t union_ns = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : covered) {
      if (b > cur_e) {
        if (cur_e > cur_b) union_ns += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) union_ns += cur_e - cur_b;
    self[s.span_id] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& other_data_json) const {
  const std::vector<Span> all = spans();
  int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) origin = std::min(origin, s.start_ns);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << other_data_json
      << ",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : all) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << JsonEscape(s.name)
        << "\",\"cat\":\"" << JsonEscape(s.name.substr(0, s.name.find('.')))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << (s.start_ns - origin) / 1000.0
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"trace_id\":" << s.trace_id
        << ",\"span_id\":" << s.span_id << ",\"parent_id\":" << s.parent_id
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  parent_ = t_current;
  span_.name = name;
  span_.span_id = tracer_->NextId();
  if (parent_ != nullptr) {
    span_.trace_id = parent_->span_.trace_id;
    span_.parent_id = parent_->span_.span_id;
  } else {
    span_.trace_id = span_.span_id;
  }
  span_.thread = ThreadNumber();
  t_current = this;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  t_current = parent_;
  tracer_->Record(span_);
}

}  // namespace perfbench
