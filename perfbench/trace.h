// In-memory spans recorded around the benchmark's calls into each anmat
// layer, written out as Chrome trace-event JSON when the run ends.
#ifndef ANMAT_PERFBENCH_TRACE_H_
#define ANMAT_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;       ///< layer-qualified, e.g. "discovery.discover"
  uint64_t trace_id = 0;  ///< shared by every span of one pass or request
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 for a root span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

/// Thread-safe span sink. Disabled by default; a disabled tracer records
/// nothing and `ScopedSpan` costs one branch.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Every span recorded so far, in completion order.
  std::vector<Span> spans() const;

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its children. Keyed by span id, in ns.
  std::map<uint64_t, int64_t> SelfTimesNs() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events, one
  /// tid per recording thread, trace/span/parent ids in `args`), with
  /// `other_data_json` (a JSON object) as the trace's `otherData`. Returns
  /// false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& other_data_json) const;

 private:
  friend class ScopedSpan;
  uint64_t NextId();
  void Record(Span span);

  bool enabled_ = false;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Times one layer call. The first span opened on a thread with no open
/// span starts a new trace; nested spans join their parent's trace.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's trace id (0 when tracing is off).
  uint64_t trace_id() const { return span_.trace_id; }

 private:
  Tracer* tracer_;  ///< null when tracing is off
  Span span_;
  const ScopedSpan* parent_ = nullptr;
};

/// Nanoseconds on the steady clock.
int64_t NowNs();

}  // namespace perfbench

#endif  // ANMAT_PERFBENCH_TRACE_H_
