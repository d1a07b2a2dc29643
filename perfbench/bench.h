// Shared pieces of the end-to-end benchmark driver: options, the result
// record, host-speed calibration, statistics and output fingerprints.
#ifndef ANMAT_PERFBENCH_BENCH_H_
#define ANMAT_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "relation/relation.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes and a short window: the smoke test's mode.
  bool tiny = false;
  /// Scratch directory for generated CSVs, projects and the daemon socket.
  std::string work_dir;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_out;
};

/// The record a workload fills in. `main.cc` prints it.
struct Report {
  /// Operations (library calls or daemon requests) attempted / failed. An
  /// operation fails when it errors or its output fails its check.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed ahead of the result.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Records a failed operation and why.
  void Fail(const std::string& why, uint64_t operations = 1);
};

Report RunPipeline(const Options& options, Tracer* tracer);
Report RunClean(const Options& options, Tracer* tracer);
Report RunServe(const Options& options, Tracer* tracer);

// ------------------------------------------------------------ timing

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Host-speed calibration. The benchmark host is shared: its speed drifts
/// by ±20% within seconds. A fixed kernel — random access to a 1 MiB table
/// and an integer sort, then string hashing, hash-table lookups and a
/// string sort — is timed on one thread between passes, and every reported
/// time is scaled by `kReferenceMs / kernel time`, i.e. reported at the
/// speed at which the kernel takes `kReferenceMs`. Raw wall times are
/// printed beside the scaled ones.
class SpeedMeter {
 public:
  static constexpr double kReferenceMs = 20.0;

  SpeedMeter();
  /// Runs the kernel once and returns its wall time in ms.
  double Measure();
  /// Scale factor for work done between two kernel runs that took
  /// `before_ms` and `after_ms`.
  static double Factor(double before_ms, double after_ms) {
    return 2 * kReferenceMs / (before_ms + after_ms);
  }
  /// Median scale factor over every kernel run so far.
  double MedianFactor() const;

 private:
  std::vector<uint32_t> table_, words_, work_;
  uint32_t sink_ = 0;  // keeps the kernel's result observable
  std::vector<double> samples_ms_;
};

// -------------------------------------------------------- statistics

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// ------------------------------------------------------ fingerprints

/// FNV-1a 64.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 1469598103934665603ull);
/// Hash of every cell of `relation`, row-major, with separators.
uint64_t RelationHash(const anmat::Relation& relation);
std::string Hex(uint64_t v);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Size sweep used everywhere: `full` normally, `tiny` in smoke mode.
inline size_t Sized(const Options& o, size_t full, size_t tiny) {
  return o.tiny ? tiny : full;
}

}  // namespace perfbench

#endif  // ANMAT_PERFBENCH_BENCH_H_
