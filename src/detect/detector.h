#ifndef ANMAT_DETECT_DETECTOR_H_
#define ANMAT_DETECT_DETECTOR_H_

/// \file detector.h
/// Error detection with PFDs (§3 of the paper).
///
/// Constant rows: tuples with `t[A] ↦ tp[A]` and `t[B] ≠ tp[B]` are
/// flagged, candidates seeded from the LHS column's multi-pattern dispatch
/// verdicts or its `PatternIndex`; the suggested repair is `tp[B]`
/// assuming the LHS is correct.
///
/// Variable rows: records block on the canonical extraction key, and each
/// block's minority is flagged against its majority. The paper's quadratic
/// pair enumeration survives only as the `use_blocking = false` accounting.
///
/// Every match and extraction runs once per *distinct* column value (the
/// relation's column dictionaries), through the detection kernel
/// (detect_kernel.h) that `DetectionStream` shares.

#include <memory>
#include <vector>

#include "detect/pattern_index.h"
#include "detect/violation.h"
#include "pattern/automaton_cache.h"
#include "pfd/pfd.h"
#include "relation/relation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace anmat {

/// \brief Strategy knobs, mainly for the A1/A2 benchmark ablations.
struct DetectorOptions {
  /// Use the per-column pattern index for constant rows (vs full scan).
  bool use_pattern_index = true;
  /// Use blocking for variable rows (vs quadratic pair enumeration).
  bool use_blocking = true;
  /// Cap on reported violations (0 = unlimited).
  size_t max_violations = 0;
  /// Parallel execution. With more than one thread, detection fans out one
  /// task per (PFD, tableau row) — the seed pattern indexes are pre-built
  /// and shared read-only — and merges per-task results in task order, so
  /// the output is byte-identical to a serial run, `max_violations`' "first
  /// N in (PFD, tableau row) order" included.
  ExecutionOptions execution;
  /// Shared compile-once automaton cache (pattern/automaton_cache.h):
  /// tableau matchers, index verifiers and dispatch unions come out as
  /// shared frozen automata, each compiled once per cache lifetime and
  /// probed lock-free by every task and pass. Null (default) gives every
  /// detection run, repair call or stream a private cache. `anmat::Engine`
  /// installs its engine-wide cache here.
  std::shared_ptr<AutomatonCache> automata;
};

/// \brief Result of a detection run.
struct DetectionResult {
  std::vector<Violation> violations;
  DetectionStats stats;
};

/// \brief Detects violations of `pfds` in `relation`.
///
/// `pfd_index` in each violation refers to the position in `pfds`.
/// Violations are reported in deterministic order (by PFD, tableau row,
/// then cells).
Result<DetectionResult> DetectErrors(const Relation& relation,
                                     const std::vector<Pfd>& pfds,
                                     const DetectorOptions& options = {});

/// \brief Single-PFD convenience wrapper.
Result<DetectionResult> DetectErrors(const Relation& relation, const Pfd& pfd,
                                     const DetectorOptions& options = {});

}  // namespace anmat

#endif  // ANMAT_DETECT_DETECTOR_H_
