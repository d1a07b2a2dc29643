#ifndef ANMAT_TESTS_DETECT_REFERENCE_H_
#define ANMAT_TESTS_DETECT_REFERENCE_H_

/// \file detect_reference.h
/// Row-at-a-time reference detector: the test oracle for the detection
/// kernel (and the "dictionary off" / "per-pattern" baseline of benches A6
/// and A9).
///
/// Every LHS cell of every row is probed with its own cache-less
/// `ConstrainedMatcher` — no column dictionary, no memo, no pattern index,
/// no dispatch. Violations are emitted through the kernel's
/// `EmitConstantViolation` / `ResolveGroups` and keys built with its
/// `AppendKeyFragment`, so a correct kernel reproduces this output byte
/// for byte, stats included.

#include <map>
#include <string>
#include <vector>

#include "detect/detect_kernel.h"
#include "detect/detector.h"

namespace anmat {
namespace reference {

/// Detects `pfds` in `relation` row by row. Honors `use_blocking` and
/// `max_violations` (first N in (PFD, tableau row) order); every other
/// option only changes how the kernel finds the same answer.
inline Result<DetectionResult> DetectRowAtATime(
    const Relation& relation, const std::vector<Pfd>& pfds,
    const DetectorOptions& options = {}) {
  ANMAT_ASSIGN_OR_RETURN(
      std::vector<detect_internal::ResolvedRow> rows,
      detect_internal::ResolveRows(relation.schema(), pfds, nullptr));
  const size_t cap = options.max_violations;
  DetectionResult result;
  result.stats.rows_scanned = relation.num_rows() * pfds.size();
  for (const detect_internal::ResolvedRow& row : rows) {
    if (cap > 0 && result.violations.size() >= cap) break;
    if (!row.detects()) continue;
    std::map<std::string, std::vector<RowId>> groups;
    size_t matched = 0;
    for (RowId r = 0; r < relation.num_rows(); ++r) {
      bool lhs_matches = true;
      for (size_t i = 0; i < row.lhs_cols.size() && lhs_matches; ++i) {
        lhs_matches = row.lhs_matchers[i] == nullptr ||
                      row.lhs_matchers[i]->Matches(
                          relation.cell(r, row.lhs_cols[i]));
      }
      if (!lhs_matches) continue;
      ++result.stats.candidate_rows;
      if (row.row->IsConstantRow()) {
        if (cap == 0 || result.violations.size() < cap) {
          detect_internal::EmitConstantViolation(relation, row, r,
                                                 &result.violations);
        }
        continue;
      }
      std::string key;
      bool keyed = true;
      for (size_t i = 0; i < row.lhs_cols.size() && keyed; ++i) {
        keyed = detect_internal::AppendKeyFragment(
            row.lhs_matchers[i].get(), relation.cell(r, row.lhs_cols[i]),
            &key);
      }
      if (!keyed) continue;
      ++matched;
      groups[key].push_back(r);
    }
    if (row.row->IsVariableRow()) {
      if (!options.use_blocking) {
        result.stats.pairs_checked += matched * (matched - 1) / 2;
      }
      detect_internal::ResolveGroups(relation, row, groups, cap, &result);
    }
  }
  detect_internal::SortViolations(&result.violations);
  result.stats.violations = result.violations.size();
  return result;
}

}  // namespace reference
}  // namespace anmat

#endif  // ANMAT_TESTS_DETECT_REFERENCE_H_
