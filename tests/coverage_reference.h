#ifndef ANMAT_TESTS_COVERAGE_REFERENCE_H_
#define ANMAT_TESTS_COVERAGE_REFERENCE_H_

/// \file coverage_reference.h
/// Row-at-a-time reference coverage: the test oracle for
/// `ComputeCoverage` (pfd/coverage.h).
///
/// Every tableau row, constant or variable, decides LHS membership of every
/// record through the full canonical-extraction split plan, building the
/// group key even where no group is formed. A correct `ComputeCoverage`
/// reproduces its `CoverageStats` exactly.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "pattern/matcher.h"
#include "pfd/coverage.h"

namespace anmat {
namespace reference {

/// Pre-compiled matchers for one tableau row.
struct ReferenceRow {
  std::vector<ConstrainedMatcher> lhs;          // one per LHS attribute
  std::vector<const TableauCell*> lhs_cells;    // parallel to `lhs`
  std::vector<const TableauCell*> rhs_cells;
  bool constant_row;
  std::vector<std::string> rhs_constants;       // valid when constant_row
};

/// Coverage statistics of `pfd` on `relation`, every tableau row of every
/// record decided by `ExtractCanonical` on private cache-less matchers.
inline Result<CoverageStats> ComputeCoverageRowAtATime(
    const Pfd& pfd, const Relation& relation) {
  ANMAT_RETURN_NOT_OK(pfd.Validate(relation.schema()));

  std::vector<size_t> lhs_cols;
  for (const std::string& a : pfd.lhs_attrs()) {
    ANMAT_ASSIGN_OR_RETURN(size_t idx, relation.schema().IndexOf(a));
    lhs_cols.push_back(idx);
  }
  std::vector<size_t> rhs_cols;
  for (const std::string& a : pfd.rhs_attrs()) {
    ANMAT_ASSIGN_OR_RETURN(size_t idx, relation.schema().IndexOf(a));
    rhs_cols.push_back(idx);
  }

  // Compile every row's matchers once.
  std::vector<ReferenceRow> rows;
  rows.reserve(pfd.tableau().size());
  for (const TableauRow& row : pfd.tableau().rows()) {
    ReferenceRow cr;
    cr.constant_row = row.IsConstantRow();
    for (const TableauCell& cell : row.lhs) {
      cr.lhs_cells.push_back(&cell);
      cr.lhs.emplace_back(
          cell.is_wildcard() ? ConstrainedPattern() : cell.pattern());
    }
    for (const TableauCell& cell : row.rhs) {
      cr.rhs_cells.push_back(&cell);
      if (cr.constant_row) {
        std::string constant;
        cell.IsConstant(&constant);
        cr.rhs_constants.push_back(std::move(constant));
      }
    }
    rows.push_back(std::move(cr));
  }

  CoverageStats stats;
  stats.total_rows = relation.num_rows();

  // Variable rows: group covered records by extracted LHS key; a record
  // violates when its RHS differs from its group's majority RHS.
  // One group map per (tableau row): key = canonical extraction tuple
  // rendered as a string, value = RHS value -> count + row ids.
  struct Group {
    std::map<std::string, std::vector<RowId>> by_rhs;
  };
  std::vector<std::map<std::string, Group>> variable_groups(rows.size());

  std::vector<bool> covered(relation.num_rows(), false);
  std::vector<bool> violating(relation.num_rows(), false);

  for (RowId r = 0; r < relation.num_rows(); ++r) {
    for (size_t ri = 0; ri < rows.size(); ++ri) {
      const ReferenceRow& cr = rows[ri];
      // LHS match: every non-wildcard cell must match, and we collect the
      // canonical extraction as the record's key for variable rows.
      bool lhs_ok = true;
      std::string key;
      for (size_t i = 0; i < cr.lhs.size(); ++i) {
        if (cr.lhs_cells[i]->is_wildcard()) {
          // Wildcard LHS cell: key on the full value (classical FD cell).
          key += relation.cell(r, lhs_cols[i]);
          key += '\x1f';
          continue;
        }
        Extraction ex;
        if (!cr.lhs[i].ExtractCanonical(relation.cell(r, lhs_cols[i]), &ex)) {
          lhs_ok = false;
          break;
        }
        for (const std::string& part : ex) {
          key += part;
          key += '\x1f';
        }
        key += '\x1e';
      }
      if (!lhs_ok) continue;
      covered[r] = true;

      if (cr.constant_row) {
        for (size_t i = 0; i < rhs_cols.size(); ++i) {
          if (relation.cell(r, rhs_cols[i]) != cr.rhs_constants[i]) {
            violating[r] = true;
          }
        }
      } else {
        // Variable row: defer to the grouping pass.
        std::string rhs_value;
        for (size_t i = 0; i < rhs_cols.size(); ++i) {
          rhs_value += relation.cell(r, rhs_cols[i]);
          rhs_value += '\x1f';
        }
        variable_groups[ri][key].by_rhs[rhs_value].push_back(r);
      }
    }
  }

  // Resolve variable-row groups: majority RHS is "correct"; the minority
  // records violate. Groups of size 1 cannot violate.
  for (const auto& groups : variable_groups) {
    for (const auto& [key, group] : groups) {
      size_t total = 0;
      size_t best = 0;
      for (const auto& [rhs, ids] : group.by_rhs) {
        total += ids.size();
        best = std::max(best, ids.size());
      }
      if (group.by_rhs.size() <= 1 || total < 2) continue;
      // Canonical RHS = the lexicographically smallest among the maximal
      // ones (deterministic); every record with a different RHS violates.
      const std::string* canonical = nullptr;
      for (const auto& [rhs, ids] : group.by_rhs) {
        if (ids.size() == best && canonical == nullptr) canonical = &rhs;
      }
      for (const auto& [rhs, ids] : group.by_rhs) {
        if (&rhs != canonical) {
          for (RowId id : ids) violating[id] = true;
        }
      }
    }
  }

  for (RowId r = 0; r < relation.num_rows(); ++r) {
    if (covered[r]) ++stats.covered_rows;
    if (violating[r]) ++stats.violating_rows;
  }
  return stats;
}

}  // namespace reference
}  // namespace anmat

#endif  // ANMAT_TESTS_COVERAGE_REFERENCE_H_
