#include "pfd/implication.h"

#include <algorithm>
#include <map>

#include "pattern/automaton_cache.h"
#include "pattern/containment.h"

namespace anmat {

namespace {

/// Cell-level implication of one LHS cell: cell `a` is at least as general
/// as cell `b` for the given row kind.
bool LhsCellCovers(const TableauCell& a, const TableauCell& b,
                   bool variable_row, AutomatonCache* automata) {
  if (a.is_wildcard()) {
    // Wildcard constant-row cell: matches everything. For variable rows a
    // wildcard keys on the whole value — the *most restrictive* relation —
    // so it only covers another wildcard.
    return variable_row ? b.is_wildcard() : true;
  }
  if (b.is_wildcard()) return false;
  if (variable_row) {
    // b's relation must refine a's: b ⊆ a.
    return ConstrainedRestricts(b.pattern(), a.pattern(), automata);
  }
  // Constant row: a's language must contain b's.
  return PatternContains(a.pattern().EmbeddedPattern(),
                         b.pattern().EmbeddedPattern(), automata);
}

}  // namespace

bool RowImplies(const TableauRow& a, const TableauRow& b,
                AutomatonCache* automata) {
  if (a.lhs.size() != b.lhs.size() || a.rhs.size() != b.rhs.size()) {
    return false;
  }
  const bool a_variable = a.IsVariableRow();
  const bool b_variable = b.IsVariableRow();
  if (a_variable != b_variable) return false;

  if (!a_variable) {
    // Both constant: RHS constants must be identical.
    if (!a.IsConstantRow() || !b.IsConstantRow()) return false;
    for (size_t i = 0; i < a.rhs.size(); ++i) {
      std::string ca, cb;
      a.rhs[i].IsConstant(&ca);
      b.rhs[i].IsConstant(&cb);
      if (ca != cb) return false;
    }
  } else {
    // Both variable: RHS wildcard layout must match.
    for (size_t i = 0; i < a.rhs.size(); ++i) {
      if (a.rhs[i].is_wildcard() != b.rhs[i].is_wildcard()) return false;
    }
  }

  for (size_t i = 0; i < a.lhs.size(); ++i) {
    if (!LhsCellCovers(a.lhs[i], b.lhs[i], a_variable, automata)) {
      return false;
    }
  }
  return true;
}

std::vector<Pfd> MinimizeRuleSet(const std::vector<Pfd>& pfds,
                                 MinimizeStats* stats) {
  MinimizeStats local;

  // Group rows by embedded FD (table + attribute lists).
  struct FdKey {
    std::string table;
    std::vector<std::string> lhs;
    std::vector<std::string> rhs;
    bool operator<(const FdKey& other) const {
      if (table != other.table) return table < other.table;
      if (lhs != other.lhs) return lhs < other.lhs;
      return rhs < other.rhs;
    }
  };
  struct OwnedRow {
    size_t pfd_index;
    const TableauRow* row;
    bool removed = false;
  };
  std::map<FdKey, std::vector<OwnedRow>> groups;
  for (size_t pi = 0; pi < pfds.size(); ++pi) {
    const Pfd& pfd = pfds[pi];
    FdKey key{pfd.table(), pfd.lhs_attrs(), pfd.rhs_attrs()};
    for (const TableauRow& row : pfd.tableau().rows()) {
      ++local.rows_before;
      groups[key].push_back(OwnedRow{pi, &row});
    }
  }

  // Within each group, remove rows implied by another (unremoved) row.
  // Process pairwise; ties (mutual implication, i.e. equivalent rows) keep
  // the earlier one. Every pattern compiles once, into a cache owned by
  // this call.
  AutomatonCache automata;
  for (auto& [key, rows] : groups) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].removed) continue;
      for (size_t j = 0; j < rows.size(); ++j) {
        if (i == j || rows[j].removed) continue;
        if (RowImplies(*rows[i].row, *rows[j].row, &automata)) {
          rows[j].removed = true;
        }
      }
    }
  }

  // Rebuild the PFDs with surviving rows only.
  std::vector<Pfd> out;
  for (size_t pi = 0; pi < pfds.size(); ++pi) {
    const Pfd& pfd = pfds[pi];
    FdKey key{pfd.table(), pfd.lhs_attrs(), pfd.rhs_attrs()};
    Tableau kept;
    const auto& rows = groups.at(key);
    for (const TableauRow& row : pfd.tableau().rows()) {
      for (const OwnedRow& owned : rows) {
        if (owned.pfd_index == pi && owned.row == &row && !owned.removed) {
          kept.AddRow(row);
          ++local.rows_after;
          break;
        }
      }
    }
    if (kept.empty()) {
      ++local.pfds_removed;
      continue;
    }
    out.push_back(Pfd(pfd.table(), pfd.lhs_attrs(), pfd.rhs_attrs(),
                      std::move(kept)));
  }

  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace anmat
