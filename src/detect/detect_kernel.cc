#include "detect/detect_kernel.h"

#include <algorithm>

#include "pattern/automaton_cache.h"
#include "util/thread_pool.h"

namespace anmat {
namespace detect_internal {

Result<std::vector<ResolvedRow>> ResolveRows(const Schema& schema,
                                             const std::vector<Pfd>& pfds,
                                             AutomatonCache* automata) {
  // Validate every PFD first, so the first error reported never depends on
  // how much resolution preceded it.
  for (const Pfd& pfd : pfds) ANMAT_RETURN_NOT_OK(pfd.Validate(schema));
  std::vector<ResolvedRow> rows;
  for (size_t pi = 0; pi < pfds.size(); ++pi) {
    const Pfd& pfd = pfds[pi];
    std::vector<size_t> lhs_cols;
    std::vector<size_t> rhs_cols;
    for (const std::string& a : pfd.lhs_attrs()) {
      ANMAT_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(a));
      lhs_cols.push_back(idx);
    }
    for (const std::string& a : pfd.rhs_attrs()) {
      ANMAT_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(a));
      rhs_cols.push_back(idx);
    }
    for (size_t ri = 0; ri < pfd.tableau().size(); ++ri) {
      ResolvedRow row;
      row.pfd_index = pi;
      row.row_index = ri;
      row.row = &pfd.tableau().row(ri);
      row.lhs_cols = lhs_cols;
      row.rhs_cols = rhs_cols;
      row.lhs_attrs = pfd.lhs_attrs();
      row.rhs_attrs = pfd.rhs_attrs();
      for (const TableauCell& cell : row.row->lhs) {
        row.lhs_matchers.push_back(
            cell.is_wildcard()
                ? nullptr
                : std::make_unique<ConstrainedMatcher>(cell.pattern(),
                                                       automata));
      }
      if (row.row->IsConstantRow()) {
        for (const TableauCell& cell : row.row->rhs) {
          std::string constant;
          cell.IsConstant(&constant);
          row.rhs_constants.push_back(std::move(constant));
        }
      }
      row.seed = 0;
      while (row.seed < row.lhs_cols.size() &&
             row.lhs_matchers[row.seed] == nullptr) {
        ++row.seed;
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

bool AppendKeyFragment(const ConstrainedMatcher* matcher,
                       std::string_view value, std::string* key) {
  if (matcher == nullptr) {
    key->append(value);
    key->push_back('\x1f');
    return true;
  }
  Extraction extraction;
  if (!matcher->ExtractCanonical(value, &extraction)) return false;
  for (const std::string& part : extraction) {
    key->append(part);
    key->push_back('\x1f');
  }
  key->push_back('\x1e');
  return true;
}

Result<DetectPlan> DetectPlan::Build(const Schema& schema,
                                     const std::vector<Pfd>& pfds,
                                     const DetectorOptions& options) {
  DetectPlan plan;
  plan.automata = options.automata != nullptr
                      ? options.automata
                      : std::make_shared<AutomatonCache>();
  plan.num_pfds = pfds.size();
  ANMAT_ASSIGN_OR_RETURN(plan.rows,
                         ResolveRows(schema, pfds, plan.automata.get()));

  // Multi-pattern dispatch (src/dispatch/): each column's pattern cells
  // compile into a few prefix-grouped union automata, so a distinct value
  // is classified against all of them in one scan per group. Columns whose
  // unions cannot freeze keep the per-pattern memo path.
  plan.dispatchers.resize(schema.num_columns());
  plan.slots.resize(plan.rows.size());
  for (size_t i = 0; i < plan.rows.size(); ++i) {
    const ResolvedRow& row = plan.rows[i];
    plan.slots[i].assign(row.lhs_cols.size(), 0);
    for (size_t c = 0; c < row.lhs_cols.size(); ++c) {
      if (row.lhs_matchers[c] == nullptr) continue;
      std::unique_ptr<ColumnDispatcher>& cd =
          plan.dispatchers[row.lhs_cols[c]];
      if (cd == nullptr) cd = std::make_unique<ColumnDispatcher>();
      plan.slots[i][c] =
          cd->AddPattern(row.row->lhs[c].pattern().EmbeddedPattern());
    }
  }
  for (size_t col = 0; col < plan.dispatchers.size(); ++col) {
    std::unique_ptr<ColumnDispatcher>& cd = plan.dispatchers[col];
    if (cd == nullptr) continue;
    plan.pattern_columns.push_back(col);
    if (!cd->Compile(plan.automata.get())) cd.reset();
  }
  return plan;
}

std::vector<ItemState> DetectPlan::NewStates() const {
  std::vector<ItemState> states(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ResolvedRow& row = rows[i];
    states[i].memos.resize(row.lhs_cols.size());
    for (size_t c = 0; c < row.lhs_cols.size(); ++c) {
      if (row.lhs_matchers[c] == nullptr) continue;
      const ColumnDispatcher* cd = dispatchers[row.lhs_cols[c]].get();
      // Uncovered slots (leading unbounded class repeat, or a union past
      // the freeze budget) keep the per-pattern memo.
      if (cd != nullptr && cd->covers(slots[i][c])) {
        states[i].memos[c].preset = cd->verdicts(slots[i][c]);
        states[i].memos[c].preset_ids = cd->match_ids(slots[i][c]);
      }
    }
  }
  return states;
}

DispatchPrefilter IndexPrefilter(const PatternIndex* index) {
  if (index == nullptr) return nullptr;
  return [index](const std::vector<const Pattern*>& members,
                 uint32_t first_id) {
    return index->CandidateValueIds(members, first_id);
  };
}

namespace {

/// True if row `r` matches every pattern LHS cell of `row` — the exact
/// candidacy test, memoised per distinct value through `memos`.
bool MatchesLhs(const ResolvedRow& row, std::vector<CellMemo>& memos,
                const ColumnDicts& dicts, RowId r) {
  for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
    const ConstrainedMatcher* matcher = row.lhs_matchers[i].get();
    if (matcher == nullptr) continue;
    const ColumnDictionary& dict = *dicts[row.lhs_cols[i]];
    const uint32_t id = dict.value_id(r);
    if (!memos[i].Matches(*matcher, id, [&] { return dict.value(id); })) {
      return false;
    }
  }
  return true;
}

/// Row `r`'s grouping key under a variable `row`: the concatenated key
/// fragments of its LHS cells. False when some pattern cell has no
/// canonical extraction.
bool RecordKey(const Relation& relation, const ResolvedRow& row,
               std::vector<CellMemo>& memos, const ColumnDicts& dicts,
               RowId r, std::string* key) {
  key->clear();
  for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
    const ConstrainedMatcher* matcher = row.lhs_matchers[i].get();
    if (matcher == nullptr) {
      AppendKeyFragment(nullptr, relation.cell(r, row.lhs_cols[i]), key);
      continue;
    }
    const ColumnDictionary& dict = *dicts[row.lhs_cols[i]];
    const uint32_t id = dict.value_id(r);
    const std::string* frag =
        memos[i].Fragment(*matcher, id, [&] { return dict.value(id); });
    if (frag == nullptr) return false;
    key->append(*frag);
  }
  return true;
}

}  // namespace

void Absorb(const Relation& relation, const ResolvedRow& row,
            const ColumnDicts& dicts, const std::vector<RowId>* seeded,
            RowId first_row, RowId end_row, ItemState& state) {
  if (!row.detects()) return;
  const bool constant = row.row->IsConstantRow();
  for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
    if (row.lhs_matchers[i] != nullptr) {
      state.memos[i].Grow(dicts[row.lhs_cols[i]]->num_values(), !constant);
    }
  }
  std::string key;
  // Sized once for the row: map insertion copies the key, so pre-sizing
  // avoids the grow-reallocs of every append.
  key.reserve(32 * row.lhs_cols.size());
  const auto absorb = [&](RowId r) {
    if (!MatchesLhs(row, state.memos, dicts, r)) return;
    ++state.candidates;
    if (constant) {
      EmitConstantViolation(relation, row, r, &state.violations);
    } else if (RecordKey(relation, row, state.memos, dicts, r, &key)) {
      ++state.matched;
      state.groups[key].push_back(r);
    }
  };
  if (seeded != nullptr) {
    for (RowId r : *seeded) absorb(r);
  } else {
    for (RowId r = first_row; r < end_row; ++r) absorb(r);
  }
}

namespace {

/// Resolves one item's state into `out`, stopping at `max_violations`
/// total violations in `out` when non-zero.
void ResolveItem(const Relation& relation, const ResolvedRow& row,
                 const ItemState& state, bool use_blocking,
                 size_t max_violations, DetectionResult* out) {
  out->stats.candidate_rows += state.candidates;
  if (row.row->IsConstantRow()) {
    for (const Violation& v : state.violations) {
      if (max_violations > 0 && out->violations.size() >= max_violations) {
        return;
      }
      out->violations.push_back(v);
    }
  } else if (row.row->IsVariableRow()) {
    if (!use_blocking) {
      // The paper's quadratic reference enumerates every keyed candidate
      // pair; the comparison count is exactly C(matched, 2), accounted
      // without replaying the loop (the violation *set* equals the
      // blocked variant's).
      out->stats.pairs_checked += state.matched * (state.matched - 1) / 2;
    }
    ResolveGroups(relation, row, state.groups, max_violations, out);
  }
}

}  // namespace

DetectionResult Collect(const Relation& relation, const DetectPlan& plan,
                        const std::vector<ItemState>& states,
                        const DetectorOptions& options) {
  DetectionResult result;
  result.stats.rows_scanned = relation.num_rows() * plan.num_pfds;
  const size_t cap = options.max_violations;
  if (cap > 0) {
    // "The first N found in item order": resolve serially into one result.
    for (size_t i = 0; i < states.size(); ++i) {
      if (result.violations.size() >= cap) break;
      ResolveItem(relation, plan.rows[i], states[i], options.use_blocking,
                  cap, &result);
    }
  } else {
    // One slot per item, merged in item order: byte-identical to a serial
    // run at any thread count.
    std::vector<DetectionResult> slots(states.size());
    ParallelFor(options.execution, states.size(), [&](size_t i) {
      ResolveItem(relation, plan.rows[i], states[i], options.use_blocking, 0,
                  &slots[i]);
    });
    for (DetectionResult& slot : slots) {
      result.stats.candidate_rows += slot.stats.candidate_rows;
      result.stats.pairs_checked += slot.stats.pairs_checked;
      result.violations.insert(
          result.violations.end(),
          std::make_move_iterator(slot.violations.begin()),
          std::make_move_iterator(slot.violations.end()));
    }
  }
  SortViolations(&result.violations);
  result.stats.violations = result.violations.size();
  return result;
}

std::string RhsValue(const Relation& relation, const ResolvedRow& row,
                     RowId r) {
  return RhsValueOf(row, [&](size_t col) { return relation.cell(r, col); });
}

bool EmitConstantViolation(const Relation& relation, const ResolvedRow& row,
                           RowId r, std::vector<Violation>* out) {
  // Every RHS cell must equal its constant; the violation covers the LHS
  // cells and every mismatched RHS cell.
  const size_t first =
      FirstRhsMismatch(row, [&](size_t col) { return relation.cell(r, col); });
  if (first == row.rhs_cols.size()) return false;

  Violation v;
  v.kind = ViolationKind::kConstant;
  v.pfd_index = row.pfd_index;
  v.tableau_row = row.row_index;
  for (size_t col : row.lhs_cols) {
    v.cells.push_back(CellRef{r, static_cast<uint32_t>(col)});
  }
  for (size_t i = first; i < row.rhs_cols.size(); ++i) {
    if (relation.cell(r, row.rhs_cols[i]) != row.rhs_constants[i]) {
      v.cells.push_back(CellRef{r, static_cast<uint32_t>(row.rhs_cols[i])});
    }
  }
  v.suspect = CellRef{r, static_cast<uint32_t>(row.rhs_cols[first])};
  v.suggested_repair = row.rhs_constants[first];
  v.explanation = row.lhs_attrs[0] + " = \"";
  v.explanation += relation.cell(r, row.lhs_cols[0]);
  v.explanation += "\" matches " + row.row->lhs[0].ToString() + " but " +
                   row.rhs_attrs[first] + " = \"";
  v.explanation += relation.cell(r, row.rhs_cols[first]);
  v.explanation += "\" != \"" + row.rhs_constants[first] + "\"";
  out->push_back(std::move(v));
  return true;
}

namespace {

/// Appends the pair violation between `suspect_row` and `witness`.
void EmitPairViolation(const Relation& relation, const ResolvedRow& row,
                       RowId suspect_row, RowId witness,
                       const std::string& majority_repair,
                       std::vector<Violation>* out) {
  Violation v;
  v.kind = ViolationKind::kVariable;
  v.pfd_index = row.pfd_index;
  v.tableau_row = row.row_index;
  for (RowId r : {suspect_row, witness}) {
    for (size_t col : row.lhs_cols) {
      v.cells.push_back(CellRef{r, static_cast<uint32_t>(col)});
    }
    for (size_t col : row.rhs_cols) {
      v.cells.push_back(CellRef{r, static_cast<uint32_t>(col)});
    }
  }
  v.suspect =
      CellRef{suspect_row, static_cast<uint32_t>(row.rhs_cols.front())};
  v.suggested_repair = majority_repair;
  v.explanation =
      "rows " + std::to_string(suspect_row) + " and " +
      std::to_string(witness) + " agree on the constrained part of the LHS " +
      "but disagree on " + row.rhs_attrs.front() + " (\"";
  v.explanation += relation.cell(suspect_row, row.rhs_cols.front());
  v.explanation += "\" vs \"";
  v.explanation += relation.cell(witness, row.rhs_cols.front());
  v.explanation += "\")";
  out->push_back(std::move(v));
}

/// The majority entry of one group's RHS-value → rows split (see
/// `ResolveGroups`). `by_rhs` must not be empty.
const std::pair<const std::string, std::vector<RowId>>& MajorityBlock(
    const std::map<std::string, std::vector<RowId>>& by_rhs) {
  const std::pair<const std::string, std::vector<RowId>>* best =
      &*by_rhs.begin();
  for (const auto& entry : by_rhs) {
    if (entry.second.size() > best->second.size()) best = &entry;
  }
  return *best;
}

}  // namespace

void ResolveGroups(const Relation& relation, const ResolvedRow& row,
                   const std::map<std::string, std::vector<RowId>>& groups,
                   size_t max_violations, DetectionResult* result) {
  const auto at_cap = [&] {
    return max_violations > 0 && result->violations.size() >= max_violations;
  };
  for (const auto& [key, rows] : groups) {
    if (rows.size() < 2) continue;
    std::map<std::string, std::vector<RowId>> by_rhs;
    for (RowId r : rows) {
      by_rhs[RhsValue(relation, row, r)].push_back(r);
    }
    if (by_rhs.size() <= 1) continue;
    // Blocking only pays for pairs inside conflicting blocks.
    result->stats.pairs_checked += rows.size() * (rows.size() - 1) / 2;

    const auto& majority = MajorityBlock(by_rhs);
    const RowId witness = majority.second.front();
    // Repair suggestion: the witness's first RHS attribute value.
    const std::string majority_repair(
        relation.cell(witness, row.rhs_cols.front()));
    for (const auto& [rhs, ids] : by_rhs) {
      if (rhs == majority.first) continue;
      for (RowId r : ids) {
        if (at_cap()) return;
        EmitPairViolation(relation, row, r, witness, majority_repair,
                          &result->violations);
      }
    }
  }
}

void SortViolations(std::vector<Violation>* violations) {
  std::sort(violations->begin(), violations->end(),
            [](const Violation& a, const Violation& b) {
              if (a.pfd_index != b.pfd_index) return a.pfd_index < b.pfd_index;
              if (a.tableau_row != b.tableau_row) {
                return a.tableau_row < b.tableau_row;
              }
              return a.cells < b.cells;
            });
}

}  // namespace detect_internal
}  // namespace anmat
