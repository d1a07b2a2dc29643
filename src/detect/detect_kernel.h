#ifndef ANMAT_DETECT_DETECT_KERNEL_H_
#define ANMAT_DETECT_DETECT_KERNEL_H_

/// \file detect_kernel.h
/// The one detection kernel behind one-shot `DetectErrors` (detector.cc)
/// and `DetectionStream` (detection_stream.cc). §3 defines detection once
/// — constant rows flag tuples whose LHS matches and whose RHS differs,
/// variable rows block on the canonical extraction key and flag each
/// block's minority — and so does this file, in three parts:
///
///  * the **plan** (`DetectPlan`), built once per (schema, PFDs, options):
///    validates the PFDs, resolves every tableau row into a work item, and
///    registers + compiles every LHS pattern cell with its column's
///    `ColumnDispatcher`;
///  * **absorb** (`Absorb`): filters candidate rows through `MatchesLhs`
///    into constant violations or key groups, memoised per distinct value;
///  * **collect** (`Collect`): resolves the groups, merges the per-item
///    slots in item order and sorts.
///
/// A static evaluation is preprocessing plus one update batch (Berkholz et
/// al.): one-shot detection and the stream differ only in the dictionary
/// source, candidate seeding, and memo lifetime — a one-shot run starts
/// every item state empty (repair mutates cells between passes), a stream
/// keeps them across batches.
///
/// Not part of the public API — include only from the detect and repair
/// layers.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "detect/detector.h"
#include "detect/pattern_index.h"
#include "detect/violation.h"
#include "dispatch/dispatch_plan.h"
#include "pattern/matcher.h"
#include "pfd/pfd.h"
#include "pfd/tableau.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

class AutomatonCache;

namespace detect_internal {

/// One detection work item: a tableau row of one PFD, resolved against the
/// schema and compiled for matching. Each item is touched by one task per
/// run, so its (possibly lazy) matchers are never probed concurrently.
struct ResolvedRow {
  size_t pfd_index = 0;
  size_t row_index = 0;
  const TableauRow* row = nullptr;
  std::vector<size_t> lhs_cols;
  std::vector<size_t> rhs_cols;
  std::vector<std::string> lhs_attrs;
  std::vector<std::string> rhs_attrs;
  /// One matcher per LHS cell; null for wildcard cells.
  std::vector<std::unique_ptr<ConstrainedMatcher>> lhs_matchers;
  /// Constant RHS values (valid when the row is constant).
  std::vector<std::string> rhs_constants;
  /// The first pattern (non-wildcard) LHS cell — candidate seeding probes
  /// its column — or lhs_cols.size() when every cell is a wildcard.
  size_t seed = 0;

  /// Constant or variable: the rows detection flags. A pattern-valued RHS
  /// only constrains format, which is the profiler's job.
  bool detects() const {
    return row->IsConstantRow() || row->IsVariableRow();
  }
};

/// Validates `pfds` against `schema` and resolves every tableau row, in
/// (PFD, tableau row) order. Matchers compile through `automata`; null
/// compiles private lazy automata (the test-side reference detector).
Result<std::vector<ResolvedRow>> ResolveRows(const Schema& schema,
                                             const std::vector<Pfd>& pfds,
                                             AutomatonCache* automata);

/// Appends one LHS cell's record-key fragment to `key`: a wildcard cell
/// (null `matcher`) contributes its whole value, '\x1f'-terminated; a
/// pattern cell its canonical extraction's parts, each '\x1f'-terminated,
/// then '\x1e'. False (key untouched) when the pattern cell has no
/// canonical extraction. The single definition of the key format.
bool AppendKeyFragment(const ConstrainedMatcher* matcher,
                       std::string_view value, std::string* key);

/// Per-(item, LHS cell) memo of per-distinct-value results: each match and
/// record-key fragment is computed once per distinct value of the cell's
/// column (ids index the column dictionary) and reused by every row
/// holding it. Dispatch verdicts, when the cell's column dispatcher covers
/// its slot, answer matches without touching the automaton.
struct CellMemo {
  /// Dispatch 0/1 verdicts per value id (not owned; valid below size()).
  const std::vector<int8_t>* preset = nullptr;
  /// The matching ids of `preset`, ascending (not owned).
  const std::vector<uint32_t>* preset_ids = nullptr;
  std::vector<int8_t> match;       ///< -1 unknown, else Matches() verdict
  std::vector<int8_t> frag_state;  ///< -1 unknown, 0 no extraction, 1 cached
  std::vector<std::string> frag;   ///< cached record-key fragment

  /// Sizes the tables for `num_values` distinct values at once (the match
  /// table only without dispatch verdicts, the key tables only when
  /// `keys`): growing them id by id costs more than the lookups save.
  void Grow(size_t num_values, bool keys) {
    if (preset == nullptr && match.size() < num_values) {
      match.resize(num_values, -1);
    }
    if (keys && frag.size() < num_values) {
      frag_state.resize(num_values, -1);
      frag.resize(num_values);
    }
  }

  /// Whether distinct value `id` matches `matcher`. `value()` yields the
  /// value; it is only called on a memo miss, so hits never touch it.
  template <typename ValueFn>
  bool Matches(const ConstrainedMatcher& matcher, uint32_t id,
               const ValueFn& value) {
    if (preset != nullptr && id < preset->size()) return (*preset)[id] != 0;
    if (id >= match.size()) match.resize(id + 1, -1);
    if (match[id] < 0) match[id] = matcher.Matches(value()) ? 1 : 0;
    return match[id] != 0;
  }

  /// Value `id`'s record-key fragment, or null without an extraction;
  /// `value()` as for `Matches`.
  template <typename ValueFn>
  const std::string* Fragment(const ConstrainedMatcher& matcher, uint32_t id,
                              const ValueFn& value) {
    if (id >= frag_state.size()) {
      frag_state.resize(id + 1, -1);
      frag.resize(id + 1);
    }
    if (frag_state[id] < 0) {
      frag_state[id] = AppendKeyFragment(&matcher, value(), &frag[id]);
    }
    return frag_state[id] != 0 ? &frag[id] : nullptr;
  }
};

/// Per-item detection state. One-shot runs start it empty; streams keep it
/// across batches (every field is append-only).
struct ItemState {
  std::vector<CellMemo> memos;  ///< per LHS cell
  size_t candidates = 0;        ///< rows matching the full LHS
  size_t matched = 0;           ///< variable rows: rows with a key
  /// Constant rows: violations in ascending row order. A constant
  /// violation depends only on its own row, so it never changes.
  std::vector<Violation> violations;
  /// Variable rows: key -> rows (resolved anew by every collect, because
  /// majorities can flip).
  std::map<std::string, std::vector<RowId>> groups;
};

/// Column dictionaries by column index (null where no pattern cell looks).
using ColumnDicts = std::vector<const ColumnDictionary*>;

/// The resolved work items of one (schema, PFDs, options) triple plus one
/// compiled multi-pattern dispatcher per pattern column.
struct DetectPlan {
  /// Validates and resolves `pfds` (which must outlive the plan) and
  /// compiles the dispatchers through `options.automata`, or through a
  /// cache the plan owns when that is null.
  static Result<DetectPlan> Build(const Schema& schema,
                                  const std::vector<Pfd>& pfds,
                                  const DetectorOptions& options);

  /// Fresh per-item states, cell memos wired to the dispatch verdicts.
  std::vector<ItemState> NewStates() const;

  std::shared_ptr<AutomatonCache> automata;
  size_t num_pfds = 0;
  std::vector<ResolvedRow> rows;  ///< the work items
  /// Columns some LHS pattern cell probes, ascending.
  std::vector<size_t> pattern_columns;
  /// Per column: its dispatcher, or null (no pattern cell, or no union
  /// froze). Verdict addresses are stable, so memos may point into them.
  std::vector<std::unique_ptr<ColumnDispatcher>> dispatchers;
  /// Per item and LHS cell: the cell's dispatcher slot.
  std::vector<std::vector<uint32_t>> slots;
};

/// Absorbs candidate rows into `state`: the ascending `seeded` list, or
/// every row in [first_row, end_row) when it is null. Each candidate must
/// match every pattern LHS cell (memoised per distinct value) to count;
/// constant rows then emit their violation, variable rows file the row
/// under its record key.
void Absorb(const Relation& relation, const ResolvedRow& row,
            const ColumnDicts& dicts, const std::vector<RowId>* seeded,
            RowId first_row, RowId end_row, ItemState& state);

/// Resolves every item's state into a result slot, merges the slots in
/// item order and sorts. `max_violations` keeps the first N in item order.
DetectionResult Collect(const Relation& relation, const DetectPlan& plan,
                        const std::vector<ItemState>& states,
                        const DetectorOptions& options);

/// One-shot detection over `relation` with a prebuilt plan (defined in
/// detector.cc). The repair loop keeps one plan across its passes.
DetectionResult DetectWithPlan(const Relation& relation, DetectPlan& plan,
                               const DetectorOptions& options);

/// `index` as a dispatch classification prefilter (none when null).
DispatchPrefilter IndexPrefilter(const PatternIndex* index);

/// Combined RHS value of a record whose cells read `cell(col)`: each RHS
/// cell '\x1f'-terminated (multi-attribute safe).
template <typename CellFn>
std::string RhsValueOf(const ResolvedRow& row, const CellFn& cell) {
  std::string value;
  for (size_t col : row.rhs_cols) {
    value.append(cell(col));
    value.push_back('\x1f');
  }
  return value;
}

/// Combined RHS value of row `r` of `relation`.
std::string RhsValue(const Relation& relation, const ResolvedRow& row,
                     RowId r);

/// The first RHS cell of constant `row` whose value `cell(col)` differs
/// from its constant — the suspect and suggestion `EmitConstantViolation`
/// reports — or rhs_cols.size() when every RHS cell holds its constant.
template <typename CellFn>
size_t FirstRhsMismatch(const ResolvedRow& row, const CellFn& cell) {
  for (size_t i = 0; i < row.rhs_cols.size(); ++i) {
    if (cell(row.rhs_cols[i]) != row.rhs_constants[i]) return i;
  }
  return row.rhs_cols.size();
}

/// Appends the constant-row violation of candidate row `r` to `out`, if its
/// RHS mismatches the row's constants. Returns true when one was emitted.
bool EmitConstantViolation(const Relation& relation, const ResolvedRow& row,
                           RowId r, std::vector<Violation>* out);

/// Group resolution: given key → rows, flags each group's minority
/// records against its majority — the RHS value with the strictly greatest
/// row count, ties toward the smallest value (streaming clean-on-ingest
/// mirrors this rule). Appends violations and accounts `pairs_checked`
/// into `result`; stops at `max_violations` total violations when
/// non-zero.
void ResolveGroups(const Relation& relation, const ResolvedRow& row,
                   const std::map<std::string, std::vector<RowId>>& groups,
                   size_t max_violations, DetectionResult* result);

/// The canonical violation order every detection result is reported in:
/// by PFD, tableau row, then cells.
void SortViolations(std::vector<Violation>* violations);

}  // namespace detect_internal
}  // namespace anmat

#endif  // ANMAT_DETECT_DETECT_KERNEL_H_
