#include "detect/detection_stream.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "detect/suggestion_policy.h"
#include "util/thread_pool.h"

namespace anmat {

using detect_internal::AppendKeyFragment;
using detect_internal::CellMemo;
using detect_internal::ResolvedRow;

namespace {

/// Batch cells resolved against a column's incremental stream dictionary:
/// ids >= 0 are stream dictionary ids (the cross-batch memos apply), ids
/// < 0 are batch-local ids, -(id + 1), of the distinct values the stream
/// has not absorbed yet, numbered in first-occurrence order.
struct ColumnIds {
  bool resolved = false;
  std::vector<int64_t> ids;
};

/// Batch-side LHS evaluation of one resolved tableau row: per-row match
/// verdicts and grouping keys, each memoized per *distinct* value — through
/// the stream's persistent cell memos for values the stream already
/// absorbed, through batch-local memos for new ones. This is what keeps
/// clean-on-ingest at O(new distinct values) automaton work, with zero
/// batch-local detection.
class BatchLhsScan {
 public:
  BatchLhsScan(const Relation& batch, const ResolvedRow& row,
               std::vector<CellMemo>& memos,
               std::vector<const ColumnIds*> cell_ids)
      : batch_(batch),
        row_(row),
        memos_(memos),
        cell_ids_(std::move(cell_ids)),
        new_memos_(cell_ids_.size()) {}

  /// True if batch row `r` matches every pattern LHS cell (the exact
  /// candidacy test detection uses).
  bool Matches(RowId r) {
    for (size_t i = 0; i < row_.lhs_cols.size(); ++i) {
      const ConstrainedMatcher* matcher = row_.lhs_matchers[i].get();
      if (matcher == nullptr) continue;
      const auto [memo, id] = MemoOf(i, r);
      if (!memo->Matches(*matcher, id,
                         [&] { return batch_.cell(r, row_.lhs_cols[i]); })) {
        return false;
      }
    }
    return true;
  }

  /// Builds batch row `r`'s grouping key (byte-identical to the kernel's
  /// record key, so it addresses the stream's cumulative groups directly);
  /// false when some pattern cell has no canonical extraction.
  bool Key(RowId r, std::string* key) {
    key->clear();
    for (size_t i = 0; i < row_.lhs_cols.size(); ++i) {
      const ConstrainedMatcher* matcher = row_.lhs_matchers[i].get();
      const std::string_view cell = batch_.cell(r, row_.lhs_cols[i]);
      if (matcher == nullptr) {
        AppendKeyFragment(nullptr, cell, key);
        continue;
      }
      const auto [memo, id] = MemoOf(i, r);
      const std::string* frag =
          memo->Fragment(*matcher, id, [&] { return cell; });
      if (frag == nullptr) return false;
      key->append(*frag);
    }
    return true;
  }

 private:
  /// Cell `i` of batch row `r`: the stream's persistent memo and id for an
  /// absorbed value, the batch-local memo and id for a new one.
  std::pair<CellMemo*, uint32_t> MemoOf(size_t i, RowId r) {
    const int64_t id = cell_ids_[i]->ids[r];
    if (id >= 0) return {&memos_[i], static_cast<uint32_t>(id)};
    return {&new_memos_[i], static_cast<uint32_t>(-id - 1)};
  }

  const Relation& batch_;
  const ResolvedRow& row_;
  std::vector<CellMemo>& memos_;
  std::vector<const ColumnIds*> cell_ids_;
  std::vector<CellMemo> new_memos_;  ///< batch-local, by new-value id
};

}  // namespace

DetectionStream::DetectionStream(Schema schema, std::vector<Pfd> pfds,
                                 DetectorOptions options)
    : relation_(std::move(schema)),
      pfds_(std::move(pfds)),
      options_(std::move(options)) {}

Result<std::unique_ptr<DetectionStream>> DetectionStream::Open(
    const Schema& schema, std::vector<Pfd> pfds,
    const DetectorOptions& options) {
  if (options.max_violations != 0) {
    return Status::InvalidArgument(
        "DetectionStream does not support max_violations: the cap's "
        "\"first N found\" semantics contradict cumulative batch results");
  }
  std::unique_ptr<DetectionStream> stream(
      new DetectionStream(schema, std::move(pfds), options));  // lint: new-ok (private ctor, owned by the unique_ptr)
  ANMAT_RETURN_NOT_OK(stream->Init());
  return stream;
}

Status DetectionStream::Init() {
  ANMAT_ASSIGN_OR_RETURN(plan_, detect_internal::DetectPlan::Build(
                                    relation_.schema(), pfds_, options_));
  states_ = plan_.NewStates();
  rhs_caches_.resize(plan_.rows.size());
  dicts_.resize(relation_.num_columns());
  indexes_.resize(relation_.num_columns());
  for (const size_t col : plan_.pattern_columns) {
    dicts_[col] = std::make_unique<ColumnDictionary>();
  }
  // An incremental index over each seed column narrows every batch's
  // candidates to the posting tails of the new rows.
  if (options_.use_pattern_index) {
    for (const ResolvedRow& row : plan_.rows) {
      if (!row.detects() || row.seed == row.lhs_cols.size()) continue;
      const size_t col = row.lhs_cols[row.seed];
      if (indexes_[col] == nullptr) {
        indexes_[col] = std::make_unique<PatternIndex>(
            relation_, col, dicts_[col].get(), plan_.automata.get());
      }
    }
  }
  return Status::OK();
}

void DetectionStream::ReportConflict(StreamConflict conflict) {
  if (!conflicted_cells_.insert(conflict.cell).second) return;
  batch_conflicts_.push_back(conflict);
  conflicts_.push_back(std::move(conflict));
}

Result<bool> DetectionStream::CleanBatch(const Relation& batch,
                                         Relation* cleaned) {
  // Suggestions never come from a batch-local DetectErrors — and therefore
  // never trigger per-batch dictionary or index rebuilds:
  //
  //  * Constant-rule violations depend only on the violating row's own
  //    cells, so their suggestions are computed directly from the batch
  //    against the stream's resolved rows.
  //  * Variable-rule suggestions come from the *cumulative* equivalence
  //    groups: the absorbed members the stream already holds in
  //    `ItemState::groups` plus the batch's own members, resolved with the
  //    same majority rule as one-shot group resolution (ResolveGroups).
  //
  // Per-distinct-value match/extraction verdicts are reused from the
  // stream's cross-batch memos when the value was already absorbed (looked
  // up through the incremental dictionary); values the stream has not seen
  // yet are evaluated once per batch via batch-local memos (BatchLhsScan).
  //
  // Majority-flip detection runs alongside: the one-shot pass computes its
  // majorities over the *dirty* concatenation, so for every group the
  // batch touches, the majority is resolved twice — over the stream's
  // cleaned values and over the dirty view (reconstructed through
  // `dirty_overrides_`) — and any disagreement, plus any absorbed cell the
  // one-shot pass would hold a different value in, is surfaced as a
  // StreamConflict instead of a retroactive edit.
  //
  // Every batch cell is resolved against its column's incremental
  // dictionary exactly once (not once per tableau row): the id arrays
  // below are shared by all states touching the column.
  const RowId nbatch = static_cast<RowId>(batch.num_rows());
  const RowId base = static_cast<RowId>(relation_.num_rows());
  std::vector<ColumnIds> columns(batch.num_columns());
  const auto resolve_column = [&](size_t col) -> const ColumnIds& {
    ColumnIds& entry = columns[col];
    if (entry.resolved) return entry;
    entry.resolved = true;
    entry.ids.resize(nbatch);
    const ColumnDictionary* dict = dicts_[col].get();
    std::unordered_map<std::string_view, int64_t> local;
    for (RowId r = 0; r < nbatch; ++r) {
      const std::string_view value = batch.cell(r, col);
      uint32_t id;
      if (dict != nullptr && dict->Lookup(value, &id)) {
        entry.ids[r] = static_cast<int64_t>(id);
      } else {
        entry.ids[r] =
            local.try_emplace(value, -static_cast<int64_t>(local.size()) - 1)
                .first->second;
      }
    }
    return entry;
  };
  const auto cell_ids_of = [&](const ResolvedRow& row) {
    std::vector<const ColumnIds*> cell_ids(row.lhs_cols.size(), nullptr);
    for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
      if (row.lhs_matchers[i] != nullptr) {
        cell_ids[i] = &resolve_column(row.lhs_cols[i]);
      }
    }
    return cell_ids;
  };

  // The batch's suggestions are folded twice: `fold` is what the stream
  // applies (variable suggestions against the *cleaned* cumulative
  // majorities), `dirty_fold` is what the one-shot pass would decide for
  // these rows (variable suggestions against the *dirty* majorities,
  // reconstructed through `dirty_overrides_`). Constant suggestions feed
  // both, so cross-kind conflicts resolve identically; any batch cell the
  // two folds decide differently is a majority-flip conflict.
  SuggestionFold fold;
  SuggestionFold dirty_fold;

  // ---- Constant rules -----------------------------------------------------
  for (size_t item = 0; item < plan_.rows.size(); ++item) {
    const ResolvedRow& row = plan_.rows[item];
    if (!row.row->IsConstantRow()) continue;
    BatchLhsScan scan(batch, row, states_[item].memos, cell_ids_of(row));
    for (RowId r = 0; r < nbatch; ++r) {
      if (!scan.Matches(r)) continue;
      // The suggestion EmitConstantViolation would attach: the first
      // mismatched RHS constant, for that cell; empty constants carry no
      // repair (SuggestionFold drops them).
      const size_t first_mismatch = detect_internal::FirstRhsMismatch(
          row, [&](size_t col) { return batch.cell(r, col); });
      if (first_mismatch == row.rhs_cols.size()) continue;
      const CellRef suspect{
          r, static_cast<uint32_t>(row.rhs_cols[first_mismatch])};
      fold.Add(suspect, row.rhs_constants[first_mismatch], row.pfd_index,
               /*variable=*/false);
      if (clean_variable_rules_) {  // dirty_fold is only read for flips
        dirty_fold.Add(suspect, row.rhs_constants[first_mismatch],
                       row.pfd_index, /*variable=*/false);
      }
    }
  }

  // ---- Variable rules: cumulative majorities + flip detection -------------
  if (clean_variable_rules_) {
    const auto dirty_cell = [&](RowId a, size_t col) -> std::string_view {
      const auto it =
          dirty_overrides_.find(CellRef{a, static_cast<uint32_t>(col)});
      return it != dirty_overrides_.end() ? std::string_view(it->second)
                                          : relation_.cell(a, col);
    };
    // Does some constant rule, applied to absorbed row `a`'s dirty cells,
    // suggest a value other than `value` for `(a, col)`? Then the one-shot
    // fold conflicts on that cell and keeps it dirty (rare slow path: only
    // consulted before flagging a retroactive-repair conflict).
    const auto oneshot_constant_conflict = [&](RowId a, uint32_t col,
                                               const std::string& value) {
      for (const ResolvedRow& crow : plan_.rows) {
        if (!crow.row->IsConstantRow()) continue;
        bool lhs_ok = true;
        for (size_t i = 0; i < crow.lhs_cols.size() && lhs_ok; ++i) {
          const ConstrainedMatcher* matcher = crow.lhs_matchers[i].get();
          if (matcher == nullptr) continue;
          lhs_ok = matcher->Matches(dirty_cell(a, crow.lhs_cols[i]));
        }
        if (!lhs_ok) continue;
        const size_t first = detect_internal::FirstRhsMismatch(
            crow, [&](size_t c) { return dirty_cell(a, c); });
        if (first == crow.rhs_cols.size()) continue;
        if (crow.rhs_cols[first] != col) continue;
        const std::string& suggestion = crow.rhs_constants[first];
        if (!suggestion.empty() && suggestion != value) return true;
      }
      return false;
    };
    for (size_t item = 0; item < plan_.rows.size(); ++item) {
      const ResolvedRow& row = plan_.rows[item];
      if (!row.row->IsVariableRow()) continue;
      const uint32_t rhs_front = static_cast<uint32_t>(row.rhs_cols.front());
      const auto batch_rhs = [&](RowId b) {
        return detect_internal::RhsValue(batch, row, b);
      };
      // RhsValue, read through the dirty overrides.
      const auto dirty_rhs = [&](RowId a) {
        return detect_internal::RhsValueOf(
            row, [&](size_t col) { return dirty_cell(a, col); });
      };

      BatchLhsScan scan(batch, row, states_[item].memos, cell_ids_of(row));
      std::map<std::string, std::vector<RowId>> batch_groups;
      std::string key;
      key.reserve(32 * row.lhs_cols.size());
      for (RowId r = 0; r < nbatch; ++r) {
        if (scan.Matches(r) && scan.Key(r, &key)) {
          batch_groups[key].push_back(r);
        }
      }

      for (const auto& [gkey, brows] : batch_groups) {
        static const std::vector<RowId> kNoAbsorbed;
        const auto git = states_[item].groups.find(gkey);
        const std::vector<RowId>& arows =
            git == states_[item].groups.end() ? kNoAbsorbed : git->second;
        if (arows.size() + brows.size() < 2) continue;

        // The absorbed side of the group's RHS split, folded incrementally
        // (`GroupRhsCache`): absorbed rows are append-only and never
        // retroactively edited, so both their cleaned and dirty RHS values
        // are immutable and each is computed exactly once over the
        // stream's lifetime — not once per batch that touches the group.
        GroupRhsCache& cache = rhs_caches_[item][gkey];
        for (size_t ai = cache.covered; ai < arows.size(); ++ai) {
          const RowId a = arows[ai];
          cache.by_stream[detect_internal::RhsValue(relation_, row, a)]
              .push_back(a);
          const auto it = cache.by_dirty.try_emplace(dirty_rhs(a)).first;
          it->second.push_back(a);
          cache.dirty_of.push_back(&it->first);
        }
        cache.covered = arows.size();

        // The batch side of the split, in final stream coordinates. One
        // map serves both views: batch rows carry no dirty overrides yet,
        // so their cleaned and dirty RHS values coincide.
        std::map<std::string, std::vector<RowId>> batch_by_rhs;
        std::vector<std::string> brow_rhs;  // parallel to brows
        brow_rhs.reserve(brows.size());
        for (RowId b : brows) {
          brow_rhs.push_back(batch_rhs(b));
          batch_by_rhs[brow_rhs.back()].push_back(base + b);
        }

        // Majority over the merged absorbed + batch split without
        // materializing the combined map, replicating ResolveGroups' rule
        // exactly: keys ascending, strictly greater count wins (ties keep
        // the lexicographically smallest key), witness is the majority
        // block's first member — the absorbed front when the key has
        // absorbed rows (their ids all precede `base`), else the batch
        // front.
        struct Merged {
          bool violated = false;        // > 1 distinct RHS value
          const std::string* key = nullptr;
          RowId witness = 0;
        };
        const auto resolve_merged =
            [](const std::map<std::string, std::vector<RowId>>& absorbed,
               const std::map<std::string, std::vector<RowId>>& from_batch) {
              Merged m;
              size_t distinct = 0;
              size_t best = 0;
              auto at = absorbed.begin();
              auto bt = from_batch.begin();
              while (at != absorbed.end() || bt != from_batch.end()) {
                const bool take_a =
                    at != absorbed.end() &&
                    (bt == from_batch.end() || at->first <= bt->first);
                const bool take_b =
                    bt != from_batch.end() &&
                    (at == absorbed.end() || bt->first <= at->first);
                const std::string* key = take_a ? &at->first : &bt->first;
                const size_t count = (take_a ? at->second.size() : 0) +
                                     (take_b ? bt->second.size() : 0);
                const RowId front =
                    take_a ? at->second.front() : bt->second.front();
                if (take_a) ++at;
                if (take_b) ++bt;
                ++distinct;
                if (count > best) {
                  best = count;
                  m.key = key;
                  m.witness = front;
                }
              }
              m.violated = distinct > 1;
              return m;
            };
        const Merged stream_m = resolve_merged(cache.by_stream, batch_by_rhs);
        const Merged dirty_m = resolve_merged(cache.by_dirty, batch_by_rhs);
        if (!stream_m.violated && !dirty_m.violated) continue;

        // Suggestions for the batch's own minority rows, against the
        // cumulative majority of the stream's (cleaned) view.
        if (stream_m.violated) {
          const RowId witness = stream_m.witness;
          const std::string_view repair =
              witness >= base ? batch.cell(witness - base, rhs_front)
                              : relation_.cell(witness, rhs_front);
          // Pair-backed majority suggestions carry witness strength 2, so
          // they always clear RepairErrors' min(min_witness, 2) confidence
          // gate (ConfidentVariableRepair, suggestion_policy.h) — no
          // runtime check needed here.
          for (size_t bi = 0; bi < brows.size(); ++bi) {
            if (brow_rhs[bi] == *stream_m.key) continue;
            fold.Add(CellRef{brows[bi], rhs_front}, repair, row.pfd_index,
                     /*variable=*/true);
          }
        }

        // Flip detection against the dirty view (what the one-shot pass
        // resolves); see the header's majority-flip semantics. The dirty
        // majority's suggestions for the batch's own rows go into
        // `dirty_fold` — divergence is judged on resolved outcomes, not on
        // raw majority keys, so a majority that moved without changing any
        // decision stays conflict-free.
        std::string dirty_repair;
        if (dirty_m.violated) {
          const RowId witness = dirty_m.witness;
          dirty_repair = witness >= base
                             ? batch.cell(witness - base, rhs_front)
                             : dirty_cell(witness, rhs_front);
          for (size_t bi = 0; bi < brows.size(); ++bi) {
            if (brow_rhs[bi] == *dirty_m.key) continue;
            dirty_fold.Add(CellRef{brows[bi], rhs_front}, dirty_repair,
                           row.pfd_index, /*variable=*/true);
          }
        }
        for (size_t ai = 0; ai < arows.size(); ++ai) {
          const CellRef cell{arows[ai], rhs_front};
          const std::string_view current =
              relation_.cell(cell.row, cell.column);
          if (dirty_m.violated && *cache.dirty_of[ai] != *dirty_m.key &&
              !dirty_repair.empty()) {
            // The one-shot pass repairs this absorbed minority cell (empty
            // suggestions are never applied — SuggestionFold drops them —
            // so an empty majority value falls through to the branch
            // below); the stream keeps it unless it already holds that
            // value — or unless a disagreeing constant suggestion makes
            // the one-shot fold conflict and keep the cell dirty, like the
            // stream did.
            if (current != dirty_repair &&
                !(current == dirty_cell(cell.row, cell.column) &&
                  oneshot_constant_conflict(cell.row, cell.column,
                                            dirty_repair))) {
              ReportConflict(StreamConflict{
                  StreamConflict::Kind::kRetroactiveRepair, cell,
                  std::string(current), dirty_repair, row.pfd_index,
                  num_batches_});
            }
          } else if (variable_repaired_.count(cell) > 0 &&
                     current != dirty_cell(cell.row, cell.column)) {
            // An earlier majority repaired this cell, but the dirty view's
            // majority now sides with its original value — the one-shot
            // pass would have left it alone.
            ReportConflict(StreamConflict{
                StreamConflict::Kind::kRetroactiveRepair, cell,
                std::string(current),
                std::string(dirty_cell(cell.row, cell.column)),
                row.pfd_index, num_batches_});
          }
        }
      }
    }
  }

  bool copied = false;  // most batches of a clean feed need no repair —
                        // only pay the batch copy when one applies
  for (const auto& [cell, suggestion] : fold.Resolve()) {
    std::string before(batch.cell(cell.row, cell.column));
    if (before == suggestion.value) continue;
    if (!copied) {
      *cleaned = batch;
      copied = true;
    }
    cleaned->set_cell(cell.row, cell.column, suggestion.value);
    const CellRef stream_cell{base + cell.row, cell.column};
    dirty_overrides_.emplace(stream_cell, before);
    if (suggestion.variable) variable_repaired_.insert(stream_cell);
    AppliedRepair applied;
    applied.cell = stream_cell;
    applied.before = std::move(before);
    applied.after = suggestion.value;
    applied.pass = num_batches_;  // which batch applied it
    applied.pfd_index = suggestion.pfd_index;
    batch_repairs_.push_back(applied);
    repairs_.push_back(std::move(applied));
  }

  // Outcome comparison between the two folds: any batch cell the stream's
  // cleaned-majority decisions and the one-shot pass's dirty-majority
  // decisions resolve to different values is a majority-flip conflict.
  // (A cell absent from a fold keeps its dirty value on that side; equal
  // resolved values — including no-op suggestions — are conflict-free.)
  if (clean_variable_rules_) {
    const auto& applied = fold.Resolve();
    const auto& expected = dirty_fold.Resolve();
    auto it = applied.begin();
    auto jt = expected.begin();
    while (it != applied.end() || jt != expected.end()) {
      CellRef cell;
      if (jt == expected.end() ||
          (it != applied.end() && it->first < jt->first)) {
        cell = it->first;
      } else if (it == applied.end() || jt->first < it->first) {
        cell = jt->first;
      } else {
        cell = it->first;
      }
      const std::string_view dirty_value = batch.cell(cell.row, cell.column);
      const std::string_view stream_outcome =
          (it != applied.end() && it->first == cell)
              ? std::string_view(it->second.value)
              : dirty_value;
      const std::string_view oneshot_outcome =
          (jt != expected.end() && jt->first == cell)
              ? std::string_view(jt->second.value)
              : dirty_value;
      const size_t pfd = (it != applied.end() && it->first == cell)
                             ? it->second.pfd_index
                             : jt->second.pfd_index;
      if (it != applied.end() && it->first == cell) ++it;
      if (jt != expected.end() && jt->first == cell) ++jt;
      if (stream_outcome != oneshot_outcome) {
        ReportConflict(StreamConflict{
            StreamConflict::Kind::kMajorityFlip,
            CellRef{base + cell.row, cell.column},
            std::string(stream_outcome), std::string(oneshot_outcome), pfd,
            num_batches_});
      }
    }
  }

  // A repair that changed a cell some variable rule groups by moves the
  // row into a different equivalence group than it holds in the dirty
  // concatenation — every later majority it participates in can diverge
  // from the one-shot pass, so surface it now.
  if (copied && clean_variable_rules_) {
    const auto membership_key = [](const ResolvedRow& row,
                                   const Relation& rel, RowId r,
                                   std::string* key) {
      key->clear();
      for (size_t i = 0; i < row.lhs_cols.size(); ++i) {
        const std::string_view cell = rel.cell(r, row.lhs_cols[i]);
        const ConstrainedMatcher* matcher = row.lhs_matchers[i].get();
        if (matcher != nullptr && !matcher->Matches(cell)) return false;
        if (!AppendKeyFragment(matcher, cell, key)) return false;
      }
      return true;
    };
    std::string dirty_key;
    std::string clean_key;
    for (const AppliedRepair& applied : batch_repairs_) {
      const RowId b = applied.cell.row - base;
      for (const ResolvedRow& row : plan_.rows) {
        if (!row.row->IsVariableRow()) continue;
        if (std::find(row.lhs_cols.begin(), row.lhs_cols.end(),
                      static_cast<size_t>(applied.cell.column)) ==
            row.lhs_cols.end()) {
          continue;
        }
        const bool dirty_member = membership_key(row, batch, b, &dirty_key);
        const bool clean_member =
            membership_key(row, *cleaned, b, &clean_key);
        if (dirty_member != clean_member ||
            (dirty_member && dirty_key != clean_key)) {
          ReportConflict(StreamConflict{StreamConflict::Kind::kKeyDivergence,
                                        applied.cell, applied.after,
                                        applied.before, row.pfd_index,
                                        num_batches_});
        }
      }
    }
  }
  return copied;
}

Result<DetectionResult> DetectionStream::AppendBatch(const Relation& batch) {
  if (batch.num_columns() != relation_.num_columns()) {
    return Status::InvalidArgument(
        "batch has " + std::to_string(batch.num_columns()) +
        " columns; the stream schema has " +
        std::to_string(relation_.num_columns()));
  }
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    if (batch.schema().column(c).name != relation_.schema().column(c).name) {
      return Status::InvalidArgument(
          "batch column " + std::to_string(c) + " is named \"" +
          batch.schema().column(c).name + "\"; the stream schema expects \"" +
          relation_.schema().column(c).name + "\"");
    }
  }

  batch_repairs_.clear();
  batch_conflicts_.clear();
  Relation cleaned;
  const Relation* rows_in = &batch;
  if (clean_on_ingest_) {
    ANMAT_ASSIGN_OR_RETURN(bool repaired, CleanBatch(batch, &cleaned));
    if (repaired) rows_in = &cleaned;
  }

  const RowId first_row = static_cast<RowId>(relation_.num_rows());
  for (RowId r = 0; r < rows_in->num_rows(); ++r) {
    ANMAT_RETURN_NOT_OK(relation_.AppendRow(rows_in->Row(r)));
  }
  const RowId end_row = static_cast<RowId>(relation_.num_rows());
  ++num_batches_;

  // Extend the incremental structures before fanning out: the per-item
  // tasks read them concurrently. Each column's dispatcher classifies only
  // the batch's new distinct values, in one combined scan per prefix group
  // with the freshly extended index as prefilter.
  detect_internal::ColumnDicts dicts(dicts_.size(), nullptr);
  for (size_t c = 0; c < dicts_.size(); ++c) {
    if (dicts_[c] == nullptr) continue;
    const uint32_t first_id = static_cast<uint32_t>(dicts_[c]->num_values());
    dicts_[c]->Append(rows_in->column(c), first_row);
    dicts[c] = dicts_[c].get();
    if (indexes_[c] != nullptr) indexes_[c]->AppendRows(first_row, end_row);
    if (ColumnDispatcher* cd = plan_.dispatchers[c].get(); cd != nullptr) {
      cd->ClassifyValues(*dicts_[c], first_id,
                         detect_internal::IndexPrefilter(indexes_[c].get()));
    }
  }

  // Absorb the new rows, one task per item, each owning its item state;
  // candidates are the seed index's posting tails (rows >= first_row),
  // else the whole batch. Collect re-resolves the cumulative groups.
  ParallelFor(options_.execution, plan_.rows.size(), [&](size_t i) {
    const ResolvedRow& row = plan_.rows[i];
    std::vector<RowId> seeded;
    const std::vector<RowId>* list = nullptr;
    if (row.detects() && row.seed < row.lhs_cols.size()) {
      if (const PatternIndex* index = indexes_[row.lhs_cols[row.seed]].get();
          index != nullptr) {
        seeded = index->CandidateSuperset(
            row.row->lhs[row.seed].pattern().EmbeddedPattern(), first_row);
        list = &seeded;
      }
    }
    detect_internal::Absorb(relation_, row, dicts, list, first_row, end_row,
                            states_[i]);
  });
  return detect_internal::Collect(relation_, plan_, states_, options_);
}

Result<DetectionResult> DetectionStream::AppendRows(
    const std::vector<std::vector<std::string>>& rows) {
  Relation batch(relation_.schema());
  for (const std::vector<std::string>& row : rows) {
    ANMAT_RETURN_NOT_OK(batch.AppendRow(row));
  }
  return AppendBatch(batch);
}

size_t DetectionStream::distinct_values() const {
  size_t total = 0;
  for (const std::unique_ptr<ColumnDictionary>& dict : dicts_) {
    if (dict != nullptr) total += dict->num_values();
  }
  return total;
}

}  // namespace anmat
