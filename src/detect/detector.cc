#include "detect/detector.h"

#include <algorithm>
#include <memory>

#include "detect/detect_kernel.h"
#include "util/thread_pool.h"

namespace anmat {
namespace detect_internal {

DetectionResult DetectWithPlan(const Relation& relation, DetectPlan& plan,
                               const DetectorOptions& options) {
  // Every run starts its item states empty: the repair loop mutates cells
  // between the runs that share this plan.
  std::vector<ItemState> states = plan.NewStates();
  const auto active = [](const ResolvedRow& row) {
    return row.detects() && row.seed < row.lhs_cols.size();
  };
  // Seed columns some item cannot seed from dispatch match ids.
  std::vector<char> index_seeds(relation.num_columns(), 0);
  for (size_t i = 0; i < plan.rows.size(); ++i) {
    const ResolvedRow& row = plan.rows[i];
    if (active(row) && states[i].memos[row.seed].preset_ids == nullptr) {
      index_seeds[row.lhs_cols[row.seed]] = 1;
    }
  }

  // Per pattern column, in parallel: the relation's dictionary, the seed /
  // prefilter index, and the dispatch verdicts — re-classified from id 0,
  // since cells may have changed since the plan's last run. A multi-group
  // dispatcher pays one dictionary scan per group, which the index narrows;
  // a single-group one scans once anyway, so it builds no index just for
  // the prefilter.
  ColumnDicts dicts(relation.num_columns(), nullptr);
  std::vector<std::unique_ptr<PatternIndex>> indexes(relation.num_columns());
  const std::vector<size_t>& cols = plan.pattern_columns;
  ParallelFor(options.execution, cols.size(), [&](size_t k) {
    const size_t col = cols[k];
    dicts[col] = &relation.dictionary(col);
    ColumnDispatcher* cd = plan.dispatchers[col].get();
    if (options.use_pattern_index &&
        (index_seeds[col] || (cd != nullptr && cd->num_groups() > 1))) {
      indexes[col] =
          std::make_unique<PatternIndex>(relation, col, plan.automata.get());
    }
    if (cd != nullptr) {
      cd->ClassifyValues(*dicts[col], 0, IndexPrefilter(indexes[col].get()));
    }
  });

  // Absorb every row, one task per item. Candidates come from the seed
  // cell's dispatch match ids fanned out over their postings, else from its
  // pattern index, else from a full pass; `MatchesLhs` is the exact test.
  const RowId num_rows = static_cast<RowId>(relation.num_rows());
  ParallelFor(options.execution, plan.rows.size(), [&](size_t i) {
    const ResolvedRow& row = plan.rows[i];
    ItemState& state = states[i];
    std::vector<RowId> seeded;
    const std::vector<RowId>* list = nullptr;
    if (active(row)) {
      const size_t col = row.lhs_cols[row.seed];
      if (const std::vector<uint32_t>* ids = state.memos[row.seed].preset_ids;
          ids != nullptr) {
        for (const uint32_t id : *ids) {
          const std::vector<RowId>& rows = dicts[col]->rows(id);
          seeded.insert(seeded.end(), rows.begin(), rows.end());
        }
        std::sort(seeded.begin(), seeded.end());
        list = &seeded;
      } else if (indexes[col] != nullptr) {
        seeded = indexes[col]->CandidateSuperset(
            row.row->lhs[row.seed].pattern().EmbeddedPattern(), 0);
        list = &seeded;
      }
    }
    Absorb(relation, row, dicts, list, 0, num_rows, state);
  });
  return Collect(relation, plan, states, options);
}

}  // namespace detect_internal

Result<DetectionResult> DetectErrors(const Relation& relation,
                                     const std::vector<Pfd>& pfds,
                                     const DetectorOptions& options) {
  ANMAT_ASSIGN_OR_RETURN(
      detect_internal::DetectPlan plan,
      detect_internal::DetectPlan::Build(relation.schema(), pfds, options));
  return detect_internal::DetectWithPlan(relation, plan, options);
}

Result<DetectionResult> DetectErrors(const Relation& relation, const Pfd& pfd,
                                     const DetectorOptions& options) {
  return DetectErrors(relation, std::vector<Pfd>{pfd}, options);
}

}  // namespace anmat
