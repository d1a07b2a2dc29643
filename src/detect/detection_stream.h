#ifndef ANMAT_DETECT_DETECTION_STREAM_H_
#define ANMAT_DETECT_DETECTION_STREAM_H_

/// \file detection_stream.h
/// Streaming batch detection: a stateful detector over an append-only
/// relation with a fixed PFD set (opened via `Engine::OpenStream`).
///
/// One-shot `DetectErrors` pays the full pattern cost — dictionary builds,
/// index builds, one match/extraction per distinct value — on every run. A
/// `DetectionStream` pays it once per *newly seen distinct value*: both
/// run the same detection kernel (detect_kernel.h), but each `AppendBatch`
/// only extends the per-column dictionaries, pattern-index postings and
/// dispatch verdicts, absorbs the new rows (seeded from the index posting
/// tails) and keeps every item's memos and groups alive across batches, so
/// append-heavy workloads (a feed of records checked as they arrive, the
/// demo GUI re-running after edits) do O(new distinct values) automaton
/// work per batch instead of O(rows).
///
/// The cumulative result returned by `AppendBatch` is byte-identical to
/// `DetectErrors` over the concatenated relation (asserted by the
/// randomized differential tests in engine_test.cc).
///
/// Repair mode (clean-on-ingest): with `set_clean_on_ingest(true)`, each
/// incoming batch is first cleaned with the confident repairs its rows
/// trigger, then absorbed, so the stream accumulates the *repaired*
/// relation and the cumulative violations reflect it. Two rule kinds
/// contribute (the same suggestion fold and confidence policy as
/// `RepairErrors` — detect/suggestion_policy.h — so streaming and batch
/// repair cannot drift):
///
///  * Constant rules (§3's "if the LHS is correct, the RHS could be
///    changed to tp[B]" — always confident): computed straight from the
///    batch's own rows against the stream's resolved rows and cross-batch
///    memos.
///  * Variable rules (on by default; `set_clean_variable_rules(false)`
///    restores constant-only cleaning): each batch row joins its
///    equivalence group, and the suggestion is the *cumulative* group
///    majority — the absorbed rows the stream already holds in
///    `ItemState::groups` plus the batch's own members — exactly the
///    majority a one-shot constant+variable repair pass over the
///    concatenation would use, as long as that majority never flips.
///
/// Neither kind runs a batch-local `DetectErrors`: cleaning reuses the
/// incremental dictionaries and the per-distinct-value match/extraction
/// memos (new values are memoized batch-locally). Constant cleaning adds
/// essentially nothing over plain streaming (A7d in bench_a7, ≈1.0×);
/// variable cleaning folds the RHS split of every group the batch touches
/// incrementally, for a bounded surcharge (A7e, ≈1.4× the constant-only
/// cleaning cost on the 20-batch zip bench). Applied repairs are reported
/// per batch (`batch_repairs()`) and cumulatively (`repairs()`), with row
/// ids in stream coordinates.
///
/// Majority-flip semantics: already-absorbed rows are NEVER retroactively
/// edited — the stream's relation is append-only except for the batch
/// being cleaned. When a later batch moves a group's cumulative majority
/// such that the one-shot pass would now repair (or would not have
/// repaired) an absorbed row, the divergence is surfaced as a
/// `StreamConflict` in `batch_conflicts()` / `conflicts()` instead of an
/// edit. Consequently the cleaned stream relation is byte-identical to a
/// single-pass constant+variable `RepairErrors` over the concatenated
/// batches whenever `conflicts()` is empty, and every divergence is
/// covered by a reported conflict (randomized chunk-split differential
/// tests in engine_test.cc).

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "detect/detect_kernel.h"
#include "detect/pattern_index.h"
#include "pfd/pfd.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

/// \brief One surfaced clean-on-ingest divergence from the one-shot repair
/// of the concatenation (see the majority-flip semantics in the file
/// comment). The stream keeps `current` in the cell; a single-pass
/// constant+variable repair over the concatenated batches would hold
/// `expected` there instead.
struct StreamConflict {
  enum class Kind {
    /// A group's cumulative majority (or whether it has a majority at all)
    /// differs between the stream's cleaned view and the dirty
    /// concatenation, so the batch's repairs follow a different majority
    /// than the one-shot pass would.
    kMajorityFlip,
    /// The one-shot pass would repair (or leave dirty) an already-absorbed
    /// cell; the stream never retroactively edits.
    kRetroactiveRepair,
    /// An applied repair changed a cell some variable rule groups by, so
    /// the row's equivalence group differs from its dirty-concatenation
    /// group from this batch onward.
    kKeyDivergence,
  };

  Kind kind = Kind::kMajorityFlip;
  CellRef cell;          ///< stream coordinates
  std::string current;   ///< the value the stream keeps
  std::string expected;  ///< the one-shot pass's value for the cell
  size_t pfd_index = 0;  ///< rule whose group surfaced the divergence
  size_t batch = 0;      ///< batch whose ingest surfaced it
};

/// \brief Incremental detection over a growing relation with fixed PFDs.
///
/// Not thread-safe for concurrent `AppendBatch` calls; one batch is
/// processed at a time (internally fanning out per tableau row when the
/// options allow).
class DetectionStream {
 public:
  /// Opens a stream for `pfds` over relations with `schema`. Fails if some
  /// PFD does not validate against the schema, or if
  /// `options.max_violations` is set (the cap's "first N found" semantics
  /// contradict cumulative results).
  static Result<std::unique_ptr<DetectionStream>> Open(
      const Schema& schema, std::vector<Pfd> pfds,
      const DetectorOptions& options = {});

  /// Appends `batch` (same column names as the stream schema) and returns
  /// the cumulative detection result over every row appended so far —
  /// byte-identical to one-shot `DetectErrors` on the concatenated
  /// relation. `pfd_index` in the violations refers to the PFD list the
  /// stream was opened with.
  Result<DetectionResult> AppendBatch(const Relation& batch);

  /// Convenience: appends raw rows (each the width of the schema).
  Result<DetectionResult> AppendRows(
      const std::vector<std::vector<std::string>>& rows);

  /// Enables/disables clean-on-ingest for subsequent batches (see the file
  /// comment). Safe to toggle between appends; already-absorbed rows are
  /// never touched (the incremental state is append-only).
  void set_clean_on_ingest(bool on) { clean_on_ingest_ = on; }
  bool clean_on_ingest() const { return clean_on_ingest_; }

  /// Enables/disables variable-rule (cumulative-majority) repairs inside
  /// clean-on-ingest. On by default; turning it off restores the
  /// constant-only cleaning of earlier releases (what A7d benchmarks).
  /// Toggling between appends is safe — like all cleaning it only ever
  /// affects batches appended afterwards.
  void set_clean_variable_rules(bool on) { clean_variable_rules_ = on; }
  bool clean_variable_rules() const { return clean_variable_rules_; }

  /// Repairs applied to the most recently appended batch (empty unless
  /// clean-on-ingest was on for it). Row ids are stream coordinates.
  const std::vector<AppliedRepair>& batch_repairs() const {
    return batch_repairs_;
  }

  /// All repairs applied since the stream was opened.
  const std::vector<AppliedRepair>& repairs() const { return repairs_; }

  /// Majority-flip conflicts surfaced by the most recently appended batch
  /// (see the file comment); each absorbed cell is reported at most once
  /// over the stream's lifetime.
  const std::vector<StreamConflict>& batch_conflicts() const {
    return batch_conflicts_;
  }

  /// All conflicts surfaced since the stream was opened. While this is
  /// empty, the stream's relation is byte-identical to a single-pass
  /// constant+variable `RepairErrors` over the concatenated batches.
  const std::vector<StreamConflict>& conflicts() const { return conflicts_; }

  /// The concatenation of all appended batches.
  const Relation& relation() const { return relation_; }

  const std::vector<Pfd>& pfds() const { return pfds_; }
  size_t num_batches() const { return num_batches_; }

  /// Total distinct values across the stream's column dictionaries — the
  /// quantity the per-batch pattern work is proportional to.
  size_t distinct_values() const;

 private:
  DetectionStream(Schema schema, std::vector<Pfd> pfds,
                  DetectorOptions options);

  /// Builds the plan and the incremental structures; called once.
  Status Init();

  /// Clean-on-ingest, per variable item: incremental per-group RHS splits
  /// of the *absorbed* rows, folded lazily as groups grow (absorbed rows
  /// are append-only and never retroactively edited, so both the cleaned
  /// and dirty RHS views of a row are immutable once absorbed).
  struct GroupRhsCache {
    /// RHS value → rows, over the stream's (cleaned) relation.
    std::map<std::string, std::vector<RowId>> by_stream;
    /// Same split over the dirty view (applying `dirty_overrides_`).
    std::map<std::string, std::vector<RowId>> by_dirty;
    /// Per absorbed group member (group order): its dirty RHS value, as
    /// a pointer into a `by_dirty` key (flip detection walks this
    /// instead of recomputing each row's dirty RHS).
    std::vector<const std::string*> dirty_of;
    /// How many of the group's absorbed rows are folded in.
    size_t covered = 0;
  };

  /// Computes the confident constant- and (when enabled) variable-rule
  /// repairs for `batch` and records them (clean-on-ingest), surfacing
  /// majority-flip conflicts. Runs directly over the stream's resolved
  /// rows, cumulative groups and per-distinct-value memos — no batch-local
  /// detection, no dictionary/index rebuilds. When any repairs apply,
  /// `*cleaned` is set to the repaired copy and true is returned; a
  /// repair-free batch returns false without paying the copy.
  Result<bool> CleanBatch(const Relation& batch, Relation* cleaned);

  /// Records `conflict` (deduplicated per cell over the stream lifetime).
  void ReportConflict(StreamConflict conflict);

  Relation relation_;
  std::vector<Pfd> pfds_;
  DetectorOptions options_;
  size_t num_batches_ = 0;
  /// The kernel plan over `pfds_` and each item's cumulative state.
  detect_internal::DetectPlan plan_;
  std::vector<detect_internal::ItemState> states_;
  /// Per item: group key → clean-on-ingest RHS split cache.
  std::vector<std::map<std::string, GroupRhsCache>> rhs_caches_;
  /// Stream-owned incremental dictionaries, one slot per column (null for
  /// columns no pattern cell touches). `Relation::dictionary` would rebuild
  /// from scratch after every append; these only absorb the new rows.
  std::vector<std::unique_ptr<ColumnDictionary>> dicts_;
  /// Stream-owned incremental pattern indexes over the seed columns (only
  /// when `options_.use_pattern_index`): per batch they absorb the new rows'
  /// postings and seed each constant row's new candidates sub-linearly.
  std::vector<std::unique_ptr<PatternIndex>> indexes_;
  bool clean_on_ingest_ = false;
  bool clean_variable_rules_ = true;
  std::vector<AppliedRepair> batch_repairs_;
  std::vector<AppliedRepair> repairs_;
  std::vector<StreamConflict> batch_conflicts_;
  std::vector<StreamConflict> conflicts_;
  /// Cells already reported in `conflicts_` (each at most once).
  std::set<CellRef> conflicted_cells_;
  /// Pre-repair ("dirty") values of every cell clean-on-ingest edited —
  /// what the cell holds in the dirty concatenation. Majority-flip
  /// detection compares the dirty view (what the one-shot pass sees)
  /// against the stream's cleaned view through these overrides.
  std::map<CellRef, std::string> dirty_overrides_;
  /// Cells whose applied repair came from a variable (majority) rule; if
  /// such a group's majority later flips back to the cell's dirty value,
  /// the one-shot pass would not have repaired it — a conflict.
  std::set<CellRef> variable_repaired_;
};

}  // namespace anmat

#endif  // ANMAT_DETECT_DETECTION_STREAM_H_
