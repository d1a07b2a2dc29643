#ifndef ANMAT_STORE_RULE_STORE_H_
#define ANMAT_STORE_RULE_STORE_H_

/// \file rule_store.h
/// Persistence of discovered PFDs — the RuleSet v2 store.
///
/// The original ANMAT demo stores profiling output and discovered PFDs in
/// MongoDB and lets the user confirm or reject each rule before detection;
/// this repository substitutes a JSON file per project (DESIGN.md §2) and
/// models the same lifecycle explicitly: every persisted rule is a
/// `RuleRecord` with a stable id, a lifecycle status
/// (`discovered`/`confirmed`/`rejected`) and provenance (source dataset,
/// coverage, violation ratio at discovery time).
///
/// File format: a versioned JSON envelope. Version 2 is the current format;
/// version 1 files (a bare rule array, written by earlier releases) load
/// transparently — each rule gets a sequential id and `confirmed` status
/// (v1 stores were defined to hold a project's confirmed rules) — and are
/// re-saved as v2 on the next `Save`. Unknown (future) versions are
/// rejected. PFDs round-trip exactly: patterns are serialized in their
/// textual syntax and re-parsed on load, so a stored rule set stays
/// human-editable.

#include <cstdint>
#include <string>
#include <vector>

#include "pfd/pfd.h"
#include "util/json.h"
#include "util/status.h"

namespace anmat {

/// \brief Lifecycle of a persisted rule (§4: the demo's confirm/reject UI).
enum class RuleStatus {
  kDiscovered,  ///< mined but not yet reviewed; not applied by detection
  kConfirmed,   ///< user-approved; applied by detection and repair
  kRejected,    ///< user-rejected; kept for audit, never applied
};

/// \brief Serialized name of a status ("discovered" / "confirmed" /
/// "rejected").
const char* RuleStatusName(RuleStatus status);

/// \brief Parses a status name; rejects unknown names.
Result<RuleStatus> ParseRuleStatus(std::string_view name);

/// \brief Where a rule came from and how well it fit at discovery time.
struct RuleProvenance {
  /// Source dataset (catalog dataset name or file path); empty when
  /// unknown (e.g. rules migrated from a v1 file or authored by hand).
  std::string source;
  double coverage = 0.0;         ///< covered / total rows at discovery
  double violation_ratio = 0.0;  ///< violating / covered rows at discovery
};

/// \brief One persisted rule: id + lifecycle + provenance + the PFD.
struct RuleRecord {
  uint64_t id = 0;
  RuleStatus status = RuleStatus::kDiscovered;
  RuleProvenance provenance;
  Pfd pfd;
  /// Free-text reviewer note (`anmat rules annotate`); empty when unset.
  /// Round-trips through the v2 envelope (omitted from the JSON when
  /// empty, so annotating never perturbs unannotated records on disk).
  std::string note;
};

/// \brief An ordered set of rule records with stable, never-reused ids.
class RuleSet {
 public:
  /// Adds a rule and returns its assigned id.
  uint64_t Add(Pfd pfd, RuleProvenance provenance = {},
               RuleStatus status = RuleStatus::kDiscovered);

  /// Record by id; nullptr when absent.
  const RuleRecord* Find(uint64_t id) const;

  /// First record whose PFD equals `pfd` exactly; nullptr when absent
  /// (dedup on re-discovery).
  const RuleRecord* FindEqualPfd(const Pfd& pfd) const;

  /// Sets the lifecycle status of rule `id`; NotFound when absent.
  Status SetStatus(uint64_t id, RuleStatus status);

  /// Removes rule `id` permanently; NotFound (naming the id) when absent.
  /// Deletion never frees the id for reuse: next_id() is untouched and is
  /// persisted in the envelope, so a store whose highest-id rules were
  /// deleted still hands out fresh ids after a reload.
  Status Delete(uint64_t id);

  /// Replaces the provenance of rule `id`; NotFound when absent.
  Status SetProvenance(uint64_t id, RuleProvenance provenance);

  /// Replaces the free-text note of rule `id` (empty clears it); NotFound
  /// (naming the id) when absent.
  Status SetNote(uint64_t id, std::string note);

  /// The PFDs of every rule with `status`, in record order.
  std::vector<Pfd> PfdsWithStatus(RuleStatus status) const;

  /// The PFDs detection and repair should apply (status == confirmed).
  std::vector<Pfd> ConfirmedPfds() const {
    return PfdsWithStatus(RuleStatus::kConfirmed);
  }

  const std::vector<RuleRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  uint64_t next_id() const { return next_id_; }

  /// Restores a record with an explicit id (loading); keeps next_id() above
  /// every restored id.
  void Restore(RuleRecord record);

  /// Raises next_id() to at least `floor` (loading: a persisted floor above
  /// every live id means trailing ids were deleted and must not be reused).
  void RaiseNextId(uint64_t floor);

 private:
  std::vector<RuleRecord> records_;
  uint64_t next_id_ = 1;
};

/// \brief Serializes one PFD to a JSON object.
JsonValue PfdToJson(const Pfd& pfd);

/// \brief Parses one PFD from a JSON object.
Result<Pfd> PfdFromJson(const JsonValue& json);

/// \brief Serializes a rule set in the current (v2) envelope.
std::string SerializeRuleSet(const RuleSet& rules);

/// \brief Convenience: wraps bare PFDs as confirmed records and serializes
/// them as v2.
std::string SerializeRuleSet(const std::vector<Pfd>& pfds);

/// \brief Parses a rule set envelope. v2 loads as-is; v1 migrates (ids
/// assigned sequentially, status confirmed, empty provenance); unknown
/// formats and future versions are rejected.
Result<RuleSet> ParseRuleSet(std::string_view text);

/// \brief Wraps a parse failure of an on-disk state file into the
/// diagnosable form shared by the rule store and the project catalog:
/// names the file, keeps the cause (whose JSON errors carry the byte
/// offset of the damage), and points at `anmat project fsck`.
Status CorruptStateFileError(const std::string& path, const Status& cause);

/// \brief File-backed store for a project's rule set.
class RuleStore {
 public:
  explicit RuleStore(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  /// Writes the rule set to `path()` as v2, durably (util/fs
  /// WriteFileAtomic: temp file → fsync → rename → parent-dir fsync).
  Status Save(const RuleSet& rules) const;

  /// Loads the rule set (v1 files migrate transparently); NotFound when the
  /// file does not exist. A file that exists but does not parse — truncated,
  /// scribbled, half a JSON document — comes back as a ParseError naming
  /// the file, the byte offset of the damage, and the `anmat project fsck`
  /// recovery path.
  Result<RuleSet> Load() const;

 private:
  std::string path_;
};

}  // namespace anmat

#endif  // ANMAT_STORE_RULE_STORE_H_
