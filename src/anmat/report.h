#ifndef ANMAT_ANMAT_REPORT_H_
#define ANMAT_ANMAT_REPORT_H_

/// \file report.h
/// Text renderers for the demo's three views (Figures 3-5) and for the
/// Table-3 style summary. These are the CLI substitutes for the paper's
/// GUI (DESIGN.md §2). The verb reports at the end build each CLI verb's
/// whole output, JSON and text, in one place.

#include <optional>
#include <string>
#include <vector>

#include "anmat/project.h"
#include "anmat/session.h"
#include "datagen/error_injector.h"
#include "detect/detection_stream.h"
#include "detect/violation.h"
#include "discovery/discovery.h"
#include "relation/relation.h"
#include "repair/repair.h"
#include "store/rule_store.h"
#include "util/json.h"

namespace anmat {

/// \brief Figure 3: per-column profiling view with the dominant
/// "pattern::position, frequency" entries.
std::string RenderProfilingView(const std::vector<ColumnProfile>& profiles);

/// \brief Figure 4: the discovered PFDs with tableaux, coverage, and
/// provenance entries.
std::string RenderDiscoveredPfdsView(
    const std::vector<DiscoveredPfd>& discovered);

/// \brief Figure 5: detected violations with the violated rule and the full
/// violating record(s).
std::string RenderViolationsView(const Relation& relation,
                                 const std::vector<Pfd>& pfds,
                                 const DetectionResult& detection,
                                 size_t max_rows = 50);

/// \brief Table 3 style: one line per (dependency, tableau row) with an
/// example detected error ("8505467600 | CA").
std::string RenderTable3Style(const Relation& relation,
                              const std::vector<Pfd>& pfds,
                              const DetectionResult& detection);

/// \brief Renders a precision/recall scorecard (A3/A4 benches).
std::string RenderScorecard(const std::string& label,
                            const PrecisionRecall& pr);

/// \brief A repair run: summary line plus one line per applied repair.
std::string RenderRepairView(const RepairResult& result);

/// \brief The project rule store: one line per rule with id, lifecycle
/// status, provenance and the rule text (`anmat rules list`).
std::string RenderRuleSetView(const RuleSet& rules);

/// \brief Convenience: all three views for a completed session.
std::string RenderSessionReport(const Session& session);

// -- Machine-readable variants (the CLI's --format json) -------------------

/// \brief The profiling view as JSON: one object per column with the
/// statistics and the dominant "pattern/position/frequency" entries.
JsonValue ProfilesToJson(const std::vector<ColumnProfile>& profiles);

/// \brief The discovered PFDs as JSON: rule text, coverage statistics and
/// provenance per PFD.
JsonValue DiscoveredPfdsToJson(const std::vector<DiscoveredPfd>& discovered);

/// \brief A detection result as JSON: run statistics plus one object per
/// violation (kind, rule, cells, suspect, suggested repair, explanation).
JsonValue DetectionToJson(const Relation& relation,
                          const std::vector<Pfd>& pfds,
                          const DetectionResult& detection);

/// \brief One applied repair as JSON (row, column, before, after, pass,
/// pfd_index, and the rule text when `pfds` covers the index).
JsonValue AppliedRepairToJson(const AppliedRepair& repair,
                              const std::vector<Pfd>& pfds = {});

/// \brief A repair result as JSON: passes, remaining violations, the
/// applied repairs and the conflicted cells (the CLI's
/// `repair --format json`).
JsonValue RepairToJson(const RepairResult& result,
                       const std::vector<Pfd>& pfds = {});

/// \brief The project rule store as JSON: one object per rule with id,
/// status, provenance and rule text (`anmat rules list --format json`).
JsonValue RuleSetToJson(const RuleSet& rules);

/// \brief The stable wire name of a stream conflict kind ("majority-flip",
/// "retroactive-repair", "key-divergence").
const char* StreamConflictKindName(const StreamConflict& conflict);

/// \brief One clean-on-ingest stream conflict as JSON (kind, row, column,
/// current, expected, pfd_index, batch) — the entries of the `conflicts`
/// array in `anmat stream --format json`, shared with the daemon so both
/// front-ends emit identical bytes.
JsonValue StreamConflictToJson(const StreamConflict& conflict);

// -- Verb reports ------------------------------------------------------------
// Each CLI verb's whole output is built once, here: the CLI prints these
// for its one-shot forms, and `ProjectHost`, which runs every project verb
// in-process or in the daemon, returns them.

/// \brief A verb's output: `result` under --format json, `text` otherwise.
struct VerbResult {
  JsonValue result;
  std::string text;
};

VerbResult ProfileReport(const std::vector<ColumnProfile>& profiles);

/// \brief Without `max` the text lists 50 violations and the JSON all; with
/// it both list the first `max`, the JSON stats keeping the full counts.
VerbResult DetectReport(const Relation& relation,
                        const std::vector<Pfd>& pfds,
                        DetectionResult detection,
                        std::optional<size_t> max);

/// \brief `out_path`, when non-empty, is where the cleaned table went.
VerbResult RepairReport(const RepairResult& result,
                        const std::vector<Pfd>& pfds,
                        const std::string& out_path);

/// \brief `discover --project`: the rule store as JSON; the discovered
/// view and where it was recorded as text.
VerbResult DiscoverReport(const std::vector<DiscoveredPfd>& discovered,
                          const RuleSet& rules,
                          const std::string& rules_path);

VerbResult RuleSetReport(const RuleSet& rules);

/// \brief `rules confirm|reject`: `marked` rules set to `status`,
/// `confirmed` confirmed afterwards.
VerbResult RulesMarkedReport(size_t marked, RuleStatus status,
                             size_t confirmed);
VerbResult RulesDeletedReport(size_t deleted, size_t remaining);
VerbResult RuleAnnotatedReport(uint64_t id, const std::string& note);

/// \brief One stream batch of `rows` rows, just appended to `stream`,
/// which now holds `violations` violations in all.
VerbResult StreamBatchReport(const DetectionStream& stream, size_t rows,
                             size_t violations);

/// \brief A stream run's summary after its last batch: `clean` is the mode
/// (off, constant or all), `violations` the cumulative count, `pfds` the
/// stream's rules, `out_path` (when non-empty) where the accumulated table
/// went. The JSON's "batches" is a count; `anmat stream --format json`
/// puts the batch reports' JSON there instead.
VerbResult StreamCloseReport(const DetectionStream& stream,
                             const std::string& clean, size_t violations,
                             const std::vector<Pfd>& pfds,
                             const std::string& out_path);

/// \brief `project fsck`: what journal recovery did, and the project as it
/// then opened, or (`project` null) why it did not.
VerbResult FsckReport(const JournalRecoveryReport& recovery,
                      const Project* project, const Status& error);

}  // namespace anmat

#endif  // ANMAT_ANMAT_REPORT_H_
