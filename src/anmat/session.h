#ifndef ANMAT_ANMAT_SESSION_H_
#define ANMAT_ANMAT_SESSION_H_

/// \file session.h
/// The ANMAT façade: the workflow of the demo's GUI (§4) as an in-memory
/// library API.
///
/// `Session` holds one dataset and the workflow state around it (profiles,
/// discovered PFDs, the user's confirmations, the latest detection and
/// repair) and delegates every stage to `anmat::Engine` (engine.h), which
/// runs profiling column-parallel, discovery candidate-parallel, detection
/// and repair (PFD, tableau row)-parallel, all byte-identical to serial.
///
/// Nothing is persisted. The durable workflow (a project directory holding
/// a catalog and a rule store with per-rule lifecycle and provenance) runs
/// through the project verbs of service/project_host.h, in process or in
/// the daemon; examples/quickstart.cpp walks through it.
///
/// \code
///   anmat::Session session("census");
///   session.SetNumThreads(0);                  // 0 = all hardware threads
///   ANMAT_RETURN_NOT_OK(session.LoadCsvFile("addresses.csv"));
///   session.SetMinCoverage(0.6);
///   session.SetAllowedViolationRatio(0.05);
///   ANMAT_RETURN_NOT_OK(session.Profile());
///   ANMAT_RETURN_NOT_OK(session.Discover());
///   session.ConfirmAll();                      // or Confirm(i) / Reject(i)
///   ANMAT_RETURN_NOT_OK(session.Detect());
///   std::cout << anmat::RenderSessionReport(session);  // report.h
///   ANMAT_RETURN_NOT_OK(session.Repair());     // apply confident repairs
/// \endcode
///
/// For append-heavy workloads, `OpenDetectionStream()` returns a
/// `DetectionStream` over the confirmed PFDs: each appended batch pays
/// pattern work only for newly seen distinct values and yields the
/// cumulative violation set (see detection_stream.h; its clean-on-ingest
/// mode applies confident constant-rule repairs and cumulative-majority
/// variable-rule repairs per batch, surfacing majority flips as
/// conflicts). The stream adopts the session's repair knobs:
/// `mutable_repair_options().apply_variable_repairs` decides whether its
/// cleaning includes variable rules.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "anmat/engine.h"
#include "csv/csv_reader.h"
#include "detect/detector.h"
#include "discovery/discovery.h"
#include "relation/relation.h"
#include "repair/repair.h"
#include "util/status.h"

namespace anmat {

/// \brief One end-to-end ANMAT workflow over a single dataset.
class Session {
 public:
  explicit Session(std::string project_name = "default");

  // -- Dataset specification (Figure 3, top) ------------------------------

  Status LoadCsvFile(const std::string& path,
                     const CsvOptions& options = CsvOptions());
  Status LoadCsvString(std::string_view text,
                       const CsvOptions& options = CsvOptions());
  Status LoadRelation(Relation relation);

  const std::string& project_name() const { return project_name_; }
  bool has_data() const { return loaded_; }
  const Relation& relation() const { return relation_; }

  // -- Parameters (§4 "Parameter Setting") --------------------------------

  void SetMinCoverage(double gamma) { options_.min_coverage = gamma; }
  void SetAllowedViolationRatio(double ratio) {
    options_.allowed_violation_ratio = ratio;
  }
  /// Worker threads for every pipeline stage (1 = serial, 0 = hardware).
  /// Replaces the engine (and with it the automaton cache); streams opened
  /// earlier keep the pool and cache they were opened with.
  void SetNumThreads(size_t num_threads) {
    engine_ = Engine(ExecutionOptions{num_threads, true, nullptr});
  }
  DiscoveryOptions& mutable_discovery_options() { return options_; }
  /// Detector settings, shared by Detect(), Repair()'s detection passes and
  /// OpenDetectionStream() — one knob block so the three stages agree.
  DetectorOptions& mutable_detector_options() { return detector_options_; }
  /// Repair-loop knobs (max_passes, min_witness, ...). The embedded
  /// `detector` sub-block is ignored: Repair() substitutes
  /// mutable_detector_options() so detection and repair always use the
  /// same detector configuration.
  RepairOptions& mutable_repair_options() { return repair_options_; }

  /// The execution engine behind the pipeline calls (to drive stages
  /// directly, or to read its automaton cache statistics).
  Engine& engine() { return engine_; }

  // -- Pipeline ------------------------------------------------------------

  /// Profiles the dataset (Figure 3). Implied by Discover() if skipped.
  Status Profile();

  /// Runs PFD discovery (Figure 2 / Figure 4). A new run replaces the
  /// discovered rules and empties the applied set.
  Status Discover();

  /// Marks discovered PFD `i` as confirmed for detection (the demo lets the
  /// user confirm each dependency; unconfirmed rules are not applied).
  /// Overrides an earlier Reject(i).
  Status Confirm(size_t index);

  /// Marks discovered PFD `i` as rejected: un-applies it if it was
  /// confirmed, and keeps it out of later ConfirmAll() calls.
  Status Reject(size_t index);

  /// Confirms every discovered rule except the ones rejected since this
  /// discovery run; only an explicit Confirm(i) overrides a rejection.
  void ConfirmAll();

  /// Empties the applied set.
  void ClearConfirmations();

  /// Runs detection with the confirmed PFDs (Figure 5).
  Status Detect();

  /// Applies confident suggested repairs to the loaded relation in place
  /// (iterative, engine-parallel; see Engine::Repair). The outcome is
  /// available via repair_result(), and detection() is refreshed to the
  /// repair loop's final verification pass over the repaired relation
  /// (moved there — repair_result().final_detection is left empty).
  Status Repair();

  /// Opens a streaming detector over the confirmed PFDs and the loaded
  /// relation's schema; append batches of new records to it as they arrive
  /// (see detection_stream.h). The stream is independent of the session's
  /// own relation (it accumulates its own) and co-owns the engine's pool
  /// and cache, so it may outlive the session. Its clean-on-ingest mode
  /// honors mutable_repair_options().apply_variable_repairs.
  Result<std::unique_ptr<DetectionStream>> OpenDetectionStream();

  // -- Results -------------------------------------------------------------

  const std::vector<ColumnProfile>& profiles() const { return profiles_; }
  const std::vector<DiscoveredPfd>& discovered() const { return discovered_; }
  const std::vector<Pfd>& confirmed() const { return confirmed_; }
  const DetectionResult& detection() const { return detection_; }
  const RepairResult& repair_result() const { return repair_result_; }

 private:
  bool IsConfirmed(const Pfd& pfd) const;

  std::string project_name_;
  Engine engine_;
  Relation relation_;
  bool loaded_ = false;

  DiscoveryOptions options_;
  DetectorOptions detector_options_;
  RepairOptions repair_options_;

  std::vector<ColumnProfile> profiles_;
  std::vector<DiscoveredPfd> discovered_;
  /// Indices the user rejected this discovery run, so ConfirmAll() keeps
  /// those rejections.
  std::set<size_t> rejected_indices_;
  bool discovered_ran_ = false;
  std::vector<Pfd> confirmed_;
  DetectionResult detection_;
  RepairResult repair_result_;
};

}  // namespace anmat

#endif  // ANMAT_ANMAT_SESSION_H_
