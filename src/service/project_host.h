#ifndef ANMAT_SERVICE_PROJECT_HOST_H_
#define ANMAT_SERVICE_PROJECT_HOST_H_

/// \file project_host.h
/// One open project with an engine: the single implementation of every
/// project verb.
///
/// The CLI's `--project` mode runs a host in its own process over the
/// project it opened (read-only for reporting verbs, writable for discover
/// and the rules edits) and dispatches one verb. The daemon (daemon.h)
/// keeps one host per project, and so its flock, for its lifetime; the
/// CLI's `--connect` mode sends it the same verb and params. Either way
/// the output is the `VerbResult` anmat/report.h builds for the verb, so
/// it is byte-identical by construction. A daemon-resident host serves
/// requests against:
///
///  * a warm `anmat::Engine` — its shared `ThreadPool` and engine-wide
///    `AutomatonCache` live as long as the host, so each distinct pattern
///    is compiled and frozen once per daemon lifetime instead of once per
///    CLI run (`bench_a8_daemon` measures the amortization; the cache
///    stats are exposed through the daemon's `stats` verb);
///  * the open `Project`. Verbs that mutate it (discover, rules
///    confirm/reject/delete/annotate) funnel through a writer gate
///    (`std::shared_mutex`, unique side) so their read-modify-write +
///    `Save` cycles serialize FIFO and no edit is ever lost, while
///    reporting verbs (detect, repair, profile, rules list, streams) take
///    the shared side and proceed concurrently with each other;
///  * a registry of live `DetectionStream`s addressable by stream id from
///    any connection — a hot feed opens a stream once and appends batches
///    over the socket, getting cumulative violations (and, with
///    clean-on-ingest, repairs and majority-flip conflicts) back per
///    batch. Appends to one stream serialize on a per-stream mutex
///    (`DetectionStream` is not reentrant); different streams proceed in
///    parallel.
///
/// The host knows nothing about sockets.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "anmat/engine.h"
#include "anmat/project.h"
#include "anmat/report.h"
#include "detect/detection_stream.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace anmat {

/// The discovery parameters in a verb's params (`coverage`, `violations`),
/// each falling back to `fallback`'s value when absent; a value that is not
/// a number is InvalidArgument naming the key. Shared by `discover` and the
/// daemon's `project.init`.
Result<Project::Parameters> ParamParameters(const JsonValue& params,
                                            Project::Parameters fallback);

/// \brief An open project and the verbs that run against it.
class ProjectHost {
 public:
  struct Options {
    /// Engine thread count (ExecutionOptions semantics: 1 serial,
    /// 0 = hardware).
    size_t engine_threads = 1;
  };

  /// Hosts `project`, already opened (and locked) by the caller, with a
  /// fresh engine.
  ProjectHost(Project project, const Options& options);

  ~ProjectHost() = default;
  ProjectHost(const ProjectHost&) = delete;
  ProjectHost& operator=(const ProjectHost&) = delete;

  const std::string& dir() const { return dir_; }

  /// Executes one project-scoped verb. Thread-safe: writers serialize
  /// through the writer gate, readers run concurrently (see file comment).
  /// Verbs: info, fsck, dataset, discover, profile, detect, repair,
  /// rules.list, rules.confirm, rules.reject, rules.delete,
  /// rules.annotate, stream.open, stream.append, stream.close.
  Result<VerbResult> Dispatch(const std::string& verb,
                              const JsonValue& params);

  /// Automaton cache statistics of the warm engine (the `stats` verb; the
  /// hit count is the compile-once amortization made visible).
  JsonValue CacheStatsJson();

  /// Live streams (diagnostics).
  size_t num_streams();

 private:
  // Verb implementations. Writers take `gate_` uniquely, readers shared.
  Result<VerbResult> Info();
  Result<VerbResult> Fsck();
  Result<VerbResult> Dataset(const JsonValue& params);
  Result<VerbResult> Discover(const JsonValue& params);
  Result<VerbResult> Profile(const JsonValue& params);
  Result<VerbResult> Detect(const JsonValue& params);
  Result<VerbResult> Repair(const JsonValue& params);
  Result<VerbResult> RulesList();
  Result<VerbResult> RulesSetStatus(const JsonValue& params,
                                    RuleStatus status);
  Result<VerbResult> RulesDelete(const JsonValue& params);
  Result<VerbResult> RulesAnnotate(const JsonValue& params);
  Result<VerbResult> StreamOpen(const JsonValue& params);
  Result<VerbResult> StreamAppend(const JsonValue& params);
  Result<VerbResult> StreamClose(const JsonValue& params);

  /// The relation a verb operates on (`data` = catalog name, or the path
  /// that attached it; see `Project::FindDataset`). Requires `gate_` held,
  /// either side (shared suffices: loading never mutates catalog state).
  Result<Relation> LoadData(const JsonValue& params)
      ANMAT_REQUIRES_SHARED(gate_);

  /// The rules detect, repair and streams apply; an error when none is
  /// confirmed. Requires `gate_` held, either side.
  Result<std::vector<Pfd>> ConfirmedRules() ANMAT_REQUIRES_SHARED(gate_);

  /// One live stream. `mu` serializes appends (DetectionStream is not
  /// reentrant); the registry mutex is never held across an append.
  struct StreamEntry {
    Mutex mu;
    std::unique_ptr<DetectionStream> stream ANMAT_GUARDED_BY(mu);
    /// What the stream was opened with; immutable once the entry is
    /// published in the registry (set under `mu` before that).
    std::vector<Pfd> pfds;
    std::string clean;  ///< "off" / "constant" / "all"
    /// Cumulative violation count after the latest append (what the CLI
    /// tracks batch-by-batch; reported again in the close summary).
    size_t last_violations ANMAT_GUARDED_BY(mu) = 0;
  };

  /// The stream named by the `stream` param; `remove` takes it out of the
  /// registry (close).
  Result<std::shared_ptr<StreamEntry>> FindStream(const JsonValue& params,
                                                  bool remove);

  /// The writer gate: in-process scheduling finer than the project flock.
  /// Mutating verbs hold it uniquely around their read-modify-write +
  /// `Save` cycle; reporting verbs hold it shared.
  SharedMutex gate_;
  Project project_ ANMAT_GUARDED_BY(gate_);
  /// The project directory, cached so `dir()` needs no lock (immutable for
  /// the host's lifetime).
  const std::string dir_;
  Engine engine_;
  Mutex streams_mu_;
  uint64_t next_stream_id_ ANMAT_GUARDED_BY(streams_mu_) = 1;
  std::map<uint64_t, std::shared_ptr<StreamEntry>> streams_
      ANMAT_GUARDED_BY(streams_mu_);
};

}  // namespace anmat

#endif  // ANMAT_SERVICE_PROJECT_HOST_H_
