// anmat — command-line interface to the ANMAT pipeline.
//
// The original demo exposes a GUI (Figures 3-5) and a Jupyter front-end;
// this CLI is the scriptable substitute. It has two modes.
//
// Stateful project mode (the demo's §4 workflow, persisted in a project
// directory holding a catalog and a RuleSet v2 store):
//
//   anmat init <dir> [--name NAME] [--coverage G] [--violations V]
//       Create a project directory (catalog + empty rule store).
//
//   anmat discover --project <dir> [--data file.csv] [--name DATASET]
//                  [--coverage G] [--violations V] [--threads N]
//                  [--format json]
//       Attach/load a dataset, run discovery, and record every discovered
//       rule in the project store with lifecycle status `discovered` and
//       provenance (source dataset, coverage, violation ratio).
//
//   anmat rules list    --project <dir> [--format json]
//   anmat rules confirm <id...|all> --project <dir>
//   anmat rules reject  <id...|all> --project <dir>
//       Review the stored rules; only confirmed rules are applied.
//
//   anmat rules delete  <id...> --project <dir>
//       Remove stored rules permanently (ids are never reused; deleting an
//       unknown id exits 1 naming it).
//
//   anmat detect --project <dir> [--data DATASET] [--max N] [--threads N]
//                [--format json]
//   anmat repair --project <dir> [--data DATASET] [--out cleaned.csv]
//                [--threads N] [--format json]
//       Detect / repair against the project's confirmed rules.
//
//   anmat stream --project <dir> [--data DATASET] [--batch N]
//                [--clean off|constant|all] [--out cleaned.csv]
//                [--threads N] [--format json]
//       Streaming demo: feed the dataset through a DetectionStream in
//       batches of N rows (cumulative violations after each batch, paying
//       pattern work only for newly seen distinct values). --clean turns
//       on clean-on-ingest: `constant` applies confident constant-rule
//       repairs per batch, `all` additionally applies cumulative-majority
//       variable-rule repairs and surfaces majority flips as conflicts
//       (see detect/detection_stream.h). --out writes the accumulated
//       (cleaned) relation.
//
//   anmat profile --project <dir> [--data DATASET] [--threads N]
//                 [--format json]
//
//   anmat project fsck --project <dir> [--format json]
//       Crash recovery + health check: under the project lock, replay a
//       committed-but-unapplied save from the journal (or discard a torn
//       one), then verify the project loads. Exits 0 when the project is
//       healthy afterwards, 2 when state files remain corrupt (the error
//       names the file and byte offset).
//
//   anmat rules annotate <id> --note "<text>" --project <dir>
//       Attach a free-text reviewer note to a rule (empty --note clears
//       it); shown by rules list and persisted in the store.
//
// Every project verb runs in `ProjectHost` (src/service/project_host.h),
// the single implementation of the verbs above. By default the CLI opens
// the project itself — read-only for profile, rules list, detect, repair
// and stream, so the lock is released once crash recovery ran; writable
// for discover and the rules edits — and runs the host in-process. With
// --connect the daemon's host for the project runs the same verb, so the
// output is the same bytes either way:
//
//   anmat serve --socket <path> [--threads N] [--workers N]
//               [--lock-wait-ms N]
//       Run anmatd, a resident service holding each project open with a
//       warm engine, until SIGINT/SIGTERM or the shutdown verb.
//
//   anmat <verb> ... --connect <socket>
//       Route a project verb (profile, discover, detect, repair, stream,
//       rules *, project fsck, init) over the daemon.
//
//   anmat daemon ping|stats|shutdown --connect <socket> [--format json]
//       Daemon-scope verbs: liveness, warm-cache statistics, graceful
//       shutdown.
//
// Project verbs also take --lock-wait-ms N: how long to wait for a
// contended project lock before failing (default 10000).
//
// One-shot mode (unchanged from earlier releases; the rule file is the
// state):
//
//   anmat profile  <data.csv> [--threads N] [--format json]
//   anmat discover <data.csv> [--coverage G] [--violations V]
//                  [--rules out.json] [--table NAME] [--minimize BOOL]
//                  [--threads N] [--format json]
//   anmat detect   <data.csv> --rules rules.json [--max N] [--threads N]
//                  [--format json]
//   anmat repair   <data.csv> --rules rules.json [--out cleaned.csv]
//                  [--threads N] [--format json]
//   anmat stream   <data.csv> --rules rules.json [--batch N]
//                  [--clean off|constant|all] [--out cleaned.csv]
//                  [--threads N] [--format json]
//
// --threads N runs the stage on N worker threads (0 = all hardware
// threads); the output is byte-identical to a serial run. --format json
// emits the machine-readable view instead of the ASCII one. Unknown or
// repeated flags are rejected (exit code 1) naming the offending flag.
//
// Exit codes: 0 success, 1 usage error, 2 pipeline error.

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "anmat/engine.h"
#include "anmat/project.h"
#include "anmat/report.h"
#include "csv/csv_writer.h"
#include "pfd/implication.h"
#include "repair/repair.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/project_host.h"
#include "store/project_journal.h"
#include "store/rule_store.h"
#include "util/fs.h"
#include "util/json.h"

namespace {

int Usage() {
  std::cerr <<
      "usage:\n"
      "  anmat init <dir> [--name NAME] [--coverage G] [--violations V]\n"
      "  anmat profile  <data.csv> | --project <dir> [--data DATASET]\n"
      "                 [--threads N] [--format json]\n"
      "  anmat discover <data.csv> [--coverage G] [--violations V]\n"
      "                 [--rules out.json] [--table NAME] [--minimize BOOL]\n"
      "                 [--threads N] [--format json]\n"
      "  anmat discover --project <dir> [--data file.csv] [--name DATASET]\n"
      "                 [--coverage G] [--violations V] [--threads N]\n"
      "                 [--format json]\n"
      "  anmat project fsck  --project <dir> [--format json]\n"
      "  anmat rules list    --project <dir> [--format json]\n"
      "  anmat rules confirm <id...|all> --project <dir>\n"
      "  anmat rules reject  <id...|all> --project <dir>\n"
      "  anmat rules delete  <id...> --project <dir>\n"
      "  anmat detect   <data.csv> --rules rules.json | --project <dir>\n"
      "                 [--data DATASET] [--max N] [--threads N]\n"
      "                 [--format json]\n"
      "  anmat repair   <data.csv> --rules rules.json | --project <dir>\n"
      "                 [--data DATASET] [--out cleaned.csv] [--threads N]\n"
      "                 [--format json]\n"
      "  anmat stream   <data.csv> --rules rules.json | --project <dir>\n"
      "                 [--data DATASET] [--batch N]\n"
      "                 [--clean off|constant|all] [--out cleaned.csv]\n"
      "                 [--threads N] [--format json]\n"
      "  anmat rules annotate <id> --note \"<text>\" --project <dir>\n"
      "  anmat serve    --socket <path> [--threads N] [--workers N]\n"
      "                 [--lock-wait-ms N]\n"
      "  anmat daemon   ping|stats|shutdown --connect <socket>\n"
      "                 [--format json]\n"
      "project verbs also take --lock-wait-ms N and --connect <socket>\n"
      "(route through a running daemon; output is byte-identical)\n";
  return 1;
}

int Fail(const anmat::Status& status) {
  std::cerr << "anmat: " << status.ToString() << "\n";
  return 2;
}

int FlagError(const std::string& message) {
  std::cerr << "anmat: " << message << "\n";
  return 1;
}

struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  const std::string& Get(const std::string& key) const {
    return flags.at(key);
  }
};

/// Parses `--key value` flags and positionals. Every flag takes a value;
/// unknown flags, repeated flags and flags missing their value are errors
/// naming the offending flag. Returns an empty string on success.
std::string ParseArgs(int argc, char** argv, int first,
                      const std::set<std::string>& allowed,
                      ParsedArgs* out) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (allowed.count(key) == 0) return "unknown flag: " + arg;
      if (out->flags.count(key) > 0) return "duplicate flag: " + arg;
      if (i + 1 >= argc) return "missing value for flag: " + arg;
      out->flags[key] = argv[++i];
    } else {
      out->positional.push_back(arg);
    }
  }
  return "";
}

/// Validates the syntax of every numeric flag present; returns an error
/// message naming the first malformed one ("" when all parse).
std::string ValidateNumericFlags(const ParsedArgs& args) {
  for (const char* key : {"coverage", "violations"}) {
    if (!args.Has(key)) continue;
    const std::string& value = args.Get(key);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return "invalid value for flag: --" + std::string(key) + ": \"" +
             value + "\" is not a number";
    }
  }
  for (const char* key : {"threads", "max", "batch", "lock-wait-ms",
                          "workers"}) {
    if (!args.Has(key)) continue;
    const std::string& value = args.Get(key);
    // Digits only: strtoul would skip leading whitespace and wrap a '-'
    // (even " -3") to a huge value instead of failing.
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      return "invalid value for flag: --" + std::string(key) + ": \"" +
             value + "\" is not a non-negative integer";
    }
    errno = 0;
    std::strtoul(value.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      return "invalid value for flag: --" + std::string(key) + ": \"" +
             value + "\" is out of range";
    }
  }
  return "";
}

/// Rejects flags that parse but apply only to the other mode of the
/// command (one-shot vs --project); silently ignoring them would defeat
/// the strict flag contract.
std::string RejectFlags(const ParsedArgs& args,
                        const std::vector<const char*>& keys,
                        const std::string& why) {
  for (const char* key : keys) {
    if (args.Has(key)) return "--" + std::string(key) + " " + why;
  }
  return "";
}

double FlagDouble(const ParsedArgs& args, const std::string& key,
                  double fallback) {
  return args.Has(key) ? std::strtod(args.Get(key).c_str(), nullptr)
                       : fallback;
}

/// --threads N (default 1 = serial; 0 = all hardware threads).
size_t FlagThreads(const ParsedArgs& args) {
  return args.Has("threads")
             ? static_cast<size_t>(
                   std::strtoul(args.Get("threads").c_str(), nullptr, 10))
             : 1;
}

/// --format json selects the machine-readable output.
bool FlagJson(const ParsedArgs& args) {
  return args.Has("format") && args.Get("format") == "json";
}

/// --lock-wait-ms N: how long project opens wait for a contended lock.
int FlagLockWaitMs(const ParsedArgs& args) {
  return args.Has("lock-wait-ms")
             ? static_cast<int>(std::strtoul(
                   args.Get("lock-wait-ms").c_str(), nullptr, 10))
             : anmat::Project::OpenOptions().lock_wait_ms;
}

/// Prints a verb's output: its JSON under --format json, its text
/// otherwise.
int Print(const anmat::VerbResult& report, bool json) {
  if (json) {
    std::cout << report.result.DumpPretty() << "\n";
  } else {
    std::cout << report.text;
  }
  return 0;
}

/// The largest integer a JSON number (an IEEE double) carries exactly.
/// Rule ids and --max travel to the host as JSON numbers.
constexpr uint64_t kMaxExactJsonInt = uint64_t{1} << 53;

/// --max N, if given.
std::optional<size_t> FlagMax(const ParsedArgs& args) {
  if (!args.Has("max")) return std::nullopt;
  return std::strtoul(args.Get("max").c_str(), nullptr, 10);
}

// ---------------------------------------------------------------------------
// Project verbs: one ProjectHost, in this process or in the daemon
// ---------------------------------------------------------------------------

/// Where a project verb runs: a `ProjectHost` in this process over the
/// project opened here, or, with --connect, the daemon's host for it.
class ProjectChannel {
 public:
  /// Reporting verbs open the project read-only (the lock is held only
  /// while crash recovery runs, so they never block a writer); `writer`
  /// verbs hold it until the process exits.
  static anmat::Result<ProjectChannel> Open(const ParsedArgs& args,
                                            bool writer) {
    ProjectChannel channel;
    if (args.Has("connect")) {
      ANMAT_ASSIGN_OR_RETURN(
          anmat::DaemonClient client,
          anmat::DaemonClient::Connect(args.Get("connect")));
      channel.client_.emplace(std::move(client));
      return channel;
    }
    anmat::Project::OpenOptions options;
    options.read_only = !writer;
    options.lock_wait_ms = FlagLockWaitMs(args);
    ANMAT_ASSIGN_OR_RETURN(
        anmat::Project project,
        anmat::Project::Open(args.Get("project"), options));
    channel.host_ = std::make_unique<anmat::ProjectHost>(
        std::move(project), anmat::ProjectHost::Options{FlagThreads(args)});
    return channel;
  }

  /// Runs one verb; a transport failure and a failing verb are both an
  /// error Status.
  anmat::Result<anmat::VerbResult> Run(const std::string& verb,
                                       anmat::JsonValue params) {
    if (host_ != nullptr) return host_->Dispatch(verb, params);
    ANMAT_ASSIGN_OR_RETURN(anmat::ServiceResponse response,
                           client_->Call(verb, std::move(params)));
    if (!response.ok) return response.error;
    return anmat::VerbResult{std::move(response.result),
                             std::move(response.text)};
  }

 private:
  ProjectChannel() = default;

  std::unique_ptr<anmat::ProjectHost> host_;
  std::optional<anmat::DaemonClient> client_;
};

/// A path for the host (the project directory, a CSV to read or write).
/// The daemon resolves paths against its own cwd, so --connect sends an
/// absolute one; in-process the path stays as typed (the output echoes it).
anmat::JsonValue PathParam(const ParsedArgs& args, const std::string& key) {
  return anmat::JsonValue::String(
      args.Has("connect") ? std::filesystem::absolute(args.Get(key)).string()
                          : args.Get(key));
}

/// Params every project verb shares.
anmat::JsonValue ProjectParams(const ParsedArgs& args) {
  anmat::JsonValue params = anmat::JsonValue::Object();
  params.Set("project", PathParam(args, "project"));
  if (args.Has("data")) {
    params.Set("data", anmat::JsonValue::String(args.Get("data")));
  }
  return params;
}

/// Runs one project verb and prints its output. Failures exit 2, except
/// that `unknown_id_is_usage` makes an unknown rule id (NotFound) a usage
/// error (exit 1) naming the id.
int RunProjectVerb(const ParsedArgs& args, bool writer,
                   const std::string& verb, anmat::JsonValue params,
                   bool json, bool unknown_id_is_usage = false) {
  auto channel = ProjectChannel::Open(args, writer);
  if (!channel.ok()) return Fail(channel.status());
  auto report = channel->Run(verb, std::move(params));
  if (!report.ok()) {
    if (unknown_id_is_usage &&
        report.status().code() == anmat::StatusCode::kNotFound) {
      return FlagError(report.status().message());
    }
    return Fail(report.status());
  }
  return Print(report.value(), json);
}

/// Confirmed rules from a standalone rule file (one-shot mode). v1 files
/// migrate as all-confirmed; a v2 file with rules but none confirmed is an
/// error pointing at the project workflow.
anmat::Result<std::vector<anmat::Pfd>> LoadConfirmedRules(
    const std::string& path) {
  anmat::RuleStore store(path);
  ANMAT_ASSIGN_OR_RETURN(anmat::RuleSet rules, store.Load());
  std::vector<anmat::Pfd> confirmed = rules.ConfirmedPfds();
  if (confirmed.empty() && !rules.empty()) {
    return anmat::Status::InvalidArgument(
        "rule file " + path + " has " + std::to_string(rules.size()) +
        " rule(s) but none confirmed; confirm them with 'anmat rules "
        "confirm' in a project, or edit the file");
  }
  return confirmed;
}

/// The checks every one-shot form makes before reading its CSV: --connect
/// and --data need --project. Returns 0, else the exit code.
int CheckOneShotForm(const ParsedArgs& args) {
  if (args.Has("connect")) {
    return FlagError("--connect requires --project <dir>");
  }
  if (const std::string e =
          RejectFlags(args, {"data"}, "requires --project mode");
      !e.empty()) {
    return FlagError(e);
  }
  return 0;
}

/// The checks every --project form makes: no CSV positional, and none of
/// the one-shot form's rule-file flags. Returns 0, else the exit code.
int CheckProjectForm(const ParsedArgs& args) {
  if (!args.positional.empty()) return Usage();
  if (const std::string e = RejectFlags(
          args, {"rules", "table", "minimize"},
          "applies to the one-shot form, not --project mode (the project "
          "directory is the rule store)");
      !e.empty()) {
    return FlagError(e);
  }
  return 0;
}

/// One round-trip to the daemon named by --connect (init and the
/// daemon-scope verbs, which run no project host). A bad Result is a
/// transport failure; a returned response may still carry ok:false.
anmat::Result<anmat::ServiceResponse> DaemonCall(const ParsedArgs& args,
                                                 const std::string& verb,
                                                 anmat::JsonValue params) {
  ANMAT_ASSIGN_OR_RETURN(anmat::DaemonClient client,
                         anmat::DaemonClient::Connect(args.Get("connect")));
  return client.Call(verb, std::move(params));
}

// ---------------------------------------------------------------------------
// init
// ---------------------------------------------------------------------------

int CmdInit(const ParsedArgs& args) {
  if (args.positional.size() != 1) return Usage();
  anmat::Project::Parameters parameters;
  parameters.min_coverage =
      FlagDouble(args, "coverage", parameters.min_coverage);
  parameters.allowed_violation_ratio =
      FlagDouble(args, "violations", parameters.allowed_violation_ratio);
  if (args.Has("connect")) {
    anmat::JsonValue params = anmat::JsonValue::Object();
    // The daemon resolves paths against its own cwd; send an absolute one.
    params.Set("dir",
               anmat::JsonValue::String(
                   std::filesystem::absolute(args.positional[0]).string()));
    if (args.Has("name")) {
      params.Set("name", anmat::JsonValue::String(args.Get("name")));
    }
    params.Set("coverage", anmat::JsonValue::Number(parameters.min_coverage));
    params.Set("violations",
               anmat::JsonValue::Number(parameters.allowed_violation_ratio));
    auto response = DaemonCall(args, "project.init", std::move(params));
    if (!response.ok()) return Fail(response.status());
    if (!response->ok) return Fail(response->error);
    auto name = response->result.GetString("name");
    std::cout << "initialized project \""
              << (name.ok() ? name.value() : args.positional[0]) << "\" in "
              << args.positional[0] << "\n";
    return 0;
  }
  auto project = anmat::Project::Init(
      args.positional[0], args.Has("name") ? args.Get("name") : "",
      parameters);
  if (!project.ok()) return Fail(project.status());
  std::cout << "initialized project \"" << project->name() << "\" in "
            << project->dir() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

int CmdProfile(const ParsedArgs& args) {
  if (args.Has("project")) {
    if (int code = CheckProjectForm(args); code != 0) return code;
    return RunProjectVerb(args, /*writer=*/false, "profile",
                          ProjectParams(args), FlagJson(args));
  }
  if (int code = CheckOneShotForm(args); code != 0) return code;
  if (args.positional.size() != 1) return Usage();
  auto relation = anmat::ReadCsvFile(args.positional[0]);
  if (!relation.ok()) return Fail(relation.status());
  anmat::Engine engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
  return Print(anmat::ProfileReport(engine.Profile(relation.value())),
               FlagJson(args));
}

// ---------------------------------------------------------------------------
// discover
// ---------------------------------------------------------------------------

int CmdDiscoverOneShot(const ParsedArgs& args) {
  auto relation = anmat::ReadCsvFile(args.positional[0]);
  if (!relation.ok()) return Fail(relation.status());
  anmat::DiscoveryOptions options;
  options.table_name = args.Has("table") ? args.Get("table") : "T";
  options.min_coverage = FlagDouble(args, "coverage", 0.4);
  options.allowed_violation_ratio = FlagDouble(args, "violations", 0.1);
  anmat::Engine engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
  auto discovery = engine.Discover(relation.value(), options);
  if (!discovery.ok()) return Fail(discovery.status());
  const std::vector<anmat::DiscoveredPfd>& discovered = discovery->pfds;
  Print({anmat::DiscoveredPfdsToJson(discovered),
         anmat::RenderDiscoveredPfdsView(discovered)},
        FlagJson(args));
  if (args.Has("rules")) {
    std::vector<anmat::Pfd> rules;
    for (const anmat::DiscoveredPfd& d : discovered) rules.push_back(d.pfd);
    if (args.Has("minimize") && args.Get("minimize") != "false") {
      anmat::MinimizeStats stats;
      rules = anmat::MinimizeRuleSet(rules, &stats);
      if (!FlagJson(args)) {
        std::cout << "\nminimized: " << stats.rows_before << " -> "
                  << stats.rows_after << " tableau rows\n";
      }
    }
    // Persisting the one-shot discovery is its confirmation.
    anmat::RuleSet confirmed;
    for (const anmat::Pfd& p : rules) {
      confirmed.Add(p, {}, anmat::RuleStatus::kConfirmed);
    }
    anmat::RuleStore store(args.Get("rules"));
    if (anmat::Status s = store.Save(confirmed); !s.ok()) return Fail(s);
    // Keep stdout pure JSON under --format json (pipeable into jq).
    if (!FlagJson(args)) {
      std::cout << "\nsaved " << rules.size() << " rule(s) to "
                << args.Get("rules") << "\n";
    }
  }
  return 0;
}

int CmdDiscoverProject(const ParsedArgs& args) {
  if (int code = CheckProjectForm(args); code != 0) return code;
  if (args.Has("name") && !args.Has("data")) {
    return FlagError("--name requires --data (it names the attached CSV)");
  }
  anmat::JsonValue params = ProjectParams(args);
  // discover's --data is a CSV path to attach (under its stem, or --name).
  if (args.Has("data")) params.Set("data", PathParam(args, "data"));
  if (args.Has("name")) {
    params.Set("name", anmat::JsonValue::String(args.Get("name")));
  }
  for (const char* key : {"coverage", "violations"}) {
    if (args.Has(key)) {
      params.Set(key, anmat::JsonValue::Number(FlagDouble(args, key, 0)));
    }
  }
  return RunProjectVerb(args, /*writer=*/true, "discover", std::move(params),
                        FlagJson(args));
}

int CmdDiscover(const ParsedArgs& args) {
  if (args.Has("project")) return CmdDiscoverProject(args);
  if (const std::string e =
          RejectFlags(args, {"data", "name"}, "requires --project mode");
      !e.empty()) {
    return FlagError(e);
  }
  if (args.positional.size() != 1) return Usage();
  return CmdDiscoverOneShot(args);
}

// ---------------------------------------------------------------------------
// rules
// ---------------------------------------------------------------------------

/// Parses explicit rule-id positionals ("all" is handled by the caller).
/// Digits only: strtoull would wrap "-1" to 2^64-1 instead of failing. An
/// id past what a JSON number carries exactly (which covers every id that
/// overflows 64 bits) names no rule: the rule store keeps ids as JSON
/// numbers too.
anmat::Result<anmat::JsonValue> ParseRuleIds(
    const std::vector<std::string>& positional) {
  anmat::JsonValue ids = anmat::JsonValue::Array();
  for (const std::string& arg : positional) {
    errno = 0;
    const unsigned long long id =
        arg.find_first_not_of("0123456789") == std::string::npos
            ? std::strtoull(arg.c_str(), nullptr, 10)
            : 0;
    if (arg.empty() || errno == ERANGE || id == 0 || id > kMaxExactJsonInt) {
      return anmat::Status::InvalidArgument("not a rule id: " + arg);
    }
    ids.push_back(anmat::JsonValue::Int(static_cast<int64_t>(id)));
  }
  return ids;
}

int CmdRulesSetStatus(const ParsedArgs& args, anmat::RuleStatus status) {
  const bool confirm = status == anmat::RuleStatus::kConfirmed;
  if (args.positional.empty()) {
    return FlagError(std::string("'anmat rules ") +
                     (confirm ? "confirm" : "reject") +
                     "' needs rule id(s) or 'all'");
  }
  anmat::JsonValue params = ProjectParams(args);
  if (args.positional.size() == 1 && args.positional[0] == "all") {
    params.Set("all", anmat::JsonValue::Bool(true));
  } else {
    auto ids = ParseRuleIds(args.positional);
    if (!ids.ok()) return FlagError(ids.status().message());
    params.Set("ids", std::move(ids).value());
  }
  return RunProjectVerb(args, /*writer=*/true,
                        confirm ? "rules.confirm" : "rules.reject",
                        std::move(params), /*json=*/false);
}

int CmdRulesDelete(const ParsedArgs& args) {
  if (args.positional.empty()) {
    return FlagError("'anmat rules delete' needs rule id(s)");
  }
  auto ids = ParseRuleIds(args.positional);
  if (!ids.ok()) return FlagError(ids.status().message());
  anmat::JsonValue params = ProjectParams(args);
  params.Set("ids", std::move(ids).value());
  // Deleting an unknown id is a usage error naming it, and nothing is
  // persisted: the whole command is rejected.
  return RunProjectVerb(args, /*writer=*/true, "rules.delete",
                        std::move(params), /*json=*/false,
                        /*unknown_id_is_usage=*/true);
}

int CmdRulesAnnotate(const ParsedArgs& args) {
  if (args.positional.size() != 1) {
    return FlagError("'anmat rules annotate' needs exactly one rule id");
  }
  auto ids = ParseRuleIds(args.positional);
  if (!ids.ok()) return FlagError(ids.status().message());
  anmat::JsonValue params = ProjectParams(args);
  params.Set("id", ids->at(0));
  // An absent --note clears the annotation (same as --note "").
  params.Set("note", anmat::JsonValue::String(
                         args.Has("note") ? args.Get("note") : ""));
  return RunProjectVerb(args, /*writer=*/true, "rules.annotate",
                        std::move(params), /*json=*/false,
                        /*unknown_id_is_usage=*/true);
}

int CmdRules(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string sub = argv[2];
  // Only `list` renders output, so only it takes --format; only
  // `annotate` takes --note.
  std::set<std::string> allowed = {"project", "connect", "lock-wait-ms"};
  if (sub == "list") allowed.insert("format");
  if (sub == "annotate") allowed.insert("note");
  ParsedArgs args;
  const std::string error = ParseArgs(argc, argv, 3, allowed, &args);
  if (!error.empty()) return FlagError(error);
  if (const std::string e = ValidateNumericFlags(args); !e.empty()) {
    return FlagError(e);
  }
  if (!args.Has("project")) {
    return FlagError("'anmat rules " + sub + "' requires --project <dir>");
  }
  if (sub == "list") {
    return RunProjectVerb(args, /*writer=*/false, "rules.list",
                          ProjectParams(args), FlagJson(args));
  }
  if (sub == "confirm") {
    return CmdRulesSetStatus(args, anmat::RuleStatus::kConfirmed);
  }
  if (sub == "reject") {
    return CmdRulesSetStatus(args, anmat::RuleStatus::kRejected);
  }
  if (sub == "delete") return CmdRulesDelete(args);
  if (sub == "annotate") return CmdRulesAnnotate(args);
  return Usage();
}

// ---------------------------------------------------------------------------
// project (maintenance verbs)
// ---------------------------------------------------------------------------

int CmdProjectFsck(const ParsedArgs& args) {
  // A daemon-hosted project opened, so it is healthy (or the verb fails).
  if (args.Has("connect")) {
    return RunProjectVerb(args, /*writer=*/false, "fsck", ProjectParams(args),
                          FlagJson(args));
  }
  // Locally fsck cannot go through a host: it must report on a project
  // that fails to open. It prints the same report as the host's fsck.
  const std::string dir = args.Get("project");
  if (!std::filesystem::exists(dir + "/project.json") &&
      !std::filesystem::exists(dir + "/journal.wal")) {
    return Fail(anmat::Status::NotFound("no project catalog at " + dir +
                                        "/project.json"));
  }
  // Recovery runs under the project lock, like Open's (a writer crashing
  // mid-save and an fsck racing it must not both touch the files).
  anmat::FileLockOptions lock_options;
  lock_options.max_wait_ms = FlagLockWaitMs(args);
  auto lock = anmat::FileLock::Acquire(dir + "/.anmat.lock", lock_options);
  if (!lock.ok()) return Fail(lock.status());
  anmat::ProjectJournal journal(dir);
  auto recovery = journal.Recover();
  if (!recovery.ok()) return Fail(recovery.status());

  // Recovery done; now verify the project actually loads. Our lock is
  // shared with Open's same-process acquire, so this does not deadlock.
  anmat::Project::OpenOptions options;
  options.read_only = true;
  options.lock_wait_ms = FlagLockWaitMs(args);
  auto project = anmat::Project::Open(dir, options);
  Print(anmat::FsckReport(recovery.value(),
                          project.ok() ? &project.value() : nullptr,
                          project.status()),
        FlagJson(args));
  return project.ok() ? 0 : 2;
}

int CmdProject(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string sub = argv[2];
  if (sub != "fsck") return Usage();
  ParsedArgs args;
  const std::string error = ParseArgs(
      argc, argv, 3, {"project", "format", "connect", "lock-wait-ms"},
      &args);
  if (!error.empty()) return FlagError(error);
  if (const std::string e = ValidateNumericFlags(args); !e.empty()) {
    return FlagError(e);
  }
  if (!args.Has("project")) {
    return FlagError("'anmat project fsck' requires --project <dir>");
  }
  if (!args.positional.empty()) return Usage();
  return CmdProjectFsck(args);
}

// ---------------------------------------------------------------------------
// detect / repair
// ---------------------------------------------------------------------------

int CmdDetect(const ParsedArgs& args) {
  const std::optional<size_t> max = FlagMax(args);
  if (args.Has("project")) {
    if (int code = CheckProjectForm(args); code != 0) return code;
    anmat::JsonValue params = ProjectParams(args);
    if (max.has_value()) {
      // Past 2^53 every cap means "all of them".
      params.Set("max", anmat::JsonValue::Int(static_cast<int64_t>(
                            std::min<uint64_t>(*max, kMaxExactJsonInt))));
    }
    return RunProjectVerb(args, /*writer=*/false, "detect", std::move(params),
                          FlagJson(args));
  }
  if (int code = CheckOneShotForm(args); code != 0) return code;
  if (args.positional.size() != 1 || !args.Has("rules")) return Usage();
  auto relation = anmat::ReadCsvFile(args.positional[0]);
  if (!relation.ok()) return Fail(relation.status());
  auto rules = LoadConfirmedRules(args.Get("rules"));
  if (!rules.ok()) return Fail(rules.status());
  anmat::Engine engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
  auto detection = engine.Detect(relation.value(), rules.value());
  if (!detection.ok()) return Fail(detection.status());
  return Print(anmat::DetectReport(relation.value(), rules.value(),
                                   std::move(detection).value(), max),
               FlagJson(args));
}

int CmdRepair(const ParsedArgs& args) {
  if (args.Has("project")) {
    if (int code = CheckProjectForm(args); code != 0) return code;
    anmat::JsonValue params = ProjectParams(args);
    if (args.Has("out")) params.Set("out", PathParam(args, "out"));
    return RunProjectVerb(args, /*writer=*/false, "repair", std::move(params),
                          FlagJson(args));
  }
  if (int code = CheckOneShotForm(args); code != 0) return code;
  if (args.positional.size() != 1 || !args.Has("rules")) return Usage();
  auto relation = anmat::ReadCsvFile(args.positional[0]);
  if (!relation.ok()) return Fail(relation.status());
  auto rules = LoadConfirmedRules(args.Get("rules"));
  if (!rules.ok()) return Fail(rules.status());
  anmat::Engine engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
  auto result = engine.Repair(&relation.value(), rules.value());
  if (!result.ok()) return Fail(result.status());
  const std::string out = args.Has("out") ? args.Get("out") : "";
  if (!out.empty()) {
    if (anmat::Status s = anmat::WriteCsvFile(relation.value(), out);
        !s.ok()) {
      return Fail(s);
    }
  }
  return Print(anmat::RepairReport(result.value(), rules.value(), out),
               FlagJson(args));
}

// ---------------------------------------------------------------------------
// stream (streaming detection demo, optionally cleaning on ingest)
// ---------------------------------------------------------------------------

/// Rows per batch (--batch) and the clean-on-ingest mode (--clean).
struct StreamFlags {
  size_t batch_rows = 256;
  std::string clean = "off";
};

/// Validates --batch and --clean; returns the flag error, "" when valid.
std::string ParseStreamFlags(const ParsedArgs& args, StreamFlags* flags) {
  if (args.Has("batch")) {
    flags->batch_rows = std::strtoul(args.Get("batch").c_str(), nullptr, 10);
    if (flags->batch_rows == 0) {
      return "invalid value for flag: --batch: must be >= 1";
    }
  }
  if (args.Has("clean")) flags->clean = args.Get("clean");
  if (flags->clean != "off" && flags->clean != "constant" &&
      flags->clean != "all") {
    return "invalid value for flag: --clean: \"" + flags->clean +
           "\" (expected off, constant, or all)";
  }
  return "";
}

/// The batch loop both stream modes share: slices `relation` into --batch
/// row batches, hands each to `append` and prints its report (its line as
/// text, or under --format json into the summary's "batches" array), then
/// prints the summary `close` returns.
int FeedStream(
    const anmat::Relation& relation, const StreamFlags& flags, bool json,
    const std::function<anmat::Result<anmat::VerbResult>(
        const anmat::Relation&)>& append,
    const std::function<anmat::Result<anmat::VerbResult>()>& close) {
  anmat::JsonValue batches = anmat::JsonValue::Array();
  for (anmat::RowId begin = 0; begin < relation.num_rows();
       begin += static_cast<anmat::RowId>(flags.batch_rows)) {
    const anmat::RowId end = std::min<anmat::RowId>(
        begin + static_cast<anmat::RowId>(flags.batch_rows),
        static_cast<anmat::RowId>(relation.num_rows()));
    auto batch = relation.Slice(begin, end);
    if (!batch.ok()) return Fail(batch.status());
    auto report = append(batch.value());
    if (!report.ok()) return Fail(report.status());
    if (json) {
      batches.push_back(std::move(report->result));
    } else {
      std::cout << report->text;
    }
  }
  auto summary = close();
  if (!summary.ok()) return Fail(summary.status());
  summary->result.Set("batches", std::move(batches));
  return Print(summary.value(), json);
}

/// One-shot stream: feeds the CSV through a DetectionStream of this
/// process's engine.
int RunStreamOneShot(const anmat::Relation& relation,
                     const std::vector<anmat::Pfd>& rules,
                     const ParsedArgs& args, const StreamFlags& flags) {
  anmat::Engine engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
  auto opened = engine.OpenStream(relation.schema(), rules);
  if (!opened.ok()) return Fail(opened.status());
  anmat::DetectionStream& stream = **opened;
  if (flags.clean != "off") {
    stream.set_clean_on_ingest(true);
    stream.set_clean_variable_rules(flags.clean == "all");
  }
  size_t violations = 0;
  return FeedStream(
      relation, flags, FlagJson(args),
      [&](const anmat::Relation& batch) -> anmat::Result<anmat::VerbResult> {
        ANMAT_ASSIGN_OR_RETURN(anmat::DetectionResult result,
                               stream.AppendBatch(batch));
        violations = result.violations.size();
        return anmat::StreamBatchReport(stream, batch.num_rows(),
                                        violations);
      },
      [&]() -> anmat::Result<anmat::VerbResult> {
        const std::string out = args.Has("out") ? args.Get("out") : "";
        if (!out.empty()) {
          ANMAT_RETURN_NOT_OK(anmat::WriteCsvFile(stream.relation(), out));
        }
        return anmat::StreamCloseReport(stream, flags.clean, violations,
                                        rules, out);
      });
}

/// Project stream, in-process or over --connect alike: resolve the dataset
/// (`dataset`), read its CSV here, open a host-side stream (`stream.open`)
/// and feed it batch by batch (`stream.append`) — the verbs a live feed
/// would send — then close it (`stream.close`).
int RunStreamProject(const ParsedArgs& args, const StreamFlags& flags) {
  auto channel = ProjectChannel::Open(args, /*writer=*/false);
  if (!channel.ok()) return Fail(channel.status());

  auto dataset = channel->Run("dataset", ProjectParams(args));
  if (!dataset.ok()) return Fail(dataset.status());
  auto path = dataset->result.GetString("path");
  if (!path.ok()) return Fail(path.status());
  auto relation = anmat::ReadCsvFile(path.value());
  if (!relation.ok()) return Fail(relation.status());

  anmat::JsonValue open_params = ProjectParams(args);
  anmat::JsonValue columns = anmat::JsonValue::Array();
  for (const anmat::ColumnSpec& c : relation->schema().columns()) {
    columns.push_back(anmat::JsonValue::String(c.name));
  }
  open_params.Set("columns", std::move(columns));
  open_params.Set("clean", anmat::JsonValue::String(flags.clean));
  auto open = channel->Run("stream.open", std::move(open_params));
  if (!open.ok()) return Fail(open.status());
  auto stream_id = open->result.GetInt("stream");
  if (!stream_id.ok()) return Fail(stream_id.status());

  const auto stream_params = [&] {
    anmat::JsonValue params = ProjectParams(args);
    params.Set("stream", anmat::JsonValue::Int(stream_id.value()));
    return params;
  };
  return FeedStream(
      relation.value(), flags, FlagJson(args),
      [&](const anmat::Relation& batch) {
        anmat::JsonValue rows = anmat::JsonValue::Array();
        for (anmat::RowId r = 0; r < batch.num_rows(); ++r) {
          anmat::JsonValue row = anmat::JsonValue::Array();
          for (const std::string& cell : batch.Row(r)) {
            row.push_back(anmat::JsonValue::String(cell));
          }
          rows.push_back(std::move(row));
        }
        anmat::JsonValue params = stream_params();
        params.Set("rows", std::move(rows));
        return channel->Run("stream.append", std::move(params));
      },
      [&] {
        anmat::JsonValue params = stream_params();
        if (args.Has("out")) params.Set("out", PathParam(args, "out"));
        return channel->Run("stream.close", std::move(params));
      });
}

int CmdStream(const ParsedArgs& args) {
  StreamFlags flags;
  if (args.Has("project")) {
    if (int code = CheckProjectForm(args); code != 0) return code;
    if (const std::string e = ParseStreamFlags(args, &flags); !e.empty()) {
      return FlagError(e);
    }
    return RunStreamProject(args, flags);
  }
  if (int code = CheckOneShotForm(args); code != 0) return code;
  if (args.positional.size() != 1 || !args.Has("rules")) return Usage();
  auto relation = anmat::ReadCsvFile(args.positional[0]);
  if (!relation.ok()) return Fail(relation.status());
  auto rules = LoadConfirmedRules(args.Get("rules"));
  if (!rules.ok()) return Fail(rules.status());
  if (const std::string e = ParseStreamFlags(args, &flags); !e.empty()) {
    return FlagError(e);
  }
  return RunStreamOneShot(relation.value(), rules.value(), args, flags);
}

// ---------------------------------------------------------------------------
// serve / daemon (anmatd)
// ---------------------------------------------------------------------------

anmat::Daemon* g_daemon = nullptr;

extern "C" void HandleStopSignal(int) {
  // Async-signal-safe: one atomic store + one pipe write.
  if (g_daemon != nullptr) g_daemon->RequestStop();
}

int CmdServe(const ParsedArgs& args) {
  if (!args.positional.empty()) return Usage();
  if (!args.Has("socket")) {
    return FlagError("'anmat serve' requires --socket <path>");
  }
  anmat::Daemon::Options options;
  options.socket_path = args.Get("socket");
  options.engine_threads = FlagThreads(args);
  if (args.Has("workers")) {
    options.executor_threads = static_cast<size_t>(
        std::strtoul(args.Get("workers").c_str(), nullptr, 10));
  }
  options.lock_wait_ms = FlagLockWaitMs(args);
  auto daemon = anmat::Daemon::Start(options);
  if (!daemon.ok()) return Fail(daemon.status());
  g_daemon = daemon->get();
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  // Peers that vanish mid-write must surface as EPIPE, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  // endl flushes: scripts wait for this line before connecting.
  std::cout << "anmatd: serving on " << options.socket_path << std::endl;
  const anmat::Status status = (*daemon)->Serve();
  g_daemon = nullptr;
  if (!status.ok()) return Fail(status);
  std::cout << "anmatd: stopped\n";
  return 0;
}

int CmdDaemonVerb(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string sub = argv[2];
  if (sub != "ping" && sub != "stats" && sub != "shutdown") return Usage();
  ParsedArgs args;
  const std::string error =
      ParseArgs(argc, argv, 3, {"connect", "format"}, &args);
  if (!error.empty()) return FlagError(error);
  if (!args.Has("connect")) {
    return FlagError("'anmat daemon " + sub + "' requires --connect <socket>");
  }
  auto response = DaemonCall(args, sub, anmat::JsonValue::Object());
  if (!response.ok()) return Fail(response.status());
  if (!response->ok) return Fail(response->error);
  std::cout << response->result.DumpPretty() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  if (command == "rules") return CmdRules(argc, argv);
  if (command == "project") return CmdProject(argc, argv);
  if (command == "daemon") return CmdDaemonVerb(argc, argv);

  static const std::map<std::string, std::set<std::string>> kAllowedFlags = {
      {"init", {"name", "coverage", "violations", "connect"}},
      {"profile",
       {"project", "data", "threads", "format", "connect", "lock-wait-ms"}},
      {"discover",
       {"project", "data", "name", "coverage", "violations", "rules",
        "table", "minimize", "threads", "format", "connect",
        "lock-wait-ms"}},
      {"detect",
       {"project", "data", "rules", "max", "threads", "format", "connect",
        "lock-wait-ms"}},
      {"repair",
       {"project", "data", "rules", "out", "threads", "format", "connect",
        "lock-wait-ms"}},
      {"stream",
       {"project", "data", "rules", "batch", "clean", "out", "threads",
        "format", "connect", "lock-wait-ms"}},
      {"serve", {"socket", "threads", "workers", "lock-wait-ms"}},
  };
  auto allowed = kAllowedFlags.find(command);
  if (allowed == kAllowedFlags.end()) return Usage();

  ParsedArgs args;
  const std::string error = ParseArgs(argc, argv, 2, allowed->second, &args);
  if (!error.empty()) return FlagError(error);
  if (const std::string e = ValidateNumericFlags(args); !e.empty()) {
    return FlagError(e);
  }

  if (command == "init") return CmdInit(args);
  if (command == "profile") return CmdProfile(args);
  if (command == "discover") return CmdDiscover(args);
  if (command == "detect") return CmdDetect(args);
  if (command == "repair") return CmdRepair(args);
  if (command == "stream") return CmdStream(args);
  if (command == "serve") return CmdServe(args);
  return Usage();
}
