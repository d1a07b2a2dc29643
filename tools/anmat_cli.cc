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
// Daemon mode (src/service): `anmat serve` runs anmatd, a resident
// service holding each project open with a warm engine; `--connect`
// routes any project verb through it instead of opening the project
// locally, with byte-identical output:
//
//   anmat serve --socket <path> [--threads N] [--workers N]
//               [--lock-wait-ms N]
//       Serve projects over a unix socket until SIGINT/SIGTERM or the
//       shutdown verb.
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
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "anmat/engine.h"
#include "anmat/project.h"
#include "anmat/report.h"
#include "anmat/session.h"
#include "csv/csv_writer.h"
#include "pfd/implication.h"
#include "repair/repair.h"
#include "service/client.h"
#include "service/daemon.h"
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

/// Open options for writer commands (discover, rules edits).
anmat::Project::OpenOptions WriterOpenOptions(const ParsedArgs& args) {
  anmat::Project::OpenOptions options;
  options.lock_wait_ms = FlagLockWaitMs(args);
  return options;
}

/// Report-style commands (profile, rules list, detect, repair, stream)
/// read project state but never write it back: open read-only, so they
/// hold the project lock only while crash recovery runs and never block
/// a concurrent writer.
anmat::Result<anmat::Project> OpenProjectReadOnly(const std::string& dir,
                                                  const ParsedArgs& args) {
  anmat::Project::OpenOptions options;
  options.read_only = true;
  options.lock_wait_ms = FlagLockWaitMs(args);
  return anmat::Project::Open(dir, options);
}

// ---------------------------------------------------------------------------
// --connect: route the verb through a running daemon
// ---------------------------------------------------------------------------

/// One round-trip to the daemon named by --connect. A bad Result is a
/// transport failure; a returned response may still carry ok:false.
anmat::Result<anmat::ServiceResponse> DaemonCall(const ParsedArgs& args,
                                                 const std::string& verb,
                                                 anmat::JsonValue params) {
  ANMAT_ASSIGN_OR_RETURN(anmat::DaemonClient client,
                         anmat::DaemonClient::Connect(args.Get("connect")));
  return client.Call(verb, std::move(params));
}

/// Params every project verb shares in connect mode.
anmat::JsonValue ConnectParams(const ParsedArgs& args) {
  anmat::JsonValue params = anmat::JsonValue::Object();
  params.Set("project", anmat::JsonValue::String(args.Get("project")));
  if (args.Has("data")) {
    params.Set("data", anmat::JsonValue::String(args.Get("data")));
  }
  return params;
}

/// Prints a successful response the way the direct command would have:
/// the result JSON under --format json, the text rendering otherwise.
int PrintResponse(const anmat::ServiceResponse& response, bool json) {
  if (json) {
    std::cout << response.result.DumpPretty() << "\n";
  } else {
    std::cout << response.text;
  }
  return 0;
}

/// The common connect-mode tail: transport failures and verb failures
/// both exit 2 (like the direct command's Fail path); success prints.
int FinishDaemonCall(const anmat::Result<anmat::ServiceResponse>& response,
                     bool json) {
  if (!response.ok()) return Fail(response.status());
  if (!response->ok) return Fail(response->error);
  return PrintResponse(response.value(), json);
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

/// The relation a project command operates on: --data names a catalog
/// entry; default is the last attached dataset. Because `discover
/// --project --data` takes a CSV *path* (attached under its stem), the
/// same path spelling is accepted here too — so the --data value that
/// attached a dataset keeps working on detect/repair/profile.
anmat::Result<anmat::Relation> LoadProjectData(const anmat::Project& project,
                                               const ParsedArgs& args) {
  if (!args.Has("data")) return project.LoadDataset("");
  const std::string& value = args.Get("data");
  auto entry = project.FindDataset(value);
  if (entry.ok()) return project.LoadDataset(value);
  const std::string stem = std::filesystem::path(value).stem().string();
  if (!stem.empty() && stem != value && project.FindDataset(stem).ok()) {
    return project.LoadDataset(stem);
  }
  return entry.status();
}

// ---------------------------------------------------------------------------
// init
// ---------------------------------------------------------------------------

int CmdInit(const ParsedArgs& args) {
  if (args.positional.size() != 1) return Usage();
  if (args.Has("connect")) {
    anmat::JsonValue params = anmat::JsonValue::Object();
    // The daemon resolves paths against its own cwd; send an absolute one.
    params.Set("dir",
               anmat::JsonValue::String(
                   std::filesystem::absolute(args.positional[0]).string()));
    if (args.Has("name")) {
      params.Set("name", anmat::JsonValue::String(args.Get("name")));
    }
    if (args.Has("coverage")) {
      params.Set("coverage", anmat::JsonValue::Number(
                                 FlagDouble(args, "coverage", 0)));
    }
    if (args.Has("violations")) {
      params.Set("violations", anmat::JsonValue::Number(
                                   FlagDouble(args, "violations", 0)));
    }
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
      args.positional[0], args.Has("name") ? args.Get("name") : "");
  if (!project.ok()) return Fail(project.status());
  anmat::Project::Parameters parameters = project->parameters();
  parameters.min_coverage = FlagDouble(args, "coverage",
                                       parameters.min_coverage);
  parameters.allowed_violation_ratio =
      FlagDouble(args, "violations", parameters.allowed_violation_ratio);
  project->set_parameters(parameters);
  if (anmat::Status s = project->Save(); !s.ok()) return Fail(s);
  std::cout << "initialized project \"" << project->name() << "\" in "
            << project->dir() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

int RenderProfiles(const std::vector<anmat::ColumnProfile>& profiles,
                   bool json) {
  if (json) {
    std::cout << anmat::ProfilesToJson(profiles).DumpPretty() << "\n";
  } else {
    std::cout << anmat::RenderProfilingView(profiles);
  }
  return 0;
}

int CmdProfile(const ParsedArgs& args) {
  if (args.Has("connect")) {
    if (!args.Has("project")) {
      return FlagError("--connect requires --project <dir>");
    }
    return FinishDaemonCall(
        DaemonCall(args, "profile", ConnectParams(args)), FlagJson(args));
  }
  anmat::Engine engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
  anmat::Relation relation;
  if (args.Has("project")) {
    if (!args.positional.empty()) return Usage();
    auto project = OpenProjectReadOnly(args.Get("project"), args);
    if (!project.ok()) return Fail(project.status());
    auto data = LoadProjectData(project.value(), args);
    if (!data.ok()) return Fail(data.status());
    relation = std::move(data).value();
  } else {
    if (const std::string e =
            RejectFlags(args, {"data"}, "requires --project mode");
        !e.empty()) {
      return FlagError(e);
    }
    if (args.positional.size() != 1) return Usage();
    auto data = anmat::ReadCsvFile(args.positional[0]);
    if (!data.ok()) return Fail(data.status());
    relation = std::move(data).value();
  }
  return RenderProfiles(engine.Profile(relation), FlagJson(args));
}

// ---------------------------------------------------------------------------
// discover
// ---------------------------------------------------------------------------

int CmdDiscoverOneShot(const ParsedArgs& args) {
  anmat::Session session(args.Has("table") ? args.Get("table") : "T");
  session.SetNumThreads(FlagThreads(args));
  if (anmat::Status s = session.LoadCsvFile(args.positional[0]); !s.ok()) {
    return Fail(s);
  }
  session.SetMinCoverage(FlagDouble(args, "coverage", 0.4));
  session.SetAllowedViolationRatio(FlagDouble(args, "violations", 0.1));
  if (anmat::Status s = session.Discover(); !s.ok()) return Fail(s);
  if (FlagJson(args)) {
    std::cout << anmat::DiscoveredPfdsToJson(session.discovered())
                     .DumpPretty()
              << "\n";
  } else {
    std::cout << anmat::RenderDiscoveredPfdsView(session.discovered());
  }
  if (args.Has("rules")) {
    std::vector<anmat::Pfd> rules;
    for (const anmat::DiscoveredPfd& d : session.discovered()) {
      rules.push_back(d.pfd);
    }
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
  if (const std::string e = RejectFlags(
          args, {"rules", "table", "minimize"},
          "applies to the one-shot form, not --project mode (the project "
          "directory is the rule store)");
      !e.empty()) {
    return FlagError(e);
  }
  if (args.Has("name") && !args.Has("data")) {
    return FlagError("--name requires --data (it names the attached CSV)");
  }
  if (args.Has("connect")) {
    anmat::JsonValue params = ConnectParams(args);
    if (args.Has("data")) {
      // discover's --data is a CSV *path* to attach; resolve it against
      // this process's cwd, not the daemon's.
      params.Set("data",
                 anmat::JsonValue::String(
                     std::filesystem::absolute(args.Get("data")).string()));
    }
    if (args.Has("name")) {
      params.Set("name", anmat::JsonValue::String(args.Get("name")));
    }
    if (args.Has("coverage")) {
      params.Set("coverage", anmat::JsonValue::Number(
                                 FlagDouble(args, "coverage", 0)));
    }
    if (args.Has("violations")) {
      params.Set("violations", anmat::JsonValue::Number(
                                   FlagDouble(args, "violations", 0)));
    }
    return FinishDaemonCall(DaemonCall(args, "discover", std::move(params)),
                            FlagJson(args));
  }
  auto project =
      anmat::Project::Open(args.Get("project"), WriterOpenOptions(args));
  if (!project.ok()) return Fail(project.status());

  anmat::Project::Parameters parameters = project->parameters();
  parameters.min_coverage = FlagDouble(args, "coverage",
                                       parameters.min_coverage);
  parameters.allowed_violation_ratio =
      FlagDouble(args, "violations", parameters.allowed_violation_ratio);
  project->set_parameters(parameters);

  std::string dataset_name;
  if (args.Has("data")) {
    dataset_name = args.Has("name")
                       ? args.Get("name")
                       : std::filesystem::path(args.Get("data"))
                             .stem()
                             .string();
    if (anmat::Status s =
            project->AttachDataset(dataset_name, args.Get("data"));
        !s.ok()) {
      return Fail(s);
    }
  } else {
    auto entry = project->FindDataset();
    if (!entry.ok()) return Fail(entry.status());
    dataset_name = entry->name;
  }
  auto relation = project->LoadDataset(dataset_name);
  if (!relation.ok()) return Fail(relation.status());

  anmat::Engine engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
  auto discovery =
      engine.Discover(relation.value(), project->discovery_options());
  if (!discovery.ok()) return Fail(discovery.status());

  for (const anmat::DiscoveredPfd& d : discovery->pfds) {
    project->AddDiscoveredRule(d, dataset_name);
  }
  if (anmat::Status s = project->Save(); !s.ok()) return Fail(s);

  if (FlagJson(args)) {
    std::cout << anmat::RuleSetToJson(project->rules()).DumpPretty() << "\n";
  } else {
    std::cout << anmat::RenderDiscoveredPfdsView(discovery->pfds);
    std::cout << "\nrecorded " << discovery->pfds.size()
              << " rule(s) as discovered in " << project->rules_path()
              << " (review with 'anmat rules list', apply with 'anmat rules "
              << "confirm')\n";
  }
  return 0;
}

int CmdDiscover(const ParsedArgs& args) {
  if (args.Has("project")) {
    if (!args.positional.empty()) return Usage();
    return CmdDiscoverProject(args);
  }
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

int CmdRulesList(const ParsedArgs& args) {
  if (args.Has("connect")) {
    return FinishDaemonCall(
        DaemonCall(args, "rules.list", ConnectParams(args)), FlagJson(args));
  }
  auto project = OpenProjectReadOnly(args.Get("project"), args);
  if (!project.ok()) return Fail(project.status());
  if (FlagJson(args)) {
    std::cout << anmat::RuleSetToJson(project->rules()).DumpPretty() << "\n";
  } else {
    std::cout << anmat::RenderRuleSetView(project->rules());
  }
  return 0;
}

/// Parses explicit rule-id positionals ("all" is handled by the caller).
/// Digits only: strtoull would wrap "-1" to 2^64-1 instead of failing.
anmat::Result<std::vector<uint64_t>> ParseRuleIds(
    const std::vector<std::string>& positional) {
  std::vector<uint64_t> ids;
  for (const std::string& arg : positional) {
    if (arg.empty() ||
        arg.find_first_not_of("0123456789") != std::string::npos) {
      return anmat::Status::InvalidArgument("not a rule id: " + arg);
    }
    const unsigned long long id = std::strtoull(arg.c_str(), nullptr, 10);
    if (id == 0) {
      return anmat::Status::InvalidArgument("not a rule id: " + arg);
    }
    ids.push_back(static_cast<uint64_t>(id));
  }
  return ids;
}

anmat::JsonValue IdsToJson(const std::vector<uint64_t>& ids) {
  anmat::JsonValue arr = anmat::JsonValue::Array();
  for (uint64_t id : ids) {
    arr.push_back(anmat::JsonValue::Int(static_cast<int64_t>(id)));
  }
  return arr;
}

int CmdRulesSetStatus(const ParsedArgs& args, anmat::RuleStatus status) {
  if (args.positional.empty()) {
    return FlagError(std::string("'anmat rules ") + (
        status == anmat::RuleStatus::kConfirmed ? "confirm" : "reject") +
        "' needs rule id(s) or 'all'");
  }
  const bool all =
      args.positional.size() == 1 && args.positional[0] == "all";

  if (args.Has("connect")) {
    anmat::JsonValue params = ConnectParams(args);
    if (all) {
      params.Set("all", anmat::JsonValue::Bool(true));
    } else {
      auto ids = ParseRuleIds(args.positional);
      if (!ids.ok()) return FlagError(ids.status().message());
      params.Set("ids", IdsToJson(ids.value()));
    }
    const char* verb = status == anmat::RuleStatus::kConfirmed
                           ? "rules.confirm"
                           : "rules.reject";
    return FinishDaemonCall(DaemonCall(args, verb, std::move(params)),
                            /*json=*/false);
  }

  auto project =
      anmat::Project::Open(args.Get("project"), WriterOpenOptions(args));
  if (!project.ok()) return Fail(project.status());

  std::vector<uint64_t> ids;
  if (all) {
    for (const anmat::RuleRecord& r : project->rules().records()) {
      // `confirm all` leaves rejected rules rejected (same semantics as
      // Session::ConfirmAll); only an explicit id overrides a rejection.
      if (status == anmat::RuleStatus::kConfirmed &&
          r.status == anmat::RuleStatus::kRejected) {
        continue;
      }
      ids.push_back(r.id);
    }
  } else {
    auto parsed = ParseRuleIds(args.positional);
    if (!parsed.ok()) return FlagError(parsed.status().message());
    ids = std::move(parsed).value();
  }
  for (uint64_t id : ids) {
    if (anmat::Status s = project->SetRuleStatus(id, status); !s.ok()) {
      return Fail(s);
    }
  }
  if (anmat::Status s = project->Save(); !s.ok()) return Fail(s);
  std::cout << "marked " << ids.size() << " rule(s) "
            << anmat::RuleStatusName(status) << "; "
            << project->ConfirmedPfds().size()
            << " rule(s) now confirmed\n";
  return 0;
}

int CmdRulesDelete(const ParsedArgs& args) {
  if (args.positional.empty()) {
    return FlagError("'anmat rules delete' needs rule id(s)");
  }
  auto parsed = ParseRuleIds(args.positional);
  if (!parsed.ok()) return FlagError(parsed.status().message());
  std::vector<uint64_t> ids = std::move(parsed).value();

  if (args.Has("connect")) {
    anmat::JsonValue params = ConnectParams(args);
    params.Set("ids", IdsToJson(ids));
    auto response = DaemonCall(args, "rules.delete", std::move(params));
    if (!response.ok()) return Fail(response.status());
    // An unknown id is a usage error (exit 1) naming it, like direct mode.
    if (!response->ok) return FlagError(response->error.message());
    return PrintResponse(response.value(), /*json=*/false);
  }

  auto project =
      anmat::Project::Open(args.Get("project"), WriterOpenOptions(args));
  if (!project.ok()) return Fail(project.status());

  for (uint64_t id : ids) {
    // Deleting an unknown id is a usage error (exit 1) naming the id, and
    // nothing is persisted — the whole command is rejected.
    if (anmat::Status s = project->DeleteRule(id); !s.ok()) {
      return FlagError(s.message());
    }
  }
  if (anmat::Status s = project->Save(); !s.ok()) return Fail(s);
  std::cout << "deleted " << ids.size() << " rule(s); "
            << project->rules().size() << " rule(s) remain (ids are never "
            << "reused)\n";
  return 0;
}

int CmdRulesAnnotate(const ParsedArgs& args) {
  if (args.positional.size() != 1) {
    return FlagError("'anmat rules annotate' needs exactly one rule id");
  }
  auto parsed = ParseRuleIds(args.positional);
  if (!parsed.ok()) return FlagError(parsed.status().message());
  const uint64_t id = parsed->front();
  // An absent --note clears the annotation (same as --note "").
  const std::string note = args.Has("note") ? args.Get("note") : "";

  if (args.Has("connect")) {
    anmat::JsonValue params = ConnectParams(args);
    params.Set("id", anmat::JsonValue::Int(static_cast<int64_t>(id)));
    params.Set("note", anmat::JsonValue::String(note));
    auto response = DaemonCall(args, "rules.annotate", std::move(params));
    if (!response.ok()) return Fail(response.status());
    // An unknown id is a usage error (exit 1) naming it, like direct mode.
    if (!response->ok) return FlagError(response->error.message());
    return PrintResponse(response.value(), /*json=*/false);
  }

  auto project =
      anmat::Project::Open(args.Get("project"), WriterOpenOptions(args));
  if (!project.ok()) return Fail(project.status());
  // An unknown id is a usage error (exit 1) naming it; nothing persists.
  if (anmat::Status s = project->AnnotateRule(id, note); !s.ok()) {
    return FlagError(s.message());
  }
  if (anmat::Status s = project->Save(); !s.ok()) return Fail(s);
  std::cout << "annotated rule " << id << "\n";
  return 0;
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
  if (sub == "list") return CmdRulesList(args);
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

const char* RecoveryActionName(anmat::JournalRecoveryReport::Action action) {
  switch (action) {
    case anmat::JournalRecoveryReport::Action::kClean:
      return "clean";
    case anmat::JournalRecoveryReport::Action::kReplayed:
      return "replayed";
    case anmat::JournalRecoveryReport::Action::kDiscarded:
      return "discarded";
  }
  return "unknown";
}

int CmdProjectFsck(const ParsedArgs& args) {
  if (args.Has("connect")) {
    auto response = DaemonCall(args, "fsck", ConnectParams(args));
    if (!response.ok()) return Fail(response.status());
    if (!response->ok) return Fail(response->error);
    PrintResponse(response.value(), FlagJson(args));
    const anmat::JsonValue* healthy = response->result.Get("healthy");
    return (healthy != nullptr && healthy->is_bool() && healthy->as_bool())
               ? 0
               : 2;
  }
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
  auto report = journal.Recover();
  if (!report.ok()) return Fail(report.status());

  // Recovery done; now verify the project actually loads. Our lock is
  // shared with Open's same-process acquire, so this does not deadlock.
  auto project = OpenProjectReadOnly(dir, args);
  const bool healthy = project.ok();

  if (FlagJson(args)) {
    anmat::JsonValue root = anmat::JsonValue::Object();
    root.Set("action",
             anmat::JsonValue::String(RecoveryActionName(report->action)));
    root.Set("detail", anmat::JsonValue::String(report->detail));
    root.Set("files_applied", anmat::JsonValue::Int(static_cast<int64_t>(
                                  report->files_applied)));
    root.Set("truncated_tail", anmat::JsonValue::Bool(report->truncated_tail));
    root.Set("healthy", anmat::JsonValue::Bool(healthy));
    if (!healthy) {
      root.Set("error",
               anmat::JsonValue::String(project.status().ToString()));
    }
    std::cout << root.DumpPretty() << "\n";
  } else {
    std::cout << "journal: " << report->detail << "\n";
    if (healthy) {
      std::cout << "project: healthy (\"" << project->name() << "\", "
                << project->datasets().size() << " dataset(s), "
                << project->rules().size() << " rule(s))\n";
    } else {
      std::cout << "project: CORRUPT — " << project.status().ToString()
                << "\n";
    }
  }
  return healthy ? 0 : 2;
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
// detect / repair (shared project-mode preamble)
// ---------------------------------------------------------------------------

/// Loads the dataset and confirmed rules a project-mode detect/repair
/// operates on. Returns 0 on success, else the exit code to return.
int LoadProjectInputs(const ParsedArgs& args, anmat::Relation* relation,
                      std::vector<anmat::Pfd>* rules) {
  if (!args.positional.empty()) return Usage();
  if (const std::string e = RejectFlags(
          args, {"rules"},
          "applies to the one-shot form, not --project mode (the project "
          "directory is the rule store)");
      !e.empty()) {
    return FlagError(e);
  }
  auto project = OpenProjectReadOnly(args.Get("project"), args);
  if (!project.ok()) return Fail(project.status());
  auto data = LoadProjectData(project.value(), args);
  if (!data.ok()) return Fail(data.status());
  *relation = std::move(data).value();
  *rules = project->ConfirmedPfds();
  if (rules->empty()) {
    return Fail(anmat::Status::InvalidArgument(
        "project has no confirmed rules; run 'anmat rules confirm'"));
  }
  return 0;
}

int RunDetect(const anmat::Relation& relation,
              const std::vector<anmat::Pfd>& rules, const ParsedArgs& args) {
  anmat::Engine engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
  auto detection = engine.Detect(relation, rules);
  if (!detection.ok()) return Fail(detection.status());
  if (FlagJson(args)) {
    anmat::DetectionResult limited = std::move(detection).value();
    if (args.Has("max")) {
      // Honor --max in JSON too: cap the violations array. The stats block
      // still reports the full counts, so the truncation is visible.
      const size_t max_rows =
          std::strtoul(args.Get("max").c_str(), nullptr, 10);
      if (limited.violations.size() > max_rows) {
        limited.violations.resize(max_rows);
      }
    }
    std::cout << anmat::DetectionToJson(relation, rules, limited).DumpPretty()
              << "\n";
    return 0;
  }
  size_t max_rows = 50;
  if (args.Has("max")) {
    max_rows = std::strtoul(args.Get("max").c_str(), nullptr, 10);
  }
  std::cout << anmat::RenderViolationsView(relation, rules,
                                           detection.value(), max_rows);
  return 0;
}

int CmdDetect(const ParsedArgs& args) {
  if (args.Has("connect")) {
    if (!args.Has("project")) {
      return FlagError("--connect requires --project <dir>");
    }
    anmat::JsonValue params = ConnectParams(args);
    if (args.Has("max")) {
      params.Set("max", anmat::JsonValue::Int(static_cast<int64_t>(
                            std::strtoul(args.Get("max").c_str(), nullptr,
                                         10))));
    }
    return FinishDaemonCall(DaemonCall(args, "detect", std::move(params)),
                            FlagJson(args));
  }
  if (args.Has("project")) {
    anmat::Relation relation;
    std::vector<anmat::Pfd> rules;
    if (int code = LoadProjectInputs(args, &relation, &rules); code != 0) {
      return code;
    }
    return RunDetect(relation, rules, args);
  }
  if (const std::string e =
          RejectFlags(args, {"data"}, "requires --project mode");
      !e.empty()) {
    return FlagError(e);
  }
  if (args.positional.size() != 1 || !args.Has("rules")) return Usage();
  auto relation = anmat::ReadCsvFile(args.positional[0]);
  if (!relation.ok()) return Fail(relation.status());
  auto rules = LoadConfirmedRules(args.Get("rules"));
  if (!rules.ok()) return Fail(rules.status());
  return RunDetect(relation.value(), rules.value(), args);
}

// ---------------------------------------------------------------------------
// repair
// ---------------------------------------------------------------------------

int RunRepair(anmat::Relation relation, const std::vector<anmat::Pfd>& rules,
              const ParsedArgs& args) {
  anmat::Engine engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
  auto result = engine.Repair(&relation, rules);
  if (!result.ok()) return Fail(result.status());
  if (FlagJson(args)) {
    std::cout << anmat::RepairToJson(result.value(), rules).DumpPretty()
              << "\n";
  } else {
    std::cout << anmat::RenderRepairView(result.value());
  }
  if (args.Has("out")) {
    if (anmat::Status s = anmat::WriteCsvFile(relation, args.Get("out"));
        !s.ok()) {
      return Fail(s);
    }
    if (!FlagJson(args)) {
      std::cout << "wrote cleaned table to " << args.Get("out") << "\n";
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// stream (streaming detection demo, optionally cleaning on ingest)
// ---------------------------------------------------------------------------

int RunStream(const anmat::Relation& relation,
              const std::vector<anmat::Pfd>& rules, const ParsedArgs& args) {
  size_t batch_rows = 256;
  if (args.Has("batch")) {
    batch_rows = std::strtoul(args.Get("batch").c_str(), nullptr, 10);
    if (batch_rows == 0) {
      return FlagError("invalid value for flag: --batch: must be >= 1");
    }
  }
  const std::string clean = args.Has("clean") ? args.Get("clean") : "off";
  if (clean != "off" && clean != "constant" && clean != "all") {
    return FlagError("invalid value for flag: --clean: \"" + clean +
                     "\" (expected off, constant, or all)");
  }

  anmat::Engine engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
  auto stream = engine.OpenStream(relation.schema(), rules);
  if (!stream.ok()) return Fail(stream.status());
  if (clean != "off") {
    (*stream)->set_clean_on_ingest(true);
    (*stream)->set_clean_variable_rules(clean == "all");
  }

  const bool json = FlagJson(args);
  anmat::JsonValue batches = anmat::JsonValue::Array();
  size_t violations = 0;
  for (anmat::RowId begin = 0; begin < relation.num_rows();
       begin += static_cast<anmat::RowId>(batch_rows)) {
    const anmat::RowId end = std::min<anmat::RowId>(
        begin + static_cast<anmat::RowId>(batch_rows),
        static_cast<anmat::RowId>(relation.num_rows()));
    auto batch = relation.Slice(begin, end);
    if (!batch.ok()) return Fail(batch.status());
    auto result = (*stream)->AppendBatch(batch.value());
    if (!result.ok()) return Fail(result.status());
    violations = result->violations.size();
    if (json) {
      anmat::JsonValue entry = anmat::JsonValue::Object();
      entry.Set("rows", anmat::JsonValue::Int(
                            static_cast<int64_t>(end - begin)));
      entry.Set("cumulative_violations",
                anmat::JsonValue::Int(static_cast<int64_t>(violations)));
      entry.Set("repairs", anmat::JsonValue::Int(static_cast<int64_t>(
                               (*stream)->batch_repairs().size())));
      entry.Set("conflicts", anmat::JsonValue::Int(static_cast<int64_t>(
                                 (*stream)->batch_conflicts().size())));
      batches.push_back(std::move(entry));
    } else {
      std::cout << "batch " << (*stream)->num_batches() << ": +"
                << (end - begin) << " row(s), cumulative violations "
                << violations << ", repairs "
                << (*stream)->batch_repairs().size() << ", conflicts "
                << (*stream)->batch_conflicts().size() << "\n";
    }
  }

  if (json) {
    anmat::JsonValue root = anmat::JsonValue::Object();
    root.Set("rows", anmat::JsonValue::Int(
                         static_cast<int64_t>(relation.num_rows())));
    root.Set("batches", std::move(batches));
    root.Set("clean", anmat::JsonValue::String(clean));
    root.Set("distinct_values", anmat::JsonValue::Int(static_cast<int64_t>(
                                    (*stream)->distinct_values())));
    root.Set("violations",
             anmat::JsonValue::Int(static_cast<int64_t>(violations)));
    anmat::JsonValue repairs = anmat::JsonValue::Array();
    for (const anmat::AppliedRepair& r : (*stream)->repairs()) {
      repairs.push_back(anmat::AppliedRepairToJson(r, rules));
    }
    root.Set("repairs", std::move(repairs));
    anmat::JsonValue conflicts = anmat::JsonValue::Array();
    for (const anmat::StreamConflict& c : (*stream)->conflicts()) {
      conflicts.push_back(anmat::StreamConflictToJson(c));
    }
    root.Set("conflicts", std::move(conflicts));
    std::cout << root.DumpPretty() << "\n";
  } else {
    std::cout << "streamed " << relation.num_rows() << " row(s) in "
              << (*stream)->num_batches() << " batch(es): " << violations
              << " violation(s)";
    if (clean != "off") {
      std::cout << ", " << (*stream)->repairs().size()
                << " repair(s) applied on ingest, "
                << (*stream)->conflicts().size() << " conflict(s)";
    }
    std::cout << "\n";
    for (const anmat::StreamConflict& c : (*stream)->conflicts()) {
      std::cout << "conflict [" << anmat::StreamConflictKindName(c) << "] row "
                << c.cell.row << " column " << c.cell.column << ": kept \""
                << c.current << "\", one-shot repair would hold \""
                << c.expected << "\" (rule " << c.pfd_index << ", batch "
                << c.batch + 1 << ")\n";
    }
  }

  if (args.Has("out")) {
    if (anmat::Status s =
            anmat::WriteCsvFile((*stream)->relation(), args.Get("out"));
        !s.ok()) {
      return Fail(s);
    }
    if (!json) {
      std::cout << "wrote accumulated table to " << args.Get("out") << "\n";
    }
  }
  return 0;
}

/// Stream mode over the daemon: the client reads the CSV (the daemon
/// tells it the catalog path), opens a server-side DetectionStream and
/// feeds it batch by batch over the socket — the wire protocol a live
/// feed would use. Output is assembled to match direct mode byte for
/// byte (JSON) / line for line (text).
int RunStreamConnect(const ParsedArgs& args) {
  if (!args.Has("project")) {
    return FlagError("--connect requires --project <dir>");
  }
  size_t batch_rows = 256;
  if (args.Has("batch")) {
    batch_rows = std::strtoul(args.Get("batch").c_str(), nullptr, 10);
    if (batch_rows == 0) {
      return FlagError("invalid value for flag: --batch: must be >= 1");
    }
  }
  const std::string clean = args.Has("clean") ? args.Get("clean") : "off";
  if (clean != "off" && clean != "constant" && clean != "all") {
    return FlagError("invalid value for flag: --clean: \"" + clean +
                     "\" (expected off, constant, or all)");
  }
  const bool json = FlagJson(args);

  auto client = anmat::DaemonClient::Connect(args.Get("connect"));
  if (!client.ok()) return Fail(client.status());

  auto dataset = client->Call("dataset", ConnectParams(args));
  if (!dataset.ok()) return Fail(dataset.status());
  if (!dataset->ok) return Fail(dataset->error);
  auto path = dataset->result.GetString("path");
  if (!path.ok()) return Fail(path.status());
  auto relation = anmat::ReadCsvFile(path.value());
  if (!relation.ok()) return Fail(relation.status());

  anmat::JsonValue open_params = ConnectParams(args);
  anmat::JsonValue columns = anmat::JsonValue::Array();
  for (const anmat::ColumnSpec& c : relation->schema().columns()) {
    columns.push_back(anmat::JsonValue::String(c.name));
  }
  open_params.Set("columns", std::move(columns));
  open_params.Set("clean", anmat::JsonValue::String(clean));
  auto open = client->Call("stream.open", std::move(open_params));
  if (!open.ok()) return Fail(open.status());
  if (!open->ok) return Fail(open->error);
  auto stream_id = open->result.GetInt("stream");
  if (!stream_id.ok()) return Fail(stream_id.status());

  anmat::JsonValue batches = anmat::JsonValue::Array();
  for (anmat::RowId begin = 0; begin < relation->num_rows();
       begin += static_cast<anmat::RowId>(batch_rows)) {
    const anmat::RowId end = std::min<anmat::RowId>(
        begin + static_cast<anmat::RowId>(batch_rows),
        static_cast<anmat::RowId>(relation->num_rows()));
    anmat::JsonValue rows = anmat::JsonValue::Array();
    for (anmat::RowId r = begin; r < end; ++r) {
      anmat::JsonValue row = anmat::JsonValue::Array();
      for (const std::string& cell : relation->Row(r)) {
        row.push_back(anmat::JsonValue::String(cell));
      }
      rows.push_back(std::move(row));
    }
    anmat::JsonValue params = ConnectParams(args);
    params.Set("stream", anmat::JsonValue::Int(stream_id.value()));
    params.Set("rows", std::move(rows));
    auto appended = client->Call("stream.append", std::move(params));
    if (!appended.ok()) return Fail(appended.status());
    if (!appended->ok) return Fail(appended->error);
    if (json) {
      batches.push_back(appended->result);
    } else {
      std::cout << appended->text;
    }
  }

  anmat::JsonValue close_params = ConnectParams(args);
  close_params.Set("stream", anmat::JsonValue::Int(stream_id.value()));
  if (args.Has("out")) {
    // The daemon writes the accumulated CSV; resolve the path against
    // this process's cwd, not the daemon's.
    close_params.Set("out",
                     anmat::JsonValue::String(
                         std::filesystem::absolute(args.Get("out")).string()));
  }
  auto closed = client->Call("stream.close", std::move(close_params));
  if (!closed.ok()) return Fail(closed.status());
  if (!closed->ok) return Fail(closed->error);

  if (json) {
    // Reassemble the direct CLI's root object (its exact key order);
    // stream.close returns the summary fields, the batches array was
    // collected append by append.
    anmat::JsonValue root = anmat::JsonValue::Object();
    root.Set("rows", anmat::JsonValue::Int(
                         static_cast<int64_t>(relation->num_rows())));
    root.Set("batches", std::move(batches));
    for (const char* key :
         {"clean", "distinct_values", "violations", "repairs", "conflicts"}) {
      const anmat::JsonValue* value = closed->result.Get(key);
      if (value != nullptr) root.Set(key, *value);
    }
    std::cout << root.DumpPretty() << "\n";
  } else {
    std::cout << closed->text;
  }
  return 0;
}

int CmdStream(const ParsedArgs& args) {
  if (args.Has("connect")) return RunStreamConnect(args);
  if (args.Has("project")) {
    anmat::Relation relation;
    std::vector<anmat::Pfd> rules;
    if (int code = LoadProjectInputs(args, &relation, &rules); code != 0) {
      return code;
    }
    return RunStream(relation, rules, args);
  }
  if (const std::string e =
          RejectFlags(args, {"data"}, "requires --project mode");
      !e.empty()) {
    return FlagError(e);
  }
  if (args.positional.size() != 1 || !args.Has("rules")) return Usage();
  auto relation = anmat::ReadCsvFile(args.positional[0]);
  if (!relation.ok()) return Fail(relation.status());
  auto rules = LoadConfirmedRules(args.Get("rules"));
  if (!rules.ok()) return Fail(rules.status());
  return RunStream(relation.value(), rules.value(), args);
}

int CmdRepair(const ParsedArgs& args) {
  if (args.Has("connect")) {
    if (!args.Has("project")) {
      return FlagError("--connect requires --project <dir>");
    }
    anmat::JsonValue params = ConnectParams(args);
    if (args.Has("out")) {
      // The daemon writes the cleaned CSV; resolve the path against this
      // process's cwd, not the daemon's.
      params.Set("out",
                 anmat::JsonValue::String(
                     std::filesystem::absolute(args.Get("out")).string()));
    }
    return FinishDaemonCall(DaemonCall(args, "repair", std::move(params)),
                            FlagJson(args));
  }
  if (args.Has("project")) {
    anmat::Relation relation;
    std::vector<anmat::Pfd> rules;
    if (int code = LoadProjectInputs(args, &relation, &rules); code != 0) {
      return code;
    }
    return RunRepair(std::move(relation), rules, args);
  }
  if (const std::string e =
          RejectFlags(args, {"data"}, "requires --project mode");
      !e.empty()) {
    return FlagError(e);
  }
  if (args.positional.size() != 1 || !args.Has("rules")) return Usage();
  auto relation = anmat::ReadCsvFile(args.positional[0]);
  if (!relation.ok()) return Fail(relation.status());
  auto rules = LoadConfirmedRules(args.Get("rules"));
  if (!rules.ok()) return Fail(rules.status());
  return RunRepair(std::move(relation).value(), rules.value(), args);
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
