#include "service/project_host.h"

#include <filesystem>
#include <optional>
#include <utility>

#include "csv/csv_writer.h"

namespace anmat {
namespace {

// -- Param lookups ----------------------------------------------------------
// Verb params are a JSON object assembled by a remote client; every lookup
// therefore type-checks and turns mismatches into InvalidArgument naming
// the key, never into a crash.

Result<std::string> ParamString(const JsonValue& params, const char* key,
                                std::string fallback) {
  const JsonValue* v = params.Get(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    return Status::InvalidArgument(std::string("param \"") + key +
                                   "\" must be a string");
  }
  return v->as_string();
}

Result<int64_t> ParamInt(const JsonValue& params, const char* key,
                         int64_t fallback) {
  const JsonValue* v = params.Get(key);
  if (v == nullptr) return fallback;
  return JsonToInt(*v, key);
}

Result<double> ParamDouble(const JsonValue& params, const char* key,
                           double fallback) {
  const JsonValue* v = params.Get(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument(std::string("param \"") + key +
                                   "\" must be a number");
  }
  return v->as_number();
}

/// Rule ids: a non-empty array of positive integers (`{"ids": [1, 2]}`).
Result<std::vector<uint64_t>> ParamIds(const JsonValue& params) {
  const JsonValue* v = params.Get("ids");
  if (v == nullptr || !v->is_array() || v->size() == 0) {
    return Status::InvalidArgument(
        "param \"ids\" must be a non-empty array of rule ids");
  }
  std::vector<uint64_t> ids;
  ids.reserve(v->size());
  for (const JsonValue& item : v->items()) {
    ANMAT_ASSIGN_OR_RETURN(const int64_t id, JsonToInt(item, "ids"));
    if (id <= 0) {
      return Status::InvalidArgument("not a rule id: " + item.Dump());
    }
    ids.push_back(static_cast<uint64_t>(id));
  }
  return ids;
}

}  // namespace

Result<Project::Parameters> ParamParameters(const JsonValue& params,
                                            Project::Parameters fallback) {
  ANMAT_ASSIGN_OR_RETURN(
      fallback.min_coverage,
      ParamDouble(params, "coverage", fallback.min_coverage));
  ANMAT_ASSIGN_OR_RETURN(
      fallback.allowed_violation_ratio,
      ParamDouble(params, "violations", fallback.allowed_violation_ratio));
  return fallback;
}

ProjectHost::ProjectHost(Project project, const Options& options)
    : project_(std::move(project)),
      dir_(project_.dir()),
      engine_(ExecutionOptions{options.engine_threads, true, nullptr}) {}

Result<VerbResult> ProjectHost::Dispatch(
    const std::string& verb, const JsonValue& params) {
  if (verb == "info") return Info();
  if (verb == "fsck") return Fsck();
  if (verb == "dataset") return Dataset(params);
  if (verb == "discover") return Discover(params);
  if (verb == "profile") return Profile(params);
  if (verb == "detect") return Detect(params);
  if (verb == "repair") return Repair(params);
  if (verb == "rules.list") return RulesList();
  if (verb == "rules.confirm") {
    return RulesSetStatus(params, RuleStatus::kConfirmed);
  }
  if (verb == "rules.reject") {
    return RulesSetStatus(params, RuleStatus::kRejected);
  }
  if (verb == "rules.delete") return RulesDelete(params);
  if (verb == "rules.annotate") return RulesAnnotate(params);
  if (verb == "stream.open") return StreamOpen(params);
  if (verb == "stream.append") return StreamAppend(params);
  if (verb == "stream.close") return StreamClose(params);
  return Status::InvalidArgument("unknown verb: " + verb);
}

JsonValue ProjectHost::CacheStatsJson() {
  JsonValue stats = JsonValue::Object();
  stats.Set("hits",
            JsonValue::Int(static_cast<int64_t>(engine_.automata().hits())));
  stats.Set("misses", JsonValue::Int(
                          static_cast<int64_t>(engine_.automata().misses())));
  stats.Set("fallbacks",
            JsonValue::Int(
                static_cast<int64_t>(engine_.automata().fallbacks())));
  const DispatchStats dispatch = engine_.automata().dispatch_stats();
  JsonValue d = JsonValue::Object();
  d.Set("automata", JsonValue::Int(static_cast<int64_t>(dispatch.automata)));
  d.Set("fallbacks",
        JsonValue::Int(static_cast<int64_t>(dispatch.fallbacks)));
  d.Set("total_states",
        JsonValue::Int(static_cast<int64_t>(dispatch.total_states)));
  d.Set("total_patterns",
        JsonValue::Int(static_cast<int64_t>(dispatch.total_patterns)));
  d.Set("pool_bytes",
        JsonValue::Int(static_cast<int64_t>(dispatch.pool_bytes)));
  d.Set("probes", JsonValue::Int(static_cast<int64_t>(dispatch.probes)));
  d.Set("probe_hits",
        JsonValue::Int(static_cast<int64_t>(dispatch.probe_hits)));
  d.Set("hits", JsonValue::Int(static_cast<int64_t>(dispatch.hits)));
  d.Set("misses", JsonValue::Int(static_cast<int64_t>(dispatch.misses)));
  stats.Set("dispatch", d);
  return stats;
}

size_t ProjectHost::num_streams() {
  MutexLock lock(&streams_mu_);
  return streams_.size();
}

Result<std::vector<Pfd>> ProjectHost::ConfirmedRules() {
  std::vector<Pfd> rules = project_.ConfirmedPfds();
  if (rules.empty()) {
    return Status::InvalidArgument(
        "project has no confirmed rules; run 'anmat rules confirm'");
  }
  return rules;
}

Result<std::shared_ptr<ProjectHost::StreamEntry>> ProjectHost::FindStream(
    const JsonValue& params, bool remove) {
  ANMAT_ASSIGN_OR_RETURN(const int64_t id, ParamInt(params, "stream", 0));
  MutexLock lock(&streams_mu_);
  auto it = streams_.find(static_cast<uint64_t>(id));
  if (it == streams_.end()) {
    return Status::NotFound("no open stream with id " + std::to_string(id));
  }
  std::shared_ptr<StreamEntry> entry = it->second;
  if (remove) streams_.erase(it);
  return entry;
}

Result<Relation> ProjectHost::LoadData(const JsonValue& params) {
  ANMAT_ASSIGN_OR_RETURN(const std::string data,
                         ParamString(params, "data", ""));
  return project_.LoadDataset(data);
}

Result<VerbResult> ProjectHost::Info() {
  ReaderMutexLock gate(&gate_);
  VerbResult out;
  out.result = JsonValue::Object();
  out.result.Set("name", JsonValue::String(project_.name()));
  out.result.Set("dir", JsonValue::String(project_.dir()));
  out.result.Set("datasets", JsonValue::Int(static_cast<int64_t>(
                                 project_.datasets().size())));
  out.result.Set("rules", JsonValue::Int(static_cast<int64_t>(
                              project_.rules().size())));
  out.result.Set("confirmed", JsonValue::Int(static_cast<int64_t>(
                                  project_.ConfirmedPfds().size())));
  out.text = "project \"" + project_.name() + "\" (" +
             std::to_string(project_.datasets().size()) + " dataset(s), " +
             std::to_string(project_.rules().size()) + " rule(s), " +
             std::to_string(project_.ConfirmedPfds().size()) +
             " confirmed)\n";
  return out;
}

Result<VerbResult> ProjectHost::Fsck() {
  // The host's project ran journal recovery when it opened, and the open
  // project loaded, so fsck reports that recovery plus the live (healthy
  // by construction) state, through the report the CLI's direct
  // `anmat project fsck` prints.
  ReaderMutexLock gate(&gate_);
  return FsckReport(project_.recovery(), &project_, Status::OK());
}

Result<VerbResult> ProjectHost::Dataset(const JsonValue& params) {
  // Resolves `data` like LoadData, but returns the catalog entry instead
  // of the rows: `anmat stream --project` reads the CSV itself and feeds
  // it batch by batch.
  ReaderMutexLock gate(&gate_);
  ANMAT_ASSIGN_OR_RETURN(const std::string data,
                         ParamString(params, "data", ""));
  ANMAT_ASSIGN_OR_RETURN(const Project::DatasetEntry entry,
                         project_.CheckDataset(data));
  VerbResult out;
  out.result = JsonValue::Object();
  out.result.Set("name", JsonValue::String(entry.name));
  out.result.Set("path", JsonValue::String(entry.path));
  out.text = entry.name + ": " + entry.path + "\n";
  return out;
}

Result<VerbResult> ProjectHost::Discover(const JsonValue& params) {
  WriterMutexLock gate(&gate_);

  ANMAT_ASSIGN_OR_RETURN(const Project::Parameters parameters,
                         ParamParameters(params, project_.parameters()));
  project_.set_parameters(parameters);

  ANMAT_ASSIGN_OR_RETURN(const std::string data,
                         ParamString(params, "data", ""));
  std::string dataset_name;
  if (!data.empty()) {
    ANMAT_ASSIGN_OR_RETURN(
        dataset_name,
        ParamString(params, "name",
                    std::filesystem::path(data).stem().string()));
    ANMAT_RETURN_NOT_OK(project_.AttachDataset(dataset_name, data));
  } else {
    ANMAT_ASSIGN_OR_RETURN(Project::DatasetEntry entry,
                           project_.FindDataset());
    dataset_name = entry.name;
  }
  ANMAT_ASSIGN_OR_RETURN(Relation relation,
                         project_.LoadDataset(dataset_name));

  ANMAT_ASSIGN_OR_RETURN(
      DiscoveryResult discovery,
      engine_.Discover(relation, project_.discovery_options()));
  for (const DiscoveredPfd& d : discovery.pfds) {
    project_.AddDiscoveredRule(d, dataset_name);
  }
  ANMAT_RETURN_NOT_OK(project_.Save());

  return DiscoverReport(discovery.pfds, project_.rules(),
                        project_.rules_path());
}

Result<VerbResult> ProjectHost::Profile(const JsonValue& params) {
  ReaderMutexLock gate(&gate_);
  ANMAT_ASSIGN_OR_RETURN(Relation relation, LoadData(params));
  return ProfileReport(engine_.Profile(relation));
}

Result<VerbResult> ProjectHost::Detect(const JsonValue& params) {
  ReaderMutexLock gate(&gate_);
  ANMAT_ASSIGN_OR_RETURN(Relation relation, LoadData(params));
  ANMAT_ASSIGN_OR_RETURN(const std::vector<Pfd> rules, ConfirmedRules());
  ANMAT_ASSIGN_OR_RETURN(DetectionResult detection,
                         engine_.Detect(relation, rules));
  ANMAT_ASSIGN_OR_RETURN(const int64_t max, ParamInt(params, "max", -1));
  return DetectReport(relation, rules, std::move(detection),
                      max >= 0 ? std::optional<size_t>(max) : std::nullopt);
}

Result<VerbResult> ProjectHost::Repair(const JsonValue& params) {
  ReaderMutexLock gate(&gate_);
  ANMAT_ASSIGN_OR_RETURN(Relation relation, LoadData(params));
  ANMAT_ASSIGN_OR_RETURN(const std::vector<Pfd> rules, ConfirmedRules());
  ANMAT_ASSIGN_OR_RETURN(RepairResult result,
                         engine_.Repair(&relation, rules));
  ANMAT_ASSIGN_OR_RETURN(const std::string out_path,
                         ParamString(params, "out", ""));
  if (!out_path.empty()) {
    ANMAT_RETURN_NOT_OK(WriteCsvFile(relation, out_path));
  }
  return RepairReport(result, rules, out_path);
}

Result<VerbResult> ProjectHost::RulesList() {
  ReaderMutexLock gate(&gate_);
  return RuleSetReport(project_.rules());
}

Result<VerbResult> ProjectHost::RulesSetStatus(
    const JsonValue& params, RuleStatus status) {
  WriterMutexLock gate(&gate_);
  std::vector<uint64_t> ids;
  const JsonValue* all = params.Get("all");
  if (all != nullptr && all->is_bool() && all->as_bool()) {
    for (const RuleRecord& r : project_.rules().records()) {
      // `confirm all` leaves rejected rules rejected (the CLI's semantics);
      // only an explicit id overrides a rejection.
      if (status == RuleStatus::kConfirmed &&
          r.status == RuleStatus::kRejected) {
        continue;
      }
      ids.push_back(r.id);
    }
  } else {
    ANMAT_ASSIGN_OR_RETURN(ids, ParamIds(params));
  }
  for (uint64_t id : ids) {
    ANMAT_RETURN_NOT_OK(project_.SetRuleStatus(id, status));
  }
  ANMAT_RETURN_NOT_OK(project_.Save());

  return RulesMarkedReport(ids.size(), status,
                           project_.ConfirmedPfds().size());
}

Result<VerbResult> ProjectHost::RulesDelete(const JsonValue& params) {
  WriterMutexLock gate(&gate_);
  ANMAT_ASSIGN_OR_RETURN(const std::vector<uint64_t> ids, ParamIds(params));
  for (uint64_t id : ids) {
    // An unknown id rejects the whole command; nothing is persisted.
    ANMAT_RETURN_NOT_OK(project_.DeleteRule(id));
  }
  ANMAT_RETURN_NOT_OK(project_.Save());

  return RulesDeletedReport(ids.size(), project_.rules().size());
}

Result<VerbResult> ProjectHost::RulesAnnotate(const JsonValue& params) {
  WriterMutexLock gate(&gate_);
  ANMAT_ASSIGN_OR_RETURN(const int64_t id, ParamInt(params, "id", 0));
  if (id <= 0) {
    return Status::InvalidArgument("param \"id\" must be a positive rule id");
  }
  ANMAT_ASSIGN_OR_RETURN(const std::string note,
                         ParamString(params, "note", ""));
  ANMAT_RETURN_NOT_OK(
      project_.AnnotateRule(static_cast<uint64_t>(id), note));
  ANMAT_RETURN_NOT_OK(project_.Save());

  return RuleAnnotatedReport(static_cast<uint64_t>(id), note);
}

Result<VerbResult> ProjectHost::StreamOpen(const JsonValue& params) {
  std::vector<Pfd> rules;
  {
    ReaderMutexLock gate(&gate_);
    ANMAT_ASSIGN_OR_RETURN(rules, ConfirmedRules());
  }
  const JsonValue* columns = params.Get("columns");
  if (columns == nullptr || !columns->is_array()) {
    return Status::InvalidArgument(
        "param \"columns\" must be an array of column names");
  }
  std::vector<std::string> names;
  names.reserve(columns->size());
  for (const JsonValue& c : columns->items()) {
    if (!c.is_string()) {
      return Status::InvalidArgument(
          "param \"columns\" must be an array of column names");
    }
    names.push_back(c.as_string());
  }
  ANMAT_ASSIGN_OR_RETURN(const std::string clean,
                         ParamString(params, "clean", "off"));
  if (clean != "off" && clean != "constant" && clean != "all") {
    return Status::InvalidArgument("param \"clean\": \"" + clean +
                                   "\" (expected off, constant, or all)");
  }

  ANMAT_ASSIGN_OR_RETURN(Schema schema, Schema::MakeText(names));
  ANMAT_ASSIGN_OR_RETURN(std::unique_ptr<DetectionStream> stream,
                         engine_.OpenStream(schema, rules));
  if (clean != "off") {
    stream->set_clean_on_ingest(true);
    stream->set_clean_variable_rules(clean == "all");
  }

  auto entry = std::make_shared<StreamEntry>();
  {
    // Uncontended (the entry is not yet published), held for the
    // analysis's sake: `stream` is guarded by the entry's mutex.
    MutexLock lock(&entry->mu);
    entry->stream = std::move(stream);
  }
  entry->pfds = std::move(rules);
  entry->clean = clean;

  uint64_t id = 0;
  {
    MutexLock lock(&streams_mu_);
    id = next_stream_id_++;
    streams_[id] = std::move(entry);
  }

  VerbResult out;
  out.result = JsonValue::Object();
  out.result.Set("stream", JsonValue::Int(static_cast<int64_t>(id)));
  out.result.Set("clean", JsonValue::String(clean));
  out.text = "opened stream " + std::to_string(id) + " (" +
             std::to_string(names.size()) + " column(s), clean=" + clean +
             ")\n";
  return out;
}

Result<VerbResult> ProjectHost::StreamAppend(const JsonValue& params) {
  ANMAT_ASSIGN_OR_RETURN(const std::shared_ptr<StreamEntry> entry,
                         FindStream(params, /*remove=*/false));
  const JsonValue* rows = params.Get("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument(
        "param \"rows\" must be an array of row arrays");
  }
  std::vector<std::vector<std::string>> batch;
  batch.reserve(rows->size());
  for (const JsonValue& row : rows->items()) {
    if (!row.is_array()) {
      return Status::InvalidArgument(
          "param \"rows\" must be an array of row arrays");
    }
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const JsonValue& cell : row.items()) {
      if (!cell.is_string()) {
        return Status::InvalidArgument("row cells must be strings");
      }
      cells.push_back(cell.as_string());
    }
    batch.push_back(std::move(cells));
  }

  // Appends to one stream serialize here; the registry lock is already
  // released, so other streams (and every other verb) proceed.
  MutexLock lock(&entry->mu);
  ANMAT_ASSIGN_OR_RETURN(DetectionResult cumulative,
                         entry->stream->AppendRows(batch));
  entry->last_violations = cumulative.violations.size();
  return StreamBatchReport(*entry->stream, batch.size(),
                           entry->last_violations);
}

Result<VerbResult> ProjectHost::StreamClose(const JsonValue& params) {
  ANMAT_ASSIGN_OR_RETURN(const std::shared_ptr<StreamEntry> entry,
                         FindStream(params, /*remove=*/true));
  // A straggling append that raced the close finishes first.
  MutexLock lock(&entry->mu);
  ANMAT_ASSIGN_OR_RETURN(const std::string out_path,
                         ParamString(params, "out", ""));
  if (!out_path.empty()) {
    ANMAT_RETURN_NOT_OK(WriteCsvFile(entry->stream->relation(), out_path));
  }
  return StreamCloseReport(*entry->stream, entry->clean,
                           entry->last_violations, entry->pfds, out_path);
}

}  // namespace anmat
