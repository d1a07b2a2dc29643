// The two batch workloads: `pipeline` (the one-shot CLI job: ingest →
// profile → discover → detect → repair with the discovered rules) and
// `clean` (rules already known: ingest → detect → repair on large tables).
// Both build a fresh Engine per pass, as a one-shot CLI process does, so
// every pass pays for automaton compilation.
#include <algorithm>
#include <filesystem>
#include <functional>

#include "anmat/engine.h"
#include "anmat/report.h"
#include "bench.h"
#include "csv/csv_reader.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "detect/detector.h"
#include "discovery/discovery.h"
#include "repair/repair.h"

namespace perfbench {
namespace {

enum class Kind { kZip, kName, kEmployee, kPhone };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kZip: return "zip";
    case Kind::kName: return "name";
    case Kind::kEmployee: return "employee";
    case Kind::kPhone: return "phone";
  }
  return "?";
}

constexpr double kErrorRate = 0.01;

anmat::Dataset Generate(Kind kind, size_t rows, uint64_t seed) {
  switch (kind) {
    case Kind::kZip: return anmat::ZipCityStateDataset(rows, seed, kErrorRate);
    case Kind::kName: return anmat::NameGenderDataset(rows, seed, kErrorRate);
    case Kind::kEmployee: return anmat::EmployeeDataset(rows, seed, kErrorRate);
    case Kind::kPhone: return anmat::PhoneStateDataset(rows, seed, kErrorRate);
  }
  return {};
}

/// Several small instances per dataset kind, each from its own seed
/// derived from the workload seed: the cost of discovery varies from one
/// generated table to the next, and a pass over several of them varies
/// far less from seed to seed than a pass over one.
struct Part {
  Kind kind;
  size_t rows;
  size_t instances;
};

struct Input {
  Kind kind;
  std::string path;
  uint64_t bytes = 0;
  std::vector<anmat::Pfd> rules;  // clean: the confirmed rules
};

/// One dataset's result in one pass; every pass must reproduce it.
struct Outcome {
  uint64_t rules_hash = 0;  // pipeline: hash of DiscoveredPfdsToJson
  size_t rules = 0;
  size_t violations = 0;
  size_t repairs = 0;
  size_t conflicts = 0;
  uint64_t repaired_hash = 0;

  void SetResult(const anmat::DetectionResult& detection,
                 const anmat::RepairResult& repair,
                 const anmat::Relation& repaired) {
    violations = detection.violations.size();
    repairs = repair.repairs.size();
    conflicts = repair.conflicted_cells.size();
    repaired_hash = RelationHash(repaired);
  }
  bool operator==(const Outcome& o) const {
    return rules_hash == o.rules_hash && rules == o.rules &&
           violations == o.violations && repairs == o.repairs &&
           conflicts == o.conflicts && repaired_hash == o.repaired_hash;
  }
  std::string ToString() const {
    return "rules=" + std::to_string(rules) + " rules_hash=" + Hex(rules_hash) +
           " violations=" + std::to_string(violations) +
           " repairs=" + std::to_string(repairs) +
           " conflicts=" + std::to_string(conflicts) +
           " repaired_hash=" + Hex(repaired_hash);
  }
};

/// Counters read from the public result structs and the engine's cache.
struct Counters {
  double candidates = 0, rules = 0;
  double rows_scanned = 0, candidate_rows = 0, pairs = 0, violations = 0;
  double repair_passes = 0, repairs = 0, conflicts = 0;
  double cache_hits = 0, cache_misses = 0, cache_fallbacks = 0;
  double dispatch_automata = 0, dispatch_fallbacks = 0;
  double probes = 0, probe_hits = 0;

  void Add(const anmat::DetectionResult& detection,
           const anmat::RepairResult& repair) {
    rows_scanned += detection.stats.rows_scanned;
    candidate_rows += detection.stats.candidate_rows;
    pairs += detection.stats.pairs_checked;
    violations += detection.stats.violations;
    repair_passes += repair.passes;
    repairs += repair.repairs.size();
    conflicts += repair.conflicted_cells.size();
  }
  void ReadEngine(anmat::Engine& engine) {
    cache_hits = engine.automata().hits();
    cache_misses = engine.automata().misses();
    cache_fallbacks = engine.automata().fallbacks();
    const anmat::DispatchStats d = engine.automata().dispatch_stats();
    dispatch_automata = d.automata;
    dispatch_fallbacks = d.fallbacks;
    probes = static_cast<double>(d.probes);
    probe_hits = static_cast<double>(d.probe_hits);
  }
};

struct PassResult {
  std::vector<Outcome> outcomes;  // one per input
  Counters counters;
  uint64_t trace_id = 0;
  uint64_t ops = 0;
};

using PassFn = std::function<PassResult()>;

struct Timed {
  PassResult result;
  double wall_ms = 0;
  double factor = 1;  // host-speed scale factor (SpeedMeter)
  double ms() const { return wall_ms * factor; }
};

/// Runs passes until `seconds` have elapsed (and at least `min_passes`),
/// timing the host-speed kernel between passes.
std::vector<Timed> RunPasses(SpeedMeter* meter, double seconds,
                             size_t min_passes, const PassFn& pass) {
  std::vector<Timed> out;
  const Clock::time_point start = Clock::now();
  double before = meter->Measure();
  while (out.size() < min_passes || MsSince(start) < seconds * 1000) {
    Timed t;
    const Clock::time_point pass_start = Clock::now();
    t.result = pass();
    t.wall_ms = MsSince(pass_start);
    const double after = meter->Measure();
    t.factor = SpeedMeter::Factor(before, after);
    before = after;
    out.push_back(std::move(t));
  }
  return out;
}

/// Times `setup` `repeats` times (the last run's state is kept by the
/// callee) and returns the median scaled seconds.
double TimeSetup(SpeedMeter* meter, int repeats,
                 const std::function<void()>& setup) {
  std::vector<double> s;
  double before = meter->Measure();
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    const double wall_ms = MsSince(start);
    const double after = meter->Measure();
    s.push_back(wall_ms * SpeedMeter::Factor(before, after) / 1000);
    before = after;
  }
  return Median(s);
}

std::vector<double> Scaled(const std::vector<Timed>& passes) {
  std::vector<double> v;
  for (const Timed& t : passes) v.push_back(t.ms());
  return v;
}

/// Checks that every pass reproduced the reference outcomes; a dataset
/// whose outcome differs fails its `ops_per_input` operations.
void CheckPasses(const std::vector<Timed>& passes,
                 const std::vector<Outcome>& reference,
                 const std::vector<Input>& inputs, uint64_t ops_per_input,
                 Report* report) {
  for (size_t p = 0; p < passes.size(); ++p) {
    const std::vector<Outcome>& got = passes[p].result.outcomes;
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (i >= got.size() || !(got[i] == reference[i])) {
        report->Fail("pass " + std::to_string(p) + " " +
                         KindName(inputs[i].kind) + " #" + std::to_string(i) +
                         ": " + (i < got.size() ? got[i].ToString() : "none") +
                         " != reference " + reference[i].ToString(),
                     ops_per_input);
      }
    }
  }
}

/// Per-layer metrics from the spans of the traced passes plus the
/// counters those passes read.
void LayerMetrics(const Tracer& tracer, const std::vector<Timed>& traced,
                  const std::vector<Input>& inputs, Report* report) {
  const std::vector<Span> spans = tracer.spans();
  const std::map<uint64_t, int64_t> self = tracer.SelfTimesNs();
  std::map<std::string, std::vector<double>> per_pass;  // metric -> values
  double bytes = 0;
  for (const Input& in : inputs) bytes += static_cast<double>(in.bytes);
  for (const Timed& t : traced) {
    std::map<std::string, double> sum_ms;
    double root = 0;
    std::map<std::string, double> layer_self;
    for (const Span& s : spans) {
      if (s.trace_id != t.result.trace_id) continue;
      const double ms = (s.end_ns - s.start_ns) / 1e6 * t.factor;
      const double self_scaled = self.at(s.span_id) / 1e6 * t.factor;
      if (s.parent_id == 0) {
        root += ms;
        layer_self["bench"] += self_scaled;
        continue;
      }
      sum_ms[s.name] += ms;
      // "discovery.discover.zip" -> layer "discovery", stage
      // "discovery.discover".
      const std::string layer = s.name.substr(0, s.name.find('.'));
      layer_self[layer] += self_scaled;
      const size_t second = s.name.find('.', layer.size() + 1);
      if (second != std::string::npos) sum_ms[s.name.substr(0, second)] += ms;
    }
    for (const auto& [layer, ms] : layer_self) {
      per_pass["trace.self_frac." + layer].push_back(root > 0 ? ms / root : 0);
    }
    per_pass["csv.read_ms"].push_back(sum_ms["csv.read"]);
    per_pass["csv.mb_per_s"].push_back(
        sum_ms["csv.read"] > 0 ? bytes / 1e6 / (sum_ms["csv.read"] / 1e3) : 0);
    per_pass["discovery.profile_ms"].push_back(sum_ms["discovery.profile"]);
    for (const char* k : {"zip", "name", "employee"}) {
      per_pass[std::string("discovery.discover_ms.") + k].push_back(
          sum_ms[std::string("discovery.discover.") + k]);
    }
    per_pass["detect.detect_ms"].push_back(sum_ms["detect.detect"]);
    per_pass["repair.repair_ms"].push_back(sum_ms["repair.repair"]);
  }
  for (const auto& [name, values] : per_pass) report->Set(name, Median(values));

  // Counters repeat exactly from pass to pass (same inputs, fresh engine);
  // report the last traced pass's.
  const Counters& c = traced.back().result.counters;
  report->Set("discovery.candidates", c.candidates);
  report->Set("discovery.rules_per_candidate",
              c.candidates > 0 ? c.rules / c.candidates : 0);
  report->Set("pattern.cache_hits", c.cache_hits);
  report->Set("pattern.cache_misses", c.cache_misses);
  report->Set("pattern.cache_fallbacks", c.cache_fallbacks);
  report->Set("pattern.cache_hit_ratio",
              c.cache_hits + c.cache_misses > 0
                  ? c.cache_hits / (c.cache_hits + c.cache_misses)
                  : 0);
  report->Set("dispatch.automata", c.dispatch_automata);
  report->Set("dispatch.fallbacks", c.dispatch_fallbacks);
  report->Set("dispatch.probe_hit_ratio",
              c.probes > 0 ? c.probe_hits / c.probes : 0);
  report->Set("detect.candidate_ratio",
              c.rows_scanned > 0 ? c.candidate_rows / c.rows_scanned : 0);
  report->Set("detect.pairs_checked", c.pairs);
  report->Set("detect.violations", c.violations);
  report->Set("repair.passes", c.repair_passes);
  report->Set("repair.repairs", c.repairs);
  report->Set("repair.conflicts", c.conflicts);
}

/// The measurement shared by both batch workloads: untraced passes for
/// the end-to-end metrics, or (traced run) an untraced half then a traced
/// half for the per-layer metrics and the tracing overhead.
void MeasurePasses(const Options& o, SpeedMeter* meter, Tracer* tracer,
                   const PassFn& pass, const std::vector<Input>& inputs,
                   const std::vector<Outcome>& reference,
                   uint64_t ops_per_input, double setup_s, Report* report) {
  const size_t min_passes = 3;
  tracer->set_enabled(false);
  std::vector<Timed> untraced =
      RunPasses(meter, o.trace ? o.seconds / 2 : o.seconds, min_passes, pass);
  std::vector<Timed> traced;
  if (o.trace) {
    tracer->set_enabled(true);
    traced = RunPasses(meter, o.seconds / 2, min_passes, pass);
    tracer->set_enabled(false);
  }
  CheckPasses(untraced, reference, inputs, ops_per_input, report);
  CheckPasses(traced, reference, inputs, ops_per_input, report);

  for (const Timed& t : untraced) report->attempted += t.result.ops;
  for (const Timed& t : traced) report->attempted += t.result.ops;

  const double pass_ms = Median(Scaled(untraced));
  std::vector<double> raw;
  for (const Timed& t : untraced) raw.push_back(t.wall_ms);
  report->notes.push_back(
      "passes: " + std::to_string(untraced.size()) + " untraced, " +
      std::to_string(traced.size()) + " traced; raw wall pass median " +
      std::to_string(Median(raw)) + " ms, host-speed factor median " +
      std::to_string(meter->MedianFactor()));
  if (!o.trace) {
    report->Set("setup_s", setup_s);
    report->Set("pass_s", pass_ms / 1000);
    // Every pass makes the same calls: throughput at the median pass.
    report->Set("req_per_s",
                static_cast<double>(untraced.front().result.ops) /
                    (pass_ms / 1000));
    report->Set("peak_rss_mb", PeakRssMb());
    return;
  }
  const double traced_ms = Median(Scaled(traced));
  report->Set("trace.overhead_frac", (traced_ms - pass_ms) / pass_ms);
  LayerMetrics(*tracer, traced, inputs, report);
}

std::string WriteInput(const anmat::Relation& relation, const std::string& path,
                       Input* input) {
  auto status = anmat::WriteCsvFile(relation, path);
  if (!status.ok()) return status.ToString();
  input->path = path;
  input->bytes = std::filesystem::file_size(path);
  return "";
}

uint64_t SubSeed(uint64_t seed, Kind kind, size_t instance) {
  return seed * 1000003ull + static_cast<uint64_t>(kind) * 1009ull + instance;
}

}  // namespace

Report RunPipeline(const Options& o, Tracer* tracer) {
  Report report;
  SpeedMeter meter;
  const std::vector<Part> parts = {
      {Kind::kZip, Sized(o, 2000, 300), Sized(o, 3, 1)},
      {Kind::kName, Sized(o, 700, 150), Sized(o, 3, 1)},
      {Kind::kEmployee, Sized(o, 2000, 300), Sized(o, 3, 1)},
  };
  std::vector<Input> inputs;
  std::string error;
  // Set-up is a few ms here; the median of more repetitions is steadier.
  const double setup_s = TimeSetup(&meter, 9, [&] {
    ScopedSpan span(tracer, "setup");
    inputs.clear();
    for (const Part& part : parts) {
      for (size_t i = 0; i < part.instances; ++i) {
        Input in{part.kind, "", 0, {}};
        const anmat::Dataset d =
            Generate(part.kind, part.rows, SubSeed(o.seed, part.kind, i));
        const std::string path = o.work_dir + "/" + KindName(part.kind) +
                                 std::to_string(i) + ".csv";
        ScopedSpan write_span(tracer, "csv.write");
        const std::string e = WriteInput(d.relation, path, &in);
        if (!e.empty()) error = e;
        inputs.push_back(std::move(in));
      }
    }
  });
  if (!error.empty()) {
    report.Fail("setup: " + error);
    return report;
  }

  const anmat::DiscoveryOptions discovery_options;
  const PassFn pass = [&]() {
    PassResult r;
    ScopedSpan root(tracer, "pass");
    r.trace_id = root.trace_id();
    anmat::Engine engine(anmat::ExecutionOptions{1, true, nullptr});
    for (const Input& in : inputs) {
      Outcome out;
      r.ops += 5;
      anmat::Result<anmat::Relation> relation = [&] {
        ScopedSpan s(tracer, "csv.read");
        return anmat::ReadCsvFile(in.path);
      }();
      if (!relation.ok()) {
        out.rules = SIZE_MAX;  // fails the reference check
        r.outcomes.push_back(out);
        continue;
      }
      {
        ScopedSpan s(tracer, "discovery.profile");
        (void)engine.Profile(*relation);
      }
      const std::string discover_span =
          std::string("discovery.discover.") + KindName(in.kind);
      anmat::Result<anmat::DiscoveryResult> discovery = [&] {
        ScopedSpan s(tracer, discover_span.c_str());
        return engine.Discover(*relation, discovery_options);
      }();
      if (!discovery.ok()) {
        out.rules = SIZE_MAX;
        r.outcomes.push_back(out);
        continue;
      }
      out.rules = discovery->pfds.size();
      out.rules_hash = Fnv1a(anmat::DiscoveredPfdsToJson(discovery->pfds).Dump());
      r.counters.candidates += discovery->candidates_examined;
      r.counters.rules += discovery->pfds.size();
      std::vector<anmat::Pfd> pfds;
      for (const anmat::DiscoveredPfd& d : discovery->pfds) pfds.push_back(d.pfd);
      anmat::Result<anmat::DetectionResult> detection = [&] {
        ScopedSpan s(tracer, "detect.detect");
        return engine.Detect(*relation, pfds);
      }();
      anmat::Relation repaired = *relation;
      anmat::Result<anmat::RepairResult> repair = [&] {
        ScopedSpan s(tracer, "repair.repair");
        return engine.Repair(&repaired, pfds);
      }();
      if (!detection.ok() || !repair.ok()) {
        out.violations = SIZE_MAX;
        r.outcomes.push_back(out);
        continue;
      }
      out.SetResult(*detection, *repair, repaired);
      r.counters.Add(*detection, *repair);
      r.outcomes.push_back(out);
    }
    r.counters.ReadEngine(engine);
    return r;
  };

  // Reference outcomes from the cache-less library path (private lazy
  // automata, no Engine): the byte-identity contract says the engine's
  // shared-cache path must produce exactly these.
  std::vector<Outcome> reference;
  for (const Input& in : inputs) {
    Outcome out;
    auto relation = anmat::ReadCsvFile(in.path);
    auto discovery = relation.ok() ? anmat::DiscoverPfds(*relation, discovery_options)
                                   : anmat::Result<anmat::DiscoveryResult>(relation.status());
    if (!discovery.ok()) {
      report.Fail("reference discovery: " + discovery.status().ToString(), 5);
      return report;
    }
    std::vector<anmat::Pfd> pfds;
    for (const anmat::DiscoveredPfd& d : discovery->pfds) pfds.push_back(d.pfd);
    auto detection = anmat::DetectErrors(*relation, pfds);
    anmat::Relation repaired = *relation;
    auto repair = anmat::RepairErrors(&repaired, pfds);
    if (!detection.ok() || !repair.ok() || pfds.empty()) {
      report.Fail(std::string("reference detect/repair on ") + KindName(in.kind) +
                      (pfds.empty() ? ": no rules discovered" : ""),
                  5);
      return report;
    }
    out.rules = pfds.size();
    out.rules_hash = Fnv1a(anmat::DiscoveredPfdsToJson(discovery->pfds).Dump());
    out.SetResult(*detection, *repair, repaired);
    report.notes.push_back(std::string("reference ") + KindName(in.kind) + ": " +
                           out.ToString());
    reference.push_back(out);
  }

  MeasurePasses(o, &meter, tracer, pass, inputs, reference, 5, setup_s,
                &report);
  return report;
}

Report RunClean(const Options& o, Tracer* tracer) {
  Report report;
  const size_t rows = Sized(o, 100000, 2000);
  const size_t prefix = Sized(o, 5000, 500);
  SpeedMeter meter;
  std::vector<Input> inputs;
  std::string error;
  const double setup_s = TimeSetup(&meter, 3, [&] {
    ScopedSpan span(tracer, "setup");
    inputs.clear();
    anmat::Engine engine(anmat::ExecutionOptions{1, true, nullptr});
    for (Kind kind : {Kind::kZip, Kind::kPhone, Kind::kEmployee}) {
      Input in{kind, "", 0, {}};
      const anmat::Dataset d = Generate(kind, rows, SubSeed(o.seed, kind, 0));
      {
        ScopedSpan write_span(tracer, "csv.write");
        const std::string e = WriteInput(
            d.relation, o.work_dir + "/" + KindName(kind) + ".csv", &in);
        if (!e.empty()) error = e;
      }
      // Rules are discovered on a prefix and all confirmed.
      auto head = d.relation.Slice(0, std::min(prefix, d.relation.num_rows()));
      ScopedSpan discover_span(tracer, "discovery.discover");
      auto discovery = head.ok() ? engine.Discover(*head)
                                 : anmat::Result<anmat::DiscoveryResult>(head.status());
      if (!discovery.ok() || discovery->pfds.empty()) {
        error = std::string("no rules discovered on ") + KindName(kind);
      } else {
        for (const anmat::DiscoveredPfd& p : discovery->pfds) in.rules.push_back(p.pfd);
      }
      inputs.push_back(std::move(in));
    }
  });
  if (!error.empty()) {
    report.Fail("setup: " + error);
    return report;
  }

  const PassFn pass = [&]() {
    PassResult r;
    ScopedSpan root(tracer, "pass");
    r.trace_id = root.trace_id();
    anmat::Engine engine(anmat::ExecutionOptions{1, true, nullptr});
    for (const Input& in : inputs) {
      Outcome out;
      r.ops += 3;
      anmat::Result<anmat::Relation> relation = [&] {
        ScopedSpan s(tracer, "csv.read");
        return anmat::ReadCsvFile(in.path);
      }();
      if (!relation.ok()) {
        out.violations = SIZE_MAX;
        r.outcomes.push_back(out);
        continue;
      }
      anmat::Result<anmat::DetectionResult> detection = [&] {
        ScopedSpan s(tracer, "detect.detect");
        return engine.Detect(*relation, in.rules);
      }();
      anmat::Result<anmat::RepairResult> repair = [&] {
        ScopedSpan s(tracer, "repair.repair");
        return engine.Repair(&*relation, in.rules);
      }();
      if (!detection.ok() || !repair.ok()) {
        out.violations = SIZE_MAX;
        r.outcomes.push_back(out);
        continue;
      }
      out.rules = in.rules.size();
      out.SetResult(*detection, *repair, *relation);
      r.counters.rules += in.rules.size();
      r.counters.Add(*detection, *repair);
      r.outcomes.push_back(out);
    }
    r.counters.ReadEngine(engine);
    return r;
  };

  // Reference outcomes from the serial, cache-less library functions.
  std::vector<Outcome> reference;
  for (const Input& in : inputs) {
    Outcome out;
    auto relation = anmat::ReadCsvFile(in.path);
    auto detection = relation.ok() ? anmat::DetectErrors(*relation, in.rules)
                                   : anmat::Result<anmat::DetectionResult>(relation.status());
    auto repair = detection.ok() ? anmat::RepairErrors(&*relation, in.rules)
                                 : anmat::Result<anmat::RepairResult>(detection.status());
    if (!repair.ok() || detection->violations.empty()) {
      report.Fail(std::string("reference detect/repair on ") + KindName(in.kind) +
                      (repair.ok() ? ": no violations found" : ""),
                  3);
      return report;
    }
    out.rules = in.rules.size();
    out.SetResult(*detection, *repair, *relation);
    report.notes.push_back(std::string("reference ") + KindName(in.kind) + ": " +
                           out.ToString());
    reference.push_back(out);
  }

  MeasurePasses(o, &meter, tracer, pass, inputs, reference, 3, setup_s,
                &report);
  return report;
}

}  // namespace perfbench
