// The `serve` workload: a warm in-process anmatd (2 executor threads, 1
// engine thread) hosting one project, driven by two closed-loop client
// connections:
//  * streamer — stream.open (clean=all), then fixed-size stream.append
//    batches; the stream is closed and reopened every few batches so its
//    state (and so append latency) stays bounded over the run;
//  * analyst  — 4× `detect --max 25`, then 1× rules.annotate (a durable
//    journal commit under the project's writer gate), repeated.
// One analyst cycle is this workload's "pass". The window runs in ~1 s
// slices; between slices both clients pause while the host-speed kernel
// runs, and each request's latency is scaled by its slice's factor.
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "anmat/engine.h"
#include "anmat/project.h"
#include "anmat/report.h"
#include "bench.h"
#include "csv/csv_reader.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"

namespace perfbench {
namespace {

using anmat::JsonValue;

constexpr int64_t kDetectMax = 25;
constexpr int kDetectsPerCycle = 4;
constexpr int kSetupRepeats = 3;
/// BENCHMARK.json's bound on serve's end-to-end metrics; append p50 of the
/// two halves of a window should agree within it.
constexpr double kSteadyBound = 0.25;

/// Alternates measured slices with paused gaps in which the host-speed
/// kernel runs with no request in flight.
class Pacer {
 public:
  /// Blocks while paused. Returns the current slice, or -1 once the
  /// window is over.
  int Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ || !paused_; });
    if (done_) return -1;
    ++in_flight_;
    return slice_;
  }
  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    cv_.notify_all();
  }

  /// Runs slices of `slice_s` until `seconds` have passed; returns each
  /// slice's wall seconds and host-speed factor.
  void Run(double seconds, double slice_s, SpeedMeter* meter,
           std::vector<double>* slice_wall_s, std::vector<double>* factors) {
    const Clock::time_point start = Clock::now();
    double before = meter->Measure();
    for (int s = 0; s == 0 || MsSince(start) < seconds * 1000; ++s) {
      const Clock::time_point slice_start = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        slice_ = s;
        paused_ = false;
      }
      cv_.notify_all();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(slice_s));
      {
        std::unique_lock<std::mutex> lock(mu_);
        paused_ = true;
        cv_.wait(lock, [&] { return in_flight_ == 0; });
      }
      slice_wall_s->push_back(MsSince(slice_start) / 1000);
      const double after = meter->Measure();
      factors->push_back(SpeedMeter::Factor(before, after));
      before = after;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = true;
  bool done_ = false;
  int slice_ = -1;
  int in_flight_ = 0;
};

struct Sample {
  int slice = 0;
  double wall_ms = 0;
  bool ok = false;
  int64_t value = 0;       // append: cumulative_violations
  uint64_t digest = 0;     // detect: hash of the result JSON
  int batch = 0;           // append: batch index within the stream cycle
  size_t response_bytes = 0;
};

struct Fixture {
  std::string dir, csv, socket;
  std::vector<std::string> columns;
  std::vector<anmat::Pfd> rules;
  uint64_t annotate_id = 0;
  std::vector<std::vector<std::vector<std::string>>> batches;
  std::unique_ptr<anmat::Daemon> daemon;
  std::thread serve_thread;
  double project_open_ms = 0;

  ~Fixture() { Stop(); }
  void Stop() {
    if (daemon == nullptr) return;
    daemon->RequestStop();
    serve_thread.join();
    daemon.reset();
  }
};

JsonValue Params(const std::string& dir) {
  JsonValue p = JsonValue::Object();
  p.Set("project", JsonValue::String(dir));
  return p;
}

JsonValue AppendParams(const Fixture& f, int64_t stream,
                       const std::vector<std::vector<std::string>>& batch) {
  JsonValue p = Params(f.dir);
  p.Set("stream", JsonValue::Int(stream));
  JsonValue rows = JsonValue::Array();
  for (const std::vector<std::string>& row : batch) {
    JsonValue cells = JsonValue::Array();
    for (const std::string& c : row) cells.push_back(JsonValue::String(c));
    rows.push_back(std::move(cells));
  }
  p.Set("rows", std::move(rows));
  return p;
}

JsonValue StreamOpenParams(const Fixture& f) {
  JsonValue p = Params(f.dir);
  JsonValue cols = JsonValue::Array();
  for (const std::string& c : f.columns) cols.push_back(JsonValue::String(c));
  p.Set("columns", std::move(cols));
  p.Set("clean", JsonValue::String("all"));
  return p;
}

JsonValue DetectParams(const Fixture& f) {
  JsonValue p = Params(f.dir);
  p.Set("max", JsonValue::Int(kDetectMax));
  return p;
}

JsonValue AnnotateParams(const Fixture& f, const std::string& note) {
  JsonValue p = Params(f.dir);
  p.Set("id", JsonValue::Int(static_cast<int64_t>(f.annotate_id)));
  p.Set("note", JsonValue::String(note));
  return p;
}

size_t ResponseBytes(const anmat::ServiceResponse& r) {
  return anmat::SerializeServiceOk(r.id, r.result, r.text).size();
}

/// Builds the project, starts the daemon, opens the project and warms
/// the engine (first compile). Returns an error message or "".
std::string SetUp(const Options& o, int rep, Tracer* tracer, Fixture* f) {
  ScopedSpan span(tracer, "setup");
  const size_t rows = Sized(o, 20000, 2000);
  const size_t batch_rows = Sized(o, 500, 50);
  const size_t batches = Sized(o, 8, 4);
  const std::string base = o.work_dir + "/setup" + std::to_string(rep);
  f->dir = std::filesystem::absolute(base + "/project").string();
  f->csv = std::filesystem::absolute(base + "/data.csv").string();
  std::filesystem::create_directories(base);
  // Relative to the working directory: a unix socket path is limited to
  // ~100 bytes, and the checkout's absolute path may be longer.
  f->socket = (std::filesystem::relative(o.work_dir) /
               ("d" + std::to_string(rep) + ".sock"))
                  .string();

  anmat::Dataset data;
  anmat::Dataset stream_data;
  {
    ScopedSpan s(tracer, "datagen.generate");
    data = anmat::ZipCityStateDataset(rows, o.seed * 7919 + 1, 0.01);
    stream_data = anmat::ZipCityStateDataset(batch_rows * batches,
                                             o.seed * 7919 + 2, 0.01);
  }
  f->columns.clear();
  for (size_t c = 0; c < data.relation.num_columns(); ++c) {
    f->columns.push_back(data.relation.schema().column(c).name);
  }
  f->batches.assign(batches, {});
  for (size_t r = 0; r < stream_data.relation.num_rows(); ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < stream_data.relation.num_columns(); ++c) {
      row.emplace_back(stream_data.relation.cell(r, c));
    }
    f->batches[r / batch_rows].push_back(std::move(row));
  }
  {
    ScopedSpan s(tracer, "csv.write");
    auto st = anmat::WriteCsvFile(data.relation, f->csv);
    if (!st.ok()) return st.ToString();
  }
  {
    // The project handle holds the project lock; it is released before
    // the daemon opens the project.
    auto project = anmat::Project::Init(f->dir, "serve");
    if (!project.ok()) return project.status().ToString();
    auto st = project->AttachDataset("data", f->csv);
    if (!st.ok()) return st.ToString();
    anmat::Engine engine(anmat::ExecutionOptions{1, true, nullptr});
    anmat::Result<anmat::DiscoveryResult> discovery = [&] {
      ScopedSpan s(tracer, "discovery.discover");
      return engine.Discover(data.relation, project->discovery_options());
    }();
    if (!discovery.ok() || discovery->pfds.empty()) return "no rules discovered";
    for (const anmat::DiscoveredPfd& d : discovery->pfds) {
      const uint64_t id = project->AddDiscoveredRule(d, "data");
      if (f->annotate_id == 0) f->annotate_id = id;
      st = project->SetRuleStatus(id, anmat::RuleStatus::kConfirmed);
      if (!st.ok()) return st.ToString();
    }
    f->rules = project->ConfirmedPfds();
    ScopedSpan s(tracer, "store.save");
    st = project->Save();
    if (!st.ok()) return st.ToString();
  }
  {
    ScopedSpan s(tracer, "service.start");
    anmat::Daemon::Options options;
    options.socket_path = f->socket;
    options.executor_threads = 2;
    options.engine_threads = 1;
    auto daemon = anmat::Daemon::Start(options);
    if (!daemon.ok()) return daemon.status().ToString();
    f->daemon = std::move(daemon).value();
    f->serve_thread = std::thread([d = f->daemon.get()] { (void)d->Serve(); });
  }
  auto client = anmat::DaemonClient::Connect(f->socket);
  if (!client.ok()) return client.status().ToString();
  {
    ScopedSpan s(tracer, "anmat.project_open");
    const Clock::time_point t = Clock::now();
    JsonValue p = JsonValue::Object();
    p.Set("dir", JsonValue::String(f->dir));
    auto r = client->Call("project.open", std::move(p));
    f->project_open_ms = MsSince(t);
    if (!r.ok() || !r->ok) return "project.open failed";
  }
  // First compile: one detect and one full stream cycle.
  ScopedSpan warm(tracer, "service.warmup");
  auto r = client->Call("detect", DetectParams(*f));
  if (!r.ok() || !r->ok) return "warm-up detect failed";
  r = client->Call("stream.open", StreamOpenParams(*f));
  if (!r.ok() || !r->ok) return "warm-up stream.open failed";
  const int64_t stream = r->result.GetInt("stream").value_or(0);
  for (const auto& batch : f->batches) {
    r = client->Call("stream.append", AppendParams(*f, stream, batch));
    if (!r.ok() || !r->ok) return "warm-up stream.append failed";
  }
  JsonValue close = Params(f->dir);
  close.Set("stream", JsonValue::Int(stream));
  r = client->Call("stream.close", std::move(close));
  if (!r.ok() || !r->ok) return "warm-up stream.close failed";
  return "";
}

struct Window {
  std::vector<Sample> appends, detects, commits, others;
  /// Index in `detects` of each completed analyst cycle's first detect.
  std::vector<size_t> cycle_first_detect;
  std::vector<double> cycle_ms;  // analyst cycles, scaled
  std::vector<double> slice_wall_s, factors;
  std::string last_note;
  uint64_t requests = 0;
};

double Scaled(const Window& w, const Sample& s) {
  return s.wall_ms * w.factors.at(static_cast<size_t>(s.slice));
}

/// One measurement window: both clients run closed loops until the
/// pacer ends the window.
Window RunWindow(const Fixture& f, double seconds, SpeedMeter* meter,
                 Tracer* tracer, Report* report) {
  Window w;
  Pacer pacer;
  std::mutex failure_mu;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(failure_mu);
    failures.push_back(why);
  };
  // Each call is one paced request; returns false once the window ended.
  auto call = [&](anmat::DaemonClient& client, const char* verb,
                  const char* span_name, JsonValue params, Sample* out,
                  anmat::ServiceResponse* response) {
    const int slice = pacer.Enter();
    if (slice < 0) return false;
    {
      ScopedSpan s(tracer, span_name);
      const Clock::time_point t = Clock::now();
      auto r = client.Call(verb, std::move(params));
      out->wall_ms = MsSince(t);
      out->slice = slice;
      out->ok = r.ok() && r->ok;
      if (out->ok) {
        out->response_bytes = ResponseBytes(*r);
        *response = std::move(r).value();
      } else {
        fail(std::string(verb) + ": " +
             (r.ok() ? r->error.ToString() : r.status().ToString()));
      }
    }
    pacer.Exit();
    return true;
  };

  std::thread streamer([&] {
    auto client = anmat::DaemonClient::Connect(f.socket);
    if (!client.ok()) {
      fail("streamer connect: " + client.status().ToString());
      return;
    }
    while (true) {
      ScopedSpan cycle(tracer, "streamer.cycle");
      Sample open;
      anmat::ServiceResponse resp;
      if (!call(*client, "stream.open", "service.stream_open",
                StreamOpenParams(f), &open, &resp)) {
        return;
      }
      w.others.push_back(open);
      const int64_t stream = open.ok ? resp.result.GetInt("stream").value_or(0) : 0;
      for (size_t b = 0; b < f.batches.size(); ++b) {
        Sample s;
        s.batch = static_cast<int>(b);
        if (!call(*client, "stream.append", "service.append",
                  AppendParams(f, stream, f.batches[b]), &s, &resp)) {
          return;
        }
        if (s.ok) s.value = resp.result.GetInt("cumulative_violations").value_or(-1);
        w.appends.push_back(s);
      }
      JsonValue close = Params(f.dir);
      close.Set("stream", JsonValue::Int(stream));
      Sample closed;
      if (!call(*client, "stream.close", "service.stream_close",
                std::move(close), &closed, &resp)) {
        return;
      }
      w.others.push_back(closed);
    }
  });

  std::thread analyst([&] {
    auto client = anmat::DaemonClient::Connect(f.socket);
    if (!client.ok()) {
      fail("analyst connect: " + client.status().ToString());
      return;
    }
    for (uint64_t n = 0;; ++n) {
      ScopedSpan cycle(tracer, "analyst.cycle");
      anmat::ServiceResponse resp;
      const size_t first_detect = w.detects.size();
      for (int i = 0; i < kDetectsPerCycle; ++i) {
        Sample s;
        if (!call(*client, "detect", "service.detect", DetectParams(f), &s,
                  &resp)) {
          return;
        }
        if (s.ok) s.digest = Fnv1a(resp.result.Dump());
        w.detects.push_back(s);
      }
      const std::string note = "cycle " + std::to_string(n);
      Sample commit;
      if (!call(*client, "rules.annotate", "service.commit",
                AnnotateParams(f, note), &commit, &resp)) {
        return;
      }
      w.commits.push_back(commit);
      w.cycle_first_detect.push_back(first_detect);
      if (commit.ok) w.last_note = note;
    }
  });

  pacer.Run(seconds, 1.0, meter, &w.slice_wall_s, &w.factors);
  streamer.join();
  analyst.join();

  // Analyst cycle time: the sum of its five scaled round trips.
  for (size_t c = 0; c < w.cycle_first_detect.size(); ++c) {
    double ms = Scaled(w, w.commits[c]);
    for (int i = 0; i < kDetectsPerCycle; ++i) {
      ms += Scaled(w, w.detects[w.cycle_first_detect[c] + i]);
    }
    w.cycle_ms.push_back(ms);
  }
  w.requests = w.appends.size() + w.detects.size() + w.commits.size() +
               w.others.size();
  for (const std::string& why : failures) report->Fail(why);
  return w;
}

std::vector<double> ScaledMs(const Window& w, const std::vector<Sample>& v) {
  std::vector<double> out;
  for (const Sample& s : v) out.push_back(Scaled(w, s));
  return out;
}

/// Checks every response of the window against the in-process library:
/// appends against a DetectionStream fed the same batches, detects against
/// Engine::Detect on the attached dataset.
void CheckWindow(const Window& w, const std::vector<int64_t>& expected_cumulative,
                 uint64_t expected_detect, Report* report) {
  for (const Sample& s : w.appends) {
    if (s.ok && s.value != expected_cumulative.at(static_cast<size_t>(s.batch))) {
      report->Fail("stream.append batch " + std::to_string(s.batch) +
                   ": cumulative_violations " + std::to_string(s.value) +
                   " != in-process stream " +
                   std::to_string(expected_cumulative[s.batch]));
    }
  }
  for (const Sample& s : w.detects) {
    if (s.ok && s.digest != expected_detect) {
      report->Fail("detect result differs from Engine::Detect");
    }
  }
}

}  // namespace

Report RunServe(const Options& o, Tracer* tracer) {
  Report report;
  SpeedMeter meter;

  // Set up several times (each from scratch: project, daemon, first open
  // and first compile) and keep the last fixture for the measurement.
  std::unique_ptr<Fixture> fixture;
  std::vector<double> setup_s, open_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fixture.reset();  // stops the previous daemon (untimed)
    const double before = meter.Measure();
    fixture = std::make_unique<Fixture>();
    const Clock::time_point start = Clock::now();
    const std::string error = SetUp(o, rep, tracer, fixture.get());
    const double wall_ms = MsSince(start);
    const double after = meter.Measure();
    const double factor = SpeedMeter::Factor(before, after);
    if (!error.empty()) {
      report.Fail("setup: " + error);
      return report;
    }
    setup_s.push_back(wall_ms * factor / 1000);
    open_ms.push_back(fixture->project_open_ms * factor);
  }
  const Fixture& f = *fixture;

  // Expected responses, from the library in-process.
  std::vector<int64_t> expected_cumulative;
  double stream_repairs = 0, stream_conflicts = 0;
  {
    anmat::Engine engine(anmat::ExecutionOptions{1, true, nullptr});
    auto schema = anmat::Schema::MakeText(f.columns);
    auto stream = schema.ok() ? engine.OpenStream(*schema, f.rules)
                              : anmat::Result<std::unique_ptr<anmat::DetectionStream>>(
                                    schema.status());
    if (!stream.ok()) {
      report.Fail("in-process stream: " + stream.status().ToString());
      return report;
    }
    (*stream)->set_clean_on_ingest(true);
    (*stream)->set_clean_variable_rules(true);
    for (const auto& batch : f.batches) {
      auto r = (*stream)->AppendRows(batch);
      if (!r.ok()) {
        report.Fail("in-process stream append: " + r.status().ToString());
        return report;
      }
      expected_cumulative.push_back(static_cast<int64_t>(r->violations.size()));
    }
    stream_repairs = static_cast<double>((*stream)->repairs().size());
    stream_conflicts = static_cast<double>((*stream)->conflicts().size());
  }
  anmat::Engine check_engine(anmat::ExecutionOptions{1, true, nullptr});
  auto relation = anmat::ReadCsvFile(f.csv);
  auto detection = relation.ok() ? check_engine.Detect(*relation, f.rules)
                                 : anmat::Result<anmat::DetectionResult>(relation.status());
  if (!detection.ok()) {
    report.Fail("in-process detect: " + detection.status().ToString());
    return report;
  }
  const anmat::DetectionStats detect_stats = detection->stats;
  if (detection->violations.size() > static_cast<size_t>(kDetectMax)) {
    detection->violations.resize(kDetectMax);
  }
  const uint64_t expected_detect =
      Fnv1a(anmat::DetectionToJson(*relation, f.rules, *detection).Dump());

  auto stats_client = anmat::DaemonClient::Connect(f.socket);
  if (!stats_client.ok()) {
    report.Fail("stats connect: " + stats_client.status().ToString());
    return report;
  }
  auto cache_stats = [&]() -> JsonValue {
    auto r = stats_client->Call("stats", JsonValue::Object());
    if (!r.ok() || !r->ok) return JsonValue::Object();
    const JsonValue* projects = r->result.Get("project_stats");
    if (projects == nullptr || projects->size() == 0) return JsonValue::Object();
    JsonValue out = *projects->at(0).Get("automaton_cache");
    out.Set("connections", *r->result.Get("connections"));
    return out;
  };
  const JsonValue stats_before = cache_stats();

  tracer->set_enabled(false);
  Window untraced = RunWindow(f, o.trace ? o.seconds / 2 : o.seconds, &meter,
                              tracer, &report);
  Window traced;
  if (o.trace) {
    tracer->set_enabled(true);
    traced = RunWindow(f, o.seconds / 2, &meter, tracer, &report);
    tracer->set_enabled(false);
  }
  const JsonValue stats_after = cache_stats();
  CheckWindow(untraced, expected_cumulative, expected_detect, &report);
  CheckWindow(traced, expected_cumulative, expected_detect, &report);

  // The last annotate note must be what rules.list shows.
  const std::string last_note =
      o.trace ? traced.last_note : untraced.last_note;
  {
    auto r = stats_client->Call("rules.list", Params(f.dir));
    bool found = false;
    if (r.ok() && r->ok) {
      for (const JsonValue& rule : r->result.Get("rules")->items()) {
        if (rule.GetInt("id").value_or(0) == static_cast<int64_t>(f.annotate_id)) {
          found = rule.GetString("note").value_or("") == last_note;
        }
      }
    }
    report.attempted += 1;
    if (!found) report.Fail("rules.list does not show the last note '" + last_note + "'");
  }
  report.attempted += untraced.requests + traced.requests;

  double active_s = 0;
  for (size_t i = 0; i < untraced.slice_wall_s.size(); ++i) {
    active_s += untraced.slice_wall_s[i] * untraced.factors[i];
  }
  const double pass_ms = Median(untraced.cycle_ms);
  report.notes.push_back(
      "requests: " + std::to_string(untraced.appends.size()) + " appends, " +
      std::to_string(untraced.detects.size()) + " detects, " +
      std::to_string(untraced.commits.size()) + " commits, " +
      std::to_string(untraced.cycle_ms.size()) + " analyst cycles in " +
      std::to_string(untraced.slice_wall_s.size()) + " slices");
  report.notes.push_back("expected cumulative violations per batch: " + [&] {
    std::string s;
    for (int64_t v : expected_cumulative) s += std::to_string(v) + " ";
    return s;
  }());

  if (!o.trace) {
    report.Set("setup_s", Median(setup_s));
    report.Set("pass_s", pass_ms / 1000);
    report.Set("req_per_s", active_s > 0 ? untraced.requests / active_s : 0);
    report.Set("peak_rss_mb", PeakRssMb());
    return report;
  }

  // ---- per-layer metrics (traced run) ----
  const Window& w = traced;
  report.Set("trace.overhead_frac",
             (Median(w.cycle_ms) - pass_ms) / pass_ms);
  struct Verb {
    const char* name;
    const std::vector<Sample>* traced;
    const std::vector<Sample>* untraced;
  };
  for (const Verb& v : {Verb{"append", &w.appends, &untraced.appends},
                        Verb{"detect", &w.detects, &untraced.detects},
                        Verb{"commit", &w.commits, &untraced.commits}}) {
    // Latencies from both halves: tracing adds two clock reads per request,
    // and the traced half alone holds fewer than 100 commits.
    std::vector<double> ms = ScaledMs(w, *v.traced);
    for (double x : ScaledMs(untraced, *v.untraced)) ms.push_back(x);
    const std::string p = std::string("service.") + v.name;
    report.Set(p + "_p50_ms", Quantile(ms, 0.5));
    report.Set(p + "_p90_ms", Quantile(ms, 0.9));
    report.Set(p + "_samples", static_cast<double>(ms.size()));
    double bytes = 0;
    for (const Sample& s : *v.traced) bytes += static_cast<double>(s.response_bytes);
    report.Set(p + "_response_bytes",
               v.traced->empty() ? 0 : bytes / static_cast<double>(v.traced->size()));
  }
  report.Set("service.append_request_bytes",
             static_cast<double>(anmat::SerializeServiceRequest(
                                     1, "stream.append", AppendParams(f, 1, f.batches[0]))
                                     .size()));
  report.Set("service.detect_request_bytes",
             static_cast<double>(
                 anmat::SerializeServiceRequest(1, "detect", DetectParams(f)).size()));
  report.Set("service.commit_request_bytes",
             static_cast<double>(anmat::SerializeServiceRequest(
                                     1, "rules.annotate", AnnotateParams(f, "cycle 0"))
                                     .size()));
  // Steadiness: append p50 of the first vs second half of the window.
  if (w.appends.size() >= 4) {
    const size_t half = w.appends.size() / 2;
    std::vector<double> a, b;
    for (size_t i = 0; i < w.appends.size(); ++i) {
      (i < half ? a : b).push_back(Scaled(w, w.appends[i]));
    }
    const double drift = Median(b) / Median(a) - 1;
    report.Set("service.append_p50_drift", drift);
    report.notes.push_back(
        std::string("append p50 drift between the window's halves: ") +
        std::to_string(drift) +
        (std::abs(drift) <= kSteadyBound ? " (steady)" : " (NOT steady)"));
  }
  report.Set("service.connections",
             stats_after.GetInt("connections").value_or(0));
  report.Set("anmat.project_open_ms", Median(open_ms));

  auto delta = [&](const char* key) {
    return static_cast<double>(stats_after.GetInt(key).value_or(0) -
                               stats_before.GetInt(key).value_or(0));
  };
  const double hits = delta("hits"), misses = delta("misses");
  report.Set("pattern.cache_hits", hits);
  report.Set("pattern.cache_misses", misses);
  report.Set("pattern.cache_fallbacks", delta("fallbacks"));
  report.Set("pattern.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  const JsonValue* dispatch = stats_after.Get("dispatch");
  const JsonValue* dispatch_before = stats_before.Get("dispatch");
  if (dispatch != nullptr && dispatch_before != nullptr) {
    report.Set("dispatch.automata", dispatch->GetInt("automata").value_or(0));
    report.Set("dispatch.fallbacks", dispatch->GetInt("fallbacks").value_or(0));
    const double probes = static_cast<double>(dispatch->GetInt("probes").value_or(0) -
                                              dispatch_before->GetInt("probes").value_or(0));
    const double probe_hits =
        static_cast<double>(dispatch->GetInt("probe_hits").value_or(0) -
                            dispatch_before->GetInt("probe_hits").value_or(0));
    report.Set("dispatch.probe_hit_ratio", probes > 0 ? probe_hits / probes : 0);
  }

  // The daemon re-reads the dataset and runs Engine::Detect on every
  // detect request; time both in-process on the warm check engine.
  std::vector<double> read_ms, detect_ms;
  double b = meter.Measure();
  for (int i = 0; i < 5; ++i) {
    Clock::time_point t = Clock::now();
    auto rel = anmat::ReadCsvFile(f.csv);
    const double r_ms = MsSince(t);
    t = Clock::now();
    auto det = rel.ok() ? check_engine.Detect(*rel, f.rules)
                        : anmat::Result<anmat::DetectionResult>(rel.status());
    const double d_ms = MsSince(t);
    const double a = meter.Measure();
    const double factor = SpeedMeter::Factor(b, a);
    b = a;
    read_ms.push_back(r_ms * factor);
    detect_ms.push_back(d_ms * factor);
  }
  const double csv_bytes = static_cast<double>(std::filesystem::file_size(f.csv));
  report.Set("csv.read_ms", Median(read_ms));
  report.Set("csv.mb_per_s", csv_bytes / 1e6 / (Median(read_ms) / 1e3));
  report.Set("detect.detect_ms", Median(detect_ms));
  report.Set("detect.candidate_ratio",
             detect_stats.rows_scanned > 0
                 ? static_cast<double>(detect_stats.candidate_rows) /
                       static_cast<double>(detect_stats.rows_scanned)
                 : 0);
  report.Set("detect.pairs_checked", static_cast<double>(detect_stats.pairs_checked));
  report.Set("detect.violations", static_cast<double>(detect_stats.violations));
  report.Set("repair.repairs", stream_repairs);
  report.Set("repair.conflicts", stream_conflicts);
  report.Set("store.commit_bytes",
             static_cast<double>(std::filesystem::file_size(f.dir + "/project.json") +
                                 std::filesystem::file_size(f.dir + "/rules.json")));

  // Self-time shares over the traced client cycles.
  const std::map<uint64_t, int64_t> self = tracer->SelfTimesNs();
  const std::vector<Span> spans = tracer->spans();
  std::set<uint64_t> cycles;
  double root_ns = 0, bench_ns = 0, service_ns = 0;
  for (const Span& s : spans) {
    if (s.name == "analyst.cycle" || s.name == "streamer.cycle") {
      cycles.insert(s.trace_id);
      root_ns += static_cast<double>(s.end_ns - s.start_ns);
      bench_ns += static_cast<double>(self.at(s.span_id));
    }
  }
  for (const Span& s : spans) {
    if (s.parent_id != 0 && cycles.count(s.trace_id) > 0) {
      service_ns += static_cast<double>(self.at(s.span_id));
    }
  }
  report.Set("trace.self_frac.bench", root_ns > 0 ? bench_ns / root_ns : 0);
  report.Set("trace.self_frac.service", root_ns > 0 ? service_ns / root_ns : 0);
  return report;
}

}  // namespace perfbench
