// anmat_perfbench: the end-to-end benchmark driver (see README.md).
//
//   anmat_perfbench --workload pipeline|clean|serve --seed N --seconds S
//                   --trace 0|1 [--tiny] [--work-dir D] [--trace-out F]
//                   [--git-commit C] [--source-digest H]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer metrics and write a Chrome trace.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "util/json.h"
#include "util/simd.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the smoke test checks it).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"pass_s", "s"},
    {"req_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const MetricSpec kPerLayer[] = {
    {"csv.read_ms", "ms"},
    {"csv.mb_per_s", "MB/s"},
    {"discovery.profile_ms", "ms"},
    {"discovery.discover_ms.zip", "ms"},
    {"discovery.discover_ms.name", "ms"},
    {"discovery.discover_ms.employee", "ms"},
    {"discovery.candidates", "count"},
    {"discovery.rules_per_candidate", "ratio"},
    {"pattern.cache_hits", "count"},
    {"pattern.cache_misses", "count"},
    {"pattern.cache_fallbacks", "count"},
    {"pattern.cache_hit_ratio", "ratio"},
    {"dispatch.automata", "count"},
    {"dispatch.fallbacks", "count"},
    {"dispatch.probe_hit_ratio", "ratio"},
    {"detect.detect_ms", "ms"},
    {"detect.candidate_ratio", "ratio"},
    {"detect.pairs_checked", "count"},
    {"detect.violations", "count"},
    {"repair.repair_ms", "ms"},
    {"repair.passes", "count"},
    {"repair.repairs", "count"},
    {"repair.conflicts", "count"},
    {"service.append_p50_ms", "ms"},
    {"service.append_p90_ms", "ms"},
    {"service.detect_p50_ms", "ms"},
    {"service.detect_p90_ms", "ms"},
    {"service.commit_p50_ms", "ms"},
    {"service.commit_p90_ms", "ms"},
    {"service.append_samples", "count"},
    {"service.detect_samples", "count"},
    {"service.commit_samples", "count"},
    {"service.append_request_bytes", "B"},
    {"service.append_response_bytes", "B"},
    {"service.detect_request_bytes", "B"},
    {"service.detect_response_bytes", "B"},
    {"service.commit_request_bytes", "B"},
    {"service.commit_response_bytes", "B"},
    {"service.append_p50_drift", "ratio"},
    {"service.connections", "count"},
    {"store.commit_bytes", "B"},
    {"anmat.project_open_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.self_frac.bench", "ratio"},
    {"trace.self_frac.csv", "ratio"},
    {"trace.self_frac.discovery", "ratio"},
    {"trace.self_frac.detect", "ratio"},
    {"trace.self_frac.repair", "ratio"},
    {"trace.self_frac.service", "ratio"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "anmat_perfbench: " << why
            << "\nusage: anmat_perfbench --workload pipeline|clean|serve "
               "--seed N --seconds S --trace 0|1 [--tiny] [--work-dir D] "
               "[--trace-out F] [--git-commit C] [--source-digest H]\n";
  std::exit(2);
}

Options Parse(int argc, char** argv, std::string* git_commit,
              std::string* source_digest) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--git-commit") {
      *git_commit = value;
    } else if (flag == "--source-digest") {
      *source_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (o.workload != "pipeline" && o.workload != "clean" &&
      o.workload != "serve") {
    Usage("unknown workload " + o.workload);
  }
  return o;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  std::ostringstream s;
  s.precision(10);
  s << v;
  return s.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string git_commit = "unknown", source_digest = "unknown";
  Options o = Parse(argc, argv, &git_commit, &source_digest);

  const std::string build_type = ANMAT_PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "anmat_perfbench: refusing to report timings from a '"
              << build_type << "' build; configure with "
              << "-DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  anmat::JsonValue env = anmat::JsonValue::Object();
  env.Set("workload", anmat::JsonValue::String(o.workload));
  env.Set("seed", anmat::JsonValue::Int(static_cast<int64_t>(o.seed)));
  env.Set("seconds", anmat::JsonValue::Number(o.seconds));
  env.Set("trace", anmat::JsonValue::Bool(o.trace));
  env.Set("tiny", anmat::JsonValue::Bool(o.tiny));
  env.Set("nproc", anmat::JsonValue::Int(std::thread::hardware_concurrency()));
  env.Set("simd", anmat::JsonValue::String(anmat::simd::LevelName()));
  env.Set("compiler", anmat::JsonValue::String(ANMAT_PERFBENCH_COMPILER));
  env.Set("build_type", anmat::JsonValue::String(build_type));
  env.Set("git_commit", anmat::JsonValue::String(git_commit));
  env.Set("source_digest", anmat::JsonValue::String(source_digest));
  env.Set("speed_reference_ms",
          anmat::JsonValue::Number(SpeedMeter::kReferenceMs));
  std::cout << "env: " << env.Dump() << "\n";

  if (o.work_dir.empty()) {
    o.work_dir = ".bench_build/work/" + o.workload + "-" +
                 std::to_string(::getpid());
  }
  std::error_code ec;
  std::filesystem::remove_all(o.work_dir, ec);
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) {
    std::cerr << "anmat_perfbench: cannot create " << o.work_dir << ": "
              << ec.message() << "\n";
    return 2;
  }

  // A traced run also records the set-up spans.
  Tracer tracer;
  tracer.set_enabled(o.trace);
  Report report = o.workload == "pipeline" ? RunPipeline(o, &tracer)
                  : o.workload == "clean"  ? RunClean(o, &tracer)
                                           : RunServe(o, &tracer);
  std::filesystem::remove_all(o.work_dir, ec);

  if (o.trace) {
    if (o.trace_out.empty()) o.trace_out = o.workload + "-trace.json";
    std::filesystem::create_directories(
        std::filesystem::path(o.trace_out).parent_path(), ec);
    if (!tracer.WriteChromeTrace(o.trace_out, env.Dump())) {
      report.Fail("cannot write trace " + o.trace_out);
    } else {
      report.notes.push_back("trace: " + o.trace_out + " (" +
                             std::to_string(tracer.spans().size()) +
                             " spans)");
    }
  }

  // A failure before any operation ran (set-up) still counts as one.
  report.attempted = std::max(report.attempted, report.failed);
  const double failed_frac =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) /
                static_cast<double>(report.attempted);
  for (const std::string& line : report.notes) std::cout << line << "\n";
  std::cout << "failed_frac: " << Num(failed_frac) << " (" << report.failed
            << " of " << report.attempted << " operations)\n";

  bool complete = true;
  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const MetricSpec& m, bool required_nonzero) {
    auto it = report.metrics.find(m.name);
    double value = it == report.metrics.end() ? 0 : it->second;
    if (!std::isfinite(value)) value = 0;
    if (required_nonzero && !(value > 0)) {
      std::cerr << "anmat_perfbench: metric " << m.name << " not measured\n";
      complete = false;
    }
    std::cout << "  " << m.name << " = " << Num(value) << " " << m.unit
              << "\n";
    metrics << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
            << Num(value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  std::cout << (o.trace ? "per-layer metrics:\n" : "end-to-end metrics:\n");
  if (o.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m, false);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m, report.failed == 0);
  }
  if (report.attempted == 0 || !complete) return 1;

  std::cout << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}
