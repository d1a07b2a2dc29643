// Quickstart: the complete ANMAT workflow on the paper's own toy table
// (Table 2: Zip/city), the way the demo's GUI is actually used — as a
// *stateful* project that survives between sessions:
//
//   init project → discover (attaches the dataset; rules recorded as
//   `discovered` with provenance) → confirm → detect → repair,
//
// then the streaming path: a stream absorbing new records batch by batch
// without re-paying pattern work for values it has already seen, with
// clean-on-ingest repairing confident errors as they arrive.
//
// Layering on display:
//   Project     (anmat/project.h)          durable state: catalog + rule store
//   Engine      (anmat/engine.h)           execution: thread pool + stages
//   ProjectHost (service/project_host.h)   the project verbs over both — the
//                                          same code `anmat --project` and
//                                          the daemon run
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/example_quickstart [work-dir]   # default work dir: /tmp
//
// Exits 1 when detection finds no violation.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "anmat/project.h"
#include "service/project_host.h"
#include "util/json.h"

namespace {

// Table 2 of the paper as CSV; s4[city] is the erroneous cell.
constexpr const char* kZipCsv =
    "zip,city\n"
    "90001,Los Angeles\n"
    "90002,Los Angeles\n"
    "90003,Los Angeles\n"
    "90004,New York\n";

int Fail(const anmat::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

/// Runs one project verb, prints its text view and returns its JSON view.
anmat::Result<anmat::JsonValue> Run(anmat::ProjectHost& host,
                                    const std::string& verb,
                                    const anmat::JsonValue& params) {
  ANMAT_ASSIGN_OR_RETURN(anmat::VerbResult out, host.Dispatch(verb, params));
  std::cout << out.text << "\n";
  return std::move(out.result);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work = argc > 1 ? argv[1] : "/tmp";
  const std::string dir = work + "/anmat_quickstart_project";
  const std::string csv = work + "/anmat_quickstart_zips.csv";
  std::filesystem::create_directories(work);
  std::filesystem::remove_all(dir);
  std::ofstream(csv) << kZipCsv;

  // 1. A project directory is the durable state of the workflow: a catalog
  //    (datasets + parameters) and a rule store with per-rule lifecycle.
  //    Parameters (§4 "Parameter Setting"): minimum coverage γ and the
  //    allowed violation ratio. The toy table has 1 dirty row in 4, so we
  //    tolerate up to 30% violations.
  anmat::Project::Parameters parameters;
  parameters.min_coverage = 0.5;
  parameters.allowed_violation_ratio = 0.3;
  auto project = anmat::Project::Init(dir, "quickstart", parameters);
  if (!project.ok()) return Fail(project.status());

  // The host runs the project verbs on an anmat::Engine: discovery fans
  // out per candidate dependency, detection and repair per (PFD, tableau
  // row). 0 = one worker per hardware thread; results are byte-identical
  // to a serial run at any thread count.
  anmat::ProjectHost host(std::move(project).value(),
                          anmat::ProjectHost::Options{0});

  // 2. Discover PFDs (Figure 2 / Figure 4). `data` attaches the CSV to the
  //    catalog as dataset "zips"; every discovered rule is recorded in the
  //    store as `discovered`, carrying provenance (source dataset,
  //    coverage, violation ratio). Expect a zip -> city rule whose
  //    tableau maps zip patterns such as "(90)!\D{3}" to Los Angeles.
  anmat::JsonValue discover = anmat::JsonValue::Object();
  discover.Set("data", anmat::JsonValue::String(csv));
  discover.Set("name", anmat::JsonValue::String("zips"));
  if (auto r = Run(host, "discover", discover); !r.ok()) {
    return Fail(r.status());
  }

  // 3. Confirm every discovered rule (the demo lets users confirm or
  //    reject each dependency; `rules.reject` keeps a rule for audit
  //    without ever applying it, and `all` leaves rejections alone).
  anmat::JsonValue confirm = anmat::JsonValue::Object();
  confirm.Set("all", anmat::JsonValue::Bool(true));
  if (auto r = Run(host, "rules.confirm", confirm); !r.ok()) {
    return Fail(r.status());
  }

  // 4. Detect errors (Figure 5) against the confirmed rules: the New York
  //    cell must be flagged with suggested repair "Los Angeles".
  auto detected = Run(host, "detect", anmat::JsonValue::Object());
  if (!detected.ok()) return Fail(detected.status());
  const anmat::JsonValue* violations = detected->Get("violations");
  const size_t found = violations != nullptr ? violations->size() : 0;
  std::cout << "Detected " << found
            << " violation(s); expected: the 90004/New York cell.\n\n";
  if (found == 0) return 1;

  // 5. Repair (§3's suggestion semantics): confident suggestions are
  //    applied iteratively and the cleaned table is written out. The
  //    project's rules stay on disk, so a later run — or the CLI:
  //      anmat detect --project <work-dir>/anmat_quickstart_project
  //    — detects with them, no re-discovery needed.
  anmat::JsonValue repair = anmat::JsonValue::Object();
  repair.Set("out", anmat::JsonValue::String(
                        work + "/anmat_quickstart_cleaned.csv"));
  if (auto r = Run(host, "repair", repair); !r.ok()) return Fail(r.status());

  // 6. Streaming: records keep arriving after the rules are confirmed. A
  //    stream extends its dictionaries and index postings per batch and
  //    re-pays pattern work only for newly seen distinct values. With
  //    clean-on-ingest ("all": constant-rule suggestions and
  //    cumulative-majority variable-rule suggestions), confident repairs
  //    are applied to each batch *before* it is absorbed (the zip -> city
  //    rule fixes the San Diego cell below);
  //    majority flips across batches are reported as conflicts, never
  //    retroactive edits.
  anmat::JsonValue open = anmat::JsonValue::Object();
  anmat::JsonValue columns = anmat::JsonValue::Array();
  columns.push_back(anmat::JsonValue::String("zip"));
  columns.push_back(anmat::JsonValue::String("city"));
  open.Set("columns", std::move(columns));
  open.Set("clean", anmat::JsonValue::String("all"));
  auto opened = Run(host, "stream.open", open);
  if (!opened.ok()) return Fail(opened.status());
  const anmat::JsonValue* stream = opened->Get("stream");
  if (stream == nullptr) return Fail(anmat::Status::Internal("no stream id"));

  anmat::JsonValue append = anmat::JsonValue::Object();
  append.Set("stream", *stream);
  anmat::JsonValue rows = anmat::JsonValue::Array();
  for (const auto& [zip, city] :
       {std::pair{"90005", "Los Angeles"}, std::pair{"90006", "San Diego"}}) {
    anmat::JsonValue row = anmat::JsonValue::Array();
    row.push_back(anmat::JsonValue::String(zip));
    row.push_back(anmat::JsonValue::String(city));
    rows.push_back(std::move(row));
  }
  append.Set("rows", std::move(rows));
  if (auto r = Run(host, "stream.append", append); !r.ok()) {
    return Fail(r.status());
  }

  anmat::JsonValue close = anmat::JsonValue::Object();
  close.Set("stream", *stream);
  if (auto r = Run(host, "stream.close", close); !r.ok()) {
    return Fail(r.status());
  }

  // The project directory and CSV are left in the work dir on purpose —
  // the CLI suggestion above works after this example exits.
  return 0;
}
