#include "detect/detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "detect/detection_stream.h"
#include "detect_reference.h"
#include "discovery/discovery.h"
#include "pattern/automaton_cache.h"
#include "pattern/pattern_parser.h"
#include "util/random.h"

namespace anmat {
namespace {

TableauCell PatternCell(const char* text) {
  return TableauCell::Of(ParseConstrainedPattern(text).value());
}

Tableau OneRowTableau(const char* lhs, const char* rhs_or_null) {
  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell(lhs));
  row.rhs.push_back(rhs_or_null == nullptr ? TableauCell::Wildcard()
                                           : PatternCell(rhs_or_null));
  t.AddRow(row);
  return t;
}

TEST(DetectorTest, PaperLambda3DetectsS4City) {
  // Table 2 + λ3: zip 900\D{2} → Los Angeles flags s4 (row 3).
  Dataset d = PaperZipTable();
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  DetectionResult result = DetectErrors(d.relation, lambda3).value();
  ASSERT_EQ(result.violations.size(), 1u);
  const Violation& v = result.violations[0];
  EXPECT_EQ(v.kind, ViolationKind::kConstant);
  EXPECT_EQ(v.suspect.row, 3u);
  EXPECT_EQ(v.suspect.column, 1u);
  EXPECT_EQ(v.suggested_repair, "Los Angeles");
  EXPECT_EQ(v.cells.size(), 2u);
}

TEST(DetectorTest, PaperLambda5DetectsS4CityViaVariableRow) {
  // λ5: first 3 digits determine the city — variable PFD, 4-cell violation.
  Dataset d = PaperZipTable();
  Pfd lambda5 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  DetectionResult result = DetectErrors(d.relation, lambda5).value();
  ASSERT_EQ(result.violations.size(), 1u);
  const Violation& v = result.violations[0];
  EXPECT_EQ(v.kind, ViolationKind::kVariable);
  EXPECT_EQ(v.suspect.row, 3u);
  EXPECT_EQ(v.cells.size(), 4u);
  EXPECT_EQ(v.suggested_repair, "Los Angeles");
}

TEST(DetectorTest, PaperLambda2DetectsR4Gender) {
  // λ2: Susan\ \A* → F flags r4 ("Susan Boyle", M).
  Dataset d = PaperNameTable();
  Pfd lambda2 = Pfd::Simple("Name", "name", "gender",
                            OneRowTableau("(Susan)!\\ \\A*", "F"));
  DetectionResult result = DetectErrors(d.relation, lambda2).value();
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].suspect.row, 3u);
  EXPECT_EQ(result.violations[0].suggested_repair, "F");
}

TEST(DetectorTest, PaperLambda4DetectsR4ViaPairComparison) {
  // λ4: first name determines gender; r3 vs r4 form the 4-cell violation
  // (r3[name], r3[gender], r4[name], r4[gender]) from the introduction.
  Dataset d = PaperNameTable();
  Pfd lambda4 = Pfd::Simple("Name", "name", "gender",
                            OneRowTableau("(\\LU\\LL*\\ )!\\A*", nullptr));
  DetectionResult result = DetectErrors(d.relation, lambda4).value();
  ASSERT_EQ(result.violations.size(), 1u);
  const Violation& v = result.violations[0];
  EXPECT_EQ(v.cells.size(), 4u);
  // The pair must be rows 2 and 3 (Susan Orlean / Susan Boyle).
  EXPECT_EQ(v.cells[0].row, 3u);
  EXPECT_EQ(v.cells[2].row, 2u);
}

TEST(DetectorTest, CleanDataYieldsNoViolations) {
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "LA"}).ok());
  ASSERT_TRUE(builder.AddRow({"90002", "LA"}).ok());
  Relation rel = builder.Build();
  Pfd constant = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(900)!\\D{2}", "LA"));
  Pfd variable = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  EXPECT_TRUE(DetectErrors(rel, constant).value().violations.empty());
  EXPECT_TRUE(DetectErrors(rel, variable).value().violations.empty());
}

TEST(DetectorTest, IndexAndScanAgree) {
  Dataset d = ZipCityStateDataset(300, 42, 0.05);
  Pfd variable = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  DetectorOptions with_index;
  with_index.use_pattern_index = true;
  DetectorOptions without_index;
  without_index.use_pattern_index = false;
  auto a = DetectErrors(d.relation, {variable}, with_index).value();
  auto b = DetectErrors(d.relation, {variable}, without_index).value();
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].suspect, b.violations[i].suspect);
  }
}

TEST(DetectorTest, BlockingAndQuadraticAgree) {
  Dataset d = ZipCityStateDataset(300, 43, 0.05);
  Pfd variable = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  DetectorOptions blocked;
  blocked.use_blocking = true;
  DetectorOptions quadratic;
  quadratic.use_blocking = false;
  auto a = DetectErrors(d.relation, {variable}, blocked).value();
  auto b = DetectErrors(d.relation, {variable}, quadratic).value();
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].suspect, b.violations[i].suspect);
    EXPECT_EQ(a.violations[i].suggested_repair,
              b.violations[i].suggested_repair);
  }
  // The quadratic variant must have examined at least as many pairs.
  EXPECT_GE(b.stats.pairs_checked, a.stats.pairs_checked);
}

TEST(DetectorTest, MaxViolationsCap) {
  Dataset d = ZipCityStateDataset(500, 44, 0.1);
  Pfd variable = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  DetectorOptions opts;
  opts.max_violations = 3;
  auto result = DetectErrors(d.relation, {variable}, opts).value();
  EXPECT_LE(result.violations.size(), 3u);
}

TEST(DetectorTest, MultiplePfdsIndexedByPosition) {
  Dataset d = PaperZipTable();
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  Pfd lambda5 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  auto result = DetectErrors(d.relation, {lambda3, lambda5}).value();
  ASSERT_EQ(result.violations.size(), 2u);
  EXPECT_EQ(result.violations[0].pfd_index, 0u);
  EXPECT_EQ(result.violations[1].pfd_index, 1u);
}

TEST(DetectorTest, MultiAttributeConstantRow) {
  // (zip ↦ 900xx, state = CA) → city = Los Angeles: two LHS attributes.
  RelationBuilder builder(
      Schema::MakeText({"zip", "state", "city"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "CA", "Los Angeles"}).ok());
  ASSERT_TRUE(builder.AddRow({"90002", "CA", "New York"}).ok());  // bad
  ASSERT_TRUE(builder.AddRow({"90003", "WA", "Seattle"}).ok());   // no match
  Relation rel = builder.Build();

  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(900)!\\D{2}"));
  row.lhs.push_back(PatternCell("CA"));
  row.rhs.push_back(PatternCell("Los\\ Angeles"));
  t.AddRow(row);
  Pfd pfd("T", {"zip", "state"}, {"city"}, t);

  auto result = DetectErrors(rel, pfd).value();
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].suspect.row, 1u);
  EXPECT_EQ(result.violations[0].suspect.column, 2u);
  EXPECT_EQ(result.violations[0].suggested_repair, "Los Angeles");
  // Cells: 2 LHS + 1 mismatching RHS.
  EXPECT_EQ(result.violations[0].cells.size(), 3u);
}

TEST(DetectorTest, MultiAttributeVariableRow) {
  // (area code, last name) jointly determine the plan column.
  RelationBuilder builder(
      Schema::MakeText({"phone", "name", "plan"}).value());
  ASSERT_TRUE(builder.AddRow({"8501112222", "Smith", "gold"}).ok());
  ASSERT_TRUE(builder.AddRow({"8503334444", "Smith", "gold"}).ok());
  ASSERT_TRUE(builder.AddRow({"8505556666", "Smith", "iron"}).ok());  // bad
  ASSERT_TRUE(builder.AddRow({"8507778888", "Jones", "silver"}).ok());
  Relation rel = builder.Build();

  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(\\D{3})!\\D{7}"));
  row.lhs.push_back(TableauCell::Wildcard());  // classical-FD cell on name
  row.rhs.push_back(TableauCell::Wildcard());
  t.AddRow(row);
  Pfd pfd("T", {"phone", "name"}, {"plan"}, t);

  auto result = DetectErrors(rel, pfd).value();
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].suspect.row, 2u);
  EXPECT_EQ(result.violations[0].suggested_repair, "gold");
}

TEST(DetectorTest, MultiAttributeRhsFlagsEachMismatch) {
  RelationBuilder builder(
      Schema::MakeText({"zip", "city", "state"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "Los Angeles", "CA"}).ok());
  ASSERT_TRUE(builder.AddRow({"90002", "Chicago", "IL"}).ok());  // both bad
  Relation rel = builder.Build();

  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(900)!\\D{2}"));
  row.rhs.push_back(PatternCell("Los\\ Angeles"));
  row.rhs.push_back(PatternCell("CA"));
  t.AddRow(row);
  Pfd pfd("T", {"zip"}, {"city", "state"}, t);

  auto result = DetectErrors(rel, pfd).value();
  ASSERT_EQ(result.violations.size(), 1u);
  // 1 LHS cell + 2 mismatching RHS cells.
  EXPECT_EQ(result.violations[0].cells.size(), 3u);
  EXPECT_EQ(result.violations[0].suggested_repair, "Los Angeles");
}

TEST(DetectorTest, InvalidPfdRejected) {
  Dataset d = PaperZipTable();
  Pfd bad = Pfd::Simple("Zip", "nope", "city",
                        OneRowTableau("(9)!\\D", "LA"));
  EXPECT_FALSE(DetectErrors(d.relation, bad).ok());
}

TEST(DetectorTest, ViolationsDeterministicallyOrdered) {
  Dataset d = ZipCityStateDataset(200, 45, 0.1);
  Pfd variable = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  auto a = DetectErrors(d.relation, variable).value();
  auto b = DetectErrors(d.relation, variable).value();
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].cells, b.violations[i].cells);
  }
}

TEST(DetectorTest, ExplanationsNonEmpty) {
  Dataset d = PaperZipTable();
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  auto result = DetectErrors(d.relation, lambda3).value();
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_FALSE(result.violations[0].explanation.empty());
}

TEST(DetectorTest, StatsPopulated) {
  Dataset d = ZipCityStateDataset(100, 46, 0.05);
  Pfd variable = Pfd::Simple("Z", "zip", "city",
                             OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  auto result = DetectErrors(d.relation, variable).value();
  EXPECT_EQ(result.stats.rows_scanned, 100u);
  EXPECT_GT(result.stats.candidate_rows, 0u);
  EXPECT_EQ(result.stats.violations, result.violations.size());
}

// -- Differential: the kernel against the row-at-a-time oracle ---------------

std::string Fingerprint(const DetectionResult& result) {
  std::string s = std::to_string(result.stats.rows_scanned) + "/" +
                  std::to_string(result.stats.candidate_rows) + "/" +
                  std::to_string(result.stats.pairs_checked) + "/" +
                  std::to_string(result.stats.violations) + "\n";
  for (const Violation& v : result.violations) {
    s += std::to_string(static_cast<int>(v.kind)) + "|" +
         std::to_string(v.pfd_index) + "|" + std::to_string(v.tableau_row);
    for (const CellRef& c : v.cells) {
      s += "," + std::to_string(c.row) + ":" + std::to_string(c.column);
    }
    s += "|" + std::to_string(v.suspect.row) + ":" +
         std::to_string(v.suspect.column) + "|" + v.suggested_repair + "|" +
         v.explanation + "\n";
  }
  return s;
}

/// Appends `relation` to a fresh stream in random chunks and returns the
/// final cumulative result.
DetectionResult StreamInChunks(const Relation& relation,
                               const std::vector<Pfd>& rules,
                               const DetectorOptions& options, uint64_t seed) {
  auto stream = DetectionStream::Open(relation.schema(), rules, options);
  EXPECT_TRUE(stream.ok()) << stream.status();
  Rng rng(seed);
  DetectionResult last;
  RowId begin = 0;
  while (begin < relation.num_rows()) {
    const RowId remaining = static_cast<RowId>(relation.num_rows()) - begin;
    const RowId size = static_cast<RowId>(
        1 + rng.NextBelow(std::min<uint64_t>(remaining, 97)));
    auto batch =
        (*stream)->AppendBatch(relation.Slice(begin, begin + size).value());
    EXPECT_TRUE(batch.ok()) << batch.status();
    last = std::move(batch).value();
    begin += size;
  }
  return last;
}

// Every datagen dataset x 3 seeds x {1, 4} threads x use_pattern_index x
// use_blocking, one-shot and as random chunk-split streams, each with a
// default cache and with a two-state freeze cap (no pattern or union
// freezes: lazy rows probed at 4 threads, dispatch falling back). Violations
// and stats must be byte-identical to the reference.
TEST(DetectKernelDifferentialTest, OneShotAndStreamsMatchRowAtATimeReference) {
  using Maker = Dataset (*)(size_t, uint64_t, double);
  const Maker makers[] = {PhoneStateDataset, NameGenderDataset,
                          ZipCityStateDataset, EmployeeDataset,
                          CompoundDataset, WebAccountDataset};
  DiscoveryOptions discovery;
  discovery.min_coverage = 0.3;
  discovery.allowed_violation_ratio = 0.15;
  size_t total_violations = 0;
  for (const Maker make : makers) {
    for (const uint64_t seed : {11u, 12u, 13u}) {
      const Dataset d = make(160, seed, 0.06);
      const DiscoveryResult discovered =
          DiscoverPfds(d.relation, discovery).value();
      std::vector<Pfd> rules;
      for (const DiscoveredPfd& p : discovered.pfds) rules.push_back(p.pfd);
      ASSERT_FALSE(rules.empty()) << d.name << " seed " << seed;
      // One default cache serves every case of this rule set (compiling a
      // union over long UTF-8 values is the slow part); the capped ones
      // are cheap and fresh per case.
      const auto default_cache = std::make_shared<AutomatonCache>();
      for (const bool use_index : {true, false}) {
        for (const bool use_blocking : {true, false}) {
          DetectorOptions base;
          base.use_pattern_index = use_index;
          base.use_blocking = use_blocking;
          const DetectionResult expected =
              reference::DetectRowAtATime(d.relation, rules, base).value();
          total_violations += expected.violations.size();
          for (const size_t threads : {size_t{1}, size_t{4}}) {
            for (const bool capped : {false, true}) {
              DetectorOptions options = base;
              options.execution.num_threads = threads;
              options.automata = capped ? std::make_shared<AutomatonCache>(2)
                                        : default_cache;
              const std::string where =
                  d.name + " seed " + std::to_string(seed) + " index " +
                  std::to_string(use_index) + " blocking " +
                  std::to_string(use_blocking) + " threads " +
                  std::to_string(threads) + " capped " +
                  std::to_string(capped);
              EXPECT_EQ(Fingerprint(DetectErrors(d.relation, rules, options)
                                        .value()),
                        Fingerprint(expected))
                  << "one-shot: " << where;
              EXPECT_EQ(Fingerprint(StreamInChunks(d.relation, rules, options,
                                                   seed + threads + capped)),
                        Fingerprint(expected))
                  << "stream: " << where;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(total_violations, 0u);
}

}  // namespace
}  // namespace anmat
