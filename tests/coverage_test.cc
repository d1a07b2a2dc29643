#include "pfd/coverage.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coverage_reference.h"
#include "datagen/datasets.h"
#include "discovery/discovery.h"
#include "pattern/automaton_cache.h"
#include "pattern/pattern_parser.h"

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

Relation ZipRelation(const std::vector<std::pair<std::string, std::string>>&
                         rows) {
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  for (const auto& [zip, city] : rows) {
    EXPECT_TRUE(builder.AddRow({zip, city}).ok());
  }
  return builder.Build();
}

TEST(CoverageTest, FullCoverageNoViolations) {
  Relation rel = ZipRelation({{"90001", "LA"}, {"90002", "LA"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city", OneRowTableau("(900)!\\D{2}",
                                                          "LA"));
  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.total_rows, 2u);
  EXPECT_EQ(stats.covered_rows, 2u);
  EXPECT_EQ(stats.violating_rows, 0u);
  EXPECT_DOUBLE_EQ(stats.Coverage(), 1.0);
  EXPECT_DOUBLE_EQ(stats.ViolationRate(), 0.0);
}

TEST(CoverageTest, PartialCoverage) {
  Relation rel = ZipRelation(
      {{"90001", "LA"}, {"10001", "NY"}, {"90002", "LA"}, {"10002", "NY"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city", OneRowTableau("(900)!\\D{2}",
                                                          "LA"));
  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.covered_rows, 2u);
  EXPECT_DOUBLE_EQ(stats.Coverage(), 0.5);
}

TEST(CoverageTest, ConstantViolationCounted) {
  Relation rel = ZipRelation(
      {{"90001", "LA"}, {"90002", "LA"}, {"90003", "New York"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city", OneRowTableau("(900)!\\D{2}",
                                                          "LA"));
  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.covered_rows, 3u);
  EXPECT_EQ(stats.violating_rows, 1u);
  EXPECT_NEAR(stats.ViolationRate(), 1.0 / 3.0, 1e-9);
}

TEST(CoverageTest, VariablePfdMajorityRule) {
  // Keys "900xx": 2x LA, 1x NY -> 1 violating row. Keys "100xx": all NY.
  Relation rel = ZipRelation({{"90001", "LA"},
                              {"90002", "LA"},
                              {"90003", "NY"},
                              {"10001", "NY"},
                              {"10002", "NY"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city",
                        OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.covered_rows, 5u);
  EXPECT_EQ(stats.violating_rows, 1u);
}

TEST(CoverageTest, VariablePfdSingletonGroupsNeverViolate) {
  Relation rel = ZipRelation({{"90001", "LA"}, {"10001", "NY"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city",
                        OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.covered_rows, 2u);
  EXPECT_EQ(stats.violating_rows, 0u);
}

TEST(CoverageTest, VariablePfdTieCountsMinoritySide) {
  // 1x LA vs 1x NY under the same key: a genuine conflict; exactly one side
  // (the lexicographically later one) is counted violating.
  Relation rel = ZipRelation({{"90001", "LA"}, {"90002", "NY"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city",
                        OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.violating_rows, 1u);
}

TEST(CoverageTest, NonMatchingRowsNotCovered) {
  Relation rel = ZipRelation({{"90001", "LA"}, {"not-a-zip", "LA"}});
  Pfd pfd = Pfd::Simple("Z", "zip", "city",
                        OneRowTableau("(\\D{3})!\\D{2}", nullptr));
  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.covered_rows, 1u);
}

TEST(CoverageTest, EmptyRelation) {
  Relation rel = ZipRelation({});
  Pfd pfd = Pfd::Simple("Z", "zip", "city", OneRowTableau("(900)!\\D{2}",
                                                          "LA"));
  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.total_rows, 0u);
  EXPECT_DOUBLE_EQ(stats.Coverage(), 0.0);
  EXPECT_DOUBLE_EQ(stats.ViolationRate(), 0.0);
}

TEST(CoverageTest, InvalidPfdRejected) {
  Relation rel = ZipRelation({{"90001", "LA"}});
  Pfd pfd = Pfd::Simple("Z", "nope", "city", OneRowTableau("(9)!\\D", "LA"));
  EXPECT_FALSE(ComputeCoverage(pfd, rel).ok());
}

TEST(CoverageTest, MultiRowTableauUnionCoverage) {
  Relation rel = ZipRelation(
      {{"90001", "LA"}, {"10001", "NY"}, {"60601", "Chicago"}});
  Tableau t;
  {
    TableauRow row;
    row.lhs.push_back(PatternCell("(900)!\\D{2}"));
    row.rhs.push_back(PatternCell("LA"));
    t.AddRow(row);
  }
  {
    TableauRow row;
    row.lhs.push_back(PatternCell("(100)!\\D{2}"));
    row.rhs.push_back(PatternCell("NY"));
    t.AddRow(row);
  }
  Pfd pfd = Pfd::Simple("Z", "zip", "city", t);
  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.covered_rows, 2u);  // Chicago row not covered
  EXPECT_EQ(stats.violating_rows, 0u);
}

TEST(CoverageTest, MultiAttributeLhs) {
  RelationBuilder builder(
      Schema::MakeText({"zip", "state", "city"}).value());
  EXPECT_TRUE(builder.AddRow({"90001", "CA", "LA"}).ok());
  EXPECT_TRUE(builder.AddRow({"90002", "CA", "NY"}).ok());  // violates
  EXPECT_TRUE(builder.AddRow({"90003", "WA", "Seattle"}).ok());  // uncovered
  Relation rel = builder.Build();

  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(900)!\\D{2}"));
  row.lhs.push_back(PatternCell("CA"));
  row.rhs.push_back(PatternCell("LA"));
  t.AddRow(row);
  Pfd pfd("T", {"zip", "state"}, {"city"}, t);

  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.covered_rows, 2u);   // WA row fails the state cell
  EXPECT_EQ(stats.violating_rows, 1u);
}

TEST(CoverageTest, MultiAttributeVariableGroupsOnCompositeKey) {
  RelationBuilder builder(
      Schema::MakeText({"code", "region", "label"}).value());
  // Key = (first digit of code, whole region). Same composite key must
  // agree on label.
  EXPECT_TRUE(builder.AddRow({"1A", "east", "x"}).ok());
  EXPECT_TRUE(builder.AddRow({"1B", "east", "x"}).ok());
  EXPECT_TRUE(builder.AddRow({"1C", "east", "y"}).ok());  // violates
  EXPECT_TRUE(builder.AddRow({"1D", "west", "z"}).ok());  // different key
  Relation rel = builder.Build();

  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(\\D)!\\LU"));
  row.lhs.push_back(TableauCell::Wildcard());
  row.rhs.push_back(TableauCell::Wildcard());
  t.AddRow(row);
  Pfd pfd("T", {"code", "region"}, {"label"}, t);

  CoverageStats stats = ComputeCoverage(pfd, rel).value();
  EXPECT_EQ(stats.covered_rows, 4u);
  EXPECT_EQ(stats.violating_rows, 1u);
}

TEST(CoverageTest, PaperTable2Scenario) {
  // Table 2: λ3 (900\D{2} → Los Angeles) covers all 4 rows; s4 violates.
  Relation rel = ZipRelation({{"90001", "Los Angeles"},
                              {"90002", "Los Angeles"},
                              {"90003", "Los Angeles"},
                              {"90004", "New York"}});
  Pfd lambda3 = Pfd::Simple("Zip", "zip", "city",
                            OneRowTableau("(900)!\\D{2}", "Los\\ Angeles"));
  CoverageStats stats = ComputeCoverage(lambda3, rel).value();
  EXPECT_EQ(stats.covered_rows, 4u);
  EXPECT_EQ(stats.violating_rows, 1u);
  EXPECT_DOUBLE_EQ(stats.Coverage(), 1.0);
  EXPECT_DOUBLE_EQ(stats.ViolationRate(), 0.25);
}

// ---- Against the row-at-a-time reference ---------------------------------

TEST(CoverageDifferentialTest, DiscoveredPfdsMatchRowAtATimeReference) {
  // min_coverage 0 keeps every mined PFD, not only the ones that pass.
  size_t pfds_checked = 0;
  size_t constant_rows = 0;
  size_t variable_rows = 0;
  for (uint64_t seed : {1, 2, 3}) {
    const std::vector<Dataset> datasets = {
        PhoneStateDataset(400, seed, 0.02),
        NameGenderDataset(400, seed, 0.02),
        ZipCityStateDataset(400, seed, 0.02),
        EmployeeDataset(400, seed, 0.02),
        CompoundDataset(400, seed, 0.02),
        WebAccountDataset(200, seed, 0.02)};
    for (const Dataset& d : datasets) {
      for (size_t threads : {1, 4}) {
        DiscoveryOptions options;
        options.min_coverage = 0.0;
        options.execution.num_threads = threads;
        options.automata = std::make_shared<AutomatonCache>();
        const DiscoveryResult result =
            DiscoverPfds(d.relation, options).value();
        for (const DiscoveredPfd& found : result.pfds) {
          const CoverageStats expected =
              reference::ComputeCoverageRowAtATime(found.pfd, d.relation)
                  .value();
          for (const CoverageStats& got :
               {found.stats, ComputeCoverage(found.pfd, d.relation).value()}) {
            EXPECT_EQ(got.total_rows, expected.total_rows) << d.name;
            EXPECT_EQ(got.covered_rows, expected.covered_rows) << d.name;
            EXPECT_EQ(got.violating_rows, expected.violating_rows) << d.name;
          }
          ++pfds_checked;
          for (const TableauRow& row : found.pfd.tableau().rows()) {
            ++(row.IsConstantRow() ? constant_rows : variable_rows);
          }
        }
      }
    }
  }
  EXPECT_GT(pfds_checked, 50u);
  EXPECT_GT(constant_rows, 100u);
  EXPECT_GT(variable_rows, 20u);
}

}  // namespace
}  // namespace anmat
