// End-to-end integration tests: CSV ingest → profiling → discovery →
// persistence → detection → scoring, mirroring the demo workflow of §4 and
// validating the cross-module contracts no unit test covers.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "anmat/report.h"
#include "anmat/session.h"
#include "baseline/baseline_detector.h"
#include "baseline/fd_miner.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "detect/detector.h"
#include "discovery/discovery.h"
#include "store/rule_store.h"

namespace anmat {
namespace {

TEST(IntegrationTest, CsvRoundTripThroughFullPipeline) {
  // Generate → write CSV → read CSV → discover → detect.
  Dataset d = ZipCityStateDataset(400, 101, 0.04);
  const std::string path = ::testing::TempDir() + "/anmat_integration.csv";
  ASSERT_TRUE(WriteCsvFile(d.relation, path).ok());

  Session session("roundtrip");
  ASSERT_TRUE(session.LoadCsvFile(path).ok());
  EXPECT_EQ(session.relation().num_rows(), 400u);

  session.SetMinCoverage(0.5);
  session.SetAllowedViolationRatio(0.1);
  ASSERT_TRUE(session.Discover().ok());
  ASSERT_FALSE(session.discovered().empty());
  session.ConfirmAll();
  ASSERT_TRUE(session.Detect().ok());
  EXPECT_FALSE(session.detection().violations.empty());
  std::remove(path.c_str());
}

TEST(IntegrationTest, DiscoveredRulesSurviveStoreRoundTrip) {
  Dataset d = ZipCityStateDataset(300, 102, 0.0);
  DiscoveryOptions opts;
  opts.min_coverage = 0.5;
  DiscoveryResult result = DiscoverPfds(d.relation, opts).value();
  ASSERT_FALSE(result.pfds.empty());

  std::vector<Pfd> rules;
  RuleSet confirmed;
  for (const DiscoveredPfd& p : result.pfds) {
    rules.push_back(p.pfd);
    confirmed.Add(p.pfd, {}, RuleStatus::kConfirmed);
  }

  const std::string path = ::testing::TempDir() + "/anmat_rules_it.json";
  RuleStore store(path);
  ASSERT_TRUE(store.Save(confirmed).ok());
  std::vector<Pfd> loaded = store.Load().value().ConfirmedPfds();
  ASSERT_EQ(loaded.size(), rules.size());

  // Detection with reloaded rules equals detection with originals.
  auto before = DetectErrors(d.relation, rules).value();
  auto after = DetectErrors(d.relation, loaded).value();
  ASSERT_EQ(before.violations.size(), after.violations.size());
  for (size_t i = 0; i < before.violations.size(); ++i) {
    EXPECT_EQ(before.violations[i].suspect, after.violations[i].suspect);
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, InjectedGenderErrorsAreRecovered) {
  // The paper's headline claim on D2: name-pattern rules find gender errors.
  Dataset d = NameGenderDataset(800, 103, 0.04);
  ASSERT_FALSE(d.ground_truth.empty());

  DiscoveryOptions opts;
  opts.table_name = "D2";
  opts.min_coverage = 0.4;
  opts.allowed_violation_ratio = 0.15;
  DiscoveryResult result = DiscoverPfds(d.relation, opts).value();
  ASSERT_FALSE(result.pfds.empty());

  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : result.pfds) {
    if (p.pfd.rhs_attrs()[0] == "gender") rules.push_back(p.pfd);
  }
  ASSERT_FALSE(rules.empty());

  auto detection = DetectErrors(d.relation, rules).value();
  std::vector<CellRef> suspects;
  for (const Violation& v : detection.violations) {
    suspects.push_back(v.suspect);
  }
  PrecisionRecall pr = ScoreSuspects(suspects, d.ground_truth, {1});
  // Gendered first names repeat often; most injected swaps are caught.
  EXPECT_GT(pr.Recall(), 0.6);
  EXPECT_GT(pr.Precision(), 0.6);
}

TEST(IntegrationTest, InjectedZipErrorsAreRecoveredWithHighPrecision) {
  Dataset d = ZipCityStateDataset(1000, 104, 0.03);
  DiscoveryOptions opts;
  opts.min_coverage = 0.5;
  opts.allowed_violation_ratio = 0.1;
  DiscoveryResult result = DiscoverPfds(d.relation, opts).value();

  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : result.pfds) rules.push_back(p.pfd);
  ASSERT_FALSE(rules.empty());

  auto detection = DetectErrors(d.relation, rules).value();
  std::vector<CellRef> suspects;
  for (const Violation& v : detection.violations) {
    suspects.push_back(v.suspect);
  }
  PrecisionRecall pr = ScoreSuspects(suspects, d.ground_truth, {1, 2});
  EXPECT_GT(pr.Recall(), 0.7);
  EXPECT_GT(pr.Precision(), 0.7);
}

TEST(IntegrationTest, RepairSuggestionsMatchGroundTruth) {
  Dataset d = ZipCityStateDataset(600, 105, 0.03);
  DiscoveryOptions opts;
  opts.min_coverage = 0.5;
  opts.allowed_violation_ratio = 0.1;
  opts.mine_variable = false;  // constant rules give explicit repairs
  DiscoveryResult result = DiscoverPfds(d.relation, opts).value();
  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : result.pfds) rules.push_back(p.pfd);
  ASSERT_FALSE(rules.empty());

  auto detection = DetectErrors(d.relation, rules).value();
  std::set<std::pair<RowId, uint32_t>> truth_cells;
  std::map<std::pair<RowId, uint32_t>, std::string> truth_values;
  for (const InjectedError& e : d.ground_truth) {
    truth_cells.insert({e.cell.row, e.cell.column});
    truth_values[{e.cell.row, e.cell.column}] = e.original;
  }
  size_t correct_repairs = 0;
  size_t checked = 0;
  for (const Violation& v : detection.violations) {
    auto key = std::make_pair(v.suspect.row, v.suspect.column);
    if (truth_cells.count(key) > 0) {
      ++checked;
      if (v.suggested_repair == truth_values[key]) ++correct_repairs;
    }
  }
  ASSERT_GT(checked, 0u);
  // Constant repairs should overwhelmingly restore the original value.
  EXPECT_GT(static_cast<double>(correct_repairs) /
                static_cast<double>(checked),
            0.9);
}

TEST(IntegrationTest, PfdsBeatFdsOnPartialValueErrors) {
  // A compact version of bench A4's claim: whole-value FDs cannot use zip
  // prefixes, so with unique zips they detect nothing, while PFDs do.
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"90001", "Los Angeles"}, {"90002", "Los Angeles"},
      {"90003", "Los Angeles"}, {"90004", "New York"},  // the error
      {"60601", "Chicago"},     {"60602", "Chicago"},
  };
  for (const auto& [z, c] : rows) ASSERT_TRUE(builder.AddRow({z, c}).ok());
  Relation rel = builder.Build();

  // Baseline FD zip -> city: zips are unique, the FD holds vacuously and
  // flags nothing (and a key-LHS FD is useless for cleaning anyway).
  FdMinerOptions fd_opts;
  fd_opts.skip_key_lhs = false;
  std::vector<DiscoveredFd> fds = MineFds(rel, fd_opts);
  size_t fd_flags = 0;
  for (const DiscoveredFd& fd : fds) {
    if (fd.lhs == "zip" && fd.rhs == "city") {
      fd_flags += DetectFdViolations(rel, fd).value().size();
    }
  }
  EXPECT_EQ(fd_flags, 0u);

  // PFD discovery finds the prefix rule and flags the error.
  DiscoveryOptions opts;
  opts.min_coverage = 0.4;
  opts.allowed_violation_ratio = 0.34;
  DiscoveryResult result = DiscoverPfds(rel, opts).value();
  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : result.pfds) rules.push_back(p.pfd);
  ASSERT_FALSE(rules.empty());
  auto detection = DetectErrors(rel, rules).value();
  bool flagged_row3 = false;
  for (const Violation& v : detection.violations) {
    if (v.suspect.row == 3 && v.suspect.column == 1) flagged_row3 = true;
  }
  EXPECT_TRUE(flagged_row3);
}

TEST(IntegrationTest, Table3StyleReportRenders) {
  Dataset d = PhoneStateDataset(500, 106, 0.03);
  DiscoveryOptions opts;
  opts.table_name = "D1";
  opts.min_coverage = 0.5;
  opts.allowed_violation_ratio = 0.1;
  DiscoveryResult result = DiscoverPfds(d.relation, opts).value();
  std::vector<Pfd> rules;
  for (const DiscoveredPfd& p : result.pfds) rules.push_back(p.pfd);
  ASSERT_FALSE(rules.empty());
  auto detection = DetectErrors(d.relation, rules).value();
  const std::string table = RenderTable3Style(d.relation, rules, detection);
  EXPECT_NE(table.find("Dependency"), std::string::npos);
  EXPECT_NE(table.find("phone -> state"), std::string::npos);
}

}  // namespace
}  // namespace anmat
