#include "anmat/session.h"

#include <gtest/gtest.h>

#include "anmat/report.h"
#include "csv/csv_writer.h"
#include "datagen/datasets.h"
#include "repair/repair.h"

namespace anmat {
namespace {

TEST(SessionTest, RequiresDataBeforePipeline) {
  Session session;
  EXPECT_FALSE(session.has_data());
  EXPECT_FALSE(session.Profile().ok());
  EXPECT_FALSE(session.Discover().ok());
  EXPECT_FALSE(session.Detect().ok());
}

TEST(SessionTest, LoadCsvString) {
  Session session("test");
  ASSERT_TRUE(
      session.LoadCsvString("zip,city\n90001,LA\n90002,LA\n").ok());
  EXPECT_TRUE(session.has_data());
  EXPECT_EQ(session.relation().num_rows(), 2u);
  EXPECT_EQ(session.project_name(), "test");
}

TEST(SessionTest, ProfileThenDiscoverThenDetect) {
  Dataset d = ZipCityStateDataset(300, 51, 0.03);
  Session session("zips");
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  session.SetMinCoverage(0.5);
  session.SetAllowedViolationRatio(0.1);

  ASSERT_TRUE(session.Profile().ok());
  EXPECT_EQ(session.profiles().size(), 3u);

  ASSERT_TRUE(session.Discover().ok());
  ASSERT_FALSE(session.discovered().empty());

  session.ConfirmAll();
  EXPECT_EQ(session.confirmed().size(), session.discovered().size());

  ASSERT_TRUE(session.Detect().ok());
  EXPECT_FALSE(session.detection().violations.empty());
}

TEST(SessionTest, DetectRequiresConfirmation) {
  Dataset d = ZipCityStateDataset(100, 52, 0.0);
  Session session;
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  ASSERT_TRUE(session.Discover().ok());
  EXPECT_FALSE(session.Detect().ok());  // nothing confirmed
}

TEST(SessionTest, SelectiveConfirmation) {
  Dataset d = ZipCityStateDataset(300, 53, 0.0);
  Session session;
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  session.SetMinCoverage(0.5);
  ASSERT_TRUE(session.Discover().ok());
  ASSERT_GE(session.discovered().size(), 2u);

  ASSERT_TRUE(session.Confirm(0).ok());
  EXPECT_EQ(session.confirmed().size(), 1u);
  EXPECT_FALSE(session.Confirm(999).ok());
  session.ClearConfirmations();
  EXPECT_TRUE(session.confirmed().empty());
}

TEST(SessionTest, ConfirmBeforeDiscoverFails) {
  Dataset d = ZipCityStateDataset(50, 54, 0.0);
  Session session;
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  EXPECT_FALSE(session.Confirm(0).ok());
}

TEST(SessionTest, ReloadResetsState) {
  Dataset d = ZipCityStateDataset(100, 55, 0.0);
  Session session;
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  ASSERT_TRUE(session.Discover().ok());
  session.ConfirmAll();
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  EXPECT_TRUE(session.discovered().empty());
  EXPECT_TRUE(session.confirmed().empty());
}

TEST(SessionTest, RepairRefreshesDetection) {
  const Dataset d = PaperZipTable();
  Session session("Zip");
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  session.SetMinCoverage(0.5);
  session.SetAllowedViolationRatio(0.3);
  ASSERT_TRUE(session.Discover().ok());
  session.ConfirmAll();
  ASSERT_TRUE(session.Detect().ok());
  ASSERT_FALSE(session.detection().violations.empty());
  ASSERT_TRUE(session.Repair().ok());
  // detection() now describes the repaired relation, not the stale one.
  EXPECT_TRUE(session.detection().violations.empty());
  EXPECT_EQ(session.detection().violations.size(),
            session.repair_result().remaining_violations);
}

TEST(SessionTest, RejectUnappliesEarlierConfirm) {
  const Dataset d = ZipCityStateDataset(300, 78, 0.02);
  Session session;
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  session.SetMinCoverage(0.4);
  ASSERT_TRUE(session.Discover().ok());
  ASSERT_FALSE(session.discovered().empty());

  ASSERT_TRUE(session.Confirm(0).ok());
  ASSERT_EQ(session.confirmed().size(), 1u);
  ASSERT_TRUE(session.Reject(0).ok());  // changed their mind
  EXPECT_TRUE(session.confirmed().empty());

  // ConfirmAll keeps the rejection; only an explicit Confirm(0) overrides
  // it.
  session.ConfirmAll();
  for (const Pfd& p : session.confirmed()) {
    EXPECT_FALSE(p == session.discovered()[0].pfd);
  }
  ASSERT_TRUE(session.Confirm(0).ok());
  session.ClearConfirmations();
  EXPECT_TRUE(session.confirmed().empty());
  EXPECT_FALSE(session.Detect().ok());  // nothing left to apply
}

TEST(SessionTest, SessionRepairMatchesEngineRepair) {
  const Dataset d = ZipCityStateDataset(400, 77, 0.05);
  Session session("zips");
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  session.SetMinCoverage(0.4);
  ASSERT_TRUE(session.Discover().ok());
  session.ConfirmAll();
  ASSERT_TRUE(session.Repair().ok());

  Relation reference = d.relation;
  RepairResult expected =
      RepairErrors(&reference, session.confirmed()).value();
  EXPECT_EQ(session.repair_result().repairs.size(), expected.repairs.size());
  for (RowId r = 0; r < reference.num_rows(); ++r) {
    for (size_t c = 0; c < reference.num_columns(); ++c) {
      ASSERT_EQ(session.relation().cell(r, c), reference.cell(r, c))
          << "row " << r << " col " << c;
    }
  }
}

TEST(ReportTest, ProfilingViewShowsPatternPositionFrequency) {
  Dataset d = ZipCityStateDataset(100, 56, 0.0);
  Session session;
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  ASSERT_TRUE(session.Profile().ok());
  const std::string view = RenderProfilingView(session.profiles());
  EXPECT_NE(view.find("Profiling"), std::string::npos);
  EXPECT_NE(view.find("zip"), std::string::npos);
  // Figure 3/4 entry format "pattern::position, frequency".
  EXPECT_NE(view.find("\\D{5}::0, "), std::string::npos);
}

TEST(ReportTest, DiscoveredViewShowsTableauAndCoverage) {
  Dataset d = ZipCityStateDataset(200, 57, 0.0);
  Session session("Zip");
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  session.SetMinCoverage(0.5);
  ASSERT_TRUE(session.Discover().ok());
  const std::string view = RenderDiscoveredPfdsView(session.discovered());
  EXPECT_NE(view.find("Discovered PFDs"), std::string::npos);
  EXPECT_NE(view.find("coverage="), std::string::npos);
}

TEST(ReportTest, EmptyDiscoveredView) {
  EXPECT_NE(RenderDiscoveredPfdsView({}).find("(none)"), std::string::npos);
}

TEST(ReportTest, ViolationsViewShowsRecordsAndRepairs) {
  Dataset d = PaperZipTable();
  Session session("Zip");
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  session.SetMinCoverage(0.5);
  session.SetAllowedViolationRatio(0.3);
  ASSERT_TRUE(session.Discover().ok());
  session.ConfirmAll();
  ASSERT_TRUE(session.Detect().ok());
  const std::string view = RenderViolationsView(
      session.relation(), session.confirmed(), session.detection());
  EXPECT_NE(view.find("Violations"), std::string::npos);
  EXPECT_NE(view.find("New York"), std::string::npos);
}

TEST(ReportTest, SessionReportCombinesViews) {
  Dataset d = ZipCityStateDataset(150, 58, 0.05);
  Session session("combo");
  ASSERT_TRUE(session.LoadRelation(d.relation).ok());
  session.SetMinCoverage(0.5);
  session.SetAllowedViolationRatio(0.1);
  ASSERT_TRUE(session.Discover().ok());
  session.ConfirmAll();
  ASSERT_TRUE(session.Detect().ok());
  const std::string report = RenderSessionReport(session);
  EXPECT_NE(report.find("Profiling"), std::string::npos);
  EXPECT_NE(report.find("Discovered PFDs"), std::string::npos);
  EXPECT_NE(report.find("Violations"), std::string::npos);
}

TEST(ReportTest, ScorecardFormat) {
  PrecisionRecall pr;
  pr.true_positives = 8;
  pr.false_positives = 2;
  pr.false_negatives = 2;
  const std::string card = RenderScorecard("pfd", pr);
  EXPECT_NE(card.find("precision=0.800"), std::string::npos);
  EXPECT_NE(card.find("recall=0.800"), std::string::npos);
}

}  // namespace
}  // namespace anmat
