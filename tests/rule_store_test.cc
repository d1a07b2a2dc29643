#include "store/rule_store.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "pattern/pattern_parser.h"

namespace anmat {
namespace {

TableauCell PatternCell(const char* text) {
  return TableauCell::Of(ParseConstrainedPattern(text).value());
}

Pfd SamplePfd() {
  Tableau t;
  {
    TableauRow row;
    row.lhs.push_back(PatternCell("(900)!\\D{2}"));
    row.rhs.push_back(PatternCell("Los\\ Angeles"));
    t.AddRow(row);
  }
  {
    TableauRow row;
    row.lhs.push_back(PatternCell("(\\D{3})!\\D{2}"));
    row.rhs.push_back(TableauCell::Wildcard());
    t.AddRow(row);
  }
  return Pfd::Simple("Zip", "zip", "city", t);
}

/// A v1 rule file as releases before the v2 envelope wrote it: bare PFDs,
/// no ids, statuses or provenance.
std::string V1RuleFile(const std::vector<Pfd>& pfds) {
  JsonValue root = JsonValue::Object();
  root.Set("format", JsonValue::String("anmat-rules"));
  root.Set("version", JsonValue::Int(1));
  JsonValue rules = JsonValue::Array();
  for (const Pfd& p : pfds) rules.push_back(PfdToJson(p));
  root.Set("rules", std::move(rules));
  return root.DumpPretty();
}

RuleProvenance SampleProvenance() {
  RuleProvenance p;
  p.source = "zips.csv";
  p.coverage = 0.9;
  p.violation_ratio = 0.05;
  return p;
}

TEST(PfdJsonTest, RoundTripsExactly) {
  Pfd original = SamplePfd();
  JsonValue json = PfdToJson(original);
  Pfd restored = PfdFromJson(json).value();
  EXPECT_TRUE(original == restored);
}

TEST(PfdJsonTest, WildcardCellsSerialized) {
  JsonValue json = PfdToJson(SamplePfd());
  const std::string text = json.Dump();
  EXPECT_NE(text.find("wildcard"), std::string::npos);
  EXPECT_NE(text.find("(900)!\\\\D{2}"), std::string::npos);
}

TEST(PfdJsonTest, MalformedJsonRejected) {
  EXPECT_FALSE(PfdFromJson(JsonValue::String("nope")).ok());
  JsonValue missing = JsonValue::Object();
  missing.Set("table", JsonValue::String("T"));
  EXPECT_FALSE(PfdFromJson(missing).ok());
}

// -- RuleSet lifecycle -----------------------------------------------------

TEST(RuleSetTest, AddAssignsSequentialIds) {
  RuleSet rules;
  EXPECT_EQ(rules.Add(SamplePfd()), 1u);
  EXPECT_EQ(rules.Add(SamplePfd(), SampleProvenance(),
                      RuleStatus::kConfirmed),
            2u);
  EXPECT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules.next_id(), 3u);
  EXPECT_EQ(rules.Find(1)->status, RuleStatus::kDiscovered);
  EXPECT_EQ(rules.Find(2)->status, RuleStatus::kConfirmed);
  EXPECT_EQ(rules.Find(2)->provenance.source, "zips.csv");
  EXPECT_EQ(rules.Find(99), nullptr);
}

TEST(RuleSetTest, SetStatusDrivesConfirmedPfds) {
  RuleSet rules;
  const uint64_t a = rules.Add(SamplePfd());
  const uint64_t b = rules.Add(SamplePfd());
  EXPECT_TRUE(rules.ConfirmedPfds().empty());
  ASSERT_TRUE(rules.SetStatus(a, RuleStatus::kConfirmed).ok());
  ASSERT_TRUE(rules.SetStatus(b, RuleStatus::kRejected).ok());
  EXPECT_EQ(rules.ConfirmedPfds().size(), 1u);
  EXPECT_EQ(rules.PfdsWithStatus(RuleStatus::kRejected).size(), 1u);
  EXPECT_FALSE(rules.SetStatus(42, RuleStatus::kConfirmed).ok());
}

TEST(RuleSetTest, StatusNamesRoundTrip) {
  for (RuleStatus s : {RuleStatus::kDiscovered, RuleStatus::kConfirmed,
                       RuleStatus::kRejected}) {
    EXPECT_EQ(ParseRuleStatus(RuleStatusName(s)).value(), s);
  }
  EXPECT_FALSE(ParseRuleStatus("approved").ok());
}

// -- v2 envelope -----------------------------------------------------------

TEST(RuleSetTest, SerializeParseRoundTripV2) {
  RuleSet rules;
  rules.Add(SamplePfd(), SampleProvenance(), RuleStatus::kConfirmed);
  rules.Add(SamplePfd(), {}, RuleStatus::kRejected);
  const std::string text = SerializeRuleSet(rules);
  EXPECT_NE(text.find("\"version\": 2"), std::string::npos);

  RuleSet restored = ParseRuleSet(text).value();
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.records()[0].id, 1u);
  EXPECT_EQ(restored.records()[0].status, RuleStatus::kConfirmed);
  EXPECT_EQ(restored.records()[0].provenance.source, "zips.csv");
  EXPECT_DOUBLE_EQ(restored.records()[0].provenance.coverage, 0.9);
  EXPECT_DOUBLE_EQ(restored.records()[0].provenance.violation_ratio, 0.05);
  EXPECT_TRUE(restored.records()[0].pfd == SamplePfd());
  EXPECT_EQ(restored.records()[1].status, RuleStatus::kRejected);
  EXPECT_EQ(restored.next_id(), 3u);
}

TEST(RuleSetTest, NextIdFloorSurvivesRoundTrip) {
  RuleSet rules;
  rules.Add(SamplePfd());
  rules.RaiseNextId(17);  // ids 2..16 were deleted in some earlier life
  RuleSet restored = ParseRuleSet(SerializeRuleSet(rules)).value();
  EXPECT_EQ(restored.next_id(), 17u);
  EXPECT_EQ(restored.Add(SamplePfd()), 17u);
}

TEST(RuleSetTest, EmptyRuleSet) {
  EXPECT_TRUE(ParseRuleSet(SerializeRuleSet(RuleSet{})).value().empty());
}

TEST(RuleSetTest, DuplicateIdsRejected) {
  RuleSet rules;
  RuleRecord duplicate;
  duplicate.id = 1;
  duplicate.status = RuleStatus::kDiscovered;
  duplicate.pfd = SamplePfd();
  rules.Restore(duplicate);
  duplicate.status = RuleStatus::kConfirmed;
  rules.Restore(duplicate);
  EXPECT_FALSE(ParseRuleSet(SerializeRuleSet(rules)).ok());
}

TEST(RuleSetTest, UnknownStatusRejected) {
  std::string text = SerializeRuleSet([] {
    RuleSet rules;
    rules.Add(SamplePfd());
    return rules;
  }());
  const size_t pos = text.find("\"discovered\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "\"approvedXX\"");
  EXPECT_FALSE(ParseRuleSet(text).ok());
}

// -- v1 -> v2 migration ----------------------------------------------------

TEST(RuleSetMigrationTest, LegacyV1FilesLoadAsConfirmed) {
  const std::string v1 = V1RuleFile({SamplePfd(), SamplePfd()});
  EXPECT_NE(v1.find("\"version\": 1"), std::string::npos);
  RuleSet migrated = ParseRuleSet(v1).value();
  ASSERT_EQ(migrated.size(), 2u);
  EXPECT_EQ(migrated.records()[0].id, 1u);
  EXPECT_EQ(migrated.records()[1].id, 2u);
  for (const RuleRecord& r : migrated.records()) {
    EXPECT_EQ(r.status, RuleStatus::kConfirmed);
    EXPECT_TRUE(r.provenance.source.empty());
    EXPECT_TRUE(r.pfd == SamplePfd());
  }
  EXPECT_EQ(migrated.next_id(), 3u);
}

TEST(RuleSetMigrationTest, MigratedSetsReSaveAsV2) {
  const std::string v1 = V1RuleFile({SamplePfd()});
  RuleSet migrated = ParseRuleSet(v1).value();
  const std::string v2 = SerializeRuleSet(migrated);
  EXPECT_NE(v2.find("\"version\": 2"), std::string::npos);
  EXPECT_EQ(v2.find("\"version\": 1"), std::string::npos);
  RuleSet reloaded = ParseRuleSet(v2).value();
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.records()[0].status, RuleStatus::kConfirmed);
  EXPECT_TRUE(reloaded.records()[0].pfd == SamplePfd());
}

TEST(RuleSetMigrationTest, LegacyStoreFileRoundTripsThroughV2) {
  const std::string path =
      ::testing::TempDir() + "/anmat_rules_migrate.json";
  {
    // Write a v1 file the way an old release would have.
    std::string v1 = V1RuleFile({SamplePfd()});
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(v1.data(), 1, v1.size(), f);
    std::fclose(f);
  }
  RuleStore store(path);
  RuleSet loaded = store.Load().value();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.records()[0].status, RuleStatus::kConfirmed);

  ASSERT_TRUE(store.Save(loaded).ok());  // re-save: now v2 on disk
  RuleSet reloaded = store.Load().value();
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(reloaded.records()[0].pfd == SamplePfd());
  std::remove(path.c_str());
}

TEST(RuleSetTest, RejectsWrongFormatOrFutureVersion) {
  EXPECT_FALSE(ParseRuleSet("{}").ok());
  EXPECT_FALSE(
      ParseRuleSet(R"({"format":"other","version":2,"rules":[]})").ok());
  EXPECT_FALSE(
      ParseRuleSet(R"({"format":"anmat-rules","version":3,"rules":[]})")
          .ok());
  EXPECT_FALSE(
      ParseRuleSet(R"({"format":"anmat-rules","version":99,"rules":[]})")
          .ok());
  EXPECT_FALSE(
      ParseRuleSet(R"({"format":"anmat-rules","version":2})").ok());
  EXPECT_FALSE(ParseRuleSet("not json at all").ok());
}

// -- RuleStore -------------------------------------------------------------

TEST(RuleStoreTest, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "/anmat_rules_test.json";
  RuleStore store(path);
  RuleSet rules;
  rules.Add(SamplePfd(), SampleProvenance(), RuleStatus::kDiscovered);
  ASSERT_TRUE(store.Save(rules).ok());
  RuleSet loaded = store.Load().value();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.records()[0].status, RuleStatus::kDiscovered);
  EXPECT_TRUE(loaded.records()[0].pfd == SamplePfd());
  std::remove(path.c_str());
}

TEST(RuleStoreTest, MissingFileIsNotFound) {
  RuleStore store("/nonexistent/dir/rules.json");
  auto r = store.Load();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RuleStoreTest, SaveOverwritesAtomically) {
  const std::string path = ::testing::TempDir() + "/anmat_rules_test2.json";
  RuleStore store(path);
  RuleSet rules;
  rules.Add(SamplePfd());
  ASSERT_TRUE(store.Save(rules).ok());
  ASSERT_TRUE(store.Save(RuleSet{}).ok());  // overwrite with empty set
  EXPECT_TRUE(store.Load().value().empty());
  std::remove(path.c_str());
}

TEST(RuleSetTest, AstralProvenanceRoundTrips) {
  // Provenance fields are free text; astral-plane UTF-8 (beyond the BMP)
  // must survive serialize -> parse, and \uXXXX surrogate-pair escapes in
  // a hand-edited store file must decode to the same bytes.
  RuleProvenance provenance;
  provenance.source = "datasets/\xf0\x9f\x98\x80 feed \xf0\x90\x8d\x88.csv";
  provenance.coverage = 0.8;
  RuleSet rules;
  rules.Add(SamplePfd(), provenance, RuleStatus::kConfirmed);

  const std::string text = SerializeRuleSet(rules);
  RuleSet restored = ParseRuleSet(text).value();
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.records()[0].provenance.source, provenance.source);

  // The same source spelled as surrogate-pair escapes parses identically.
  std::string escaped = text;
  const std::string raw = "\xf0\x9f\x98\x80";
  const size_t at = escaped.find(raw);
  ASSERT_NE(at, std::string::npos);
  escaped.replace(at, raw.size(), "\\uD83D\\uDE00");
  RuleSet from_escaped = ParseRuleSet(escaped).value();
  ASSERT_EQ(from_escaped.size(), 1u);
  EXPECT_EQ(from_escaped.records()[0].provenance.source, provenance.source);
}

TEST(RuleSetTest, DeleteRemovesRecordAndNeverReusesIds) {
  RuleSet rules;
  const uint64_t first = rules.Add(SamplePfd());
  const uint64_t second = rules.Add(SamplePfd());
  ASSERT_EQ(rules.size(), 2u);

  ASSERT_TRUE(rules.Delete(first).ok());
  EXPECT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.Find(first), nullptr);
  EXPECT_NE(rules.Find(second), nullptr);

  // A deleted id is gone for good: the next Add skips past it.
  const uint64_t third = rules.Add(SamplePfd());
  EXPECT_GT(third, second);

  // Deleting an unknown id is NotFound, naming the id.
  Status missing = rules.Delete(first);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_NE(missing.message().find("no rule with id 1"), std::string::npos);
}

TEST(RuleSetTest, DeletedHighestIdSurvivesSerializeRoundTrip) {
  RuleSet rules;
  rules.Add(SamplePfd());
  const uint64_t highest = rules.Add(SamplePfd());
  ASSERT_TRUE(rules.Delete(highest).ok());

  // The persisted next_id floor keeps the deleted id retired even though
  // no live record carries it.
  RuleSet restored = ParseRuleSet(SerializeRuleSet(rules)).value();
  EXPECT_EQ(restored.size(), 1u);
  const uint64_t fresh = restored.Add(SamplePfd());
  EXPECT_GT(fresh, highest);
}

}  // namespace
}  // namespace anmat
