// Rule authoring: writing PFDs by hand and reasoning about them —
// the workflow of a data steward who knows the domain rules and wants to
// encode, sanity-check, and apply them without running discovery.
//
// Demonstrates:
//   * the textual pattern syntax for all five of the paper's λ1-λ5 rules,
//   * containment/restriction checks (Example 1 and Example 2 of §2),
//   * persisting a hand-written rule set and applying it for detection
//     and repair.
//
// Run: ./build/examples/rule_authoring

#include <iostream>

#include "datagen/datasets.h"
#include "detect/detector.h"
#include "pattern/containment.h"
#include "pattern/matcher.h"
#include "pattern/pattern_parser.h"
#include "repair/repair.h"
#include "store/rule_store.h"

namespace {

anmat::TableauCell Cell(const char* text) {
  auto p = anmat::ParseConstrainedPattern(text);
  if (!p.ok()) {
    std::cerr << "bad pattern: " << p.status() << "\n";
    std::exit(2);
  }
  return anmat::TableauCell::Of(p.value());
}

anmat::Pfd MakeRule(const char* table, const char* lhs_attr,
                    const char* rhs_attr, const char* lhs,
                    const char* rhs_or_null) {
  anmat::Tableau t;
  anmat::TableauRow row;
  row.lhs.push_back(Cell(lhs));
  row.rhs.push_back(rhs_or_null == nullptr ? anmat::TableauCell::Wildcard()
                                           : Cell(rhs_or_null));
  t.AddRow(row);
  return anmat::Pfd::Simple(table, lhs_attr, rhs_attr, t);
}

}  // namespace

int main() {
  // --- The paper's five rules, hand-written -------------------------------
  const anmat::Pfd lambda1 =
      MakeRule("Name", "name", "gender", "(John)!\\ \\A*", "M");
  const anmat::Pfd lambda2 =
      MakeRule("Name", "name", "gender", "(Susan)!\\ \\A*", "F");
  const anmat::Pfd lambda3 =
      MakeRule("Zip", "zip", "city", "(900)!\\D{2}", "Los\\ Angeles");
  const anmat::Pfd lambda4 =
      MakeRule("Name", "name", "gender", "(\\LU\\LL*\\ )!\\A*", nullptr);
  const anmat::Pfd lambda5 =
      MakeRule("Zip", "zip", "city", "(\\D{3})!\\D{2}", nullptr);

  std::cout << "Hand-written rules:\n";
  for (const anmat::Pfd* rule :
       {&lambda1, &lambda2, &lambda3, &lambda4, &lambda5}) {
    std::cout << rule->ToString();
  }

  // --- §2 Example 1: matching and containment -----------------------------
  auto p1 = anmat::ParsePattern("\\D{5}").value();
  auto p2 = anmat::ParsePattern("\\D*").value();
  std::cout << "\nExample 1:\n";
  std::cout << "  90001 matches \\D{5}: "
            << anmat::MatchesPattern(p1, "90001") << "\n";
  std::cout << "  \\D{5} contained in \\D*: "
            << anmat::PatternContains(p2, p1) << "\n";
  std::cout << "  \\D* contained in \\D{5}: "
            << anmat::PatternContains(p1, p2) << "\n";

  // --- §2 Example 2: constrained-pattern restriction -----------------------
  auto q1 = anmat::ParseConstrainedPattern("(\\LU\\LL*\\ )!\\A*").value();
  auto q2 = anmat::ParseConstrainedPattern("(\\LU\\LL*\\ )!\\A*\\ (\\LU\\LL*)!")
                .value();
  std::cout << "\nExample 2 (Q2 restricts Q1):\n";
  std::cout << "  Q2 ⊆ Q1: " << anmat::ConstrainedRestricts(q2, q1) << "\n";
  std::cout << "  Q1 ⊆ Q2: " << anmat::ConstrainedRestricts(q1, q2) << "\n";
  anmat::ConstrainedMatcher m1(q1);
  std::cout << "  \"John Charles\" ≡_Q1 \"John Bosco\": "
            << m1.Equivalent("John Charles", "John Bosco") << "\n";

  // --- Persist, reload, detect, repair -------------------------------------
  const std::string store_path = "/tmp/anmat_authored_rules.json";
  anmat::RuleStore store(store_path);
  anmat::RuleSet authored;
  for (const anmat::Pfd& p : {lambda2, lambda3, lambda4, lambda5}) {
    authored.Add(p, {}, anmat::RuleStatus::kConfirmed);
  }
  if (auto s = store.Save(authored); !s.ok()) {
    std::cerr << s << "\n";
    return 2;
  }
  auto reloaded = store.Load();
  if (!reloaded.ok()) {
    std::cerr << reloaded.status() << "\n";
    return 2;
  }
  std::cout << "\nreloaded " << reloaded.value().size()
            << " rules from " << store_path << "\n";

  anmat::Dataset names = anmat::PaperNameTable();
  anmat::Dataset zips = anmat::PaperZipTable();
  auto name_violations =
      anmat::DetectErrors(names.relation, {lambda2, lambda4}).value();
  auto zip_violations =
      anmat::DetectErrors(zips.relation, {lambda3, lambda5}).value();
  std::cout << "violations on Table 1 (Name): "
            << name_violations.violations.size() << "\n";
  std::cout << "violations on Table 2 (Zip):  "
            << zip_violations.violations.size() << "\n";

  anmat::Relation cleaned = zips.relation;
  auto repair = anmat::RepairErrors(&cleaned, {lambda3}).value();
  std::cout << "repairs applied to Table 2:   " << repair.repairs.size()
            << " (s4[city] -> \"" << cleaned.cell(3, 1) << "\")\n";

  std::remove(store_path.c_str());
  return name_violations.violations.empty() ||
                 zip_violations.violations.empty()
             ? 1
             : 0;
}
