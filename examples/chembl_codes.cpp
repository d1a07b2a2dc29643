// ChEMBL-like compound codes: exercises the n-gram discovery path on a
// single-token alphanumeric id column (the paper demos ANMAT on ChEMBL
// downloads; §4 notes n-grams are used for single-token code/id columns).
//
// The generated table pairs CHEMBL ids with a class label determined by the
// id's digit-count bucket. Discovery must find prefix/structure rules on
// the id column, and also demonstrates rule persistence: discovered rules
// are saved to a JSON rule store (the MongoDB substitute) and reloaded
// before detection.
//
// Run: ./build/examples/chembl_codes [rows]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "anmat/report.h"
#include "anmat/session.h"
#include "datagen/datasets.h"
#include "detect/detector.h"
#include "store/rule_store.h"

int main(int argc, char** argv) {
  const size_t rows = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2000;

  anmat::Dataset dataset = anmat::CompoundDataset(rows, /*seed=*/77,
                                                  /*error_rate=*/0.04);
  std::cout << "Generated " << dataset.relation.num_rows()
            << " compound rows, " << dataset.ground_truth.size()
            << " injected label errors.\n\n";
  std::cout << dataset.relation.ToString(5) << "\n";

  anmat::Session session("chembl");
  if (anmat::Status s = session.LoadRelation(dataset.relation); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  session.SetMinCoverage(0.2);  // each digit-count bucket is a minority
  session.SetAllowedViolationRatio(0.1);
  session.mutable_discovery_options().constant_miner.decision.min_support = 20;

  if (anmat::Status s = session.Discover(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << anmat::RenderDiscoveredPfdsView(session.discovered()) << "\n";

  // Persist the discovered rules and reload them — the demo's MongoDB
  // round-trip, substituted by the JSON rule store.
  anmat::RuleSet rules;
  for (const anmat::DiscoveredPfd& d : session.discovered()) {
    rules.Add(d.pfd, {}, anmat::RuleStatus::kConfirmed);
  }
  const std::string store_path = "/tmp/anmat_chembl_rules.json";
  anmat::RuleStore store(store_path);
  if (anmat::Status s = store.Save(rules); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  auto reloaded = store.Load();
  if (!reloaded.ok()) {
    std::cerr << reloaded.status() << "\n";
    return 1;
  }
  // Saving bare PFDs marks them confirmed in the v2 store; only confirmed
  // rules are applied.
  const std::vector<anmat::Pfd> loaded_rules = reloaded->ConfirmedPfds();
  std::cout << "Persisted and reloaded " << loaded_rules.size()
            << " rule(s) via " << store_path << "\n\n";

  auto detection = anmat::DetectErrors(dataset.relation, loaded_rules);
  if (!detection.ok()) {
    std::cerr << detection.status() << "\n";
    return 1;
  }
  std::cout << anmat::RenderViolationsView(dataset.relation, loaded_rules,
                                           detection.value(), 10);

  std::vector<anmat::CellRef> suspects;
  for (const anmat::Violation& v : detection.value().violations) {
    suspects.push_back(v.suspect);
  }
  anmat::PrecisionRecall pr =
      anmat::ScoreSuspects(suspects, dataset.ground_truth, {1});
  std::cout << "\n" << anmat::RenderScorecard("chembl id_class", pr);
  std::remove(store_path.c_str());
  return 0;
}
