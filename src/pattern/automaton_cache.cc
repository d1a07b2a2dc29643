#include "pattern/automaton_cache.h"

#include <algorithm>

namespace anmat {

std::string AutomatonCache::KeyOf(const Pattern& p) {
  // Pattern::ToString() appends '&'-joined conjuncts, but a Dfa compiles
  // the element sequence only — key on exactly what is compiled.
  std::string key;
  for (const PatternElement& e : p.elements()) key += e.ToString();
  return key;
}

std::shared_ptr<const FrozenDfa> AutomatonCache::GetOrCompile(
    Table AutomatonCache::*table, std::string key,
    const std::vector<const Pattern*>& members) {
  {
    MutexLock lock(&mu_);
    Table& t = this->*table;
    auto it = t.dfas.find(key);
    if (it != t.dfas.end()) {
      ++t.hits;
      return it->second;
    }
  }
  // Compile outside the lock so first-touches of *distinct* keys do not
  // serialize; a same-key race compiles twice and the first publish wins
  // (the loser's automaton is discarded).
  std::shared_ptr<const FrozenDfa> frozen =
      Dfa(members).Freeze(max_frozen_states_);
  MutexLock lock(&mu_);
  Table& t = this->*table;
  auto [it, inserted] = t.dfas.emplace(std::move(key), std::move(frozen));
  ++t.misses;
  if (inserted && it->second == nullptr) ++t.fallbacks;
  return it->second;
}

std::shared_ptr<const FrozenDfa> AutomatonCache::Get(const Pattern& p) {
  return GetOrCompile(&AutomatonCache::singles_, KeyOf(p), {&p});
}

UnionAutomaton AutomatonCache::GetUnion(
    const std::vector<const Pattern*>& patterns) {
  // Signature-sorted, deduplicated member set: the key (and the automaton's
  // member ids) are insensitive to argument order, so detectors
  // and streams that assemble the same rule set differently share one
  // table. Signatures may contain any byte (literals), so the key joins
  // them length-prefixed rather than with a separator byte.
  std::vector<std::string> sigs(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) sigs[i] = KeyOf(*patterns[i]);
  std::vector<std::string> sorted = sigs;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string key;
  for (const std::string& s : sorted) {
    key += std::to_string(s.size());
    key += ':';
    key += s;
  }
  UnionAutomaton result;
  result.slot_of.resize(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    result.slot_of[i] = static_cast<uint32_t>(
        std::lower_bound(sorted.begin(), sorted.end(), sigs[i]) -
        sorted.begin());
  }
  // One representative Pattern per distinct signature, in signature order.
  std::vector<const Pattern*> members(sorted.size(), nullptr);
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (members[result.slot_of[i]] == nullptr) {
      members[result.slot_of[i]] = patterns[i];
    }
  }
  result.dfa = GetOrCompile(&AutomatonCache::unions_, std::move(key), members);
  return result;
}

DispatchStats AutomatonCache::dispatch_stats() const {
  MutexLock lock(&mu_);
  DispatchStats stats;
  stats.fallbacks = unions_.fallbacks;
  stats.hits = unions_.hits;
  stats.misses = unions_.misses;
  for (const auto& [key, dfa] : unions_.dfas) {
    if (!dfa) continue;
    ++stats.automata;
    stats.total_states += dfa->num_states();
    stats.total_patterns += dfa->num_members();
    stats.pool_bytes += dfa->pool_bytes();
    stats.probes += dfa->probes();
    stats.probe_hits += dfa->hits();
  }
  return stats;
}

size_t AutomatonCache::entries() const {
  MutexLock lock(&mu_);
  return singles_.dfas.size();
}

size_t AutomatonCache::hits() const {
  MutexLock lock(&mu_);
  return singles_.hits;
}

size_t AutomatonCache::misses() const {
  MutexLock lock(&mu_);
  return singles_.misses;
}

size_t AutomatonCache::fallbacks() const {
  MutexLock lock(&mu_);
  return singles_.fallbacks;
}

}  // namespace anmat
