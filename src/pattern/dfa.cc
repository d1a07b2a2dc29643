#include "pattern/dfa.h"

#include <algorithm>

namespace anmat {

namespace {

/// FNV-1a over the elements of a sorted NFA state set.
uint64_t HashSet(const std::vector<uint32_t>& set) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t s : set) {
    h ^= s;
    h *= 1099511628211ull;
  }
  return h;
}

/// Longest common substring of two needles (classic O(|a|·|b|) rolling-row
/// DP — needles are capped at 64 bytes by RequiredLiteralSubstring, so this
/// is construction-time noise).
std::string LongestCommonSubstring(const std::string& a,
                                   const std::string& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> prev(b.size() + 1, 0), row(b.size() + 1, 0);
  size_t best_len = 0, best_end = 0;  // end position in `a`
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      row[j] = a[i - 1] == b[j - 1] ? prev[j - 1] + 1 : 0;
      if (row[j] > best_len) {
        best_len = row[j];
        best_end = i;
      }
    }
    std::swap(prev, row);
  }
  return a.substr(best_end - best_len, best_len);
}

}  // namespace

Dfa::Dfa(const std::vector<const Pattern*>& members) {
  // Lay the member NFAs side by side in one merged state space.
  base_.push_back(0);
  std::vector<uint32_t> start_set;
  for (size_t m = 0; m < members.size(); ++m) {
    nfas_.push_back(Nfa::Compile(*members[m]));
    const Nfa& nfa = nfas_.back();
    std::vector<uint32_t> closed{nfa.start()};
    nfa.EpsilonClosure(&closed);
    for (uint32_t s : closed) start_set.push_back(base_.back() + s);
    accept_member_.resize(base_.back() + nfa.num_states(), -1);
    accept_member_[base_.back() + nfa.accept()] = static_cast<int32_t>(m);
    base_.push_back(base_.back() + static_cast<uint32_t>(nfa.num_states()));
  }
  table_.num_members = static_cast<uint32_t>(members.size());
  // Prefilter: a substring guaranteed by *every* member is guaranteed for
  // any accepted string regardless of which member accepts it, so fold the
  // members' required literals under longest-common-substring. One member
  // with no guaranteed literal sinks the whole filter.
  for (size_t m = 0; m < members.size(); ++m) {
    std::string lit = RequiredLiteralSubstring(members[m]->elements());
    table_.prefilter = m == 0 ? std::move(lit)
                              : LongestCommonSubstring(table_.prefilter, lit);
    if (table_.prefilter.empty()) break;
  }
  BuildAlphabet();
  // State 0 is the dead state (empty NFA set, empty accept set): all edges
  // loop on itself and never need lazy materialization.
  pool_entry_of_[{}] = 0;
  nfa_sets_.emplace_back();
  set_index_.resize(16);  // a power of two; the dead state is not indexed
  table_.accept_ref.push_back(0);
  table_.transitions.assign(table_.num_classes, kDead);
  table_.start = AddDfaState(std::move(start_set));
}

void Dfa::BuildAlphabet() {
  // Two bytes are interchangeable iff every transition predicate of every
  // member NFA treats them identically. Predicates are either a tree class
  // (decided by ClassOfChar) or a literal comparison (decided by identity
  // with a byte some member mentions), so the fingerprint of byte b is its
  // tree class plus, when a member uses b as a literal, b itself.
  bool is_literal[256] = {};
  for (const Nfa& nfa : nfas_) {
    for (const Nfa::State& state : nfa.states()) {
      for (const Nfa::Transition& t : state.transitions) {
        if (t.cls == SymbolClass::kLiteral) {
          is_literal[static_cast<unsigned char>(t.literal)] = true;
        }
      }
    }
  }
  int fingerprint_class[512];
  std::fill(std::begin(fingerprint_class), std::end(fingerprint_class), -1);
  uint32_t num_classes = 0;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const int fp =
        is_literal[b] ? 256 + b : static_cast<int>(ClassOfChar(c));
    if (fingerprint_class[fp] < 0) {
      fingerprint_class[fp] = static_cast<int>(num_classes++);
      class_rep_.push_back(c);
    }
    table_.byte_class[b] = static_cast<uint8_t>(fingerprint_class[fp]);
  }
  table_.num_classes = num_classes;
}

void Dfa::Step(const std::vector<uint32_t>& from, char c,
               std::vector<uint32_t>* to) const {
  // `from` is sorted, so each member's slice is contiguous; stepping the
  // slices in member order keeps `to` sorted too.
  to->clear();
  std::vector<uint32_t> slice, next;
  for (size_t i = 0; i < from.size();) {
    const size_t m =
        std::upper_bound(base_.begin(), base_.end(), from[i]) - base_.begin() -
        1;
    slice.clear();
    for (; i < from.size() && from[i] < base_[m + 1]; ++i) {
      slice.push_back(from[i] - base_[m]);
    }
    nfas_[m].Step(slice, c, &next);
    for (uint32_t s : next) to->push_back(base_[m] + s);
  }
}

uint32_t Dfa::AddDfaState(std::vector<uint32_t> nfa_set) const {
  const uint64_t h = HashSet(nfa_set);
  const size_t mask = set_index_.size() - 1;
  size_t slot = h & mask;
  for (; set_index_[slot].second != 0; slot = (slot + 1) & mask) {
    const uint32_t candidate = set_index_[slot].second - 1;
    if (set_index_[slot].first == h && nfa_sets_[candidate] == nfa_set) {
      return candidate;
    }
  }
  const uint32_t id = static_cast<uint32_t>(nfa_sets_.size());
  // Intern the accept set. States are added in id order, so pool entries
  // are numbered by first appearance.
  std::vector<uint32_t> accepts;
  for (uint32_t s : nfa_set) {
    if (accept_member_[s] >= 0) {
      accepts.push_back(static_cast<uint32_t>(accept_member_[s]));
    }
  }
  const auto [entry, inserted] = pool_entry_of_.emplace(
      accepts, static_cast<uint32_t>(table_.pool_offsets.size() - 1));
  if (inserted) {
    table_.pool_ids.insert(table_.pool_ids.end(), accepts.begin(),
                           accepts.end());
    table_.pool_offsets.push_back(
        static_cast<uint32_t>(table_.pool_ids.size()));
  }
  table_.accept_ref.push_back(entry->second);
  nfa_sets_.push_back(std::move(nfa_set));
  set_index_[slot] = {h, id + 1};
  if (2 * nfa_sets_.size() > set_index_.size()) GrowSetIndex();
  table_.transitions.resize(table_.transitions.size() + table_.num_classes,
                            kUnset);
  return id;
}

void Dfa::GrowSetIndex() const {
  std::vector<std::pair<uint64_t, uint32_t>> old(2 * set_index_.size());
  old.swap(set_index_);
  const size_t mask = set_index_.size() - 1;
  for (const auto& entry : old) {
    if (entry.second == 0) continue;
    size_t slot = entry.first & mask;
    while (set_index_[slot].second != 0) slot = (slot + 1) & mask;
    set_index_[slot] = entry;
  }
}

uint32_t Dfa::Transition(uint32_t from, uint32_t cls) const {
  const size_t idx = static_cast<size_t>(from) * table_.num_classes + cls;
  const uint32_t cached = table_.transitions[idx];
  if (cached != kUnset) return cached;
  std::vector<uint32_t> to;
  // Any byte of the class drives the NFAs identically; use the
  // representative. Step() sorts, dedupes and epsilon-closes.
  Step(nfa_sets_[from], class_rep_[cls], &to);
  const uint32_t id = to.empty() ? kDead : AddDfaState(std::move(to));
  table_.transitions[idx] = id;  // AddDfaState may grow the table; idx
                                 // addresses an existing slot, so re-index.
  return id;
}

std::shared_ptr<const FrozenDfa> Dfa::Freeze(size_t max_states) const {
  // Eager bounded subset construction: visit every materialized state in id
  // order, forcing each outgoing edge. Newly-discovered states append and
  // are visited in turn, so the loop terminates exactly when the reachable
  // automaton is complete (or the cap trips). The dead state's edges are
  // pre-filled at construction and cost nothing.
  if (num_materialized_states() > max_states) return nullptr;
  for (uint32_t s = 0; s < num_materialized_states(); ++s) {
    for (uint32_t cls = 0; cls < table_.num_classes; ++cls) {
      Transition(s, cls);
      if (num_materialized_states() > max_states) return nullptr;
    }
  }
  // Fully materialized: no kUnset left in the copied table.
  return std::shared_ptr<const FrozenDfa>(new FrozenDfa(table_));  // lint: new-ok (private ctor, owned by the shared_ptr)
}

bool Dfa::Matches(std::string_view s) const {
  return table_.Matches(s, Next{*this});
}

size_t Dfa::ScanPrefixes(std::string_view s,
                         std::vector<uint32_t>* out) const {
  return table_.ScanPrefixes(s, out, Next{*this});
}

void Dfa::Classify(std::string_view s, std::vector<uint32_t>* out) const {
  table_.Classify(s, out, Next{*this});
}

std::vector<uint32_t> Dfa::MatchingPrefixLengths(std::string_view s) const {
  std::vector<uint32_t> lengths;
  ScanPrefixes(s, &lengths);
  return lengths;
}

void FlattenConjuncts(const Pattern& p, std::vector<const Pattern*>* out) {
  for (const Pattern& c : p.conjuncts()) {
    out->push_back(&c);
    FlattenConjuncts(c, out);
  }
}

bool DfaMatchesWithConjuncts(const Pattern& p, std::string_view s) {
  if (!Dfa::Compile(p).Matches(s)) return false;
  std::vector<const Pattern*> conjuncts;
  FlattenConjuncts(p, &conjuncts);
  for (const Pattern* c : conjuncts) {
    if (!Dfa::Compile(*c).Matches(s)) return false;
  }
  return true;
}

}  // namespace anmat
