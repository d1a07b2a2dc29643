#include "dispatch/dispatch_plan.h"

#include <algorithm>

#include "dispatch/pattern_trie.h"

namespace anmat {

uint32_t ColumnDispatcher::AddPattern(const Pattern& p) {
  const std::string sig = AutomatonCache::KeyOf(p);
  auto [it, inserted] = slot_of_signature_.emplace(
      sig, static_cast<uint32_t>(slots_.size()));
  if (inserted) slots_.push_back(p);
  return it->second;
}

namespace {

/// A leading unbounded class repeat (`\A+...`, `\S*...`) leaves the union
/// automaton no discriminating prefix: every member stays live through the
/// whole scan, subset construction multiplies member positions (observed
/// blowing the freeze cap at a handful of members), and even a frozen
/// union would scan no faster than the members run separately. Such
/// patterns keep the per-pattern path.
bool UnionFriendly(const Pattern& p) {
  if (p.elements().empty()) return true;
  const PatternElement& first = p.elements().front();
  return first.cls == SymbolClass::kLiteral || first.max != kUnbounded;
}

/// Failed union compiles explore the lazy DFA up to the freeze state cap
/// before giving up — a real cost per fresh cache (negative caching makes
/// repeats cheap, but each engine pays once). After this many failures in
/// one Compile the remaining groups stay uncovered instead of splitting
/// further.
constexpr size_t kMaxUnionCompileFailures = 3;

}  // namespace

bool ColumnDispatcher::Compile(AutomatonCache* cache,
                               size_t max_group_size) {
  covered_.assign(slots_.size(), 0);
  num_covered_ = 0;
  PatternTrie trie;
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    if (UnionFriendly(slots_[s])) trie.Insert(s, slots_[s]);
  }
  // Start from large trie groups — one walk then classifies against as
  // many rules as possible — and split any group whose union blows the
  // freeze state cap in half (trie order keeps prefix families together),
  // retrying until the group freezes or the failure budget is spent.
  // Failed sets are negatively cached by GetUnion, so later engines
  // re-split without recompiling.
  std::vector<std::vector<uint32_t>> pending = trie.Groups(max_group_size);
  size_t failures = 0;
  while (!pending.empty()) {
    Group group;
    group.slots = std::move(pending.back());
    pending.pop_back();
    std::vector<const Pattern*> members(group.slots.size());
    for (size_t i = 0; i < group.slots.size(); ++i) {
      members[i] = &slots_[group.slots[i]];
    }
    UnionAutomaton u = cache->GetUnion(members);
    if (u.dfa == nullptr) {
      if (++failures >= kMaxUnionCompileFailures) break;
      if (group.slots.size() == 1) continue;  // unfreezable alone: uncovered
      const size_t half = group.slots.size() / 2;
      pending.emplace_back(group.slots.begin(),
                           group.slots.begin() + half);
      pending.emplace_back(group.slots.begin() + half, group.slots.end());
      continue;
    }
    // Slots dedup by the same signature GetUnion keys on, so within one
    // group the member -> automaton-id mapping is a bijection.
    group.to_slot.resize(group.slots.size());
    for (size_t i = 0; i < group.slots.size(); ++i) {
      group.to_slot[u.slot_of[i]] = group.slots[i];
    }
    for (uint32_t slot : group.slots) {
      covered_[slot] = 1;
      ++num_covered_;
    }
    group.dfa = std::move(u.dfa);
    groups_.push_back(std::move(group));
  }
  if (groups_.empty()) return false;  // nothing unioned: stay per-pattern
  verdicts_.resize(slots_.size());
  match_ids_.resize(slots_.size());
  compiled_ = true;
  return true;
}

void ColumnDispatcher::ClassifyValues(const ColumnDictionary& dict,
                                      uint32_t first_id,
                                      const DispatchPrefilter& prefilter) {
  const uint32_t num_values = static_cast<uint32_t>(dict.num_values());
  // Ids from `first_id` on are (re-)classified from scratch: a stream
  // extends its verdicts batch by batch, a one-shot plan reclassifies
  // from 0 on every run.
  for (size_t s = 0; s < verdicts_.size(); ++s) {
    verdicts_[s].resize(first_id);
    verdicts_[s].resize(num_values, 0);
    std::vector<uint32_t>& ids = match_ids_[s];
    ids.erase(std::lower_bound(ids.begin(), ids.end(), first_id), ids.end());
  }
  std::vector<uint32_t> hits;
  std::vector<uint32_t> ids;
  std::vector<const Pattern*> members;
  for (const Group& group : groups_) {
    const std::vector<uint32_t>* scan_ids = nullptr;
    if (prefilter) {
      // Union of the members' candidate supersets, computed in one index
      // pass: ids outside provably match no member, so skipping them
      // leaves exact 0 verdicts.
      members.clear();
      for (uint32_t slot : group.slots) members.push_back(&slots_[slot]);
      ids = prefilter(members, first_id);
      scan_ids = &ids;
    }
    const size_t count =
        scan_ids != nullptr ? scan_ids->size() : num_values - first_id;
    for (size_t k = 0; k < count; ++k) {
      const uint32_t id =
          scan_ids != nullptr ? (*scan_ids)[k] : first_id + k;
      group.dfa->Classify(dict.value(id), &hits);
      for (uint32_t automaton_id : hits) {
        const uint32_t slot = group.to_slot[automaton_id];
        verdicts_[slot][id] = 1;
        // Each slot lives in exactly one group and ids never re-classify
        // (the `first_id` watermark), so the list stays ascending and
        // duplicate-free.
        match_ids_[slot].push_back(id);
      }
    }
  }
}

}  // namespace anmat
