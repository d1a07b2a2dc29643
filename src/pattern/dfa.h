#ifndef ANMAT_PATTERN_DFA_H_
#define ANMAT_PATTERN_DFA_H_

/// \file dfa.h
/// Lazy deterministic automaton over one or more patterns' `Nfa`s.
///
/// The NFA simulation in nfa.cc allocates, sorts and epsilon-closes a state
/// set for every input character — fine as a semantic reference, far too
/// slow for the detect/discover hot paths that probe millions of cell
/// values. `Dfa` removes all per-character work:
///
///   1. *Members*: a `Dfa` compiles a list of element sequences (one for
///      a single pattern, a whole rule set for the dispatch layer's union
///      automata). Their Thompson NFAs are laid side by side in one merged
///      state space (member m's NFA state s is merged state base[m] + s),
///      one accept state per member; `Nfa::Step`/`EpsilonClosure` drive
///      each member's slice of a merged state set.
///   2. *Alphabet compression*: the pattern language only distinguishes
///      bytes by their generalization-tree class (\LU/\LL/\D/\S) and by the
///      literal characters the members mention, so the 256-byte alphabet
///      collapses into a handful of symbol-equivalence classes, computed
///      once at construction.
///   3. *Lazy subset construction*: DFA states are epsilon-closed merged
///      NFA sets, discovered on demand and memoized; the dense transition
///      table (`state × symbol-class → state`) is filled in the first time
///      each edge is taken. Matching a string is then one table lookup per
///      byte. Each state records the ids of the members whose accept state
///      its set contains, interned in the table's accept-set pool.
///
/// Only states reachable from the inputs actually seen are ever built, so
/// construction stays cheap even for automata whose full DFA would be
/// large. The tables grow lazily behind a const interface (`mutable`); a
/// `Dfa` is therefore NOT safe for concurrent use from multiple threads.
/// For shared concurrent probing, `Freeze()` runs the subset construction
/// eagerly and emits an immutable `FrozenDfa` (pattern/frozen_dfa.h).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pattern/frozen_dfa.h"
#include "pattern/nfa.h"
#include "pattern/pattern.h"

namespace anmat {

/// Default cap on eagerly materialized states in `Dfa::Freeze` — far above
/// anything a single pattern of the paper's language produces (tens of
/// states), so for single patterns it only guards against pathological
/// inputs; union automata over large rule sets can reach it.
inline constexpr size_t kDefaultMaxFrozenStates = 4096;

/// \brief Lazily-determinized automaton over the element sequences of one
/// or more member patterns (conjuncts are compiled separately, exactly
/// like `Nfa`). Member ids are positions in the constructor's list.
class Dfa {
 public:
  /// Compiles the union of `members`' element sequences (at least one; not
  /// owned, only read during construction).
  explicit Dfa(const std::vector<const Pattern*>& members);

  /// The one-member automaton for `p`'s element sequence.
  static Dfa Compile(const Pattern& p) { return Dfa({&p}); }

  /// Full-string match (some member accepts): one table lookup per byte.
  bool Matches(std::string_view s) const;

  /// All prefix lengths L such that some member accepts s[0, L), ascending
  /// — for one member the same contract as `Nfa::MatchingPrefixLengths`.
  std::vector<uint32_t> MatchingPrefixLengths(std::string_view s) const;

  /// Allocation-free variant: clears `*out` and fills it with the matching
  /// prefix lengths. Returns the number of lengths found. Callers in tight
  /// loops reuse the scratch vector.
  size_t ScanPrefixes(std::string_view s, std::vector<uint32_t>* out) const;

  /// Clears `*out` and fills it with the ids (ascending) of every member
  /// whose element sequence accepts `s`.
  void Classify(std::string_view s, std::vector<uint32_t>* out) const;

  /// Eagerly materializes every reachable DFA state (bounded subset
  /// construction) and emits an immutable `FrozenDfa` safe for lock-free
  /// concurrent probes, with decisions, prefix sets and accept sets
  /// identical to this automaton's. Returns null iff more than
  /// `max_states` states (dead state included) are reachable — callers
  /// keep using (per-thread) lazy automata or the per-pattern path then.
  std::shared_ptr<const FrozenDfa> Freeze(
      size_t max_states = kDefaultMaxFrozenStates) const;

  /// The lazily-filled table and the transition function that fills it,
  /// for walks other than the probes above (containment's product of two
  /// tables). `Transition` materializes the target state on first use, so
  /// the table's state count grows during such a walk.
  const DfaTable& table() const { return table_; }
  uint32_t Transition(uint32_t from, uint32_t cls) const;

  /// Introspection (benchmarks / tests).
  size_t num_members() const { return table_.num_members; }
  size_t num_symbol_classes() const { return table_.num_classes; }
  size_t num_materialized_states() const { return table_.num_states(); }

  /// The mandatory-literal prefilter needle: the longest substring
  /// guaranteed to occur in every string accepted by *any* member — the
  /// members' `RequiredLiteralSubstring`s folded under longest-common-
  /// substring. Empty whenever some member guarantees nothing. Probes
  /// reject inputs lacking it without touching the automaton; `Freeze`
  /// carries it into the frozen table.
  const std::string& prefilter_literal() const { return table_.prefilter; }

 private:
  static constexpr uint32_t kDead = DfaTable::kDead;
  static constexpr uint32_t kUnset = 0xFFFFFFFFu;  ///< lazy-edge sentinel

  void BuildAlphabet();
  /// One step of the merged NFA from closed set `from` on byte `c`: each
  /// member's slice goes through that member's `Nfa::Step`.
  void Step(const std::vector<uint32_t>& from, char c,
            std::vector<uint32_t>* to) const;
  /// Interns an epsilon-closed merged-NFA set, returning its DFA state id
  /// (const: touches only the mutable lazy tables).
  uint32_t AddDfaState(std::vector<uint32_t> nfa_set) const;
  /// Doubles `set_index_`, re-probing every entry from its stored hash.
  void GrowSetIndex() const;
  /// The lazy transition function handed to the shared table walk (the
  /// walks are defined in dfa.cc, where `Transition` inlines into them).
  struct Next {
    const Dfa& dfa;
    uint32_t operator()(uint32_t state, uint32_t cls) const {
      return dfa.Transition(state, cls);
    }
  };

  /// Member NFAs; member m's states occupy merged ids [base_[m],
  /// base_[m + 1]).
  std::vector<Nfa> nfas_;
  std::vector<uint32_t> base_;
  /// Merged NFA state -> the member whose accept state it is (-1 if none).
  std::vector<int32_t> accept_member_;
  /// One representative byte per symbol class (drives the NFA step when a
  /// new edge is materialized).
  std::vector<char> class_rep_;

  /// The lazily-filled table (kUnset marks edges not yet taken).
  mutable DfaTable table_;
  /// The epsilon-closed merged-NFA set of each materialized DFA state.
  mutable std::vector<std::vector<uint32_t>> nfa_sets_;
  /// Open-addressing index over `nfa_sets_` (linear probing, at most half
  /// full): each slot holds an NFA set's hash and its DFA state id + 1 (0
  /// marks an empty slot). Freezing and containment walks materialize
  /// thousands of states, so a lookup per new edge must not scan them all.
  mutable std::vector<std::pair<uint64_t, uint32_t>> set_index_;
  /// Accept set -> its entry in `table_`'s pool.
  mutable std::map<std::vector<uint32_t>, uint32_t> pool_entry_of_;
};

/// \brief Recursively flattens `p`'s conjunct tree into `*out` (the pattern
/// itself is NOT included). A string matches `p` with conjuncts iff it
/// matches `p`'s element sequence and every pattern collected here.
void FlattenConjuncts(const Pattern& p, std::vector<const Pattern*>* out);

/// \brief DFA-backed equivalent of `NfaMatchesWithConjuncts`.
bool DfaMatchesWithConjuncts(const Pattern& p, std::string_view s);

}  // namespace anmat

#endif  // ANMAT_PATTERN_DFA_H_
