#ifndef ANMAT_PATTERN_FROZEN_DFA_H_
#define ANMAT_PATTERN_FROZEN_DFA_H_

/// \file frozen_dfa.h
/// The automaton table format, and the immutable automata frozen into it.
///
/// A `Dfa` (dfa.h) compiles one or more pattern element sequences — its
/// *members* — into a `DfaTable`: a byte -> symbol-class table, a dense
/// state-major transition table, and a deduplicated *accept-set pool*
/// (each distinct set of accepting member ids stored once, every state
/// referencing its pool entry; entry 0 is the empty set). The lazy `Dfa`
/// fills the table on demand behind a const interface, so it is cheap to
/// build but NOT safe for concurrent probes. `Dfa::Freeze()` pays the
/// subset construction once, eagerly — every reachable state, bounded by
/// a state cap — and hands the completed table to a `FrozenDfa`, which
/// has no mutable state besides two relaxed probe counters. A `FrozenDfa`
/// can be probed lock-free from any number of threads and shared
/// engine-wide via `shared_ptr` (see pattern/automaton_cache.h).
///
/// One table walk serves every query, lazy or frozen:
///
///   * `Matches` / `ScanPrefixes`: does *some* member accept the string
///     (or each of its prefixes)? For a one-member automaton this is
///     exactly that pattern's match decision;
///   * `Classify`: the ids (ascending) of every member accepting the
///     string — one forward scan classifies a value against a whole rule
///     set (the dispatch layer's union automata).
///
/// Both reject values lacking the *required-literal prefilter* — a
/// substring mandatory in every string any member accepts
/// (`RequiredLiteralSubstring`, folded over the members) — with one
/// memchr-anchored scan, never touching the transition table.
///
/// Decisions are identical to the `Nfa` reference (differential-tested in
/// tests/dfa_test.cc and tests/dispatch_test.cc). State 0 is the dead
/// state; walks exit the moment it is entered. Automata whose reachable
/// state count exceeds the cap are reported unfreezable (`Freeze` returns
/// null) and callers fall back to private lazy `Dfa`s or the per-pattern
/// path.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/simd.h"

namespace anmat {

class Dfa;

/// \brief The table a `Dfa` fills lazily and a `FrozenDfa` serves frozen.
struct DfaTable {
  static constexpr uint32_t kDead = 0;  ///< state of the empty NFA set

  /// byte value -> symbol-equivalence class id.
  uint8_t byte_class[256] = {};
  uint32_t num_classes = 1;
  uint32_t num_members = 0;
  uint32_t start = kDead;
  /// Mandatory-literal prefilter needle (empty = no prefilter).
  std::string prefilter;
  /// State-major transitions: transitions[state * num_classes + cls].
  std::vector<uint32_t> transitions;
  /// State -> pool entry holding its accept set (0 = the empty set).
  std::vector<uint32_t> accept_ref;
  /// Entry e covers pool_ids[pool_offsets[e], pool_offsets[e + 1]).
  std::vector<uint32_t> pool_offsets = {0, 0};
  /// Concatenated ascending member-id runs, one per distinct accept set.
  std::vector<uint32_t> pool_ids;

  uint32_t num_states() const {
    return static_cast<uint32_t>(accept_ref.size());
  }

  /// True when every member accepts in `state` — the intersection of the
  /// members' languages (containment compiles a pattern's conjuncts as
  /// members this way). The dead state accepts nothing.
  bool AcceptsAll(uint32_t state) const {
    const uint32_t ref = accept_ref[state];
    return pool_offsets[ref + 1] - pool_offsets[ref] == num_members;
  }

  /// True when `s` provably matches no member (its needle is absent).
  bool Rejects(std::string_view s) const {
    return !prefilter.empty() && !simd::ContainsLiteral(s, prefilter);
  }

  /// The walk behind `Matches`: the state reached on `s`, or `kDead` as
  /// soon as it is entered. `next(state, cls)` is the transition function
  /// (a plain lookup when frozen, materializing when lazy).
  template <typename Next>
  uint32_t Run(std::string_view s, Next next) const {
    uint32_t state = start;
    for (const char c : s) {
      state = next(state, byte_class[static_cast<unsigned char>(c)]);
      if (state == kDead) break;
    }
    return state;
  }

  template <typename Next>
  bool Matches(std::string_view s, Next next) const {
    return !Rejects(s) && accept_ref[Run(s, next)] != 0;
  }

  /// Clears `*out` and fills it with every L such that some member accepts
  /// s[0, L), ascending. No accepted prefix can lack the mandatory literal
  /// either, so a filtered-out value skips the walk.
  template <typename Next>
  size_t ScanPrefixes(std::string_view s, std::vector<uint32_t>* out,
                      Next next) const {
    out->clear();
    if (Rejects(s)) return 0;
    uint32_t state = start;
    if (accept_ref[state] != 0) out->push_back(0);
    for (size_t i = 0; i < s.size(); ++i) {
      state = next(state, byte_class[static_cast<unsigned char>(s[i])]);
      if (state == kDead) break;
      if (accept_ref[state] != 0) {
        out->push_back(static_cast<uint32_t>(i + 1));
      }
    }
    return out->size();
  }

  /// Clears `*out` and fills it with the ids (ascending) of every member
  /// accepting `s`. Returns whether any did.
  template <typename Next>
  bool Classify(std::string_view s, std::vector<uint32_t>* out,
                Next next) const {
    out->clear();
    if (Rejects(s)) return false;
    const uint32_t ref = accept_ref[Run(s, next)];
    if (ref == 0) return false;
    out->assign(pool_ids.begin() + pool_offsets[ref],
                pool_ids.begin() + pool_offsets[ref + 1]);
    return true;
  }
};

/// \brief Fully-materialized immutable automaton: safe for lock-free
/// concurrent probes. Built exclusively by `Dfa::Freeze`.
class FrozenDfa {
 public:
  /// Full-string match (some member accepts): prefilter, then one table
  /// lookup per byte with early exit on the dead state. Counter-free.
  bool Matches(std::string_view s) const {
    return table_.Matches(s, Next{table_});
  }

  /// Allocation-free prefix scan: clears `*out` and fills it with every L
  /// such that s[0, L) is accepted, ascending. Same contract as
  /// `Dfa::ScanPrefixes`.
  size_t ScanPrefixes(std::string_view s, std::vector<uint32_t>* out) const {
    return table_.ScanPrefixes(s, out, Next{table_});
  }

  /// Convenience wrapper over `ScanPrefixes`.
  std::vector<uint32_t> MatchingPrefixLengths(std::string_view s) const {
    std::vector<uint32_t> lengths;
    ScanPrefixes(s, &lengths);
    return lengths;
  }

  /// Clears `*out` and fills it with the ids (ascending) of every member
  /// accepting `s`. Bumps the relaxed probe/hit counters the daemon's
  /// dispatch stats aggregate.
  void Classify(std::string_view s, std::vector<uint32_t>* out) const {
    probes_.fetch_add(1, std::memory_order_relaxed);
    if (table_.Classify(s, out, Next{table_})) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// The table and its transition function, for walks other than the
  /// probes above (containment's product of two tables).
  const DfaTable& table() const { return table_; }
  uint32_t Transition(uint32_t state, uint32_t cls) const {
    return Next{table_}(state, cls);
  }

  /// Introspection (benchmarks / tests / dispatch stats).
  size_t num_states() const { return table_.num_states(); }
  size_t num_members() const { return table_.num_members; }
  size_t num_symbol_classes() const { return table_.num_classes; }
  const std::string& prefilter_literal() const { return table_.prefilter; }
  /// Footprint of the accept-set pool (ids + offsets + state refs).
  size_t pool_bytes() const {
    return (table_.pool_ids.size() + table_.pool_offsets.size() +
            table_.accept_ref.size()) *
           sizeof(uint32_t);
  }
  /// Lifetime `Classify` calls / calls that returned a non-empty set.
  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  friend class Dfa;  // the only producer (Dfa::Freeze)
  explicit FrozenDfa(DfaTable table) : table_(std::move(table)) {}

  /// The frozen transition function: every entry is a valid state id.
  struct Next {
    const DfaTable& table;
    uint32_t operator()(uint32_t state, uint32_t cls) const {
      return table.transitions[state * table.num_classes + cls];
    }
  };

  const DfaTable table_;
  mutable std::atomic<uint64_t> probes_{0};
  mutable std::atomic<uint64_t> hits_{0};
};

}  // namespace anmat

#endif  // ANMAT_PATTERN_FROZEN_DFA_H_
