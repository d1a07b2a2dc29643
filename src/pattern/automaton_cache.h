#ifndef ANMAT_PATTERN_AUTOMATON_CACHE_H_
#define ANMAT_PATTERN_AUTOMATON_CACHE_H_

/// \file automaton_cache.h
/// Engine-wide compile-once cache of frozen automata.
///
/// The pipeline probes millions of cell values against a small, heavily
/// repeated set of patterns: every tableau cell, every conjunct, every
/// index verification and every repair pass needs the same handful of
/// automata. `AutomatonCache` maps a pattern's canonical element-sequence
/// signature to its `FrozenDfa` (pattern/frozen_dfa.h), compiling and
/// freezing on first use and handing out `shared_ptr<const FrozenDfa>`
/// afterwards — each distinct pattern is compiled exactly once per cache
/// (i.e. once per `anmat::Engine` lifetime), and the frozen automata are
/// probed concurrently without locks.
///
/// Keying: a `Dfa` compiles exactly a pattern's *element sequence*
/// (conjuncts are separate automata, flattened by the matchers), so the
/// key is the elements-only canonical text — two patterns that differ only
/// in conjuncts share the main automaton, and each conjunct is its own
/// entry.
///
/// Besides single-pattern automata, the cache holds *union* automata —
/// the same `FrozenDfa` type compiled over several members: `GetUnion`
/// maps the sorted set of member element-sequence signatures to one
/// table, so every detector / stream that dispatches the same rule set
/// (regardless of rule order) shares a single compiled table. The
/// per-call member ordering is translated through the returned slot map.
/// Both lookups share one compile-and-publish path but keep separate
/// tables, keys and counters.
///
/// Unfreezable patterns (reachable states above the freeze cap) are
/// negatively cached: `Get` returns null and callers fall back to private
/// lazy `Dfa` copies, one per owner, exactly the pre-cache behavior.
/// `GetUnion` negatively caches the same way; callers fall back to the
/// per-pattern path for that rule set.
///
/// Thread safety: `Get` may be called concurrently (lookups take a mutex;
/// compilation runs outside it, and a same-pattern race publishes
/// first-wins). The stats counters are monotone and approximate only in
/// the sense that a racing miss may count twice.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pattern/dfa.h"
#include "pattern/pattern.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace anmat {

/// \brief A shared union automaton plus the caller-order translation:
/// member i of the `GetUnion` argument list is automaton member id
/// `slot_of[i]` (signature-sorted internally, so order-insensitive keys
/// share one table). `dfa == nullptr` means the union is unfreezable and
/// the caller must use the per-pattern path.
struct UnionAutomaton {
  std::shared_ptr<const FrozenDfa> dfa;
  std::vector<uint32_t> slot_of;
};

/// \brief Aggregated dispatch-table statistics (daemon `stats` verb).
struct DispatchStats {
  size_t automata = 0;       ///< frozen union automata held
  size_t fallbacks = 0;      ///< union keys negatively cached (unfreezable)
  size_t total_states = 0;   ///< sum of frozen states over all unions
  size_t total_patterns = 0; ///< sum of member patterns over all unions
  size_t pool_bytes = 0;     ///< sum of accept-set pool footprints
  uint64_t probes = 0;       ///< lifetime Classify calls over all unions
  uint64_t probe_hits = 0;   ///< Classify calls with a non-empty accept set
  size_t hits = 0;           ///< GetUnion lookups answered from the cache
  size_t misses = 0;         ///< GetUnion lookups that compiled
};

/// \brief Compile-once store of frozen automata, keyed by the pattern's
/// canonical element-sequence signature.
class AutomatonCache {
 public:
  explicit AutomatonCache(size_t max_frozen_states = kDefaultMaxFrozenStates)
      : max_frozen_states_(max_frozen_states) {}

  AutomatonCache(const AutomatonCache&) = delete;
  AutomatonCache& operator=(const AutomatonCache&) = delete;

  /// The frozen automaton for `p`'s element sequence, compiling + freezing
  /// it on first use. Returns null when the pattern is unfreezable (state
  /// cap); the verdict is cached either way.
  std::shared_ptr<const FrozenDfa> Get(const Pattern& p);

  /// The shared union automaton over `patterns`' element sequences,
  /// compiling + freezing it on first sight of this signature *set* (the
  /// key is order-insensitive and deduplicates signatures). The returned
  /// slot map translates argument positions to automaton pattern ids.
  /// `dfa` is null when the union is unfreezable (negatively cached).
  UnionAutomaton GetUnion(const std::vector<const Pattern*>& patterns);

  /// The canonical cache key of `p`: its elements-only textual form
  /// (conjuncts excluded — they are separate automata).
  static std::string KeyOf(const Pattern& p);

  /// Distinct patterns seen (frozen or negatively cached).
  size_t entries() const;
  /// Lookups answered from the cache. Every hit is one avoided NFA compile
  /// + subset construction.
  size_t hits() const;
  /// Lookups that compiled (first sight of a pattern).
  size_t misses() const;
  /// Misses whose pattern exceeded the freeze cap (lazy fallback).
  size_t fallbacks() const;

  /// Aggregated union-automaton statistics: tables held, states, pool
  /// footprint, lifetime probe counters summed over every frozen union.
  DispatchStats dispatch_stats() const;

 private:
  /// One keyed store of frozen automata; a null value is the negative
  /// cache for unfreezable keys.
  struct Table {
    std::unordered_map<std::string, std::shared_ptr<const FrozenDfa>> dfas;
    size_t hits = 0;
    size_t misses = 0;
    size_t fallbacks = 0;
  };

  /// The shared lookup: returns `table`'s entry for `key`, compiling and
  /// freezing the union of `members` outside the lock on a miss (a
  /// same-key race compiles twice and the first publish wins).
  std::shared_ptr<const FrozenDfa> GetOrCompile(
      Table AutomatonCache::*table, std::string key,
      const std::vector<const Pattern*>& members);

  const size_t max_frozen_states_;
  mutable Mutex mu_;
  /// Element-sequence signature -> single-pattern automaton.
  Table singles_ ANMAT_GUARDED_BY(mu_);
  /// Sorted-signature-set key -> union automaton.
  Table unions_ ANMAT_GUARDED_BY(mu_);
};

}  // namespace anmat

#endif  // ANMAT_PATTERN_AUTOMATON_CACHE_H_
