#ifndef ANMAT_PATTERN_CONTAINMENT_H_
#define ANMAT_PATTERN_CONTAINMENT_H_

/// \file containment.h
/// Pattern containment `P ⊆ P'` and constrained-pattern restriction
/// `Q ⊆ Q'` (§2 of the paper).
///
/// General regular-expression containment is PSPACE-complete; the paper's
/// restricted language makes it cheap. Each side compiles to one automaton
/// table (frozen_dfa.h) whose members are the pattern's element sequence
/// and its flattened conjuncts; the side accepts where every member does,
/// so conjunction on either side needs no special case. `L(p) ⊆ L(q)` is
/// then one depth-first walk over the reachable product of the two tables:
///
///   * the alphabet is the distinct (p class, q class) pairs of the two
///     tables' byte-class maps — two bytes with the same pair drive both
///     automata identically, so the walk is exact over all 256 bytes;
///   * visited state pairs are marked in a dense bitmap (hashed instead
///     when a side is lazy, whose state count is not known up front);
///   * the walk reports non-containment on reaching a pair where p accepts
///     and q rejects, and prunes wherever p is dead.
///
/// Tables compile through an `AutomatonCache`: the caller passes one that
/// lives for a batch of queries (the constant miner and `MinimizeRuleSet`
/// own one per call), so each distinct pattern compiles once per batch;
/// without one, the query compiles into a temporary cache. A pattern past
/// the cache's freeze cap walks a private lazy `Dfa` through the same
/// templated product. The test oracle is an NFA product search over a
/// finite alphabet abstraction (tests/containment_reference.h).

#include "pattern/constrained_pattern.h"
#include "pattern/pattern.h"

namespace anmat {

class AutomatonCache;

/// \brief Language containment: every string matching `p` matches `q`.
/// Compiles both sides through `automata` (a temporary cache when null).
bool PatternContains(const Pattern& q, const Pattern& p,
                     AutomatonCache* automata = nullptr);

/// \brief Language equivalence: mutual containment.
bool PatternEquivalent(const Pattern& a, const Pattern& b);

/// \brief Restriction on constrained patterns: `sub ⊆ sup` iff for all
/// strings s, s', `s ≡_sub s'` implies `s ≡_sup s'`.
///
/// Deciding this exactly for arbitrary segmentations is subtle; we implement
/// the sound, practically-complete rule the paper's examples rely on
/// (Example 2: Q2 ⊆ Q1):
///   * the embedded pattern of `sub` must be contained in that of `sup`, and
///   * `sup`'s constrained region must be a prefix/suffix-aligned subset of
///     `sub`'s: every constrained segment of `sup` is covered by constrained
///     segments of `sub` under the alignment of the two segment lists
///     (checked structurally segment-by-segment).
/// Returns false when the structural alignment cannot be established, which
/// never wrongly *confirms* a restriction. Containment queries compile
/// through `automata` (a temporary cache when null).
bool ConstrainedRestricts(const ConstrainedPattern& sub,
                          const ConstrainedPattern& sup,
                          AutomatonCache* automata = nullptr);

}  // namespace anmat

#endif  // ANMAT_PATTERN_CONTAINMENT_H_
