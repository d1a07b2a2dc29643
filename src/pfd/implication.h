#ifndef ANMAT_PFD_IMPLICATION_H_
#define ANMAT_PFD_IMPLICATION_H_

/// \file implication.h
/// Implication reasoning over PFD rule sets.
///
/// Built on §2's ordering relations: pattern containment `P ⊆ P'` and
/// constrained-pattern restriction `Q ⊆ Q'`. A tableau row is *implied* by
/// another row (over the same embedded FD) when every tuple combination the
/// implied row constrains is already constrained at least as strongly:
///
///   * constant row `(L → c)` implied by `(L' → c)` when `L ⊆ L'`
///     (embedded-pattern containment) — the broader rule checks a superset
///     of tuples against the same constant;
///   * variable row `(Q → ⊥)` implied by `(Q' → ⊥)` when `Q' ⊆ Q`... no:
///     when `Q ⊆ Q'`? Careful: a variable row fires on pairs with
///     `s ≡_Q s'`; row with Q is implied by row with Q'' when every pair
///     related by Q is also related by Q'' — i.e. `Q ⊆ Q''` (restriction).
///   * constant row `(L → c)` is NOT implied by a variable row (the
///     variable row never names the constant), and vice versa.
///
/// `MinimizeRuleSet` removes rows (and then empty PFDs) that are implied by
/// other rows in the set, preferring to keep the more general rule. The
/// result detects the same violations on any relation up to the difference
/// documented for variable rows (majority groups merge when a more general
/// key relates more tuples, which can only *add* evidence).

#include <vector>

#include "pfd/pfd.h"

namespace anmat {

class AutomatonCache;

/// \brief True if tableau row `a` implies tableau row `b` (same embedded
/// FD assumed; both rows must have identical shape). Containment queries
/// compile through `automata` (a temporary cache per query when null).
bool RowImplies(const TableauRow& a, const TableauRow& b,
                AutomatonCache* automata = nullptr);

/// \brief Statistics of one minimization run.
struct MinimizeStats {
  size_t rows_before = 0;
  size_t rows_after = 0;
  size_t pfds_removed = 0;
};

/// \brief Removes implied tableau rows across all PFDs sharing an embedded
/// FD; PFDs whose tableau empties are dropped. Returns the minimized set.
std::vector<Pfd> MinimizeRuleSet(const std::vector<Pfd>& pfds,
                                 MinimizeStats* stats = nullptr);

}  // namespace anmat

#endif  // ANMAT_PFD_IMPLICATION_H_
