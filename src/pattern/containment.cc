#include "pattern/containment.h"

#include <memory>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "pattern/automaton_cache.h"
#include "pattern/dfa.h"

namespace anmat {

namespace {

/// Visited product states of two frozen tables: a dense rows × cols
/// bitmap (at most freeze cap² bits).
class PairBitmap {
 public:
  PairBitmap(uint32_t rows, uint32_t cols)
      : cols_(cols), bits_((static_cast<size_t>(rows) * cols + 63) / 64, 0) {}

  /// Marks (a, b); returns false when it was already marked.
  bool Insert(uint32_t a, uint32_t b) {
    const size_t i = static_cast<size_t>(a) * cols_ + b;
    uint64_t& word = bits_[i >> 6];
    const uint64_t bit = uint64_t{1} << (i & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

 private:
  uint32_t cols_;
  std::vector<uint64_t> bits_;
};

/// Visited product states when a side is a lazy `Dfa`: its states are
/// materialized during the walk and unbounded in number, and the pairs
/// reached are a sparse corner of their square, so they are hashed.
class PairSet {
 public:
  bool Insert(uint32_t a, uint32_t b) {
    return pairs_.insert((uint64_t{a} << 32) | b).second;
  }

 private:
  std::unordered_set<uint64_t> pairs_;
};

/// Decides L(p) ⊆ L(q) over two automaton tables, each accepting where all
/// its members accept. `P`/`Q` are `FrozenDfa` or (past the freeze cap)
/// lazy `Dfa`: both expose `table()` and `Transition(state, cls)`.
/// `visited` starts empty.
template <typename P, typename Q, typename Visited>
bool ProductContained(const P& p, const Q& q, Visited* visited) {
  const DfaTable& pt = p.table();
  const DfaTable& qt = q.table();
  // Bytes with equal classes in both tables drive both automata alike, so
  // the walk steps over the distinct (p class, q class) pairs only.
  std::vector<std::pair<uint32_t, uint32_t>> joint;
  std::vector<bool> seen(static_cast<size_t>(pt.num_classes) * qt.num_classes,
                         false);
  for (int b = 0; b < 256; ++b) {
    const uint32_t pc = pt.byte_class[b];
    const uint32_t qc = qt.byte_class[b];
    const size_t pair = static_cast<size_t>(pc) * qt.num_classes + qc;
    if (seen[pair]) continue;
    seen[pair] = true;
    joint.emplace_back(pc, qc);
  }

  std::vector<std::pair<uint32_t, uint32_t>> stack = {{pt.start, qt.start}};
  visited->Insert(pt.start, qt.start);
  while (!stack.empty()) {
    const auto [ps, qs] = stack.back();
    stack.pop_back();
    // Some string leads here: p accepts it, so q must too.
    if (pt.AcceptsAll(ps) && !qt.AcceptsAll(qs)) return false;
    for (const auto& [pc, qc] : joint) {
      const uint32_t pn = p.Transition(ps, pc);
      if (pn == DfaTable::kDead) continue;  // no string of L(p) goes on
      const uint32_t qn = q.Transition(qs, qc);
      if (visited->Insert(pn, qn)) stack.emplace_back(pn, qn);
    }
  }
  return true;
}

/// One side of a query: the table over `p`'s element sequence and its
/// flattened conjuncts — frozen out of the cache, or a private lazy `Dfa`
/// when the union is past the freeze cap.
class Side {
 public:
  Side(const Pattern& p, AutomatonCache* automata) {
    std::vector<const Pattern*> members = {&p};
    FlattenConjuncts(p, &members);
    frozen_ = automata->GetUnion(members).dfa;
    if (frozen_ == nullptr) lazy_.emplace(members);
  }

  /// Calls `fn` with the side's automaton (`FrozenDfa` or `Dfa`).
  template <typename Fn>
  bool Visit(Fn fn) const {
    return frozen_ != nullptr ? fn(*frozen_) : fn(*lazy_);
  }

 private:
  std::shared_ptr<const FrozenDfa> frozen_;
  std::optional<Dfa> lazy_;  ///< engaged iff `frozen_` is null
};

}  // namespace

bool PatternContains(const Pattern& q, const Pattern& p,
                     AutomatonCache* automata) {
  if (automata == nullptr) {
    AutomatonCache temporary;
    return PatternContains(q, p, &temporary);
  }
  const Side p_side(p, automata);
  const Side q_side(q, automata);
  return p_side.Visit([&](const auto& pa) {
    return q_side.Visit([&](const auto& qa) {
      if constexpr (std::is_same_v<decltype(pa), const FrozenDfa&> &&
                    std::is_same_v<decltype(qa), const FrozenDfa&>) {
        PairBitmap visited(pa.table().num_states(), qa.table().num_states());
        return ProductContained(pa, qa, &visited);
      } else {
        PairSet visited;
        return ProductContained(pa, qa, &visited);
      }
    });
  });
}

bool PatternEquivalent(const Pattern& a, const Pattern& b) {
  AutomatonCache automata;
  return PatternContains(a, b, &automata) && PatternContains(b, a, &automata);
}

bool ConstrainedRestricts(const ConstrainedPattern& sub,
                          const ConstrainedPattern& sup,
                          AutomatonCache* automata) {
  if (automata == nullptr) {
    AutomatonCache temporary;
    return ConstrainedRestricts(sub, sup, &temporary);
  }
  // Necessary condition: embedded containment.
  if (!PatternContains(sup.EmbeddedPattern(), sub.EmbeddedPattern(),
                       automata)) {
    return false;
  }
  if (!sub.HasConstrained() || !sup.HasConstrained()) {
    // A pattern without constrained segments relates all matching strings;
    // `sub ⊆ sup` then requires sup to also relate them all.
    return !sup.HasConstrained();
  }

  // Structural alignment: walk sup's segments and greedily cover them with
  // sub's segments such that every constrained segment of sup is covered
  // only by constrained segments of sub. We align on the *prefix* of
  // constrained segments: each constrained segment of sup must correspond
  // to a consecutive run of sub segments whose concatenated pattern is
  // contained in it, all of them constrained.
  //
  // This validates the paper's canonical use (Q2 ⊆ Q1 in Example 2:
  // sub = (\LU\LL*\ )!\A*\ (\LU\LL*)!,  sup = (\LU\LL*\ )!\A*):
  // equality on *more* extracted components implies equality on fewer when
  // the shared components align positionally.
  const auto& sub_segs = sub.segments();
  const auto& sup_segs = sup.segments();

  size_t si = 0;  // cursor into sub_segs
  for (size_t qi = 0; qi < sup_segs.size(); ++qi) {
    const PatternSegment& sup_seg = sup_segs[qi];
    if (sup_seg.constrained) {
      // Must be covered by exactly one constrained sub segment with a
      // contained pattern (1:1 alignment keeps the check sound).
      if (si >= sub_segs.size() || !sub_segs[si].constrained) return false;
      if (!PatternContains(sup_seg.pattern, sub_segs[si].pattern,
                           automata)) {
        return false;
      }
      ++si;
    } else {
      // Unconstrained sup segment: absorb a maximal run of sub segments
      // (constrained or not — extra constraints in sub only *refine* the
      // equivalence) whose concatenation is contained in it.
      std::vector<PatternElement> concat;
      size_t run_end = si;
      // Greedily absorb while the concatenation stays contained and we do
      // not steal the sub segment needed by the next constrained sup
      // segment. Simplest sound approach: absorb until the concatenation
      // is contained and the remaining sub segments still outnumber the
      // remaining constrained sup segments.
      size_t remaining_sup_constrained = 0;
      for (size_t j = qi + 1; j < sup_segs.size(); ++j) {
        if (sup_segs[j].constrained) ++remaining_sup_constrained;
      }
      while (run_end < sub_segs.size()) {
        size_t remaining_sub = sub_segs.size() - run_end;
        if (remaining_sub <= remaining_sup_constrained) break;
        const auto& es = sub_segs[run_end].pattern.elements();
        concat.insert(concat.end(), es.begin(), es.end());
        ++run_end;
        // Stop early if the next sub segment is constrained and the next
        // sup segment is constrained too — leave it for the 1:1 match.
      }
      Pattern run_pattern(concat);
      if (!PatternContains(sup_seg.pattern, run_pattern, automata)) {
        return false;
      }
      si = run_end;
    }
  }
  return si == sub_segs.size();
}

}  // namespace anmat
