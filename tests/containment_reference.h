#ifndef ANMAT_TESTS_CONTAINMENT_REFERENCE_H_
#define ANMAT_TESTS_CONTAINMENT_REFERENCE_H_

/// \file containment_reference.h
/// NFA product-search containment: the test oracle for the table product
/// walk in pattern/containment.cc.
///
/// The infinite alphabet is abstracted to a finite *relevant* set — every
/// literal either pattern mentions plus one fresh representative per
/// generalization-tree class — and `NFA(p)` (the intersection of its
/// conjuncts) is searched against the subset construction of `NFA(q)` for a
/// product state that p accepts and q rejects, with a `std::set` of visited
/// states. Slow, but built only from `Nfa` — none of the `Dfa` tables the
/// production walk runs on.

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pattern/generalization_tree.h"
#include "pattern/nfa.h"
#include "pattern/pattern.h"

namespace anmat {
namespace reference {

/// Collects every literal character mentioned anywhere in a pattern
/// (elements and conjuncts).
inline void CollectLiterals(const Pattern& p, std::string* out) {
  for (const PatternElement& e : p.elements()) {
    if (e.cls == SymbolClass::kLiteral &&
        out->find(e.literal) == std::string::npos) {
      out->push_back(e.literal);
    }
  }
  for (const Pattern& c : p.conjuncts()) CollectLiterals(c, out);
}

/// The finite alphabet abstraction: all mentioned literals plus one fresh
/// representative per class (fresh = not colliding with any literal). Two
/// characters of the same class that neither pattern names cannot be
/// distinguished by any pattern built from these literals, so one
/// representative per class is sound and complete.
inline std::string RelevantAlphabet(const Pattern& a, const Pattern& b) {
  std::string alphabet;
  CollectLiterals(a, &alphabet);
  CollectLiterals(b, &alphabet);
  for (SymbolClass cls : {SymbolClass::kUpper, SymbolClass::kLower,
                          SymbolClass::kDigit, SymbolClass::kSymbol}) {
    char rep = RepresentativeChar(cls, alphabet);
    if (rep != '\0') alphabet.push_back(rep);
  }
  return alphabet;
}

/// Intersection (product) automaton of a list of NFAs. Start/accept are
/// tuples; we simulate lazily with tuple state-sets.
struct ProductState {
  // One state-set per component automaton (each epsilon-closed, sorted).
  std::vector<std::vector<uint32_t>> sets;

  bool operator<(const ProductState& other) const { return sets < other.sets; }
};

class ProductNfa {
 public:
  explicit ProductNfa(std::vector<Nfa> components)
      : components_(std::move(components)) {}

  ProductState StartState() const {
    ProductState s;
    s.sets.resize(components_.size());
    for (size_t i = 0; i < components_.size(); ++i) {
      s.sets[i] = {components_[i].start()};
      components_[i].EpsilonClosure(&s.sets[i]);
    }
    return s;
  }

  /// Advances every component on `c`; returns false if any component dies
  /// (the intersection language has no continuation).
  bool Step(const ProductState& from, char c, ProductState* to) const {
    to->sets.resize(components_.size());
    for (size_t i = 0; i < components_.size(); ++i) {
      components_[i].Step(from.sets[i], c, &to->sets[i]);
      if (to->sets[i].empty()) return false;
    }
    return true;
  }

  bool Accepts(const ProductState& s) const {
    for (size_t i = 0; i < components_.size(); ++i) {
      if (!components_[i].Accepts(s.sets[i])) return false;
    }
    return true;
  }

 private:
  std::vector<Nfa> components_;
};

/// Compiles a pattern (with conjuncts) to the component list of its
/// intersection automaton.
inline std::vector<Nfa> CompileConjunctList(const Pattern& p) {
  std::vector<Nfa> nfas;
  nfas.push_back(Nfa::Compile(p));
  for (const Pattern& c : p.conjuncts()) {
    // Flatten nested conjuncts (rare; '&' is typically one level).
    std::vector<Nfa> inner = CompileConjunctList(c);
    for (Nfa& n : inner) nfas.push_back(std::move(n));
  }
  return nfas;
}

/// L(p) ⊆ L(q): searches the product of p's intersection automaton with
/// q's (subset-construction) automaton for a state that p accepts and q
/// rejects.
inline bool PatternContainsNfa(const Pattern& q, const Pattern& p) {
  const std::string alphabet = RelevantAlphabet(p, q);

  ProductNfa p_nfa(CompileConjunctList(p));
  ProductNfa q_nfa(CompileConjunctList(q));

  struct SearchState {
    ProductState p_state;
    ProductState q_state;  // empty sets allowed: q may be "dead"
    bool q_alive;

    bool operator<(const SearchState& other) const {
      if (q_alive != other.q_alive) return q_alive < other.q_alive;
      if (p_state < other.p_state) return true;
      if (other.p_state < p_state) return false;
      return q_state < other.q_state;
    }
  };

  std::set<SearchState> visited;
  std::vector<SearchState> stack;
  SearchState start{p_nfa.StartState(), q_nfa.StartState(), true};
  visited.insert(start);
  stack.push_back(start);

  while (!stack.empty()) {
    SearchState cur = stack.back();
    stack.pop_back();

    if (p_nfa.Accepts(cur.p_state)) {
      if (!cur.q_alive || !q_nfa.Accepts(cur.q_state)) {
        return false;  // counterexample string reaches here
      }
    }

    for (char c : alphabet) {
      SearchState next;
      next.q_alive = cur.q_alive;
      if (!p_nfa.Step(cur.p_state, c, &next.p_state)) {
        continue;  // p has no continuation on c; no counterexample this way
      }
      if (cur.q_alive) {
        next.q_alive = q_nfa.Step(cur.q_state, c, &next.q_state);
        if (!next.q_alive) next.q_state = ProductState{};
      } else {
        next.q_state = ProductState{};
      }
      if (visited.insert(next).second) stack.push_back(next);
    }
  }
  return true;
}

}  // namespace reference
}  // namespace anmat

#endif  // ANMAT_TESTS_CONTAINMENT_REFERENCE_H_
