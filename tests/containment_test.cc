#include "pattern/containment.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "containment_reference.h"
#include "pattern/automaton_cache.h"
#include "pattern/generalization_tree.h"
#include "pattern/pattern_parser.h"
#include "util/random.h"

namespace anmat {
namespace {

bool Contains(const char* general, const char* specific) {
  return PatternContains(ParsePattern(general).value(),
                         ParsePattern(specific).value());
}

TEST(ContainmentTest, PaperExample1) {
  // P1 = \D{5} ⊆ P2 = \D*.
  EXPECT_TRUE(Contains("\\D*", "\\D{5}"));
  EXPECT_FALSE(Contains("\\D{5}", "\\D*"));
}

TEST(ContainmentTest, Reflexive) {
  for (const char* p : {"\\D{5}", "abc", "\\LU\\LL*", "\\A*"}) {
    EXPECT_TRUE(Contains(p, p)) << p;
  }
}

TEST(ContainmentTest, AnyStarIsTop) {
  for (const char* p :
       {"\\D{5}", "abc", "\\LU\\LL*\\ \\A*", "900\\D{2}", "\\S+"}) {
    EXPECT_TRUE(Contains("\\A*", p)) << p;
    EXPECT_FALSE(Contains(p, "\\A*")) << p;
  }
}

TEST(ContainmentTest, ClassHierarchy) {
  EXPECT_TRUE(Contains("\\A", "\\D"));
  EXPECT_TRUE(Contains("\\A", "\\LU"));
  EXPECT_TRUE(Contains("\\A", "x"));
  EXPECT_FALSE(Contains("\\D", "\\A"));
  EXPECT_FALSE(Contains("\\D", "\\LL"));
  EXPECT_TRUE(Contains("\\D", "7"));
  EXPECT_FALSE(Contains("\\D", "a"));
  EXPECT_TRUE(Contains("\\LL", "a"));
  EXPECT_FALSE(Contains("\\LL", "A"));
}

TEST(ContainmentTest, CountRanges) {
  EXPECT_TRUE(Contains("\\D{2,5}", "\\D{3}"));
  EXPECT_TRUE(Contains("\\D{2,5}", "\\D{3,4}"));
  EXPECT_FALSE(Contains("\\D{2,5}", "\\D{1,3}"));
  EXPECT_FALSE(Contains("\\D{2,5}", "\\D{6}"));
  EXPECT_TRUE(Contains("\\D+", "\\D{17}"));
  EXPECT_TRUE(Contains("\\D*", "\\D+"));
  EXPECT_FALSE(Contains("\\D+", "\\D*"));  // ε distinguishes them
}

TEST(ContainmentTest, LiteralVsClass) {
  EXPECT_TRUE(Contains("\\D{3}", "900"));
  EXPECT_FALSE(Contains("900", "\\D{3}"));
  EXPECT_TRUE(Contains("\\LU\\LL{3}", "John"));
  EXPECT_FALSE(Contains("\\LU\\LL{3}", "JOHN"));
}

TEST(ContainmentTest, PaperZipPatterns) {
  // 900\D{2} ⊆ \D{5} ⊆ \D* ⊆ \A*.
  EXPECT_TRUE(Contains("\\D{5}", "900\\D{2}"));
  EXPECT_TRUE(Contains("\\D*", "900\\D{2}"));
  EXPECT_FALSE(Contains("900\\D{2}", "\\D{5}"));
  // Different prefixes are incomparable.
  EXPECT_FALSE(Contains("900\\D{2}", "606\\D{2}"));
  EXPECT_FALSE(Contains("606\\D{2}", "900\\D{2}"));
}

TEST(ContainmentTest, StructurallyDifferentButEquivalent) {
  // \D\D{2} and \D{3} denote the same language.
  EXPECT_TRUE(Contains("\\D\\D{2}", "\\D{3}"));
  EXPECT_TRUE(Contains("\\D{3}", "\\D\\D{2}"));
  EXPECT_TRUE(PatternEquivalent(ParsePattern("\\D\\D{2}").value(),
                                ParsePattern("\\D{3}").value()));
}

TEST(ContainmentTest, SplitStarEquivalence) {
  // \A*\A* ≡ \A*.
  EXPECT_TRUE(PatternEquivalent(ParsePattern("\\A*\\A*").value(),
                                ParsePattern("\\A*").value()));
  // \D*\LL* is NOT equivalent to \A*: "a1" matches neither... check one way.
  EXPECT_TRUE(Contains("\\A*", "\\D*\\LL*"));
  EXPECT_FALSE(Contains("\\D*\\LL*", "\\A*"));
}

TEST(ContainmentTest, SymbolClassExcludesAlnum) {
  EXPECT_TRUE(Contains("\\S", "-"));
  EXPECT_TRUE(Contains("\\S", "\\ "));  // escaped space literal
  EXPECT_FALSE(Contains("\\S", "a"));
  EXPECT_FALSE(Contains("\\S", "\\D"));
}

TEST(ContainmentTest, ConjunctionOnTheLeft) {
  // (\A{5} & \D*) ⊆ \D{5} — and vice versa.
  Pattern conj = ParsePattern("\\A{5}&\\D*").value();
  Pattern d5 = ParsePattern("\\D{5}").value();
  EXPECT_TRUE(PatternContains(d5, conj));
  EXPECT_TRUE(PatternContains(conj, d5));
  EXPECT_TRUE(PatternEquivalent(conj, d5));
}

TEST(ContainmentTest, ConjunctionOnTheRight) {
  // \D{5} ⊆ (\A* & \D*)? Yes: both conjuncts contain \D{5}.
  Pattern conj = ParsePattern("\\A*&\\D*").value();
  EXPECT_TRUE(PatternContains(conj, ParsePattern("\\D{5}").value()));
  // But \A{5} ⊄ (\A* & \D*): "abcde" fails \D*.
  EXPECT_FALSE(PatternContains(conj, ParsePattern("\\A{5}").value()));
}

TEST(ContainmentTest, MixedStructure) {
  // \LU\LL*\ \A* contains John\ \A*.
  EXPECT_TRUE(Contains("\\LU\\LL*\\ \\A*", "John\\ \\A*"));
  EXPECT_FALSE(Contains("John\\ \\A*", "\\LU\\LL*\\ \\A*"));
  // Phone: 850\D{7} ⊆ \D{10}.
  EXPECT_TRUE(Contains("\\D{10}", "850\\D{7}"));
}

// ---- Constrained restriction (Q ⊆ Q') -----------------------------------

bool Restricts(const char* sub, const char* sup) {
  return ConstrainedRestricts(ParseConstrainedPattern(sub).value(),
                              ParseConstrainedPattern(sup).value());
}

TEST(ConstrainedRestrictsTest, PaperExample2) {
  // Q2 ⊆ Q1: constraining first AND last name restricts constraining just
  // the first name.
  EXPECT_TRUE(Restricts("(\\LU\\LL*\\ )!\\A*\\ (\\LU\\LL*)!",
                        "(\\LU\\LL*\\ )!\\A*"));
  EXPECT_FALSE(Restricts("(\\LU\\LL*\\ )!\\A*",
                         "(\\LU\\LL*\\ )!\\A*\\ (\\LU\\LL*)!"));
}

TEST(ConstrainedRestrictsTest, Reflexive) {
  EXPECT_TRUE(Restricts("(\\D{3})!\\D{2}", "(\\D{3})!\\D{2}"));
  EXPECT_TRUE(Restricts("(\\LU\\LL*\\ )!\\A*", "(\\LU\\LL*\\ )!\\A*"));
}

TEST(ConstrainedRestrictsTest, TighterKeyPattern) {
  // (900)!\D{2} restricts (\D{3})!\D{2}: embedded containment + the
  // constrained segment 900 ⊆ \D{3}.
  EXPECT_TRUE(Restricts("(900)!\\D{2}", "(\\D{3})!\\D{2}"));
  EXPECT_FALSE(Restricts("(\\D{3})!\\D{2}", "(900)!\\D{2}"));
}

TEST(ConstrainedRestrictsTest, EmbeddedContainmentRequired) {
  // Different overall shapes cannot restrict.
  EXPECT_FALSE(Restricts("(\\D{3})!\\D{2}", "(\\LL{3})!\\LL{2}"));
  EXPECT_FALSE(Restricts("(\\D{3})!\\D{3}", "(\\D{3})!\\D{2}"));
}

TEST(ConstrainedRestrictsTest, UnconstrainedSupRelatesAll) {
  // sup without constrained segments relates all matching strings; any sub
  // (over a contained language) restricts it.
  EXPECT_TRUE(Restricts("(\\D{3})!\\D{2}", "\\D{5}"));
  // But a constrained sup is not restricted by an unconstrained sub.
  EXPECT_FALSE(Restricts("\\D{5}", "(\\D{3})!\\D{2}"));
}

// ---- Product walk vs. the NFA search oracle -----------------------------

/// Draws 1..4 elements over a small literal set: literals, every class,
/// exact / bounded / unbounded repeats (so `\A*` shows up), and now and
/// then a one-level conjunct.
Pattern RandomPattern(Rng& rng, bool allow_conjunct = true) {
  static const std::vector<SymbolClass> kClasses = {
      SymbolClass::kUpper, SymbolClass::kLower, SymbolClass::kDigit,
      SymbolClass::kSymbol, SymbolClass::kAny};
  static const std::string kLiterals = "aZ09- ";
  std::vector<PatternElement> elements;
  const size_t n = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < n; ++i) {
    PatternElement e =
        rng.NextBool(0.4)
            ? PatternElement::Literal(
                  kLiterals[rng.NextBelow(kLiterals.size())])
            : PatternElement::Class(rng.Choose(kClasses));
    switch (rng.NextBelow(5)) {
      case 0:  // exactly once
        break;
      case 1:  // {N}
        e.min = e.max = 1 + static_cast<uint32_t>(rng.NextBelow(3));
        break;
      case 2:  // {M,N}
        e.min = static_cast<uint32_t>(rng.NextBelow(3));
        e.max = e.min + 1 + static_cast<uint32_t>(rng.NextBelow(3));
        break;
      case 3:  // +
        e.min = 1;
        e.max = kUnbounded;
        break;
      case 4:  // *
        e.min = 0;
        e.max = kUnbounded;
        break;
    }
    elements.push_back(e);
  }
  Pattern p(std::move(elements));
  if (allow_conjunct && rng.NextBool(0.2)) {
    p.AddConjunct(RandomPattern(rng, /*allow_conjunct=*/false));
  }
  return p;
}

/// A random widening of `p` — literals to their class, classes to `\A`,
/// counts to ranges or stars, a `\A*` inserted, conjuncts dropped — so
/// that the pair is often, but not always, contained.
Pattern Widen(Rng& rng, const Pattern& p) {
  std::vector<PatternElement> elements;
  for (PatternElement e : p.elements()) {
    if (rng.NextBool(0.3)) {
      e = PatternElement::Class(e.cls == SymbolClass::kLiteral
                                    ? ClassOfChar(e.literal)
                                    : SymbolClass::kAny,
                                e.min, e.max);
    }
    if (rng.NextBool(0.2)) e.min = e.min > 0 ? e.min - 1 : 0;
    if (rng.NextBool(0.2)) e.max = kUnbounded;
    if (rng.NextBool(0.1)) {
      elements.push_back(
          PatternElement::Class(SymbolClass::kAny, 0, kUnbounded));
    }
    elements.push_back(e);
  }
  Pattern q(std::move(elements));
  if (rng.NextBool(0.5)) {
    for (const Pattern& c : p.conjuncts()) q.AddConjunct(c);
  }
  return q;
}

TEST(ContainmentDifferentialTest, ProductWalkAgreesWithNfaSearch) {
  Rng rng(20261017);
  AutomatonCache frozen;
  AutomatonCache lazy(2);  // freeze cap 2: every side walks a lazy Dfa
  size_t contained = 0;
  size_t not_contained = 0;
  size_t conjunct_pairs = 0;
  for (int i = 0; i < 1500; ++i) {
    const Pattern p = RandomPattern(rng);
    Pattern q = rng.NextBool(0.6) ? Widen(rng, p) : RandomPattern(rng);
    if (rng.NextBool(0.15)) q.AddConjunct(Widen(rng, p));
    if (!p.conjuncts().empty() || !q.conjuncts().empty()) ++conjunct_pairs;
    const Pattern& cq = q;
    for (const auto& [sup, sub] : {std::pair(&cq, &p), std::pair(&p, &cq)}) {
      const bool expected = reference::PatternContainsNfa(*sup, *sub);
      const std::string label = sub->ToString() + " ⊆ " + sup->ToString();
      EXPECT_EQ(PatternContains(*sup, *sub), expected) << label;
      EXPECT_EQ(PatternContains(*sup, *sub, &frozen), expected) << label;
      EXPECT_EQ(PatternContains(*sup, *sub, &lazy), expected) << label;
      ++(expected ? contained : not_contained);
    }
  }
  // Both verdicts, conjuncts and the lazy fallback all actually ran.
  EXPECT_GT(contained, 500u);
  EXPECT_GT(not_contained, 500u);
  EXPECT_GT(conjunct_pairs, 200u);
  EXPECT_EQ(frozen.dispatch_stats().fallbacks, 0u);
  EXPECT_GT(lazy.dispatch_stats().fallbacks, 100u);
}

}  // namespace
}  // namespace anmat
