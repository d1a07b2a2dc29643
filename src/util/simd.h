#ifndef ANMAT_UTIL_SIMD_H_
#define ANMAT_UTIL_SIMD_H_

/// \file simd.h
/// Build-time SIMD kernels for the ingest and probe hot paths.
///
/// Selected once at build time (no runtime dispatch — the container
/// compiles for the host and the fallbacks are byte-identical, so tests
/// cover both by building twice):
///
///   * `FindStructural` — the CSV record splitter's inner loop: the index
///     of the first byte matching any of four structural characters
///     (delimiter, quote, CR, LF). SSE2 compares 16 bytes against four
///     splats per iteration; the fallback is a SWAR word-at-a-time scan.
///
///   * `ContainsLiteral` — the automata's required-literal prefilter,
///     memchr-anchored (glibc's memchr is itself vectorized).
///
/// Both kernels are pure functions of their inputs; the automaton /
/// parser semantics stay in the callers.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#include <emmintrin.h>
#define ANMAT_SIMD_SSE2 1
#endif

namespace anmat {
namespace simd {

/// Build-time kernel level, for bench/test introspection.
inline const char* LevelName() {
#if defined(ANMAT_SIMD_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

// ---------------------------------------------------------------------------
// Structural-byte scanning (CSV splitter)
// ---------------------------------------------------------------------------

namespace internal {

/// SWAR "does this word contain byte b" over 8 bytes at a time.
inline uint64_t HasByte(uint64_t word, uint8_t b) {
  const uint64_t pat = 0x0101010101010101ull * b;
  const uint64_t x = word ^ pat;
  return (x - 0x0101010101010101ull) & ~x & 0x8080808080808080ull;
}

}  // namespace internal

/// Index of the first occurrence of `a`, `b`, `c` or `d` in [p, p+n), or
/// `n` when none occurs.
inline size_t FindStructural(const char* p, size_t n, char a, char b, char c,
                             char d) {
  size_t i = 0;
#if defined(ANMAT_SIMD_SSE2)
  const __m128i va = _mm_set1_epi8(a);
  const __m128i vb = _mm_set1_epi8(b);
  const __m128i vc = _mm_set1_epi8(c);
  const __m128i vd = _mm_set1_epi8(d);
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const __m128i hit = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(v, va), _mm_cmpeq_epi8(v, vb)),
        _mm_or_si128(_mm_cmpeq_epi8(v, vc), _mm_cmpeq_epi8(v, vd)));
    const int mask = _mm_movemask_epi8(hit);
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
#else
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    const uint64_t hit =
        internal::HasByte(word, static_cast<uint8_t>(a)) |
        internal::HasByte(word, static_cast<uint8_t>(b)) |
        internal::HasByte(word, static_cast<uint8_t>(c)) |
        internal::HasByte(word, static_cast<uint8_t>(d));
    if (hit != 0) {
      return i + static_cast<size_t>(__builtin_ctzll(hit) >> 3);
    }
  }
#endif
  for (; i < n; ++i) {
    if (p[i] == a || p[i] == b || p[i] == c || p[i] == d) return i;
  }
  return n;
}

/// Does `hay` contain `needle`? memchr-anchored for single characters
/// (glibc's memchr is AVX2-vectorized); `string_view::find` — itself
/// memchr-anchored in libstdc++ — for longer literals. Empty needles are
/// trivially contained.
inline bool ContainsLiteral(std::string_view hay, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() == 1) {
    return hay.size() >= 1 &&
           std::memchr(hay.data(), needle[0], hay.size()) != nullptr;
  }
  return hay.find(needle) != std::string_view::npos;
}

}  // namespace simd
}  // namespace anmat

#endif  // ANMAT_UTIL_SIMD_H_
