#include "util/arena.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "relation/relation.h"
#include "util/simd.h"

namespace anmat {
namespace {

TEST(ArenaTest, InternCopiesAndStaysStable) {
  Arena arena(16);  // tiny chunks so growth happens immediately
  std::string source = "hello";
  const std::string_view v = arena.Intern(source);
  source = "XXXXX";  // mutating the source must not affect the copy
  EXPECT_EQ(v, "hello");
  EXPECT_NE(v.data(), source.data());

  // Force many chunk allocations; earlier views must not move.
  std::vector<std::string_view> views;
  for (int i = 0; i < 100; ++i) {
    views.push_back(arena.Intern(std::to_string(i) + "-payload"));
  }
  EXPECT_EQ(v, "hello");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(views[i], std::to_string(i) + "-payload");
  }
  EXPECT_GT(arena.bytes_used(), 0u);
}

TEST(ArenaTest, EmptyAndOversizedStrings) {
  Arena arena(8);
  EXPECT_EQ(arena.Intern(""), "");
  // Larger than the chunk size: gets a dedicated chunk, still exact.
  const std::string big(1000, 'q');
  EXPECT_EQ(arena.Intern(big), big);
}

TEST(ArenaTest, AdoptedBufferOutlivesOwner) {
  auto body = std::make_shared<const std::string>("adopted-bytes");
  const std::string_view view(*body);
  Arena arena;
  arena.AdoptBuffer(body);
  body.reset();  // the arena now holds the only reference
  EXPECT_EQ(view, "adopted-bytes");
}

TEST(ArenaTest, ConcurrentInternIsSafe) {
  Arena arena(64);
  constexpr int kPerThread = 500;
  std::vector<std::vector<std::string_view>> out(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&arena, &out, t] {
      for (int i = 0; i < kPerThread; ++i) {
        out[t].push_back(
            arena.Intern("t" + std::to_string(t) + ":" + std::to_string(i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(out[t][i],
                "t" + std::to_string(t) + ":" + std::to_string(i));
    }
  }
}

TEST(RelationArenaTest, CopiesShareArenaAndViewsStayValid) {
  RelationBuilder builder(Schema::MakeText({"a", "b"}).value());
  ASSERT_TRUE(builder.AddRow({"one", "two"}).ok());
  ASSERT_TRUE(builder.AddRow({"three", "four"}).ok());
  Relation rel = builder.Build();

  Relation copy = rel;  // shares the arena: views in both stay valid
  const std::string_view original = rel.cell(0, 0);
  copy.set_cell(0, 0, "mutated");
  EXPECT_EQ(copy.cell(0, 0), "mutated");
  EXPECT_EQ(rel.cell(0, 0), original);
  EXPECT_EQ(rel.cell(0, 0), "one");
}

TEST(RelationArenaTest, SliceKeepsCellsAliveAfterParentDies) {
  Relation slice = [] {
    RelationBuilder builder(Schema::MakeText({"v"}).value());
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(builder.AddRow({"value-" + std::to_string(i)}).ok());
    }
    Relation parent = builder.Build();
    return parent.Slice(2, 5).value();
  }();  // parent destroyed here; the slice shares its arena
  ASSERT_EQ(slice.num_rows(), 3u);
  EXPECT_EQ(slice.cell(0, 0), "value-2");
  EXPECT_EQ(slice.cell(2, 0), "value-4");
}

// -- SIMD kernels backing the ingest and prefilter paths -------------------

TEST(SimdTest, FindStructuralFindsFirstOfFour) {
  const std::string hay =
      "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaXbbbbbbbbbbbbbbbbY";
  EXPECT_EQ(simd::FindStructural(hay.data(), hay.size(), 'X', 'Y', 'Z', 'W'),
            32u);
  EXPECT_EQ(simd::FindStructural(hay.data(), hay.size(), 'Y', 'Q', 'Q', 'Q'),
            49u);
  EXPECT_EQ(simd::FindStructural(hay.data(), hay.size(), 'Q', 'Q', 'Q', 'Q'),
            hay.size());
  EXPECT_EQ(simd::FindStructural(hay.data(), 0, 'a', 'a', 'a', 'a'), 0u);
}

TEST(SimdTest, ContainsLiteral) {
  EXPECT_TRUE(simd::ContainsLiteral("hello world", "lo w"));
  EXPECT_TRUE(simd::ContainsLiteral("hello", "h"));
  EXPECT_FALSE(simd::ContainsLiteral("hello", "z"));
  EXPECT_FALSE(simd::ContainsLiteral("", "z"));
  EXPECT_TRUE(simd::ContainsLiteral("anything", ""));
}

}  // namespace
}  // namespace anmat
