#include "explain/ranking.h"

#include <gtest/gtest.h>

namespace fab::explain {
namespace {

TEST(TopKTest, IndicesDescending) {
  EXPECT_EQ(TopKIndices({0.1, 0.9, 0.5}, 2), (std::vector<int>{1, 2}));
  EXPECT_EQ(TopKIndices({0.1, 0.9, 0.5}, 10), (std::vector<int>{1, 2, 0}));
  EXPECT_TRUE(TopKIndices({}, 3).empty());
}

TEST(TopKTest, NamesFollowIndices) {
  const std::vector<std::string> names{"a", "b", "c"};
  EXPECT_EQ(TopKNames({0.1, 0.9, 0.5}, names, 2),
            (std::vector<std::string>{"b", "c"}));
}

TEST(BottomFractionTest, MarksLowestHalf) {
  const auto mask = BottomFractionMask({4.0, 1.0, 3.0, 2.0}, 0.5);
  EXPECT_EQ(mask, (std::vector<bool>{false, true, false, true}));
}

TEST(BottomFractionTest, ZeroAndFullFractions) {
  const auto none = BottomFractionMask({1, 2, 3}, 0.0);
  EXPECT_EQ(none, (std::vector<bool>{false, false, false}));
  const auto all = BottomFractionMask({1, 2, 3}, 1.0);
  EXPECT_EQ(all, (std::vector<bool>{true, true, true}));
}

TEST(BottomFractionTest, CountMatchesFloor) {
  // 5 elements, fraction 0.5 -> floor(2.5) = 2 marked.
  const auto mask = BottomFractionMask({5, 4, 3, 2, 1}, 0.5);
  int marked = 0;
  for (bool b : mask) marked += b;
  EXPECT_EQ(marked, 2);
  EXPECT_TRUE(mask[4]);
  EXPECT_TRUE(mask[3]);
}

TEST(OverlapTest, CountsDistinctCommonNames) {
  EXPECT_EQ(OverlapCount({"a", "b", "c"}, {"b", "c", "d"}), 2u);
  EXPECT_EQ(OverlapCount({"a"}, {"b"}), 0u);
  EXPECT_EQ(OverlapCount({"a", "b"}, {"b", "b", "b"}), 1u);
  EXPECT_EQ(OverlapCount({}, {"a"}), 0u);
}

TEST(UnionTest, PreservesFirstAppearanceOrder) {
  EXPECT_EQ(UnionNames({"a", "b"}, {"b", "c"}),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(UnionNames({}, {"x", "x"}), (std::vector<std::string>{"x"}));
}

TEST(SetAlgebraTest, UnionContainsBothInputs) {
  const std::vector<std::string> a{"x", "y"};
  const std::vector<std::string> b{"y", "z", "w"};
  const auto u = UnionNames(a, b);
  EXPECT_EQ(u.size(), 4u);
  EXPECT_EQ(OverlapCount(u, a), a.size());
  EXPECT_EQ(OverlapCount(u, b), b.size());
}

}  // namespace
}  // namespace fab::explain
