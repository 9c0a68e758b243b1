#include "core/builder.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "workload/key_gen.h"

namespace cssidx {
namespace {

TEST(Builder, BuildsEverySpec) {
  auto keys = workload::DistinctSortedKeys(5000, 3, 4);
  for (const IndexSpec& spec : AllSpecs(16, 8)) {
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index) << spec.ToString();
    EXPECT_EQ(index.size(), keys.size());
    EXPECT_EQ(index.spec(), spec);
    // Every method finds present keys at the right position.
    for (size_t i = 0; i < keys.size(); i += 97) {
      ASSERT_EQ(index.Find(keys[i]), static_cast<int64_t>(i))
          << spec.ToString();
    }
    EXPECT_EQ(index.Find(keys.back() + 1), kNotFound) << spec.ToString();
  }
}

TEST(Builder, EverySpecAnswersPositionalProbes) {
  auto keys = workload::DistinctSortedKeys(2000, 5, 4);
  for (const IndexSpec& spec : AllSpecs(16, 6)) {
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index) << spec.ToString();
    // A hit, a miss between keys, and a miss past the last key.
    size_t gap = 1000;
    while (keys[gap + 1] - keys[gap] < 2) ++gap;
    for (Key probe : {keys[1000], keys[gap] + 1, keys.back() + 1}) {
      auto lo = std::lower_bound(keys.begin(), keys.end(), probe);
      auto hi = std::upper_bound(keys.begin(), keys.end(), probe);
      const PositionRange want{static_cast<size_t>(lo - keys.begin()),
                               static_cast<size_t>(hi - keys.begin())};
      EXPECT_EQ(index.LowerBound(probe), want.begin)
          << spec.ToString() << " k=" << probe;
      EXPECT_EQ(index.EqualRange(probe), want)
          << spec.ToString() << " k=" << probe;
      EXPECT_EQ(index.CountEqual(probe), want.size())
          << spec.ToString() << " k=" << probe;
    }
  }
}

TEST(Builder, NodeSizeMenu) {
  auto keys = workload::DistinctSortedKeys(100, 1, 4);
  for (int m : NodeSizeMenu()) {
    EXPECT_TRUE(BuildIndex(*IndexSpec::Parse("css:" + std::to_string(m)),
                           keys))
        << m;
    EXPECT_TRUE(BuildIndex(*IndexSpec::Parse("ttree:" + std::to_string(m)),
                           keys))
        << m;
    EXPECT_TRUE(BuildIndex(*IndexSpec::Parse("btree:" + std::to_string(m)),
                           keys))
        << m;
  }
  // Level CSS-trees reject non-powers of two: the spec never parses, and a
  // hand-constructed spec is off the menu for the builder too.
  EXPECT_FALSE(IndexSpec::Parse("lcss:24").has_value());
  IndexSpec level24 = IndexSpec::Parse("lcss:32")->WithNodeEntries(24);
  EXPECT_FALSE(BuildIndex(level24, keys));
  EXPECT_TRUE(BuildIndex(*IndexSpec::Parse("lcss:32"), keys));
  // Off-menu sizes are rejected outright.
  EXPECT_FALSE(IndexSpec::Parse("css:12").has_value());
  EXPECT_FALSE(BuildIndex(IndexSpec().WithNodeEntries(12), keys));
}

TEST(Builder, NamesCarryNodeSize) {
  auto keys = workload::DistinctSortedKeys(100, 1, 4);
  AnyIndex index = BuildIndex(*IndexSpec::Parse("css:32"), keys);
  EXPECT_NE(index.Name().find("m=32"), std::string::npos);
}

TEST(Builder, SpaceOrderingMatchesFigure2) {
  // At the same node size: full CSS < level CSS < B+-tree < T-tree < hash.
  auto keys = workload::DistinctSortedKeys(100'000, 7, 4);
  // dir bits ~ n/keys-per-bucket, the paper's sizing.
  auto full = BuildIndex(*IndexSpec::Parse("css:16"), keys);
  auto level = BuildIndex(*IndexSpec::Parse("lcss:16"), keys);
  auto bplus = BuildIndex(*IndexSpec::Parse("btree:16"), keys);
  auto ttree = BuildIndex(*IndexSpec::Parse("ttree:16"), keys);
  auto hash = BuildIndex(*IndexSpec::Parse("hash:17"), keys);
  EXPECT_LT(full.SpaceBytes(), level.SpaceBytes());
  EXPECT_LT(level.SpaceBytes(), bplus.SpaceBytes());
  EXPECT_LT(bplus.SpaceBytes(), ttree.SpaceBytes());
  EXPECT_LT(ttree.SpaceBytes(), hash.SpaceBytes());
}

TEST(Builder, AnyIndexHasValueSemantics) {
  auto keys = workload::DistinctSortedKeys(1000, 9, 4);
  AnyIndex a = BuildIndex(IndexSpec(), keys);
  AnyIndex b = a;  // copy shares the immutable structure
  AnyIndex c;
  EXPECT_FALSE(c);
  c = std::move(a);
  EXPECT_TRUE(b);
  EXPECT_TRUE(c);
  EXPECT_EQ(b.Find(keys[500]), 500);
  EXPECT_EQ(c.Find(keys[500]), 500);
  EXPECT_EQ(b.Name(), c.Name());
}

}  // namespace
}  // namespace cssidx
