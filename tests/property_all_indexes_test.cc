// Cross-method property suite: every index in the suite, over every key
// distribution, node size on the menu, and a sweep of array sizes, must
// agree exactly with std::lower_bound / std::equal_range — scalar AND
// batched. This is the paper's implicit contract — all eight methods
// compute the same function, they only differ in time and space — extended
// to the batch probe API: FindBatch/LowerBoundBatch are required to be
// exactly a scalar loop, whatever group-probing and prefetching tricks an
// implementation plays underneath.

#include <algorithm>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/range.h"
#include "gtest/gtest.h"
#include "spec_menu.h"
#include "workload/key_gen.h"
#include "workload/lookup_gen.h"

namespace cssidx {
namespace {

enum class Distribution { kUniform, kLinear, kSkewed, kDuplicates, kClustered };

const char* DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "uniform";
    case Distribution::kLinear:
      return "linear";
    case Distribution::kSkewed:
      return "skewed";
    case Distribution::kDuplicates:
      return "duplicates";
    case Distribution::kClustered:
      return "clustered";
  }
  return "?";
}

std::vector<Key> MakeKeys(Distribution d, size_t n, uint64_t seed) {
  switch (d) {
    case Distribution::kUniform:
      return workload::DistinctSortedKeys(n, seed, 4);
    case Distribution::kLinear:
      return workload::LinearKeys(n, 5, 3);
    case Distribution::kSkewed:
      return workload::SkewedKeys(n, seed);
    case Distribution::kDuplicates:
      return workload::KeysWithDuplicates(n, std::max<size_t>(1, n / 8),
                                          seed);
    case Distribution::kClustered:
      return workload::ClusteredKeys(n, std::max<size_t>(1, n / 100), seed);
  }
  return {};
}

struct Case {
  IndexSpec spec;
  Distribution dist;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.spec.ToString();
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_" + DistributionName(info.param.dist);
}

class AllIndexesProperty : public ::testing::TestWithParam<Case> {};

TEST_P(AllIndexesProperty, AgreesWithStlOracles) {
  const Case& c = GetParam();
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{16},
                   size_t{17}, size_t{100}, size_t{257}, size_t{1000},
                   size_t{4096}, size_t{10000}}) {
    if (c.dist == Distribution::kClustered && n < 100) continue;
    auto keys = MakeKeys(c.dist, n, /*seed=*/n * 31 + 7);
    AnyIndex index = BuildIndex(c.spec, keys);
    ASSERT_TRUE(index);
    ASSERT_EQ(index.size(), keys.size());

    std::vector<Key> probes;
    if (!keys.empty()) {
      probes = workload::MatchingLookups(keys, 200, n + 1);
      auto missing = workload::MissingLookups(keys, 100, n + 2);
      probes.insert(probes.end(), missing.begin(), missing.end());
      probes.push_back(keys.front());
      probes.push_back(keys.back());
      probes.push_back(keys.back() + 1);
    }
    probes.push_back(0);

    for (Key k : probes) {
      auto lo = std::lower_bound(keys.begin(), keys.end(), k);
      auto hi = std::upper_bound(keys.begin(), keys.end(), k);
      bool present = lo != keys.end() && *lo == k;
      int64_t expected_find =
          present ? static_cast<int64_t>(lo - keys.begin()) : kNotFound;
      ASSERT_EQ(index.Find(k), expected_find)
          << index.Name() << " n=" << n << " k=" << k;
      ASSERT_EQ(index.CountEqual(k), static_cast<size_t>(hi - lo))
          << index.Name() << " n=" << n << " k=" << k;
      ASSERT_EQ(index.LowerBound(k), static_cast<size_t>(lo - keys.begin()))
          << index.Name() << " n=" << n << " k=" << k;
    }

    // Batch ≡ scalar, over the whole probe set at once (covers the group
    // kernels' full-group path, the remainder path, and batches of one).
    std::vector<int64_t> batch_find(probes.size());
    std::vector<size_t> batch_lower(probes.size());
    std::vector<PositionRange> batch_range(probes.size());
    std::vector<size_t> batch_count(probes.size());
    index.FindBatch(probes, batch_find);
    index.LowerBoundBatch(probes, batch_lower);
    index.EqualRangeBatch(probes, batch_range);
    index.CountEqualBatch(probes, batch_count);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(batch_find[i], index.Find(probes[i]))
          << index.Name() << " n=" << n << " i=" << i;
      ASSERT_EQ(batch_lower[i], index.LowerBound(probes[i]))
          << index.Name() << " n=" << n << " i=" << i;
      ASSERT_EQ(batch_range[i], index.EqualRange(probes[i]))
          << index.Name() << " n=" << n << " i=" << i;
      ASSERT_EQ(batch_count[i], index.CountEqual(probes[i]))
          << index.Name() << " n=" << n << " i=" << i;
      // The span is the STL equal_range.
      auto lo = std::lower_bound(keys.begin(), keys.end(), probes[i]);
      auto hi = std::upper_bound(keys.begin(), keys.end(), probes[i]);
      PositionRange want{static_cast<size_t>(lo - keys.begin()),
                         static_cast<size_t>(hi - keys.begin())};
      ASSERT_EQ(batch_range[i], want)
          << index.Name() << " n=" << n << " i=" << i;
    }

    // Random [lo, hi) bound pairs — inverted and empty included — staged
    // through the batched LowerBound kernel, as the engine stages
    // SelectRange bounds.
    if (!keys.empty()) {
      std::vector<Key> bounds;
      for (size_t b = 0; b + 1 < probes.size(); b += 2) {
        bounds.push_back(probes[b]);
        bounds.push_back(probes[b + 1]);
      }
      std::vector<size_t> pos(bounds.size());
      index.LowerBoundBatch(bounds, pos);
      for (size_t b = 0; b + 1 < bounds.size(); b += 2) {
        Key lo_key = bounds[b];
        Key hi_key = bounds[b + 1];
        size_t want_begin = static_cast<size_t>(
            std::lower_bound(keys.begin(), keys.end(), lo_key) -
            keys.begin());
        size_t want_end =
            hi_key <= lo_key
                ? want_begin
                : static_cast<size_t>(std::lower_bound(keys.begin(),
                                                       keys.end(), hi_key) -
                                      keys.begin());
        size_t got_end = hi_key <= lo_key ? pos[b] : pos[b + 1];
        ASSERT_EQ((PositionRange{pos[b], got_end}),
                  (PositionRange{want_begin, want_end}))
            << index.Name() << " n=" << n << " lo=" << lo_key
            << " hi=" << hi_key;
      }
    }
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  std::vector<Distribution> dists{Distribution::kUniform,
                                  Distribution::kLinear, Distribution::kSkewed,
                                  Distribution::kDuplicates,
                                  Distribution::kClustered};
  for (Distribution d : dists) {
    // The shared menu: node-size sweep for the sized methods plus the
    // partitioned composites, so part:K specs face every distribution.
    for (const IndexSpec& spec : test_menu::MenuSpecs(16, 8)) {
      cases.push_back({spec, d});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllIndexesProperty,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace cssidx
