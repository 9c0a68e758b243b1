// The unrolled intra-node search must agree with std::lower_bound for every
// node size used anywhere in the suite, both dense and strided layouts —
// and the SIMD-dispatched kernels must agree bit-for-bit on every path the
// machine supports (scalar / SSE2 / AVX2), since §4.1.2's duplicate
// routing rides on the leftmost-on-ties answer.

#include "core/node_search.h"

#include <algorithm>
#include <vector>

#include "core/builder.h"
#include "core/range.h"
#include "core/simd_node_search.h"
#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/rng.h"
#include "workload/key_gen.h"

namespace cssidx {
namespace {

/// Runs fn under every dispatch path this build + CPU supports (a request
/// above the detected ceiling is clamped, so unsupported paths skip rather
/// than silently re-testing the same kernel), restoring the detected path
/// afterwards.
template <typename Fn>
void ForEachPath(Fn&& fn) {
  for (NodeSearchPath path : {NodeSearchPath::kScalar, NodeSearchPath::kSse2,
                              NodeSearchPath::kAvx2}) {
    if (SetNodeSearchPath(path) != path) continue;
    fn(path);
  }
  SetNodeSearchPath(DetectedNodeSearchPath());
}

template <int Count>
void CheckDense() {
  Pcg32 rng(Count);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Key> keys(Count);
    uint32_t cur = rng.Below(10);
    for (int i = 0; i < Count; ++i) {
      cur += rng.Below(3);  // allows duplicates
      keys[i] = cur;
    }
    for (Key probe = 0; probe <= cur + 2; ++probe) {
      int expected = static_cast<int>(
          std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
      ASSERT_EQ((UnrolledLowerBound<Count, 1>(keys.data(), probe)), expected)
          << "Count=" << Count << " probe=" << probe;
      ASSERT_EQ(GenericLowerBound(keys.data(), Count, probe), expected);
      ForEachPath([&](NodeSearchPath path) {
        ASSERT_EQ((DispatchedLowerBound<Count, 1>(keys.data(), probe)),
                  expected)
            << "Count=" << Count << " probe=" << probe << " path="
            << NodeSearchPathName(path);
        ASSERT_EQ(DispatchedLowerBoundN(keys.data(), Count, probe), expected)
            << "Count=" << Count << " probe=" << probe << " path="
            << NodeSearchPathName(path);
      });
    }
  }
}

TEST(NodeSearch, Dense1) { CheckDense<1>(); }
TEST(NodeSearch, Dense2) { CheckDense<2>(); }
TEST(NodeSearch, Dense3) { CheckDense<3>(); }
TEST(NodeSearch, Dense4) { CheckDense<4>(); }
TEST(NodeSearch, Dense5) { CheckDense<5>(); }
TEST(NodeSearch, Dense7) { CheckDense<7>(); }
TEST(NodeSearch, Dense8) { CheckDense<8>(); }
TEST(NodeSearch, Dense15) { CheckDense<15>(); }
TEST(NodeSearch, Dense16) { CheckDense<16>(); }
TEST(NodeSearch, Dense23) { CheckDense<23>(); }
TEST(NodeSearch, Dense24) { CheckDense<24>(); }
TEST(NodeSearch, Dense31) { CheckDense<31>(); }
TEST(NodeSearch, Dense32) { CheckDense<32>(); }
TEST(NodeSearch, Dense63) { CheckDense<63>(); }
TEST(NodeSearch, Dense64) { CheckDense<64>(); }
TEST(NodeSearch, Dense127) { CheckDense<127>(); }
TEST(NodeSearch, Dense128) { CheckDense<128>(); }

template <int Count>
void CheckStrided() {
  // B+-tree layout: keys at odd slots of a 2-strided array.
  Pcg32 rng(Count * 977);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Key> slots(2 * Count, 0xdeadbeef);
    std::vector<Key> keys(Count);
    uint32_t cur = rng.Below(5);
    for (int i = 0; i < Count; ++i) {
      cur += 1 + rng.Below(4);
      keys[i] = cur;
      slots[2 * i] = cur;  // stride-2 positions 0, 2, 4, ...
    }
    for (Key probe = 0; probe <= cur + 2; ++probe) {
      int expected = static_cast<int>(
          std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
      ASSERT_EQ((UnrolledLowerBound<Count, 2>(slots.data(), probe)), expected);
      ASSERT_EQ(GenericLowerBound(slots.data(), Count, probe, 2), expected);
      ForEachPath([&](NodeSearchPath path) {
        ASSERT_EQ((DispatchedLowerBound<Count, 2>(slots.data(), probe)),
                  expected)
            << "Count=" << Count << " probe=" << probe << " path="
            << NodeSearchPathName(path);
      });
    }
  }
}

TEST(NodeSearch, Strided3) { CheckStrided<3>(); }
TEST(NodeSearch, Strided7) { CheckStrided<7>(); }
TEST(NodeSearch, Strided11) { CheckStrided<11>(); }
TEST(NodeSearch, Strided15) { CheckStrided<15>(); }
TEST(NodeSearch, Strided63) { CheckStrided<63>(); }

TEST(NodeSearch, ZeroCount) {
  Key keys[1] = {5};
  EXPECT_EQ((UnrolledLowerBound<0, 1>(keys, Key{3})), 0);
  EXPECT_EQ(GenericLowerBound(keys, 0, Key{3}), 0);
}

TEST(NodeSearch, AllEqualReturnsZero) {
  std::vector<Key> keys(16, 7);
  EXPECT_EQ((UnrolledLowerBound<16, 1>(keys.data(), Key{7})), 0);
  EXPECT_EQ((UnrolledLowerBound<16, 1>(keys.data(), Key{8})), 16);
  EXPECT_EQ((UnrolledLowerBound<16, 1>(keys.data(), Key{6})), 0);
}

TEST(NodeSearch, MaxKeyProbe) {
  std::vector<Key> keys{1, 2, 0xffffffffu};
  EXPECT_EQ((UnrolledLowerBound<3, 1>(keys.data(), 0xffffffffu)), 2);
}

// ----------------------------------------------------------------------
// SIMD dispatch: every path must reproduce the scalar answer exactly.

TEST(NodeSearchDispatch, ReportsAConsistentPath) {
  NodeSearchPath detected = DetectedNodeSearchPath();
  EXPECT_EQ(ActiveNodeSearchPath(), detected);
  // A request above the ceiling clamps; one at/below it sticks.
  EXPECT_EQ(SetNodeSearchPath(NodeSearchPath::kAvx2) <= detected, true);
  EXPECT_EQ(SetNodeSearchPath(NodeSearchPath::kScalar),
            NodeSearchPath::kScalar);
  EXPECT_EQ(SetNodeSearchPath(detected), detected);
}

TEST(NodeSearchDispatch, AllEqualKeysLeftmostTie) {
  // §4.1.2: on an all-duplicate node every path must land on slot 0 for
  // the key itself (leftmost tie) and Count one past it.
  std::vector<Key> k16(16, 7), k32(32, 7);
  ForEachPath([&](NodeSearchPath path) {
    EXPECT_EQ((DispatchedLowerBound<16, 1>(k16.data(), Key{7})), 0)
        << NodeSearchPathName(path);
    EXPECT_EQ((DispatchedLowerBound<16, 1>(k16.data(), Key{8})), 16)
        << NodeSearchPathName(path);
    EXPECT_EQ((DispatchedLowerBound<16, 1>(k16.data(), Key{6})), 0)
        << NodeSearchPathName(path);
    EXPECT_EQ((DispatchedLowerBound<32, 1>(k32.data(), Key{7})), 0)
        << NodeSearchPathName(path);
    EXPECT_EQ(DispatchedLowerBoundN(k16.data(), 16, Key{7}), 0)
        << NodeSearchPathName(path);
  });
}

TEST(NodeSearchDispatch, UnsignedExtremes) {
  // The SSE2/AVX2 kernels compare via a signed bias; the top of the key
  // space is exactly where a botched bias would flip the order.
  std::vector<Key> keys(16);
  for (int i = 0; i < 16; ++i) {
    keys[i] = (i < 8) ? static_cast<Key>(i) : 0xfffffff8u + (i - 8);
  }
  for (Key probe : {Key{0}, Key{7}, Key{8}, Key{0x7fffffffu}, Key{0x80000000u},
                    Key{0xfffffff8u}, Key{0xffffffffu}}) {
    int expected = static_cast<int>(
        std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
    ForEachPath([&](NodeSearchPath path) {
      ASSERT_EQ((DispatchedLowerBound<16, 1>(keys.data(), probe)), expected)
          << "probe=" << probe << " path=" << NodeSearchPathName(path);
      ASSERT_EQ(DispatchedLowerBoundN(keys.data(), 16, probe), expected)
          << "probe=" << probe << " path=" << NodeSearchPathName(path);
    });
  }
}

TEST(NodeSearchDispatch, PartialTrailingCounts) {
  // Every partial-leaf length a trailing CSS/B+ leaf can have, 0..40,
  // through the runtime-count dispatcher on every path.
  Pcg32 rng(0x1eaf);
  for (int count = 0; count <= 40; ++count) {
    std::vector<Key> keys(static_cast<size_t>(count));
    uint32_t cur = rng.Below(8);
    for (int i = 0; i < count; ++i) {
      cur += rng.Below(3);
      keys[i] = cur;
    }
    for (Key probe = 0; probe <= cur + 2; ++probe) {
      int expected = static_cast<int>(
          std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
      ForEachPath([&](NodeSearchPath path) {
        ASSERT_EQ(DispatchedLowerBoundN(keys.data(), count, probe), expected)
            << "count=" << count << " probe=" << probe << " path="
            << NodeSearchPathName(path);
      });
    }
  }
}

// Whole-index differential: each spec on the menu, probed under every
// dispatch path, must return bit-identical batches. This is the
// end-to-end version of the kernel checks above — it walks the real
// group-probing descent (CSS directory, B+-tree stride-2 slots, hash
// chain scan) rather than a bare array.
TEST(NodeSearchDispatch, CrossPathBitIdenticalAcrossSpecMenu) {
  Pcg32 rng(0x51D51D);
  for (int trial = 0; trial < 6; ++trial) {
    size_t n = 1 + rng.Below(6000);
    std::vector<Key> keys =
        workload::KeysWithDuplicates(n, 1 + rng.Below(32), rng.Next());
    n = keys.size();

    std::vector<AnyIndex> indexes;
    for (const IndexSpec& spec : test_menu::DefaultSpecs(16, 10)) {
      AnyIndex index = BuildIndex(spec, keys);
      if (index) indexes.push_back(std::move(index));
    }

    uint32_t ceiling = keys.empty() ? 100 : keys.back() + 3;
    std::vector<Key> probes(512);
    for (Key& k : probes) k = rng.Below(ceiling);
    probes[0] = 0xffffffffu;  // bias edge rides along in every trial

    std::vector<int64_t> find_scalar(probes.size()), find_path(probes.size());
    std::vector<size_t> lower_scalar(probes.size()), lower_path(probes.size());
    std::vector<PositionRange> range_scalar(probes.size()),
        range_path(probes.size());
    std::vector<size_t> count_scalar(probes.size()), count_path(probes.size());
    for (const AnyIndex& index : indexes) {
      SetNodeSearchPath(NodeSearchPath::kScalar);
      index.FindBatch(probes, find_scalar);
      index.EqualRangeBatch(probes, range_scalar);
      index.CountEqualBatch(probes, count_scalar);
      index.LowerBoundBatch(probes, lower_scalar);
      // The scalar path is the reference every other path must match; it
      // in turn matches the STL oracle, for every spec.
      for (size_t p = 0; p < probes.size(); ++p) {
        auto lo = std::lower_bound(keys.begin(), keys.end(), probes[p]);
        auto hi = std::upper_bound(keys.begin(), keys.end(), probes[p]);
        const PositionRange want{static_cast<size_t>(lo - keys.begin()),
                                 static_cast<size_t>(hi - keys.begin())};
        ASSERT_EQ(lower_scalar[p], want.begin)
            << index.Name() << " trial=" << trial << " k=" << probes[p];
        ASSERT_EQ(range_scalar[p], want)
            << index.Name() << " trial=" << trial << " k=" << probes[p];
        ASSERT_EQ(count_scalar[p], want.size())
            << index.Name() << " trial=" << trial << " k=" << probes[p];
      }
      ForEachPath([&](NodeSearchPath path) {
        if (path == NodeSearchPath::kScalar) return;
        index.FindBatch(probes, find_path);
        index.EqualRangeBatch(probes, range_path);
        index.CountEqualBatch(probes, count_path);
        ASSERT_EQ(find_path, find_scalar)
            << index.Name() << " trial=" << trial << " n=" << n << " path="
            << NodeSearchPathName(path);
        ASSERT_EQ(range_path, range_scalar)
            << index.Name() << " trial=" << trial << " path="
            << NodeSearchPathName(path);
        ASSERT_EQ(count_path, count_scalar)
            << index.Name() << " trial=" << trial << " path="
            << NodeSearchPathName(path);
        index.LowerBoundBatch(probes, lower_path);
        ASSERT_EQ(lower_path, lower_scalar)
            << index.Name() << " trial=" << trial << " path="
            << NodeSearchPathName(path);
      });
    }
    SetNodeSearchPath(DetectedNodeSearchPath());
  }
}

}  // namespace
}  // namespace cssidx
