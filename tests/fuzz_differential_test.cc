// Randomized differential testing: many random configurations (size,
// distribution, node size), thousands of random probes, every method
// checked against every other and against the STL oracle — scalar and
// batched probes both — plus randomized batch-update/rebuild cycles where
// a plain std::vector is the model, driven through MaintainedIndex across
// the whole spec menu (shard-incremental part:K refresh included).
// Deterministic seeds; failures print the reproducing configuration.

#include <algorithm>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/maintained_index.h"
#include "core/range.h"
#include "gtest/gtest.h"
#include "spec_menu.h"
#include "util/rng.h"
#include "workload/batch_update.h"
#include "workload/key_gen.h"

namespace cssidx {
namespace {

std::vector<Key> RandomKeys(Pcg32& rng, size_t n) {
  switch (rng.Below(4)) {
    case 0:
      return workload::DistinctSortedKeys(n, rng.Next(), 1 + rng.Below(16));
    case 1:
      return workload::KeysWithDuplicates(n, 1 + rng.Below(64), rng.Next());
    case 2:
      return workload::LinearKeys(n, rng.Below(1000), 1 + rng.Below(8));
    default:
      return n >= 10 ? workload::ClusteredKeys(n, 1 + rng.Below(8), rng.Next())
                     : workload::DistinctSortedKeys(n, rng.Next(), 2);
  }
}

TEST(FuzzDifferential, AllMethodsAgreeWithOracle) {
  Pcg32 rng(0xfeedface);
  const std::vector<int> node_menu{4, 8, 16, 24, 32};
  for (int trial = 0; trial < 60; ++trial) {
    size_t n = rng.Below(3000);
    auto keys = RandomKeys(rng, n);
    n = keys.size();
    int node_entries = node_menu[rng.Below(
        static_cast<uint32_t>(node_menu.size()))];
    int hash_dir_bits = static_cast<int>(rng.Below(10));

    std::vector<AnyIndex> indexes;
    for (const IndexSpec& spec :
         test_menu::DefaultSpecs(node_entries, hash_dir_bits)) {
      AnyIndex index = BuildIndex(spec, keys);
      if (index) indexes.push_back(std::move(index));
    }
    ASSERT_GE(indexes.size(), 7u);  // level CSS may drop out on m=24

    uint32_t probe_ceiling = keys.empty() ? 100 : keys.back() + 3;
    std::vector<Key> probes(400);
    for (Key& k : probes) k = rng.Below(probe_ceiling);

    // STL oracle, computed once per probe.
    std::vector<int64_t> want_find(probes.size());
    std::vector<size_t> want_lower(probes.size());
    std::vector<size_t> want_count(probes.size());
    for (size_t p = 0; p < probes.size(); ++p) {
      auto lo = std::lower_bound(keys.begin(), keys.end(), probes[p]);
      auto hi = std::upper_bound(keys.begin(), keys.end(), probes[p]);
      bool present = lo != keys.end() && *lo == probes[p];
      want_find[p] =
          present ? static_cast<int64_t>(lo - keys.begin()) : kNotFound;
      want_lower[p] = static_cast<size_t>(lo - keys.begin());
      want_count[p] = static_cast<size_t>(hi - lo);
    }

    std::vector<int64_t> batch_find(probes.size());
    std::vector<size_t> batch_lower(probes.size());
    std::vector<PositionRange> batch_range(probes.size());
    std::vector<size_t> batch_count(probes.size());
    for (const AnyIndex& index : indexes) {
      // The batch entry points are the contract; the scalar calls they are
      // compared against are batches of one through the same virtual hop.
      index.FindBatch(probes, batch_find);
      index.LowerBoundBatch(probes, batch_lower);
      index.EqualRangeBatch(probes, batch_range);
      index.CountEqualBatch(probes, batch_count);
      for (size_t p = 0; p < probes.size(); ++p) {
        Key k = probes[p];
        ASSERT_EQ(batch_find[p], want_find[p])
            << index.Name() << " trial=" << trial << " n=" << n
            << " m=" << node_entries << " k=" << k;
        ASSERT_EQ(index.Find(k), want_find[p])
            << index.Name() << " trial=" << trial << " k=" << k;
        ASSERT_EQ(index.CountEqual(k), want_count[p])
            << index.Name() << " trial=" << trial << " k=" << k;
        ASSERT_EQ(batch_count[p], want_count[p])
            << index.Name() << " trial=" << trial << " k=" << k;
        // Expected duplicate-run span: an absent key's empty span sits at
        // its insertion point.
        ASSERT_EQ(batch_range[p],
                  (PositionRange{want_lower[p], want_lower[p] + want_count[p]}))
            << index.Name() << " trial=" << trial << " k=" << k;
        ASSERT_EQ(index.EqualRange(k), batch_range[p])
            << index.Name() << " trial=" << trial << " k=" << k;
        ASSERT_EQ(batch_lower[p], want_lower[p])
            << index.Name() << " trial=" << trial << " k=" << k;
        ASSERT_EQ(index.LowerBound(k), want_lower[p])
            << index.Name() << " trial=" << trial << " k=" << k;
      }
    }
  }
}

TEST(FuzzDifferential, RandomBoundRangesAgreeWithOracle) {
  // Random [lo, hi) bound pairs — inverted, empty, and wide ones included
  // — staged through the batched LowerBound kernels the way the engine
  // stages SelectRange bounds, checked against the STL oracle.
  Pcg32 rng(0x5eed);
  for (int trial = 0; trial < 20; ++trial) {
    auto keys = RandomKeys(rng, 100 + rng.Below(3000));
    uint32_t ceiling = keys.empty() ? 100 : keys.back() + 5;

    std::vector<std::pair<Key, Key>> bounds;
    for (int b = 0; b < 100; ++b) {
      Key lo = rng.Below(ceiling);
      Key hi = rng.Below(ceiling);
      if (b % 5 == 0) hi = lo;           // empty
      if (b % 7 == 0 && lo < hi) std::swap(lo, hi);  // inverted
      bounds.push_back({lo, hi});
    }
    std::vector<Key> staged;
    for (auto [lo, hi] : bounds) {
      staged.push_back(lo);
      staged.push_back(hi);
    }

    for (const IndexSpec& spec : test_menu::DefaultSpecs(16, 8)) {
      AnyIndex index = BuildIndex(spec, keys);
      ASSERT_TRUE(index) << spec.ToString();
      std::vector<size_t> pos(staged.size());
      index.LowerBoundBatch(staged, pos);
      for (size_t b = 0; b < bounds.size(); ++b) {
        auto [lo, hi] = bounds[b];
        size_t want_begin = static_cast<size_t>(
            std::lower_bound(keys.begin(), keys.end(), lo) - keys.begin());
        size_t want_end = static_cast<size_t>(
            std::lower_bound(keys.begin(), keys.end(), hi) - keys.begin());
        if (hi <= lo) want_end = want_begin;  // empty/inverted clamp
        PositionRange got = hi <= lo
                                ? PositionRange{pos[2 * b], pos[2 * b]}
                                : PositionRange{pos[2 * b], pos[2 * b + 1]};
        ASSERT_EQ(got, (PositionRange{want_begin, want_end}))
            << spec.ToString() << " trial=" << trial << " lo=" << lo
            << " hi=" << hi;
        // The scalar helper must agree with the staged-bounds path (it
        // anchors degenerate ranges at 0 rather than the insertion point,
        // so only live ranges compare positionally).
        if (hi > lo) {
          ASSERT_EQ(HalfOpenRange(index, lo, hi), got)
              << spec.ToString() << " trial=" << trial << " lo=" << lo
              << " hi=" << hi;
        }
      }
    }
  }
}

TEST(FuzzDifferential, BatchProbesAgreeAtEveryBatchSize) {
  // The group kernels have three internal regimes (full groups, the
  // sub-group remainder, chunk boundaries); sweep batch sizes across them.
  Pcg32 rng(0xba7c4);
  auto keys = workload::KeysWithDuplicates(5000, 700, 42);
  for (const IndexSpec& spec : test_menu::DefaultSpecs(16, 8)) {
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index);
    for (size_t batch : {size_t{1}, size_t{2}, size_t{7}, size_t{8},
                         size_t{9}, size_t{64}, size_t{255}, size_t{256},
                         size_t{257}, size_t{1000}}) {
      std::vector<Key> probes(batch);
      for (Key& k : probes) k = rng.Below(keys.back() + 3);
      std::vector<int64_t> found(batch);
      std::vector<size_t> lower(batch);
      index.FindBatch(probes, found);
      index.LowerBoundBatch(probes, lower);
      for (size_t i = 0; i < batch; ++i) {
        ASSERT_EQ(found[i], index.Find(probes[i]))
            << index.Name() << " batch=" << batch << " i=" << i;
        ASSERT_EQ(lower[i], index.LowerBound(probes[i]))
            << index.Name() << " batch=" << batch << " i=" << i;
      }
    }
  }
}

TEST(FuzzDifferential, BatchUpdateCyclesMatchVectorModel) {
  Pcg32 rng(0xc0ffee);
  for (int trial = 0; trial < 10; ++trial) {
    auto keys = workload::DistinctSortedKeys(500 + rng.Below(2000),
                                             rng.Next(), 3);
    std::vector<Key> model = keys;  // the oracle state
    MaintainedIndex index(IndexSpec(Method::kFullCss, 8), std::move(keys));

    for (int round = 0; round < 15; ++round) {
      workload::UpdateBatch batch;
      uint32_t dels = rng.Below(20);
      for (uint32_t i = 0; i < dels && !model.empty(); ++i) {
        batch.deletes.push_back(
            model[rng.Below(static_cast<uint32_t>(model.size()))]);
      }
      uint32_t ins = rng.Below(20);
      for (uint32_t i = 0; i < ins; ++i) {
        batch.inserts.push_back(rng.Below(1u << 16));
      }
      model = workload::ApplyBatch(model, batch);
      index.ApplyBatch(batch);

      auto snap = index.Snapshot();
      ASSERT_EQ(snap->keys(), model) << "trial=" << trial
                                     << " round=" << round;
      // Spot-probe the rebuilt index.
      for (int p = 0; p < 50; ++p) {
        Key k = rng.Below(1u << 16);
        auto lo = std::lower_bound(model.begin(), model.end(), k);
        ASSERT_EQ(snap->index().LowerBound(k),
                  static_cast<size_t>(lo - model.begin()))
            << "trial=" << trial << " round=" << round << " k=" << k;
      }
    }
  }
}

TEST(FuzzDifferential, MaintainedUpdateProbeInterleavingAcrossSpecMenu) {
  // Random update batches interleaved with random probe batches, every
  // spec on the shared menu (partitioned variants included), a sorted
  // vector as the model. This is the maintenance twin of
  // AllMethodsAgreeWithOracle: every op, after every batch, at a random
  // batch size.
  Pcg32 rng(0xdead5eed);
  for (const IndexSpec& spec : test_menu::DefaultSpecs(16, 6)) {
    std::vector<Key> model = RandomKeys(rng, 200 + rng.Below(1500));
    MaintainedIndex index(spec, model);
    ASSERT_TRUE(index.ok()) << spec.ToString();

    for (int round = 0; round < 6; ++round) {
      workload::UpdateBatch batch;
      if (round != 2) {  // round 2 probes an unchanged version
        uint32_t dels = rng.Below(40);
        for (uint32_t i = 0; i < dels && !model.empty(); ++i) {
          batch.deletes.push_back(
              model[rng.Below(static_cast<uint32_t>(model.size()))]);
        }
        uint32_t ins = rng.Below(40);
        for (uint32_t i = 0; i < ins; ++i) {
          batch.inserts.push_back(rng.Below(1u << 14));
        }
      }
      model = workload::ApplyBatch(model, batch);
      index.ApplyBatch(batch);
      ASSERT_EQ(index.Snapshot()->keys(), model)
          << spec.ToString() << " round=" << round;

      size_t n_probes = 1 + rng.Below(300);
      uint32_t ceiling = model.empty() ? 100 : model.back() + 3;
      std::vector<Key> probes(n_probes);
      for (Key& k : probes) k = rng.Below(ceiling);
      std::vector<int64_t> found(n_probes);
      std::vector<size_t> lower(n_probes);
      std::vector<PositionRange> ranges(n_probes);
      std::vector<size_t> counts(n_probes);
      index.FindBatch(probes, found);
      index.LowerBoundBatch(probes, lower);
      index.EqualRangeBatch(probes, ranges);
      index.CountEqualBatch(probes, counts);
      for (size_t p = 0; p < n_probes; ++p) {
        auto lo = std::lower_bound(model.begin(), model.end(), probes[p]);
        auto hi = std::upper_bound(model.begin(), model.end(), probes[p]);
        auto want_lower = static_cast<size_t>(lo - model.begin());
        auto want_count = static_cast<size_t>(hi - lo);
        int64_t want_find = want_count > 0
                                ? static_cast<int64_t>(want_lower)
                                : kNotFound;
        ASSERT_EQ(found[p], want_find)
            << spec.ToString() << " round=" << round << " k=" << probes[p];
        ASSERT_EQ(counts[p], want_count)
            << spec.ToString() << " round=" << round << " k=" << probes[p];
        ASSERT_EQ(ranges[p],
                  (PositionRange{want_lower, want_lower + want_count}))
            << spec.ToString() << " round=" << round << " k=" << probes[p];
        ASSERT_EQ(lower[p], want_lower)
            << spec.ToString() << " round=" << round << " k=" << probes[p];
      }
    }
  }
}

TEST(FuzzDifferential, ExtremeValueKeys) {
  // Keys hugging 0 and UINT32_MAX, every method, scalar and batched.
  std::vector<Key> keys{0,          1,          2,          100,
                        0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffffu};
  for (const IndexSpec& spec : test_menu::DefaultSpecs(4, 3)) {
    AnyIndex index = BuildIndex(spec, keys);
    ASSERT_TRUE(index) << spec.ToString();
    std::vector<int64_t> found(keys.size());
    index.FindBatch(keys, found);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(index.Find(keys[i]), static_cast<int64_t>(i))
          << index.Name();
      ASSERT_EQ(found[i], static_cast<int64_t>(i)) << index.Name();
    }
    ASSERT_EQ(index.Find(3), kNotFound) << index.Name();
    ASSERT_EQ(index.LowerBound(0xffffffffu), 7u) << index.Name();
    ASSERT_EQ(index.LowerBound(0), 0u) << index.Name();
  }
}

}  // namespace
}  // namespace cssidx
