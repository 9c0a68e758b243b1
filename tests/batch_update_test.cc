#include "workload/batch_update.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"
#include "workload/key_gen.h"

namespace cssidx::workload {
namespace {

TEST(BatchUpdate, InsertOnly) {
  std::vector<uint32_t> keys{10, 20, 30};
  UpdateBatch batch;
  batch.inserts = {25, 5, 35};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result, (std::vector<uint32_t>{5, 10, 20, 25, 30, 35}));
}

TEST(BatchUpdate, DeleteOnly) {
  std::vector<uint32_t> keys{10, 20, 30, 40};
  UpdateBatch batch;
  batch.deletes = {20, 40};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result, (std::vector<uint32_t>{10, 30}));
}

TEST(BatchUpdate, DeleteRemovesAllOccurrences) {
  std::vector<uint32_t> keys{10, 20, 20, 20, 30};
  UpdateBatch batch;
  batch.deletes = {20};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result, (std::vector<uint32_t>{10, 30}));
}

TEST(BatchUpdate, InsertAfterDeleteKeepsKey) {
  std::vector<uint32_t> keys{10, 20, 30};
  UpdateBatch batch;
  batch.deletes = {20};
  batch.inserts = {20};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result, (std::vector<uint32_t>{10, 20, 30}));
}

TEST(BatchUpdate, DuplicateInsertsKept) {
  std::vector<uint32_t> keys{10};
  UpdateBatch batch;
  batch.inserts = {10, 10};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result, (std::vector<uint32_t>{10, 10, 10}));
}

TEST(BatchUpdate, DeleteAbsentKeyIsNoop) {
  std::vector<uint32_t> keys{10, 30};
  UpdateBatch batch;
  batch.deletes = {20};
  EXPECT_EQ(ApplyBatch(keys, batch), keys);
}

TEST(BatchUpdate, EmptyEverything) {
  EXPECT_TRUE(ApplyBatch({}, {}).empty());
  std::vector<uint32_t> keys{1, 2};
  EXPECT_EQ(ApplyBatch(keys, {}), keys);
}

TEST(BatchUpdate, ResultAlwaysSorted) {
  auto keys = DistinctSortedKeys(5000, 3, 4);
  UpdateBatch batch = RandomBatch(keys, 0.2, 99);
  auto result = ApplyBatch(keys, batch);
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end()));
}

TEST(BatchUpdate, RandomBatchTouchesRequestedFraction) {
  auto keys = DistinctSortedKeys(10000, 3, 4);
  UpdateBatch batch = RandomBatch(keys, 0.1, 7);
  EXPECT_EQ(batch.deletes.size() + batch.inserts.size(), 1000u);
}

TEST(BatchUpdate, SizeAccounting) {
  auto keys = DistinctSortedKeys(2000, 3, 4);
  UpdateBatch batch;
  batch.inserts = {keys.back() + 1, keys.back() + 2};
  batch.deletes = {keys[0], keys[1], keys[2]};
  auto result = ApplyBatch(keys, batch);
  EXPECT_EQ(result.size(), keys.size() - 3 + 2);
}

TEST(BatchUpdate, RandomBatchInRangeStaysInRangeAndSizesLikeRandomBatch) {
  auto keys = DistinctSortedKeys(10000, 3, 4);
  uint32_t lo = keys[1000];
  uint32_t hi = keys[2000];
  UpdateBatch batch = RandomBatchInRange(keys, 0.05, lo, hi, 7);
  // Sized against the WHOLE array, like RandomBatch, so localized and
  // scattered batches of one fraction are comparable.
  EXPECT_EQ(batch.deletes.size() + batch.inserts.size(), 500u);
  for (uint32_t k : batch.inserts) {
    EXPECT_GE(k, lo);
    EXPECT_LT(k, hi);
  }
  for (uint32_t k : batch.deletes) {
    EXPECT_GE(k, lo);
    EXPECT_LT(k, hi);
    EXPECT_TRUE(std::binary_search(keys.begin(), keys.end(), k));
  }
}

TEST(BatchUpdate, RandomBatchInRangeWithNoExistingKeysIsInsertOnly) {
  auto keys = DistinctSortedKeys(1000, 5, 4);
  uint32_t beyond = keys.back() + 10;
  UpdateBatch batch = RandomBatchInRange(keys, 0.1, beyond, beyond + 50, 11);
  EXPECT_TRUE(batch.deletes.empty());  // nothing in range to delete
  EXPECT_EQ(batch.inserts.size(), 50u);
}

// ---------------------------------------------------------------------
// The merge's own oracle. workload::ApplyBatch is the model every
// maintained-index, serving and fuzz suite diffs against, so a bug in
// ApplySortedBatch would pass them all; here it is checked against the
// straightforward formulation instead: drop every key found (binary
// search) in the deletes, then std::merge the survivors with the inserts.

template <typename KeyT>
std::vector<KeyT> ReferenceApplySortedBatch(const std::vector<KeyT>& keys,
                                            const std::vector<KeyT>& inserts,
                                            const std::vector<KeyT>& deletes) {
  std::vector<KeyT> survivors;
  for (KeyT k : keys) {
    if (!std::binary_search(deletes.begin(), deletes.end(), k)) {
      survivors.push_back(k);
    }
  }
  std::vector<KeyT> result(survivors.size() + inserts.size());
  std::merge(survivors.begin(), survivors.end(), inserts.begin(),
             inserts.end(), result.begin());
  return result;
}

/// 10,000 seeded trials over a small value domain (so duplicate runs, a
/// key both deleted and reinserted, and deletes of absent keys are
/// common), with empty sides, inserts below or above every key, and every
/// fourth trial pinned against the top of the key width. Counts each case
/// so the test fails if the generator stops producing one.
template <typename KeyT>
void ExpectMergeMatchesReference(uint64_t seed) {
  Pcg32 rng(seed);
  struct {
    int dup_runs = 0, deleted_runs = 0, reinserted = 0, absent_deletes = 0,
        empty_keys = 0, empty_inserts = 0, empty_deletes = 0,
        insert_below = 0, insert_above = 0, top_of_width = 0;
  } seen;
  for (int trial = 0; trial < 10'000; ++trial) {
    const uint32_t domain = 1 + rng.Below(48);
    const bool top = trial % 4 == 0;
    const KeyT offset =
        top ? static_cast<KeyT>(std::numeric_limits<KeyT>::max() - domain - 3)
            : static_cast<KeyT>(rng.Next64());
    auto draw = [&](uint32_t lo, uint32_t hi) {
      return static_cast<KeyT>(offset + lo + rng.Below(hi - lo));
    };
    auto size = [&] { return rng.Below(4) == 0 ? 0u : rng.Below(40); };
    // Keys live in [offset + 2, offset + domain + 2); inserts and deletes
    // may also fall just outside, below or above every key.
    std::vector<KeyT> keys(size()), inserts(size()), deletes(size());
    for (KeyT& k : keys) k = draw(2, domain + 2);
    for (KeyT& k : inserts) k = draw(0, domain + 4);
    for (KeyT& k : deletes) k = draw(1, domain + 3);
    if (trial % 3 == 0 && !deletes.empty()) {
      inserts.push_back(deletes[rng.Below(static_cast<uint32_t>(
          deletes.size()))]);
    }
    std::sort(keys.begin(), keys.end());
    std::sort(inserts.begin(), inserts.end());
    std::sort(deletes.begin(), deletes.end());

    const std::vector<KeyT> got = ApplySortedBatch<KeyT>(keys, inserts,
                                                         deletes);
    ASSERT_EQ(got, ReferenceApplySortedBatch(keys, inserts, deletes))
        << "width=" << sizeof(KeyT) << " seed=" << seed
        << " trial=" << trial;

    auto has = [](const std::vector<KeyT>& v, KeyT k) {
      return std::binary_search(v.begin(), v.end(), k);
    };
    seen.top_of_width += top;
    seen.empty_keys += keys.empty();
    seen.empty_inserts += inserts.empty();
    seen.empty_deletes += deletes.empty();
    seen.dup_runs += std::adjacent_find(keys.begin(), keys.end()) != keys.end();
    bool deleted_run = false, reinserted = false, absent = false;
    for (size_t i = 0; i + 1 < keys.size(); ++i) {
      deleted_run |= keys[i] == keys[i + 1] && has(deletes, keys[i]);
    }
    for (KeyT d : deletes) {
      reinserted |= has(keys, d) && has(inserts, d);
      absent |= !has(keys, d);
    }
    seen.deleted_runs += deleted_run;
    seen.reinserted += reinserted;
    seen.absent_deletes += absent;
    if (!keys.empty() && !inserts.empty()) {
      seen.insert_below += inserts.front() < keys.front();
      seen.insert_above += inserts.back() > keys.back();
    }
  }
  for (int count : {seen.dup_runs, seen.deleted_runs, seen.reinserted,
                    seen.absent_deletes, seen.empty_keys, seen.empty_inserts,
                    seen.empty_deletes, seen.insert_below, seen.insert_above,
                    seen.top_of_width}) {
    EXPECT_GE(count, 100);
  }
}

/// A key whose equal values stay distinguishable: ordered by `value`
/// alone, `tag` records where the element came from, so the output shows
/// which side of a tie went first.
struct Tagged {
  uint32_t value;
  uint32_t tag;
  friend bool operator<(const Tagged& a, const Tagged& b) {
    return a.value < b.value;
  }
};

std::vector<std::pair<uint32_t, uint32_t>> Pairs(const std::vector<Tagged>& v) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (const Tagged& t : v) out.emplace_back(t.value, t.tag);
  return out;
}

TEST(BatchUpdate, OnePassMergeKeepsSurvivorsBeforeInsertsOnTies) {
  Pcg32 rng(0x7a65);
  for (int trial = 0; trial < 2'000; ++trial) {
    const uint32_t domain = 1 + rng.Below(12);
    auto side = [&](uint32_t tag_base) {
      std::vector<uint32_t> values(rng.Below(24));
      for (uint32_t& v : values) v = rng.Below(domain);
      std::sort(values.begin(), values.end());
      std::vector<Tagged> out;
      for (uint32_t v : values) {
        out.push_back({v, tag_base + static_cast<uint32_t>(out.size())});
      }
      return out;
    };
    const std::vector<Tagged> keys = side(0), inserts = side(1'000),
                              deletes = side(2'000);
    ASSERT_EQ(Pairs(ApplySortedBatch<Tagged>(keys, inserts, deletes)),
              Pairs(ReferenceApplySortedBatch(keys, inserts, deletes)))
        << "trial=" << trial;
  }
}

TEST(BatchUpdate, OnePassMergeMatchesReferenceWidth4) {
  ExpectMergeMatchesReference<uint32_t>(0x4a11);
}

TEST(BatchUpdate, OnePassMergeMatchesReferenceWidth8) {
  ExpectMergeMatchesReference<uint64_t>(0x8a11);
}

}  // namespace
}  // namespace cssidx::workload
