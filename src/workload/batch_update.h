#ifndef CSSIDX_WORKLOAD_BATCH_UPDATE_H_
#define CSSIDX_WORKLOAD_BATCH_UPDATE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

// OLAP batch maintenance (§2.2/§4.1.1): indexes are not updated in place;
// instead a batch of inserts and deletes is merged into the sorted key
// array and the directory is rebuilt from scratch. This module implements
// the merge; rebuild cost is what Figure 9 measures.

#include <algorithm>

namespace cssidx::workload {

/// One batch of inserts and deletes, templated on the key width — the
/// maintained-index lifecycle is identical for 4- and 8-byte keys.
template <typename KeyT>
struct BasicUpdateBatch {
  std::vector<KeyT> inserts;  // need not be sorted
  std::vector<KeyT> deletes;  // keys; every occurrence is removed
};

using UpdateBatch = BasicUpdateBatch<uint32_t>;
using UpdateBatch64 = BasicUpdateBatch<uint64_t>;

/// First position in [first, last) where `below` turns false (`below`
/// must partition the range), found by doubling steps from `first`:
/// O(log d) for an answer d positions in, so a walk made of many short
/// hops costs what the hops cost, not a full binary search each.
template <typename It, typename Pred>
It GallopPartitionPoint(It first, It last, Pred below) {
  size_t step = 1;
  while (step <= static_cast<size_t>(last - first) && below(first[step - 1])) {
    first += static_cast<std::ptrdiff_t>(step);
    step *= 2;
  }
  const size_t rest = std::min(step, static_cast<size_t>(last - first));
  return std::partition_point(first, first + static_cast<std::ptrdiff_t>(rest),
                              below);
}

/// ApplyBatch for callers that already hold SORTED insert/delete lists
/// (a precondition, not checked): same semantics as ApplyBatch, no copies
/// and no re-sort. The shard-incremental refresh path routes one globally
/// sorted batch into per-shard sub-ranges and merges each through this.
///
/// One pass over keys, deletes and inserts into one reserved output: the
/// keys between two batch events (the next delete, the next insert) are
/// copied as one block, so a small batch over a large array costs about
/// one memcpy of the array. Every occurrence of a deleted key is removed;
/// on equal values surviving keys precede inserts — exactly
/// std::merge(survivors, inserts). Only operator< is used, so a key type
/// whose equal values are distinguishable sees that tie order too.
template <typename KeyT>
std::vector<KeyT> ApplySortedBatch(std::span<const KeyT> sorted_keys,
                                   std::span<const KeyT> inserts,
                                   std::span<const KeyT> deletes) {
  std::vector<KeyT> out;
  out.reserve(sorted_keys.size() + inserts.size());
  auto key = sorted_keys.begin();
  auto ins = inserts.begin();
  auto del = deletes.begin();
  while (key != sorted_keys.end()) {
    // Copy the block of keys below the next delete and not above the
    // next insert: none of them is removed or preceded by an insert.
    auto stop = sorted_keys.end();
    if (del != deletes.end()) {
      const KeyT& d = *del;
      stop = GallopPartitionPoint(key, stop,
                                  [&d](const KeyT& k) { return k < d; });
    }
    if (ins != inserts.end()) {
      const KeyT& i = *ins;
      stop = GallopPartitionPoint(key, stop,
                                  [&i](const KeyT& k) { return !(i < k); });
    }
    out.insert(out.end(), key, stop);
    key = stop;
    if (key == sorted_keys.end()) break;
    if (ins != inserts.end() && *ins < *key) {
      out.push_back(*ins++);
    } else {
      // *del <= *key: drop the whole run equal to *del (none if *del is
      // absent), then move to the next delete.
      while (key != sorted_keys.end() && !(*del < *key)) ++key;
      ++del;
    }
  }
  out.insert(out.end(), ins, inserts.end());
  return out;
}

/// Non-template overload so existing callers keep deducing through
/// vector-to-span conversions.
inline std::vector<uint32_t> ApplySortedBatch(
    std::span<const uint32_t> sorted_keys, std::span<const uint32_t> inserts,
    std::span<const uint32_t> deletes) {
  return ApplySortedBatch<uint32_t>(sorted_keys, inserts, deletes);
}

/// Applies `batch` to `sorted_keys` and returns the new sorted array.
/// Deletes are applied first, then inserts (so inserting a deleted key
/// keeps it). Duplicate inserts are kept — the structures support
/// duplicates per §3.6. Runs in O(n + |batch| log n).
template <typename KeyT>
std::vector<KeyT> ApplyBatch(const std::vector<KeyT>& sorted_keys,
                             const BasicUpdateBatch<KeyT>& batch) {
  std::vector<KeyT> deletes = batch.deletes;
  std::sort(deletes.begin(), deletes.end());
  std::vector<KeyT> inserts = batch.inserts;
  std::sort(inserts.begin(), inserts.end());
  return ApplySortedBatch<KeyT>(sorted_keys, inserts, deletes);
}

/// Non-template overload so existing callers keep deducing (braced
/// argument lists included).
inline std::vector<uint32_t> ApplyBatch(const std::vector<uint32_t>& sorted_keys,
                                        const UpdateBatch& batch) {
  return ApplyBatch<uint32_t>(sorted_keys, batch);
}

/// Generates a random batch touching roughly `fraction` of the keys:
/// half deletes of existing keys, half fresh inserts.
UpdateBatch RandomBatch(const std::vector<uint32_t>& sorted_keys,
                        double fraction, uint64_t seed);

/// RandomBatch confined to the key range [lo, hi): deletes drawn from the
/// existing keys inside the range (none if the range holds no keys),
/// inserts drawn uniformly inside it. `fraction` still sizes the batch
/// relative to the WHOLE array, so localized and scattered batches of the
/// same fraction are comparable. This is the maintenance bench's
/// workload: a batch whose key locality lets a "part:K/" index rebuild
/// only one or two shards.
UpdateBatch RandomBatchInRange(const std::vector<uint32_t>& sorted_keys,
                               double fraction, uint32_t lo, uint32_t hi,
                               uint64_t seed);

}  // namespace cssidx::workload

#endif  // CSSIDX_WORKLOAD_BATCH_UPDATE_H_
