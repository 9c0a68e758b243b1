#include "core/builder.h"

#include <type_traits>

#include "baselines/binary_search.h"
#include "baselines/binary_tree.h"
#include "baselines/bplus_tree.h"
#include "baselines/chained_hash.h"
#include "baselines/interpolation_search.h"
#include "baselines/t_tree.h"
#include "core/full_css_tree.h"
#include "core/level_css_tree.h"
#include "core/partitioned_index.h"
#include "util/macros.h"

namespace cssidx {

namespace {

/// Calls `fn.template operator()<M>()` for the menu entry matching
/// `entries`, or returns an empty handle.
template <typename KeyT, typename Fn>
BasicAnyIndex<KeyT> DispatchNodeSize(int entries, Fn&& fn) {
  switch (entries) {
    case 4:
      return fn.template operator()<4>();
    case 8:
      return fn.template operator()<8>();
    case 16:
      return fn.template operator()<16>();
    case 24:
      return fn.template operator()<24>();
    case 32:
      return fn.template operator()<32>();
    case 64:
      return fn.template operator()<64>();
    case 128:
      return fn.template operator()<128>();
    default:
      return {};
  }
}

}  // namespace

template <typename KeyT>
BasicAnyIndex<KeyT> BuildIndexT(const IndexSpec& spec, const KeyT* keys,
                                size_t n) {
  if (!spec.OnMenu()) return {};
  // Key width is a structure knob: a spec of the other width is off this
  // entry point's menu (the caller picked the wrong facade).
  if (spec.key_width() != static_cast<int>(sizeof(KeyT))) return {};
  // Partitioned specs recurse: the composite builds one inner index per
  // key-range shard through this same entry point.
  if (spec.partitioned()) return BuildPartitionedIndexT<KeyT>(spec, keys, n);
  const int m = spec.node_entries();
  switch (spec.method()) {
    case Method::kBinarySearch:
      return MakeOrderedAnyIndexFor<KeyT>(
          spec, BasicBinarySearchIndex<KeyT>(keys, n));
    case Method::kTreeBinarySearch:
      return MakeOrderedAnyIndexFor<KeyT>(spec,
                                          BasicBinaryTreeIndex<KeyT>(keys, n));
    case Method::kInterpolation:
      return MakeOrderedAnyIndexFor<KeyT>(
          spec, BasicInterpolationSearchIndex<KeyT>(keys, n));
    case Method::kTTree:
      return DispatchNodeSize<KeyT>(m, [&]<int M>() {
        return MakeOrderedAnyIndexFor<KeyT>(spec, TTreeIndex<M, KeyT>(keys, n));
      });
    case Method::kBPlusTree:
      return DispatchNodeSize<KeyT>(m, [&]<int M>() {
        return MakeOrderedAnyIndexFor<KeyT>(spec, BPlusTree<M, KeyT>(keys, n));
      });
    case Method::kFullCss:
      return DispatchNodeSize<KeyT>(m, [&]<int M>() {
        return MakeOrderedAnyIndexFor<KeyT>(
            spec, BasicCssTree<KeyT, M, M + 1>(keys, n));
      });
    case Method::kLevelCss:
      return DispatchNodeSize<KeyT>(m, [&]<int M>() -> BasicAnyIndex<KeyT> {
        if constexpr (IsPowerOfTwo(M)) {
          return MakeOrderedAnyIndexFor<KeyT>(
              spec, BasicCssTree<KeyT, M, M>(keys, n));
        } else {
          return {};
        }
      });
    case Method::kHash:
      // The chained-hash bucket layout is 4-byte only; OnMenu rejects
      // hash at width 8, so the 64-bit instantiation never reaches here.
      if constexpr (std::is_same_v<KeyT, Key>) {
        return MakeHashAnyIndex(
            spec,
            ChainedHashIndex<kCacheLineBytes>(keys, n, spec.hash_dir_bits()),
            keys);
      } else {
        return {};
      }
  }
  return {};
}

template AnyIndex BuildIndexT<Key>(const IndexSpec&, const Key*, size_t);
template AnyIndex64 BuildIndexT<Key64>(const IndexSpec&, const Key64*,
                                       size_t);

AnyIndex BuildIndex(const IndexSpec& spec, const Key* keys, size_t n) {
  return BuildIndexT<Key>(spec, keys, n);
}

AnyIndex BuildIndex(const IndexSpec& spec, const std::vector<Key>& keys) {
  return BuildIndexT<Key>(spec, keys.data(), keys.size());
}

AnyIndex64 BuildIndex64(const IndexSpec& spec, const Key64* keys, size_t n) {
  return BuildIndexT<Key64>(spec, keys, n);
}

AnyIndex64 BuildIndex64(const IndexSpec& spec,
                        const std::vector<Key64>& keys) {
  return BuildIndexT<Key64>(spec, keys.data(), keys.size());
}

}  // namespace cssidx
