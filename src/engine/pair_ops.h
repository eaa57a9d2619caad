#ifndef ST4ML_ENGINE_PAIR_OPS_H_
#define ST4ML_ENGINE_PAIR_OPS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "accel/hash_mix.h"
#include "accel/kernels.h"
#include "common/status.h"
#include "engine/append_only_map.h"
#include "engine/dataset.h"
#include "engine/mp/distributed.h"

namespace st4ml {

/// Hash for std::pair keys (ReduceByKey over composite keys). Defined as
/// exactly accel::HashCombine of the component hashes — the boost-style
/// combine this used to be was weak for low-entropy components (dense cell
/// ids x small hour bins skewed `hash % num_targets` bucketing); the
/// SplitMix64 finalizer restores full avalanche, and the batched
/// CombineHashes kernel reproduces it bit-for-bit (accel/hash_mix.h).
struct PairHash {
  template <typename A, typename B>
  size_t operator()(const std::pair<A, B>& p) const {
    uint64_t h1 = static_cast<uint64_t>(std::hash<A>{}(p.first));
    uint64_t h2 = static_cast<uint64_t>(std::hash<B>{}(p.second));
    return static_cast<size_t>(HashCombine(h1, h2));
  }
};

namespace internal {

/// Ordered + equality-comparable keys take the fast shuffle paths: their
/// output order is normalized by a final key sort, so the intermediate
/// aggregation is free to use the insertion-ordered AppendOnlyMap. Other
/// keys fall back to std::unordered_map with the seed's exact insertion
/// sequence (their output order IS the map's iteration order).
template <typename K>
constexpr bool kOrderedKey = requires(const K& a, const K& b) {
  a < b;
  a == b;
};

/// Sorts a keyed partition by key when the key type is ordered, making
/// shuffle output deterministic regardless of hash-map iteration order.
template <typename K, typename V>
void SortByKeyIfOrdered(std::vector<std::pair<K, V>>* part) {
  if constexpr (kOrderedKey<K>) {
    std::sort(part->begin(), part->end(),
              [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
                return a.first < b.first;
              });
  }
}

/// A map-side shuffle output: one source partition's records grouped by
/// target partition. `records` holds the partition's pairs permuted so that
/// all pairs bound for target t are contiguous at
/// [offsets[t], offsets[t+1]); within a bucket the source order is
/// preserved (the grouping is a stable counting sort). Each record's target
/// hash is computed exactly once, map-side.
template <typename K, typename V>
struct BucketedPartition {
  std::vector<std::pair<K, V>> records;
  std::vector<size_t> offsets;  // num_targets + 1 entries

  /// The bucket of pairs bound for `target`, as a [begin, end) range.
  std::pair<std::pair<K, V>*, std::pair<K, V>*> bucket(size_t target) {
    return {records.data() + offsets[target],
            records.data() + offsets[target + 1]};
  }
  size_t bucket_size(size_t target) const {
    return offsets[target + 1] - offsets[target];
  }
};

/// Stable counting sort of `input` into `num_targets` buckets keyed by
/// `Hash{}(key) % num_targets` — the map-side bucketing pass. Each record
/// is hashed exactly once and copied (or moved, when `input` is an rvalue)
/// exactly once into its bucket slot.
/// True when the map-side bucketing can hash keys in batches: the hasher is
/// PairHash over a std::pair key, so the combine step lifts out of the
/// per-record loop into the CombineHashes kernel (the component std::hash
/// calls stay scalar — for integral components they are trivial).
template <typename K, typename Hash>
constexpr bool kBatchablePairHash = false;
template <typename A, typename B>
constexpr bool kBatchablePairHash<std::pair<A, B>, PairHash> = true;

template <typename K, typename V, typename Hash, typename In>
BucketedPartition<K, V> BucketByTarget(In&& input, size_t num_targets) {
  constexpr bool kConsume = !std::is_lvalue_reference_v<In>;
  BucketedPartition<K, V> out;
  std::vector<uint32_t> targets(input.size());
  std::vector<size_t> counts(num_targets, 0);
  if constexpr (kBatchablePairHash<K, Hash>) {
    // Columnar fast path: component hashes into h1/h2 columns a chunk at a
    // time, one CombineHashes kernel call per chunk, scalar mod. Produces
    // exactly the per-record targets (PairHash IS HashCombine).
    constexpr size_t kChunk = 2048;
    std::array<uint64_t, kChunk> h1, h2, combined;
    const accel::KernelBackend& kernels = accel::Active();
    for (size_t base = 0; base < input.size(); base += kChunk) {
      const size_t len = std::min(kChunk, input.size() - base);
      for (size_t i = 0; i < len; ++i) {
        const K& key = input[base + i].first;
        h1[i] = static_cast<uint64_t>(
            std::hash<typename K::first_type>{}(key.first));
        h2[i] = static_cast<uint64_t>(
            std::hash<typename K::second_type>{}(key.second));
      }
      kernels.CombineHashes(h1.data(), h2.data(), len, combined.data());
      accel::BackendRegistry::Instance().CountBatch(len);
      for (size_t i = 0; i < len; ++i) {
        targets[base + i] = static_cast<uint32_t>(
            static_cast<size_t>(combined[i]) % num_targets);
        ++counts[targets[base + i]];
      }
    }
  } else {
    accel::BackendRegistry::Instance().CountFallback(input.size());
    for (size_t i = 0; i < input.size(); ++i) {
      targets[i] = static_cast<uint32_t>(Hash{}(input[i].first) % num_targets);
      ++counts[targets[i]];
    }
  }
  out.offsets.resize(num_targets + 1, 0);
  for (size_t t = 0; t < num_targets; ++t) {
    out.offsets[t + 1] = out.offsets[t] + counts[t];
  }
  std::vector<size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  out.records.resize(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    if constexpr (kConsume) {
      out.records[cursor[targets[i]]++] = std::move(input[i]);
    } else {
      out.records[cursor[targets[i]]++] = input[i];
    }
  }
  return out;
}

/// What one map-side shuffle task hands back: the bucketed partition plus
/// its record/byte accounting, all of it in one value so a distributed run
/// can ship the whole thing through the serialized seam and fold the
/// counters driver-side exactly like the in-process run does.
template <typename K, typename V>
struct MapShuffleResult {
  BucketedPartition<K, V> bucketed;
  uint64_t records = 0;
  uint64_t bytes = 0;
};

}  // namespace internal

namespace mp {

/// Shuffle bucket wire format (DESIGN.md §14): the per-target buckets a map
/// task produced, exactly as BucketByTarget laid them out — records then
/// offsets. Decode re-validates the layout invariants (monotone offsets
/// ending at the record count) so corrupt bytes can never drive bucket()
/// out of bounds.
template <typename K, typename V>
struct WireCodec<st4ml::internal::BucketedPartition<K, V>,
                 std::enable_if_t<kHasWireCodec<std::pair<K, V>>>> {
  static void Encode(const st4ml::internal::BucketedPartition<K, V>& v,
                     std::string* out) {
    WireCodec<std::vector<std::pair<K, V>>>::Encode(v.records, out);
    WireCodec<std::vector<size_t>>::Encode(v.offsets, out);
  }
  static Status Decode(WireCursor* cur,
                       st4ml::internal::BucketedPartition<K, V>* out) {
    using RecordVec = std::vector<std::pair<K, V>>;
    ST4ML_RETURN_IF_ERROR(WireCodec<RecordVec>::Decode(cur, &out->records));
    ST4ML_RETURN_IF_ERROR(
        WireCodec<std::vector<size_t>>::Decode(cur, &out->offsets));
    if (out->offsets.empty() || out->offsets.front() != 0 ||
        out->offsets.back() != out->records.size() ||
        !std::is_sorted(out->offsets.begin(), out->offsets.end())) {
      return Status::Corruption("mp shuffle bucket offsets malformed");
    }
    return Status::Ok();
  }
};

template <typename K, typename V>
struct WireCodec<st4ml::internal::MapShuffleResult<K, V>,
                 std::enable_if_t<kHasWireCodec<std::pair<K, V>>>> {
  static void Encode(const st4ml::internal::MapShuffleResult<K, V>& v,
                     std::string* out) {
    AppendRaw(out, v.records);
    AppendRaw(out, v.bytes);
    WireCodec<st4ml::internal::BucketedPartition<K, V>>::Encode(v.bucketed,
                                                                out);
  }
  static Status Decode(WireCursor* cur,
                       st4ml::internal::MapShuffleResult<K, V>* out) {
    ST4ML_RETURN_IF_ERROR(ReadRaw(cur, &out->records));
    ST4ML_RETURN_IF_ERROR(ReadRaw(cur, &out->bytes));
    return WireCodec<st4ml::internal::BucketedPartition<K, V>>::Decode(
        cur, &out->bucketed);
  }
};

}  // namespace mp

/// Spark's reduceByKey: map-side combine inside each partition, then a hash
/// shuffle of the combined pairs, then a target-side reduce. Only the
/// combined pairs cross the "network", and the metrics account for exactly
/// those records.
///
/// The shuffle is bucketed map-side: each source partition combines its
/// pairs, counting-sorts them into per-target buckets in one pass (one hash
/// per record), and folds its shuffle-byte sum in the same task; each
/// target then merges only its own buckets — O(records) total instead of
/// the O(partitions x records) of a target-side rescan.
///
/// Determinism contract (identical to the seed's rescan shuffle): per key,
/// values are reduced in partition scan order map-side and in source
/// partition order target-side. For ordered keys both sides aggregate in an
/// insertion-ordered AppendOnlyMap and only the final unique-key output is
/// sorted; unordered keys take a std::unordered_map path whose insertion
/// sequence replicates the rescan's exactly.
///
/// Failure contract: a failing task (a throwing reducer, an injected engine
/// fault) surfaces as a Status; nothing throws.
template <typename K, typename V, typename Reduce,
          typename Hash = std::hash<K>>
StatusOr<Dataset<std::pair<K, V>>> TryReduceByKey(
    const Dataset<std::pair<K, V>>& ds, Reduce reduce) {
  size_t n = ds.num_partitions();
  if (n == 0) return ds;
  const auto& ctx = ds.context();
  ScopedSpan op(ctx->tracer(), span_category::kOperation, "reduce_by_key");

  // Map side: combine, bucket by target, and account shuffle volume. Under
  // a distributed executor the whole MapShuffleResult (per-target buckets +
  // accounting) crosses the socket; the local backend stores it directly.
  using MapResult = internal::MapShuffleResult<K, V>;
  std::vector<internal::BucketedPartition<K, V>> bucketed(n);
  std::vector<uint64_t> partial_records(n, 0);
  std::vector<uint64_t> partial_bytes(n, 0);
  auto map_task = [&](size_t p) -> StatusOr<MapResult> {
    const auto& part = ds.partition(p);
    std::vector<std::pair<K, V>> combined;
    if constexpr (internal::kOrderedKey<K>) {
      internal::AppendOnlyMap<K, V, Hash> acc(part.size());
      for (const auto& [key, value] : part) {
        acc.InsertOrCombine(key, value, reduce);
      }
      combined = std::move(acc).TakeEntries();
    } else {
      std::unordered_map<K, V, Hash> acc;
      for (const auto& [key, value] : part) {
        auto it = acc.find(key);
        if (it == acc.end()) {
          acc.emplace(key, value);
        } else {
          it->second = reduce(it->second, value);
        }
      }
      combined.assign(acc.begin(), acc.end());
    }
    MapResult result;
    for (const auto& kv : combined) result.bytes += ApproxShuffleBytes(kv);
    result.records = combined.size();
    result.bucketed =
        internal::BucketByTarget<K, V, Hash>(std::move(combined), n);
    return result;
  };
  auto map_store = [&](size_t p, MapResult&& result) -> Status {
    if (result.bucketed.offsets.size() != n + 1) {
      return Status::Corruption("mp shuffle bucket count disagrees with job");
    }
    partial_records[p] = result.records;
    partial_bytes[p] = result.bytes;
    bucketed[p] = std::move(result.bucketed);
    return Status::Ok();
  };
  ST4ML_RETURN_IF_ERROR(mp::RunDistributed<MapResult>(
      *ctx, "reduce_by_key/map", n, map_task, map_store));

  uint64_t records = 0;
  uint64_t bytes = 0;
  for (size_t p = 0; p < n; ++p) {
    records += partial_records[p];
    bytes += partial_bytes[p];
  }
  internal::Counters(*ctx).AddShuffle(ShuffleOp::kReduceByKey, records, bytes);
  op.AddArg("records", records);
  op.AddArg("bytes", bytes);

  // Target side: reduce over this target's buckets only, visiting source
  // partitions in ascending order. Buckets hold at most one pair per key
  // per source (the map side combined them), so each key's values combine
  // in source partition order — the same reduce sequence the rescan shuffle
  // produced — and the final key sort (unique keys) pins the output.
  using MergeResult = std::vector<std::pair<K, V>>;
  typename Dataset<std::pair<K, V>>::Partitions out(n);
  auto merge_task = [&](size_t target) -> StatusOr<MergeResult> {
    MergeResult merged;
    if constexpr (internal::kOrderedKey<K>) {
      size_t bound = 0;
      for (const auto& b : bucketed) bound += b.bucket_size(target);
      internal::AppendOnlyMap<K, V, Hash> acc(bound);
      for (size_t p = 0; p < n; ++p) {
        auto [it, end] = bucketed[p].bucket(target);
        for (; it != end; ++it) {
          acc.InsertOrCombine(it->first, it->second, reduce);
        }
      }
      merged = std::move(acc).TakeEntries();
      internal::SortByKeyIfOrdered<K, V>(&merged);
    } else {
      std::unordered_map<K, V, Hash> acc;
      for (size_t p = 0; p < n; ++p) {
        auto [it, end] = bucketed[p].bucket(target);
        for (; it != end; ++it) {
          auto found = acc.find(it->first);
          if (found == acc.end()) {
            acc.emplace(it->first, std::move(it->second));
          } else {
            found->second = reduce(found->second, it->second);
          }
        }
      }
      merged.assign(acc.begin(), acc.end());
    }
    return merged;
  };
  auto merge_store = [&](size_t target, MergeResult&& merged) -> Status {
    out[target] = std::move(merged);
    return Status::Ok();
  };
  ST4ML_RETURN_IF_ERROR(mp::RunDistributed<MergeResult>(
      *ctx, "reduce_by_key/merge", n, merge_task, merge_store));
  return Dataset<std::pair<K, V>>::FromPartitions(ctx, std::move(out));
}

/// Spark's groupByKey: EVERY record crosses the shuffle — the expensive
/// cousin ReduceByKey exists to avoid. Value order within a group follows
/// (partition, offset) order, so results are deterministic.
///
/// Bucketed the same way as ReduceByKey: the map side counting-sorts each
/// source partition by target (stable, so (partition, offset) order
/// survives) and sums shuffle bytes in the same pass; the target side
/// touches only its own buckets. For ordered keys grouping is sort-based:
/// a stable sort of the source-ordered concatenation keeps each key's
/// values in (partition, offset) order, and each run becomes one group with
/// its vector sized exactly.
template <typename K, typename V, typename Hash = std::hash<K>>
StatusOr<Dataset<std::pair<K, std::vector<V>>>> TryGroupByKey(
    const Dataset<std::pair<K, V>>& ds) {
  size_t n = ds.num_partitions();
  const auto& ctx = ds.context();
  if (n == 0) return Dataset<std::pair<K, std::vector<V>>>();
  ScopedSpan op(ctx->tracer(), span_category::kOperation, "group_by_key");

  using MapResult = internal::MapShuffleResult<K, V>;
  std::vector<internal::BucketedPartition<K, V>> bucketed(n);
  std::vector<uint64_t> partial_records(n, 0);
  std::vector<uint64_t> partial_bytes(n, 0);
  auto bucket_task = [&](size_t p) -> StatusOr<MapResult> {
    const auto& part = ds.partition(p);
    MapResult result;
    for (const auto& kv : part) result.bytes += ApproxShuffleBytes(kv);
    result.records = part.size();
    result.bucketed = internal::BucketByTarget<K, V, Hash>(part, n);
    return result;
  };
  auto bucket_store = [&](size_t p, MapResult&& result) -> Status {
    if (result.bucketed.offsets.size() != n + 1) {
      return Status::Corruption("mp shuffle bucket count disagrees with job");
    }
    partial_records[p] = result.records;
    partial_bytes[p] = result.bytes;
    bucketed[p] = std::move(result.bucketed);
    return Status::Ok();
  };
  ST4ML_RETURN_IF_ERROR(mp::RunDistributed<MapResult>(
      *ctx, "group_by_key/bucket", n, bucket_task, bucket_store));

  uint64_t records = 0;
  uint64_t bytes = 0;
  for (size_t p = 0; p < n; ++p) {
    records += partial_records[p];
    bytes += partial_bytes[p];
  }
  internal::Counters(*ctx).AddShuffle(ShuffleOp::kGroupByKey, records, bytes);
  op.AddArg("records", records);
  op.AddArg("bytes", bytes);

  using MergeResult = std::vector<std::pair<K, std::vector<V>>>;
  typename Dataset<std::pair<K, std::vector<V>>>::Partitions out(n);
  auto merge_task = [&](size_t target) -> StatusOr<MergeResult> {
    MergeResult merged;
    if constexpr (internal::kOrderedKey<K>) {
      // Two passes so every group vector is allocated exactly once at its
      // final size: the first sweep maps keys to dense indices (insertion
      // order) and counts group sizes, the second moves values into the
      // pre-reserved groups. Saves the ~log(group size) reallocations per
      // key that a single grow-as-you-go sweep pays.
      size_t bound = 0;
      for (const auto& b : bucketed) bound += b.bucket_size(target);
      internal::AppendOnlyMap<K, char, Hash> keys(bound);
      std::vector<uint32_t> rec_key(bound);
      std::vector<uint32_t> counts;
      counts.reserve(bound);
      size_t r = 0;
      for (size_t p = 0; p < n; ++p) {
        auto [it, end] = bucketed[p].bucket(target);
        for (; it != end; ++it) {
          size_t k = keys.GetIndex(it->first);
          if (k == counts.size()) counts.push_back(0);
          ++counts[k];
          rec_key[r++] = static_cast<uint32_t>(k);
        }
      }
      auto entries = std::move(keys).TakeEntries();
      merged.reserve(entries.size());
      for (size_t k = 0; k < entries.size(); ++k) {
        merged.emplace_back(std::move(entries[k].first), std::vector<V>());
        merged[k].second.reserve(counts[k]);
      }
      r = 0;
      for (size_t p = 0; p < n; ++p) {
        auto [it, end] = bucketed[p].bucket(target);
        for (; it != end; ++it) {
          merged[rec_key[r++]].second.push_back(std::move(it->second));
        }
      }
      internal::SortByKeyIfOrdered<K, std::vector<V>>(&merged);
    } else {
      std::unordered_map<K, std::vector<V>, Hash> groups;
      for (size_t p = 0; p < n; ++p) {
        auto [it, end] = bucketed[p].bucket(target);
        for (; it != end; ++it) {
          groups[it->first].push_back(std::move(it->second));
        }
      }
      merged.assign(groups.begin(), groups.end());
    }
    return merged;
  };
  auto merge_store = [&](size_t target, MergeResult&& merged) -> Status {
    out[target] = std::move(merged);
    return Status::Ok();
  };
  ST4ML_RETURN_IF_ERROR(mp::RunDistributed<MergeResult>(
      *ctx, "group_by_key/merge", n, merge_task, merge_store));
  return Dataset<std::pair<K, std::vector<V>>>::FromPartitions(ctx,
                                                               std::move(out));
}

}  // namespace st4ml

#endif  // ST4ML_ENGINE_PAIR_OPS_H_
