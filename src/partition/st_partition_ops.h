#ifndef ST4ML_PARTITION_ST_PARTITION_OPS_H_
#define ST4ML_PARTITION_ST_PARTITION_OPS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/dataset.h"
#include "partition/partitioner.h"

namespace st4ml {

struct STPartitionOptions {
  /// Replicate each record into EVERY partition its envelope intersects
  /// instead of only its primary. Needed by partition-local operators
  /// (companion detection) that must see boundary-crossing neighbors.
  bool duplicate = false;
};

namespace internal {

/// One source partition's placement, bucketed by target: `entries` holds
/// one entry per placed record, counting-sorted by target with scan order
/// kept inside each bucket [offsets[t], offsets[t + 1]). An entry is the
/// record's index in the source partition, or, tagged kStCopyEntry, an
/// index into `copies` — the extra-target duplicates, made by the assign
/// task so that no two gather tasks ever touch the same record.
template <typename T>
struct StPlacement {
  std::vector<uint64_t> entries;
  std::vector<size_t> offsets;
  std::vector<T> copies;
  uint64_t bytes = 0;
};

inline constexpr uint64_t kStCopyEntry = uint64_t{1} << 63;

}  // namespace internal

/// Repartitions a dataset by spatio-temporal locality: trains `partitioner`
/// on every record envelope, then moves each record to its assigned
/// partition(s). A full shuffle — each placed record is charged to the
/// engine metrics, which is exactly the cost the T-STR experiments weigh
/// against the locality it buys.
///
/// Three parallel jobs on the context pool around one serial Train
/// (DESIGN.md §5): envelopes per source partition; per source, an
/// assignment of its records into per-target buckets; per target, a gather
/// of its buckets in source order. Every target therefore holds its records
/// in global scan order — the serial placement's exact layout and
/// counters. When `data` is the sole handle to its partitions (pass an
/// expiring Dataset with std::move) records are moved, not copied; a shared
/// handle copies, and `duplicate` copies once per extra target either way.
/// The tasks run on `data`'s pool, so this must not be called from inside
/// a RunParallel task of the same context.
///
/// A bad partitioner (null, trained to nothing, out-of-range assignment)
/// is reported as a Status.
template <typename T, typename BoxFn, typename IdFn>
StatusOr<Dataset<T>> TrySTPartition(Dataset<T> data,
                                    STPartitioner* partitioner, BoxFn box_of,
                                    IdFn id_of,
                                    STPartitionOptions options = {}) {
  if (partitioner == nullptr) {
    return Status::InvalidArgument("STPartition requires a partitioner");
  }
  ExecutionContext& ctx = *data.context();
  ScopedSpan op(ctx.tracer(), span_category::kOperation, "st_partition");
  const size_t sources = data.num_partitions();
  // Global scan index of each source partition's first record.
  std::vector<size_t> starts(sources + 1, 0);
  for (size_t p = 0; p < sources; ++p) {
    starts[p + 1] = starts[p] + data.partition(p).size();
  }
  std::vector<STBox> boxes(starts.back());
  ST4ML_RETURN_IF_ERROR(ctx.TryRunParallel(
      "st_partition/envelopes", sources, [&](size_t p) {
        const std::vector<T>& part = data.partition(p);
        for (size_t i = 0; i < part.size(); ++i) {
          boxes[starts[p] + i] = box_of(part[i]);
        }
        return Status::Ok();
      }));
  partitioner->Train(boxes);

  const int n = partitioner->num_partitions();
  if (n <= 0) return Status::Internal("partitioner produced no partitions");
  const size_t targets = static_cast<size_t>(n);
  std::vector<internal::StPlacement<T>> placed(sources);
  ST4ML_RETURN_IF_ERROR(ctx.TryRunParallel(
      "st_partition/assign", sources, [&](size_t p) -> Status {
        const std::vector<T>& part = data.partition(p);
        internal::StPlacement<T>& out = placed[p];
        std::vector<std::pair<uint32_t, uint64_t>> routed;  // (target, entry)
        routed.reserve(part.size());
        for (size_t i = 0; i < part.size(); ++i) {
          uint64_t id = static_cast<uint64_t>(id_of(part[i]));
          std::vector<int> assigned =
              partitioner->Assign(boxes[starts[p] + i], options.duplicate, id);
          for (size_t k = 0; k < assigned.size(); ++k) {
            int t = assigned[k];
            if (t < 0 || t >= n) {
              return Status::Internal("partition assignment out of range");
            }
            uint64_t entry = i;
            if (k > 0) {
              entry = internal::kStCopyEntry | out.copies.size();
              out.copies.push_back(part[i]);
            }
            routed.emplace_back(static_cast<uint32_t>(t), entry);
            out.bytes += ApproxShuffleBytes(part[i]);
          }
        }
        out.offsets.assign(targets + 1, 0);
        for (const auto& r : routed) ++out.offsets[r.first + 1];
        for (size_t t = 0; t < targets; ++t) {
          out.offsets[t + 1] += out.offsets[t];
        }
        out.entries.resize(routed.size());
        std::vector<size_t> fill(out.offsets.begin(), out.offsets.end() - 1);
        for (const auto& r : routed) out.entries[fill[r.first]++] = r.second;
        return Status::Ok();
      }));

  const bool may_move = data.sole_owner();
  typename Dataset<T>::Partitions parts(targets);
  ST4ML_RETURN_IF_ERROR(ctx.TryRunParallel(
      "st_partition/gather", targets, [&](size_t t) {
        size_t count = 0;
        for (const auto& src : placed) {
          count += src.offsets[t + 1] - src.offsets[t];
        }
        std::vector<T>& out = parts[t];
        out.reserve(count);
        for (size_t p = 0; p < sources; ++p) {
          internal::StPlacement<T>& src = placed[p];
          for (size_t e = src.offsets[t]; e < src.offsets[t + 1]; ++e) {
            uint64_t entry = src.entries[e];
            if ((entry & internal::kStCopyEntry) != 0) {
              out.push_back(
                  std::move(src.copies[entry & ~internal::kStCopyEntry]));
            } else if (may_move) {
              // Sole ownership: no other handle can observe the source
              // partitions, and each record's first placement is the only
              // one that reads it here.
              out.push_back(
                  std::move(const_cast<T&>(data.partition(p)[entry])));
            } else {
              out.push_back(data.partition(p)[entry]);
            }
          }
        }
        return Status::Ok();
      }));

  uint64_t moved = 0;
  uint64_t bytes = 0;
  for (const auto& src : placed) {
    moved += src.entries.size();
    bytes += src.bytes;
  }
  internal::Counters(ctx).AddShuffle(ShuffleOp::kStPartition, moved, bytes);
  op.AddArg("records", moved);
  op.AddArg("bytes", bytes);
  return Dataset<T>::FromPartitions(data.context(), std::move(parts));
}

}  // namespace st4ml

#endif  // ST4ML_PARTITION_ST_PARTITION_OPS_H_
