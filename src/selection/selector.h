#ifndef ST4ML_SELECTION_SELECTOR_H_
#define ST4ML_SELECTION_SELECTOR_H_

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "accel/kernels.h"
#include "common/retry.h"
#include "common/status.h"
#include "engine/cached_dataset.h"
#include "engine/dataset.h"
#include "engine/mp/distributed.h"
#include "index/rtree.h"
#include "index/stix.h"
#include "ingest/wal.h"
#include "partition/partitioner.h"
#include "partition/st_partition_ops.h"
#include "partition/str_partitioner.h"
#include "selection/query_planner.h"
#include "selection/select_query.h"
#include "storage/ingest_manifest.h"
#include "storage/stpq.h"

namespace st4ml {

namespace selection_internal {

/// What the selector caches per STPQ file: the raw records PLUS the
/// per-record envelopes in TWO forms, so a warm hit skips the file read,
/// the parse AND every per-record ComputeSTBox — only the columnar filter
/// and the copy of matching records remain:
///   - `cols`: SoA envelope columns, the warm refinement path — one
///     vectorized FilterBoxes kernel pass per query (DESIGN.md §11);
///   - `tree`: the per-record R-tree (when the admitting selector refines
///     through trees), kept alongside the columns for the cold
///     `use_rtree` path and entries reloaded after eviction.
/// `envelope` is the union of all non-degenerate record envelopes: a warm
/// query that misses it skips the per-record pass entirely. The cache
/// budget accounts the serialized record bytes; columns and tree are index
/// overhead on top, as for the on-disk index itself.
template <typename RecordT>
struct IndexedStpqFile {
  std::vector<RecordT> records;
  accel::EnvelopeColumns cols;  // per-record envelopes, SoA
  STBox envelope;               // union of valid record envelopes
  RTree<STBox> tree;  // over per-record envelopes; empty when !has_tree
  bool has_tree = false;
};

template <typename RecordT>
std::shared_ptr<const IndexedStpqFile<RecordT>> MakeIndexedFile(
    std::vector<RecordT> records, bool build_tree) {
  auto file = std::make_shared<IndexedStpqFile<RecordT>>();
  file->records = std::move(records);
  std::vector<STBox> boxes;
  boxes.reserve(file->records.size());
  file->cols.Reserve(file->records.size());
  for (const RecordT& r : file->records) {
    boxes.push_back(r.ComputeSTBox());
    file->cols.Append(boxes.back());
    // The file envelope skips degenerate boxes (inverted — e.g. an empty
    // trajectory — or NaN coordinates): they can never match a query, and
    // a NaN must not poison the union into rejecting the whole file.
    const Mbr& m = boxes.back().mbr;
    if (m.x_min <= m.x_max && m.y_min <= m.y_max) {
      file->envelope.Extend(boxes.back());
    }
  }
  if (build_tree) {
    file->tree.Build(boxes);
    file->has_tree = true;
  }
  return file;
}

/// Cache reload fn: re-reads the origin file and rebuilds the tree, so an
/// entry that was evicted under memory pressure comes back fully indexed.
template <typename RecordT>
StatusOr<std::shared_ptr<const void>> ReloadIndexedFile(
    const std::string& path, uint64_t* io_bytes) {
  auto loaded = ReadStpqFile<RecordT>(path, io_bytes);
  if (!loaded.ok()) return loaded.status();
  return std::shared_ptr<const void>(
      MakeIndexedFile<RecordT>(std::move(*loaded), /*build_tree=*/true));
}

/// One file's complete Select outcome: the selected records plus every
/// per-file accounting slot LoadAndFilter folds after the join. Returning
/// it by value (instead of writing slot arrays from the task) is what lets
/// the load run in a forked worker — the whole outcome crosses the wire in
/// one result frame and the driver does the folding, same as in-process.
template <typename RecordT>
struct FileLoadResult {
  std::vector<RecordT> records;
  uint64_t read_bytes = 0;
  uint64_t selected_bytes = 0;
  uint64_t pages_read = 0;
  uint64_t postings_hits = 0;
  uint8_t file_read = 0;
  uint8_t plan_run = 0;  // FilePlan actually executed (kLinearScan default)
  uint8_t mmapped = 0;
};

}  // namespace selection_internal

namespace mp {

/// Fixed-width stats first (cheap to reject on a torn payload), the record
/// vector last. plan_run is range-checked by the store, not here: the codec
/// proves the bytes well-formed, the job proves them consistent.
template <typename RecordT>
struct WireCodec<selection_internal::FileLoadResult<RecordT>,
                 std::enable_if_t<kHasWireCodec<RecordT>>> {
  static void Encode(const selection_internal::FileLoadResult<RecordT>& v,
                     std::string* out) {
    AppendRaw(out, v.read_bytes);
    AppendRaw(out, v.selected_bytes);
    AppendRaw(out, v.pages_read);
    AppendRaw(out, v.postings_hits);
    AppendRaw(out, v.file_read);
    AppendRaw(out, v.plan_run);
    AppendRaw(out, v.mmapped);
    WireCodec<std::vector<RecordT>>::Encode(v.records, out);
  }
  static Status Decode(WireCursor* cur,
                       selection_internal::FileLoadResult<RecordT>* out) {
    ST4ML_RETURN_IF_ERROR(ReadRaw(cur, &out->read_bytes));
    ST4ML_RETURN_IF_ERROR(ReadRaw(cur, &out->selected_bytes));
    ST4ML_RETURN_IF_ERROR(ReadRaw(cur, &out->pages_read));
    ST4ML_RETURN_IF_ERROR(ReadRaw(cur, &out->postings_hits));
    ST4ML_RETURN_IF_ERROR(ReadRaw(cur, &out->file_read));
    ST4ML_RETURN_IF_ERROR(ReadRaw(cur, &out->plan_run));
    ST4ML_RETURN_IF_ERROR(ReadRaw(cur, &out->mmapped));
    return WireCodec<std::vector<RecordT>>::Decode(cur, &out->records);
  }
};

}  // namespace mp

struct SelectorOptions {
  /// When set (and partition_after_select is true), the selected records are
  /// ST-partitioned for the downstream stages — select FIRST, partition the
  /// small result, not the other way around (the paper's ordering).
  std::shared_ptr<STPartitioner> partitioner;
  bool partition_after_select = true;
  /// Refine loaded files through a per-file R-tree instead of a linear scan.
  /// Same records either way; this is the in-memory half of the index.
  bool use_rtree = true;
  /// Per-file load retry: transient IOErrors (a flaky filesystem, an
  /// injected fault) are re-attempted with backoff before failing the
  /// Select; deterministic errors (NotFound, Corruption) fail immediately.
  RetryPolicy retry;
  /// Serve repeated loads of the same file from the context's DatasetCache
  /// (when its budget enables it): the pre-filter records are cached per
  /// file together with their built R-tree, so later selections with
  /// overlapping ST ranges query the in-memory index instead of re-reading
  /// and re-indexing the file. Off, or with the cache disabled, every
  /// Select reads its files — the seed behavior.
  bool use_cache = true;
  /// Let the QueryPlanner serve COLD files (no enabled cache) from their
  /// mmap'd `.stix` sidecar when one is present and valid: index pages are
  /// walked, leaf hits refine through the kernel over mapped columns, and
  /// only matching record bytes are read. Results are byte-identical to
  /// the linear scan (the differential property harness pins it); only the
  /// I/O counters differ. Defaults from ST4ML_DISK_INDEX ("off" disables).
  bool use_disk_index = DiskIndexEnabledByEnv();
};

/// I/O accounting, accumulated across Select calls: how many file bytes were
/// read, and how many bytes of records survived the ST predicate. The gap
/// between the two is what metadata pruning (and the mmap index's ranged
/// reads) save.
struct SelectorStats {
  uint64_t bytes_loaded = 0;
  uint64_t bytes_selected = 0;
};

/// The selection stage (paper §3.1): load persisted records matching a
/// SelectQuery — ST box AND optional id set. One-argument Select scans a
/// plain directory end to end; the two-argument form prunes whole files
/// through the on-disk metadata first and only opens survivors. Per file,
/// the QueryPlanner picks the cached-index, mmap-index, or linear-scan
/// plan; every plan returns byte-identical records.
template <typename RecordT>
class Selector {
 public:
  Selector(std::shared_ptr<ExecutionContext> ctx, SelectQuery query,
           SelectorOptions options = {})
      : ctx_(std::move(ctx)),
        query_(std::move(query)),
        options_(std::move(options)) {}

  /// Full scan of every STPQ file in `dir`.
  StatusOr<Dataset<RecordT>> Select(const std::string& dir) {
    std::vector<std::string> paths = ListStpqFiles(dir);
    if (paths.empty()) {
      return Status::NotFound("no STPQ files under " + dir);
    }
    return LoadAndFilter(paths);
  }

  /// Metadata-pruned selection over a directory written by BuildOnDiskIndex.
  StatusOr<Dataset<RecordT>> Select(const std::string& dir,
                                    const std::string& meta_path) {
    auto meta = ReadStpqMeta(meta_path);
    if (!meta.ok()) return meta.status();
    std::vector<std::string> paths;
    for (const StpqPartMeta& part : *meta) {
      // Empty partitions have inverted envelopes and never match.
      if (part.box.Intersects(query_.box)) {
        paths.push_back(dir + "/" + part.file);
      }
    }
    internal::Counters(*ctx_).Add(Counter::kPartitionsPruned,
                                  meta->size() - paths.size());
    return LoadAndFilter(paths);
  }

  /// Merged selection over a streaming-ingest directory (DESIGN.md §13):
  /// ONE SelectQuery is answered from the compacted partitions the
  /// `ingest.manifest` lists PLUS the staged WAL tail — every acked record
  /// exactly once, mid-stream. Segments are listed BEFORE the manifest is
  /// read, so a segment consumed between the two steps is both skipped (the
  /// newer manifest marks it consumed) and covered (the same manifest lists
  /// its partition). A directory with no manifest and no segments selects
  /// an empty dataset, not NotFound — "nothing ingested yet" is an answer.
  StatusOr<Dataset<RecordT>> SelectIngest(const std::string& dir) {
    std::vector<std::string> segments = ListWalSegments(dir + "/wal");
    IngestManifest manifest;
    auto read = ReadIngestManifest(IngestManifestPath(dir));
    if (read.ok()) {
      manifest = std::move(*read);
    } else if (read.status().code() != Status::Code::kNotFound) {
      return read.status();
    }
    std::vector<std::string> paths;
    for (const StpqPartMeta& part : manifest.parts) {
      if (part.box.Intersects(query_.box)) {
        paths.push_back(dir + "/" + part.file);
      }
    }
    internal::Counters(*ctx_).Add(Counter::kPartitionsPruned,
                                  manifest.parts.size() - paths.size());
    std::vector<std::string> consumed(manifest.consumed);
    std::sort(consumed.begin(), consumed.end());
    for (const std::string& segment : segments) {
      // A consumed segment's records already live in a listed partition;
      // its not-yet-deleted file must not be double counted. An active
      // `.open` segment is checked under its sealed name, in case a rename
      // committed between the listing and this check. A rename during the
      // listing can also surface one segment under both names: the sealed
      // entry alone is read.
      std::string sealed = WalSealedPath(segment);
      std::string name = std::filesystem::path(sealed).filename().string();
      bool listed_sealed =
          sealed != segment &&
          std::find(segments.begin(), segments.end(), sealed) !=
              segments.end();
      if (!listed_sealed &&
          !std::binary_search(consumed.begin(), consumed.end(), name)) {
        paths.push_back(segment);
      }
    }
    return LoadAndFilter(paths);
  }

  const SelectorStats& stats() const { return stats_; }
  const SelectQuery& query() const { return query_; }

 private:
  /// Loads and filters `paths` IN PARALLEL, one Status-returning task
  /// per file, so a per-file IOError propagates to the caller instead of
  /// failing the process (and a transient one is retried per
  /// options_.retry before it counts as a failure). Partition i of the
  /// result is always file i — the parallel fill is index-addressed, so the
  /// output is byte-identical to the old sequential load.
  ///
  /// Each file executes the plan the QueryPlanner picked:
  ///   - kCachedIndex: probe the DatasetCache; a hit refines the warm
  ///     in-memory index, a miss loads the file once and admits it. The
  ///     cache key folds in size|mtime, so a rewritten file gets a fresh
  ///     entry instead of stale bytes.
  ///   - kMmapIndex: mmap the validated `.stix` sidecar, walk index pages,
  ///     refine leaf hits through the kernel over mapped columns, and
  ///     ranged-read ONLY the matching record bytes. A sidecar that fails
  ///     its validation audit demotes the file to a linear scan.
  ///   - kLinearScan: full parse + in-memory filter (the seed path).
  /// Every plan evaluates the same envelopes against the same query, so
  /// the selected output is byte-identical across plans; only the I/O and
  /// planner counters differ.
  StatusOr<Dataset<RecordT>> LoadAndFilter(
      const std::vector<std::string>& paths) {
    ScopedSpan op(ctx_->tracer(), span_category::kOperation,
                  "selection/load_filter");
    CounterRegistry& counters = internal::Counters(*ctx_);
    Tracer* tracer = ctx_->tracer();
    const uint64_t op_span = op.id();
    // The DatasetCache lives in driver memory: a forked worker's Put is
    // invisible and a Get would serve a stale copy-on-write snapshot, so a
    // distributed executor plans as if the cache were disabled (workers
    // serve files from the sidecar index or a linear scan instead).
    DatasetCache* cache =
        options_.use_cache && !ctx_->distributed() && ctx_->cache().enabled()
            ? &ctx_->cache()
            : nullptr;
    QueryPlanner planner(cache, options_.use_disk_index);
    typename Dataset<RecordT>::Partitions parts(paths.size());
    // Per-file accounting slots, folded into stats_/counters on the driver
    // after the join. Tasks return everything through a FileLoadResult —
    // the slots are filled only by the index-addressed store, which runs
    // in-process whichever executor produced the result.
    using FileLoad = selection_internal::FileLoadResult<RecordT>;
    std::vector<uint64_t> read_bytes(paths.size(), 0);
    std::vector<uint64_t> selected_bytes(paths.size(), 0);
    std::vector<uint8_t> file_read(paths.size(), 0);
    std::vector<uint8_t> plan_run(paths.size(),
                                  static_cast<uint8_t>(FilePlan::kLinearScan));
    std::vector<uint8_t> mmapped(paths.size(), 0);
    std::vector<uint64_t> pages_read(paths.size(), 0);
    std::vector<uint64_t> postings_hits(paths.size(), 0);
    auto load_task = [&](size_t i) -> StatusOr<FileLoad> {
      FileLoad out;
      ScopedSpan io(tracer, span_category::kIo, "stpq_read", op_span);
      const FilePlan plan = planner.Plan(paths[i]);
      if (plan == FilePlan::kWalScan) {
        out.plan_run = static_cast<uint8_t>(FilePlan::kWalScan);
        io.AddArg("plan_wal", 1);
        if constexpr (std::is_same_v<RecordT, EventRecord>) {
          // Tolerant read: a merged Select may race the live appender, and
          // the only incomplete frame a segment can legally carry is the
          // in-flight tail — unacked by definition, so correct to exclude.
          auto result = ReadWalSegment(paths[i], /*strict=*/false);
          const std::string sealed = WalSealedPath(paths[i]);
          if (!result.ok() &&
              result.status().code() == Status::Code::kNotFound &&
              sealed != paths[i]) {
            // The appender sealed this `.open` segment after the listing.
            // The rename kept every frame, and consumed files are deleted
            // one cycle late under the exclusive snapshot lock, so the
            // sealed name is still there while the reader holds it shared.
            result = ReadWalSegment(sealed, /*strict=*/false);
          }
          if (!result.ok()) return result.status();
          out.read_bytes = result->good_bytes;
          out.file_read = 1;
          out.records =
              FilterRecords(std::move(result->records), &out.selected_bytes);
          return out;
        } else {
          return Status::InvalidArgument("WAL staging holds event records: " +
                                         paths[i]);
        }
      }
      if (plan == FilePlan::kCachedIndex) {
        // Only planned when `cache` is non-null, which implies a
        // non-distributed executor: this branch always runs in-process.
        out.plan_run = static_cast<uint8_t>(FilePlan::kCachedIndex);
        io.AddArg("plan_cached", 1);
        uint64_t key = cache->InternDatasetId(FileCacheName(paths[i]));
        auto got = cache->Get(key, 0);
        if (!got.ok()) return got.status();
        if (*got != nullptr) {
          // Hit: query the cached pre-built index and copy only the
          // matching records; no file I/O, no parse, no tree build.
          auto file = std::static_pointer_cast<
              const selection_internal::IndexedStpqFile<RecordT>>(*got);
          out.records = FilterIndexed(*file, &out.selected_bytes);
          return out;
        }
        uint64_t attempts = 0;
        auto records = options_.retry.Run(
            [&]() -> StatusOr<std::vector<RecordT>> {
              uint64_t bytes = 0;
              auto loaded = ReadStpqFile<RecordT>(paths[i], &bytes);
              if (loaded.ok()) out.read_bytes = bytes;
              return loaded;
            },
            &counters, &attempts);
        io.AddArg("bytes", out.read_bytes);
        if (attempts > 1) io.AddArg("attempts", attempts);
        if (!records.ok()) return records.status();
        out.file_read = 1;
        // Miss: admit the records (indexed, when this selector refines
        // through the tree), with the source file as the reload path —
        // eviction drops memory without writing anything.
        auto file = selection_internal::MakeIndexedFile<RecordT>(
            std::move(records).value(), options_.use_rtree);
        cache->PutWithOrigin(key, 0, file, out.read_bytes, paths[i],
                             &selection_internal::ReloadIndexedFile<RecordT>);
        out.records = FilterIndexed(*file, &out.selected_bytes);
        return out;
      }
      if (plan == FilePlan::kMmapIndex) {
        auto served = ServeViaStix(paths[i], &out.records, &out.read_bytes,
                                   &out.selected_bytes, &out.file_read,
                                   &out.pages_read, &out.postings_hits,
                                   &out.mmapped, counters);
        if (!served.ok()) return served.status();  // hard I/O or corruption
        if (*served) {
          out.plan_run = static_cast<uint8_t>(FilePlan::kMmapIndex);
          io.AddArg("plan_mmap", 1);
          io.AddArg("bytes", out.read_bytes);
          return out;
        }
        // Invalid / stale sidecar: fall through to the linear scan.
      }
      out.plan_run = static_cast<uint8_t>(FilePlan::kLinearScan);
      io.AddArg("plan_scan", 1);
      uint64_t attempts = 0;
      auto records = options_.retry.Run(
          [&]() -> StatusOr<std::vector<RecordT>> {
            uint64_t bytes = 0;
            auto loaded = ReadStpqFile<RecordT>(paths[i], &bytes);
            if (loaded.ok()) out.read_bytes = bytes;
            return loaded;
          },
          &counters, &attempts);
      io.AddArg("bytes", out.read_bytes);
      if (attempts > 1) io.AddArg("attempts", attempts);
      if (!records.ok()) return records.status();
      out.file_read = 1;
      out.records =
          FilterRecords(std::move(records).value(), &out.selected_bytes);
      return out;
    };
    auto load_store = [&](size_t i, FileLoad&& result) -> Status {
      if (result.plan_run >= kNumFilePlans) {
        return Status::Corruption("selection plan id out of range");
      }
      read_bytes[i] = result.read_bytes;
      selected_bytes[i] = result.selected_bytes;
      file_read[i] = result.file_read;
      plan_run[i] = result.plan_run;
      mmapped[i] = result.mmapped;
      pages_read[i] = result.pages_read;
      postings_hits[i] = result.postings_hits;
      parts[i] = std::move(result.records);
      return Status::Ok();
    };
    ST4ML_RETURN_IF_ERROR(mp::RunDistributed<FileLoad>(
        *ctx_, "selection/load_filter", paths.size(), load_task, load_store));
    uint64_t records_out = 0;
    uint64_t loaded_bytes = 0;
    uint64_t kept_bytes = 0;
    uint64_t files_read = 0;
    uint64_t plan_counts[kNumFilePlans] = {};
    uint64_t files_mmapped = 0;
    uint64_t pages_total = 0;
    uint64_t postings_total = 0;
    for (size_t i = 0; i < paths.size(); ++i) {
      records_out += parts[i].size();
      loaded_bytes += read_bytes[i];
      kept_bytes += selected_bytes[i];
      files_read += file_read[i];
      plan_counts[plan_run[i]] += 1;
      files_mmapped += mmapped[i];
      pages_total += pages_read[i];
      postings_total += postings_hits[i];
    }
    stats_.bytes_loaded += loaded_bytes;
    stats_.bytes_selected += kept_bytes;
    counters.Add(Counter::kStpqBytesRead, loaded_bytes);
    counters.Add(Counter::kStpqFilesRead, files_read);
    // Scanned counts files CONSULTED (pruned + scanned == total), whether
    // their bytes came from disk, the cache, or the mmap'd index.
    counters.Add(Counter::kPartitionsScanned, paths.size());
    counters.Add(Counter::kSelectionRecordsOut, records_out);
    counters.Add(Counter::kSelectionBytesSelected, kept_bytes);
    QueryPlanner::CountExecuted(
        counters, plan_counts[static_cast<size_t>(FilePlan::kMmapIndex)],
        plan_counts[static_cast<size_t>(FilePlan::kCachedIndex)],
        plan_counts[static_cast<size_t>(FilePlan::kLinearScan)],
        plan_counts[static_cast<size_t>(FilePlan::kWalScan)]);
    if (files_mmapped > 0) {
      counters.Add(Counter::kIndexFilesMmapped, files_mmapped);
    }
    if (pages_total > 0) counters.Add(Counter::kIndexPagesRead, pages_total);
    if (postings_total > 0) {
      counters.Add(Counter::kPostingsHits, postings_total);
    }
    op.AddArg("files", paths.size());
    op.AddArg("records_out", records_out);
    auto selected = Dataset<RecordT>::FromPartitions(ctx_, std::move(parts));
    if (options_.partitioner != nullptr && options_.partition_after_select) {
      auto partitioned = TrySTPartition(
          std::move(selected), options_.partitioner.get(),
          [](const RecordT& r) { return r.ComputeSTBox(); },
          [](const RecordT& r) { return static_cast<uint64_t>(r.id); });
      if (!partitioned.ok()) return partitioned.status();
      selected = std::move(partitioned).value();
    }
    return selected;
  }

  /// The kMmapIndex plan for one file. Returns false (not an error) when
  /// the sidecar is missing, stale, or fails its validation audit — the
  /// caller demotes the file to a linear scan, which is also what the
  /// corruption-hardening contract promises (DESIGN.md §12). Returns a
  /// non-OK Status only for hard failures AFTER a valid index: a ranged
  /// read that misses its promised byte run (Corruption) or an I/O error
  /// the retry policy could not absorb.
  StatusOr<bool> ServeViaStix(const std::string& path,
                              std::vector<RecordT>* out, uint64_t* read_bytes,
                              uint64_t* selected_bytes, uint8_t* file_read,
                              uint64_t* pages, uint64_t* postings,
                              uint8_t* mmapped, CounterRegistry& counters) {
    auto opened = StixIndex::Open(StixPathFor(path), path);
    if (!opened.ok()) return false;
    *mmapped = 1;
    StixIndex index = std::move(*opened);
    StixQueryStats qstats;
    std::vector<uint32_t> hits;
    // Query-side emptiness stays a host check (kernel contract): an
    // inverted query box matches nothing and touches no pages.
    if (!query_.box.mbr.IsEmpty()) {
      const auto q = accel::BoxFilterQuery::FromBox(query_.box);
      if (query_.has_ids) {
        index.LookupIds(query_.ids, q, /*apply_box=*/true, &hits, &qstats);
      } else {
        index.QueryBox(q, &hits, &qstats);
      }
    }
    *pages = qstats.pages_read;
    *postings = qstats.postings_hits;
    out->clear();
    if (hits.empty()) return true;  // no match: the .stpq is never opened
    constexpr uint8_t kind = std::is_same_v<RecordT, EventRecord>
                                 ? kStpqKindEvent
                                 : kStpqKindTraj;
    uint64_t attempts = 0;
    Status read = options_.retry.Run(
        [&]() -> Status {
          out->clear();
          auto reader = StpqReader::Open(path, kind);
          if (!reader.ok()) return reader.status();
          if (reader->record_count() != index.record_count()) {
            return Status::Corruption(
                "stix sidecar record count disagrees with " + path);
          }
          // Coalesce consecutive hit indices into maximal byte runs: one
          // seek-and-read per run, records emerging in ascending record
          // order — byte-identical to the linear filter.
          size_t a = 0;
          while (a < hits.size()) {
            size_t b = a + 1;
            while (b < hits.size() && hits[b] == hits[b - 1] + 1) ++b;
            ST4ML_RETURN_IF_ERROR(reader->template ReadRecordsAt<RecordT>(
                index.RecordOffset(hits[a]),
                index.RecordOffset(hits[b - 1] + 1),
                b - a, out));
            a = b;
          }
          *read_bytes = reader->bytes_read();
          return Status::Ok();
        },
        &counters, &attempts);
    if (!read.ok()) return read;
    *file_read = 1;
    for (const RecordT& r : *out) *selected_bytes += StpqRecordBytes(r);
    return true;
  }

  /// Cache key for one STPQ file: path plus size and mtime, so a rewritten
  /// file (re-ingest into the same directory) gets a fresh entry instead
  /// of serving stale records. Costs one stat per file per Select — noise
  /// next to the read it saves.
  static std::string FileCacheName(const std::string& path) {
    std::error_code ec;
    uint64_t size = FileSizeBytes(path);
    auto mtime = std::filesystem::last_write_time(path, ec);
    int64_t stamp =
        ec ? 0 : static_cast<int64_t>(mtime.time_since_epoch().count());
    return "stpq:" + path + "|" + std::to_string(size) + "|" +
           std::to_string(stamp);
  }

  /// Drops hits whose record id is outside the query's id set. A no-op
  /// without an id predicate; hit order is preserved.
  void FilterHitsById(const std::vector<RecordT>& records,
                      std::vector<size_t>* hits) {
    if (!query_.has_ids) return;
    size_t kept = 0;
    for (size_t i : *hits) {
      if (query_.MatchesId(records[i].id)) (*hits)[kept++] = i;
    }
    hits->resize(kept);
  }

  /// Indices of the records matching the query, in record order (the tree
  /// reports leaf order; sorting restores it so every refine path returns
  /// identical datasets). The linear path computes each record's envelope
  /// once into columns and runs the vectorized FilterBoxes kernel over
  /// them — the same closed-interval predicate STBox::Intersects applies,
  /// so tree and linear refinement stay byte-identical. The id predicate
  /// composes afterwards (AND), identically on every path.
  std::vector<size_t> MatchIndices(const std::vector<RecordT>& records) {
    std::vector<size_t> hits;
    if (options_.use_rtree) {
      // Per-record tree refinement — not a batch kernel pass, so these
      // records count as fallback work in the backend registry.
      accel::BackendRegistry::Instance().CountFallback(records.size());
      std::vector<STBox> boxes;
      boxes.reserve(records.size());
      for (const RecordT& r : records) boxes.push_back(r.ComputeSTBox());
      RTree<STBox> tree;
      tree.Build(boxes);
      hits = tree.Query(query_.box);
      std::sort(hits.begin(), hits.end());
    } else {
      // The kernel predicate folds in record-side degeneracy but leaves
      // the query-side emptiness test to the host — an inverted query
      // matches nothing, exactly as Intersects would report.
      if (query_.box.mbr.IsEmpty() || records.empty()) return hits;
      accel::EnvelopeColumns cols;
      cols.Reserve(records.size());
      for (const RecordT& r : records) cols.Append(r.ComputeSTBox());
      hits = KernelMatch(cols);
    }
    FilterHitsById(records, &hits);
    return hits;
  }

  /// One vectorized pass of the active backend's FilterBoxes kernel over
  /// envelope columns; returns matching indices in record order.
  std::vector<size_t> KernelMatch(const accel::EnvelopeColumns& cols) {
    const accel::EnvelopeView view = cols.View();
    std::vector<uint8_t> bitmap(view.size);
    accel::Active().FilterBoxes(accel::BoxFilterQuery::FromBox(query_.box),
                                view, bitmap.data());
    accel::BackendRegistry::Instance().CountBatch(view.size);
    std::vector<size_t> hits;
    for (size_t i = 0; i < view.size; ++i) {
      if (bitmap[i] != 0) hits.push_back(i);
    }
    return hits;
  }

  /// Filter over a cached indexed file (borrowed, shared with the cache):
  /// the warm columnar fast path. A query outside the file's envelope
  /// union returns without touching a record; otherwise one FilterBoxes
  /// kernel pass over the cached SoA columns produces the hit bitmap and
  /// only MATCHING records are copied out — a warm hit never pays for the
  /// records the query rejects, and never recomputes an envelope. The
  /// columns hold exactly the envelopes the cached tree was built over and
  /// the kernel applies exactly the STBox::Intersects predicate, so the
  /// output is byte-identical to the tree and uncached paths (the
  /// differential property harness pins this across backends). Entries
  /// without columns fall back to the tree / per-record refinement.
  std::vector<RecordT> FilterIndexed(
      const selection_internal::IndexedStpqFile<RecordT>& file,
      uint64_t* bytes_selected) {
    if (!query_.box.Intersects(file.envelope)) return {};
    std::vector<size_t> hits;
    if (file.cols.size() == file.records.size() && !file.cols.empty()) {
      hits = KernelMatch(file.cols);
      FilterHitsById(file.records, &hits);
    } else if (options_.use_rtree && file.has_tree) {
      accel::BackendRegistry::Instance().CountFallback(file.records.size());
      hits = file.tree.Query(query_.box);
      std::sort(hits.begin(), hits.end());
      FilterHitsById(file.records, &hits);
    } else {
      // MatchIndices counts its records as batch or fallback itself, and
      // applies the id predicate itself.
      hits = MatchIndices(file.records);
    }
    std::vector<RecordT> kept;
    kept.reserve(hits.size());
    for (size_t i : hits) kept.push_back(file.records[i]);
    for (const RecordT& r : kept) *bytes_selected += StpqRecordBytes(r);
    return kept;
  }

  /// Filter over owned records (the uncached load path): matches are moved.
  std::vector<RecordT> FilterRecords(std::vector<RecordT>&& records,
                                     uint64_t* bytes_selected) {
    std::vector<size_t> hits = MatchIndices(records);
    std::vector<RecordT> kept;
    kept.reserve(hits.size());
    for (size_t i : hits) kept.push_back(std::move(records[i]));
    for (const RecordT& r : kept) *bytes_selected += StpqRecordBytes(r);
    return kept;
  }

  std::shared_ptr<ExecutionContext> ctx_;
  SelectQuery query_;
  SelectorOptions options_;
  SelectorStats stats_;
};

}  // namespace st4ml

#endif  // ST4ML_SELECTION_SELECTOR_H_
