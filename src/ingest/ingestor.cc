#include "ingest/ingestor.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <utility>

#include "common/fault_injector.h"
#include "index/stix.h"
#include "storage/atomic_publish.h"
#include "storage/stpq.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Parses "s<seq>-b<bucket>.stwal[.open]" back into its sequence number.
bool ParseSegmentSeq(const std::string& name, uint64_t* seq) {
  unsigned long long parsed = 0;
  return std::sscanf(name.c_str(), "s%llu-", &parsed) == 1 &&
         (*seq = parsed, true);
}

std::string PartitionName(uint64_t generation, int64_t bucket) {
  char name[64];
  std::snprintf(name, sizeof(name), "ingest-g%06llu-b%lld.stpq",
                static_cast<unsigned long long>(generation),
                static_cast<long long>(bucket));
  return name;
}

void RemoveFile(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

/// True once the file is confirmed gone (unlinked now or already absent).
bool RemoveFileChecked(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  return !ec || !fs::exists(path);
}

/// The name a segment is recorded under in the manifest's consumed set:
/// always the SEALED name. A parked `.open` straggler drops its suffix so
/// Recover and SelectIngest (which both compare sealed names) find it.
std::string ConsumedName(const std::string& path) {
  return fs::path(WalSealedPath(path)).filename().string();
}

}  // namespace

Ingestor::Ingestor(std::string dir, const IngestorOptions& options,
                   ExecutionContext* ctx)
    : dir_(std::move(dir)), wal_dir_(dir_ + "/wal"), options_(options),
      ctx_(ctx) {}

StatusOr<std::unique_ptr<Ingestor>> Ingestor::Open(const std::string& dir,
                                                   const IngestorOptions& options,
                                                   ExecutionContext* ctx) {
  if (options.bucket_seconds <= 0) {
    return Status::InvalidArgument("bucket_seconds must be positive");
  }
  if (options.seal_records == 0) {
    return Status::InvalidArgument("seal_records must be positive");
  }
  if (options.max_open_buckets == 0) {
    return Status::InvalidArgument("max_open_buckets must be positive");
  }
  std::unique_ptr<Ingestor> ingestor(new Ingestor(dir, options, ctx));
  std::error_code ec;
  fs::create_directories(ingestor->wal_dir_, ec);
  if (ec) return Status::IOError("cannot create ingest directory " + dir);
  ST4ML_RETURN_IF_ERROR(ingestor->Recover());
  if (options.start_compactor) {
    ingestor->compactor_ = std::thread([raw = ingestor.get()] {
      raw->CompactorLoop();
    });
  }
  return ingestor;
}

Ingestor::~Ingestor() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
  // Active writers are dropped WITHOUT sealing (WalWriter::Abandon): the
  // on-disk state is exactly a crash's, which Recover() is built to replay.
}

Status Ingestor::Recover() {
  // 1. The manifest is the source of truth for what was committed.
  StatusOr<IngestManifest> read =
      ReadIngestManifest(IngestManifestPath(dir_));
  if (read.ok()) {
    manifest_ = std::move(*read);
  } else if (read.status().code() != Status::Code::kNotFound) {
    return read.status();
  }
  std::set<std::string> consumed(manifest_.consumed.begin(),
                                 manifest_.consumed.end());
  // Consumed names stay live in the manifest after their files are deleted,
  // so their sequence numbers must stay reserved: a reused name would sit
  // in the skip set (acked records invisible to reads) and be deleted as
  // consumed by the next recovery.
  for (const std::string& name : manifest_.consumed) {
    uint64_t seq = 0;
    if (ParseSegmentSeq(name, &seq) && seq >= next_seq_) next_seq_ = seq + 1;
  }
  std::set<std::string> live_parts;
  compacted_records_ = 0;
  for (const StpqPartMeta& p : manifest_.parts) {
    live_parts.insert(p.file);
    compacted_records_ += p.count;
  }

  // 2. Sweep publication debris: stranded `.tmp` stagings everywhere, and
  // orphan `ingest-*` partitions a crash left unlisted (their segments were
  // never marked consumed, so replay below recovers every record).
  std::error_code ec;
  for (const std::string& d : {dir_, wal_dir_}) {
    for (const auto& entry : fs::directory_iterator(d, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (EndsWith(name, ".tmp")) {
        RemoveFile(entry.path().string());
        continue;
      }
      if (d == dir_ && name.rfind("ingest-", 0) == 0) {
        bool orphan_stpq = EndsWith(name, ".stpq") && !live_parts.count(name);
        bool orphan_stix =
            EndsWith(name, ".stix") &&
            !live_parts.count(name.substr(0, name.size() - 5) + ".stpq");
        if (orphan_stpq || orphan_stix) RemoveFile(entry.path().string());
      }
    }
  }

  // 3. Replay the WAL: consumed segments are deleted (their records live in
  // partitions), sealed segments parse strictly, and an `.open` tail is
  // read tolerantly, truncated past its last complete frame, and re-sealed.
  uint64_t replayed = 0;
  for (const std::string& path : ListWalSegments(wal_dir_)) {
    bool is_open = EndsWith(path, kWalOpenSuffix);
    std::string sealed_name = ConsumedName(path);
    // Reserve the sequence number BEFORE any skip: even a consumed or
    // headerless segment's name must never be minted again.
    uint64_t seq = 0;
    if (ParseSegmentSeq(sealed_name, &seq) && seq >= next_seq_) {
      next_seq_ = seq + 1;
    }
    if (consumed.count(sealed_name)) {
      RemoveFile(path);
      continue;
    }
    StatusOr<WalReadResult> result = ReadWalSegment(path, /*strict=*/!is_open);
    if (!result.ok()) return result.status();
    std::string sealed_path = wal_dir_ + "/" + sealed_name;
    if (is_open && result->good_bytes < kWalHeaderBytes) {
      // Torn before the header completed: no append against this segment
      // was ever acked, and truncate-and-re-seal would publish a sealed
      // file the strict parser rejects. Remove the debris instead.
      RemoveFile(path);
      continue;
    }
    if (is_open) {
      if (result->torn_tail &&
          ::truncate(path.c_str(), static_cast<off_t>(result->good_bytes)) !=
              0) {
        return Status::IOError("cannot truncate torn wal tail of " + path);
      }
      ST4ML_RETURN_IF_ERROR(FsyncPath(path));
      if (std::rename(path.c_str(), sealed_path.c_str()) != 0) {
        return Status::IOError("cannot re-seal recovered segment " + path);
      }
      ST4ML_RETURN_IF_ERROR(FsyncParentDir(sealed_path));
    }
    replayed += result->records.size();
    sealed_.push_back(sealed_path);
  }
  staged_records_ = replayed;
  replayed_.store(replayed, std::memory_order_relaxed);
  if (ctx_ != nullptr && replayed > 0) {
    internal::Counters(*ctx_).Add(Counter::kWalReplayedRecords, replayed);
  }
  return Status::Ok();
}

std::string Ingestor::SegmentPath(uint64_t seq, int64_t bucket) const {
  char name[64];
  // Zero-padded sequence FIRST so lexicographic name order is append order.
  std::snprintf(name, sizeof(name), "s%08llu-b%lld.stwal",
                static_cast<unsigned long long>(seq),
                static_cast<long long>(bucket));
  return wal_dir_ + "/" + name;
}

void Ingestor::SealLocked(int64_t bucket) {
  auto it = writers_.find(bucket);
  if (it == writers_.end()) return;
  Status sealed = it->second.Seal();
  if (sealed.ok()) {
    sealed_.push_back(it->second.sealed_path());
    writers_.erase(it);
    return;
  }
  if (!it->second.open()) {
    // fsync succeeded but the rename did not: the bytes are durable under
    // the `.open` name. Park it for the compactor (tolerant read) and let
    // new appends to this bucket start a fresh segment.
    sealed_.push_back(it->second.open_path());
    writers_.erase(it);
  }
  // Otherwise (injected fault / failed fsync before close) the writer stays
  // active: the records are staged and the next threshold or Flush retries.
}

// Keeps the open-writer fd budget: before a NEW bucket writer opens, seal
// the oldest open buckets until under the cap. Under roughly time-ordered
// arrival the oldest bucket is the one least likely to see more appends. A
// seal that fails without closing its fd leaves the writer active for
// retry; skip past it rather than spin.
void Ingestor::ReserveWriterSlotLocked(const std::set<int64_t>* protect) {
  size_t attempts = writers_.size();
  auto it = writers_.begin();
  while (writers_.size() >= options_.max_open_buckets && attempts-- > 0 &&
         it != writers_.end()) {
    int64_t bucket = it->first;
    ++it;  // advance first: SealLocked erases on success
    if (protect != nullptr && protect->count(bucket)) continue;
    SealLocked(bucket);
  }
}

Status Ingestor::Append(const EventRecord& r) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t bucket = FloorDiv(r.time, options_.bucket_seconds);
  auto it = writers_.find(bucket);
  if (it == writers_.end()) {
    ReserveWriterSlotLocked();
    StatusOr<WalWriter> writer =
        WalWriter::Create(SegmentPath(next_seq_, bucket));
    if (!writer.ok()) return writer.status();
    ++next_seq_;
    it = writers_.emplace(bucket, std::move(*writer)).first;
  }
  ST4ML_RETURN_IF_ERROR(it->second.Append(r));
  appended_.fetch_add(1, std::memory_order_relaxed);
  ++staged_records_;
  if (it->second.record_count() >= options_.seal_records) SealLocked(bucket);
  return Status::Ok();
}

Status Ingestor::AppendBatch(const std::vector<EventRecord>& records) {
  if (records.empty()) return Status::Ok();
  // Frame per bucket up front so each touched bucket costs ONE write(2).
  std::map<int64_t, std::pair<std::string, uint64_t>> frames;
  for (const EventRecord& r : records) {
    auto& entry = frames[FloorDiv(r.time, options_.bucket_seconds)];
    AppendWalFrame(&entry.first, r);
    ++entry.second;
  }
  std::set<int64_t> touched;
  for (const auto& [bucket, batch] : frames) touched.insert(bucket);
  std::lock_guard<std::mutex> lock(mu_);
  // All-or-nothing: stage every bucket's frames first, recording each
  // writer's pre-batch watermark, and only ack + seal once all succeeded.
  // A failure on any bucket truncates the earlier buckets back to their
  // watermarks, so an errored batch leaves NOTHING staged and the client
  // can resend the whole batch without duplicating records. The batch's
  // own buckets are protected from the fd-cap seal (and sealing is
  // deferred to after the last write) because a sealed segment's frames
  // could no longer be rolled back.
  struct Watermark {
    WalWriter* writer;
    uint64_t bytes;
    uint64_t records;
  };
  std::vector<Watermark> written;
  written.reserve(frames.size());
  Status staged = Status::Ok();
  for (auto& [bucket, batch] : frames) {
    auto it = writers_.find(bucket);
    if (it == writers_.end()) {
      ReserveWriterSlotLocked(&touched);
      StatusOr<WalWriter> writer =
          WalWriter::Create(SegmentPath(next_seq_, bucket));
      if (!writer.ok()) {
        staged = writer.status();
        break;
      }
      ++next_seq_;
      it = writers_.emplace(bucket, std::move(*writer)).first;
    }
    written.push_back(
        {&it->second, it->second.byte_count(), it->second.record_count()});
    staged = it->second.AppendFrames(batch.first, batch.second);
    if (!staged.ok()) break;
  }
  if (!staged.ok()) {
    // Includes the failing bucket itself: a partial write(2) left bytes
    // past its watermark too. Rollback also rewinds the file offset, so a
    // retried batch appends exactly at the watermark.
    for (const Watermark& w : written) {
      w.writer->TruncateTo(w.bytes, w.records);
    }
    return staged;
  }
  for (const auto& [bucket, batch] : frames) {
    appended_.fetch_add(batch.second, std::memory_order_relaxed);
    staged_records_ += batch.second;
    auto it = writers_.find(bucket);
    if (it != writers_.end() &&
        it->second.record_count() >= options_.seal_records) {
      SealLocked(bucket);
    }
  }
  return Status::Ok();
}

Status Ingestor::Flush() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<int64_t> buckets;
    for (const auto& [bucket, writer] : writers_) buckets.push_back(bucket);
    for (int64_t bucket : buckets) SealLocked(bucket);
    if (!writers_.empty()) {
      return Status::IOError("could not seal every active wal segment");
    }
  }
  return CompactNow();
}

Status Ingestor::CompactNow() {
  std::lock_guard<std::mutex> cycle(compact_mu_);
  // Fires FIRST: an injected fault models a crash at the start of the
  // cycle — every sealed segment stays in place for the next attempt.
  ST4ML_RETURN_IF_ERROR(
      GlobalFaultInjector().MaybeFail(fault_site::kIngestCompact, dir_));

  std::vector<std::string> segments;
  {
    std::lock_guard<std::mutex> lock(mu_);
    segments = sealed_;
  }
  if (segments.empty()) return Status::Ok();

  // Read every staged record. Sealed segments must parse end to end; a
  // parked `.open` straggler (rename-failed seal) is read tolerantly.
  std::map<int64_t, std::vector<EventRecord>> buckets;
  uint64_t absorbed = 0;
  for (const std::string& path : segments) {
    bool is_open = EndsWith(path, kWalOpenSuffix);
    StatusOr<WalReadResult> result = ReadWalSegment(path, /*strict=*/!is_open);
    if (!result.ok()) return result.status();
    absorbed += result->records.size();
    for (EventRecord& r : result->records) {
      buckets[FloorDiv(r.time, options_.bucket_seconds)].push_back(
          std::move(r));
    }
  }

  // Write the new partitions (atomic: temp + fsync + rename inside the
  // writers). Until the manifest commit below they are invisible orphans a
  // crashed run's Recover() deletes.
  IngestManifest next;
  {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    next.generation = manifest_.generation + 1;
    next.parts = manifest_.parts;
  }
  std::vector<StpqPartMeta> published;
  for (auto& [bucket, records] : buckets) {
    std::string name = PartitionName(next.generation, bucket);
    std::string path = dir_ + "/" + name;
    ST4ML_RETURN_IF_ERROR(WriteStpqFile(path, records));
    ST4ML_RETURN_IF_ERROR(BuildStixForStpq(path, records));
    StpqPartMeta meta;
    meta.file = std::move(name);
    for (const EventRecord& r : records) meta.box.Extend(r.ComputeSTBox());
    meta.count = records.size();
    published.push_back(meta);
    next.parts.push_back(std::move(meta));
  }
  for (const std::string& path : segments) {
    next.consumed.push_back(ConsumedName(path));
  }
  std::vector<std::string> old_pending;
  {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    old_pending = pending_delete_;
    for (const std::string& path : old_pending) {
      next.consumed.push_back(ConsumedName(path));
    }
  }

  // THE commit point: after this rename the partitions are real and the
  // segments are consumed; before it, nothing happened.
  ST4ML_RETURN_IF_ERROR(
      WriteIngestManifest(IngestManifestPath(dir_), next));
  // Advisory mirror for batch tooling that only knows index.meta; readers
  // of the merged view use the manifest, so a crash between these two
  // writes costs nothing.
  ST4ML_RETURN_IF_ERROR(WriteStpqMeta(dir_ + "/index.meta", next.parts));

  {
    // Exclusive: in-process readers hold snapshot_mu() shared across their
    // whole read, so no segment is deleted under one.
    std::unique_lock<std::shared_mutex> snapshot_lock(snapshot_mu_);
    std::lock_guard<std::mutex> lock(mu_);
    manifest_ = std::move(next);
    sealed_.erase(
        std::remove_if(sealed_.begin(), sealed_.end(),
                       [&](const std::string& s) {
                         return std::find(segments.begin(), segments.end(),
                                          s) != segments.end();
                       }),
        sealed_.end());
    staged_records_ -= absorbed;
    for (const StpqPartMeta& p : published) compacted_records_ += p.count;
    // Deferred by one cycle: cross-process readers that listed these
    // segments just before the commit can still open them. A file whose
    // unlink fails stays pending — and therefore stays in the NEXT
    // cycle's consumed list — so it is retried, never replayed as
    // duplicates.
    pending_delete_ = segments;
    for (const std::string& path : old_pending) {
      if (!RemoveFileChecked(path)) pending_delete_.push_back(path);
    }
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  if (ctx_ != nullptr) {
    internal::Counters(*ctx_).Add(Counter::kCompactionsRun, 1);
  }
  return Status::Ok();
}

void Ingestor::CompactorLoop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_) {
    stop_cv_.wait_for(lock,
                      std::chrono::milliseconds(options_.compact_interval_ms),
                      [&] { return stop_; });
    if (stop_) return;
    lock.unlock();
    // Failures (including injected ingest/compact faults) leave the sealed
    // list intact; the next tick retries.
    CompactNow();
    lock.lock();
  }
}

IngestorStats Ingestor::Stats() const {
  IngestorStats stats;
  stats.appended = appended_.load(std::memory_order_relaxed);
  stats.replayed = replayed_.load(std::memory_order_relaxed);
  stats.compactions = compactions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.staged = staged_records_;
    stats.wal_segments = sealed_.size() + writers_.size();
  }
  {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    stats.compacted = compacted_records_;
    stats.generation = manifest_.generation;
  }
  return stats;
}

IngestSnapshot Ingestor::Snapshot() const {
  IngestSnapshot snap;
  {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    snap.parts = manifest_.parts;
    snap.generation = manifest_.generation;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.wal_paths = sealed_;
    for (const auto& [bucket, writer] : writers_) {
      snap.wal_paths.push_back(writer.open_path());
    }
  }
  return snap;
}

}  // namespace st4ml
