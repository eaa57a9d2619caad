#include "storage/stpq.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/fault_injector.h"
#include "storage/atomic_publish.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

// Minimum wire size of one record, for clamping an untrusted header count
// before reserve(): an event is at least id+x+y+time+attr_len bytes, a
// trajectory at least id+npoints.
constexpr uint64_t kMinEventRecordBytes = 8 + 8 + 8 + 8 + 4;
constexpr uint64_t kMinTrajRecordBytes = 8 + 8;
constexpr uint64_t kTrajPointBytes = 8 + 8 + 8;

template <typename T>
void WriteRaw(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Writers stage under `<path>.tmp` and only FinishWrite publishes the
// final name (atomic_publish.h), so a crash mid-write can never leave a
// truncated file where a reader expects a complete one.
Status OpenForWrite(const std::string& path, uint8_t kind, uint64_t count,
                    std::ofstream* out) {
  ST4ML_RETURN_IF_ERROR(
      GlobalFaultInjector().MaybeFail(fault_site::kStpqWrite, path));
  std::error_code ec;
  fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  out->open(TmpPathFor(path), std::ios::binary | std::ios::trunc);
  if (!out->is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  out->write(kStpqMagic, sizeof(kStpqMagic));
  WriteRaw(*out, kind);
  WriteRaw(*out, count);
  return Status::Ok();
}

/// The write-side epilogue every STPQ writer shares. An ofstream's final
/// flush happens in its DESTRUCTOR, after any good() check a function-body
/// return could make — so a disk-full error on the last buffer used to be
/// reported as Ok. Flush and close explicitly, re-checking after each, and
/// only trust tellp() when it is non-negative (it returns -1 on a failed
/// stream, which would wrap an unsigned io_bytes accumulator). Then fsync
/// the staged bytes and rename them onto `path`.
Status FinishWrite(std::ofstream& out, const std::string& path,
                   uint64_t* io_bytes) {
  std::string tmp = TmpPathFor(path);
  out.flush();
  if (!out.good()) {
    out.close();
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + path);
  }
  std::streamoff pos = static_cast<std::streamoff>(out.tellp());
  out.close();
  if (out.fail()) {
    std::remove(tmp.c_str());
    return Status::IOError("failed to close " + path);
  }
  ST4ML_RETURN_IF_ERROR(PublishFileAtomic(tmp, path));
  if (io_bytes != nullptr && pos >= 0) {
    *io_bytes += static_cast<uint64_t>(pos);
  }
  return Status::Ok();
}

// Reads up to `size` bytes at `offset` with pread, retrying EINTR and short
// reads; `*got` falls short of `size` only at end of file.
Status PreadFull(int fd, uint64_t offset, size_t size, char* buf, size_t* got,
                 const std::string& path) {
  *got = 0;
  while (*got < size) {
    ssize_t n = ::pread(fd, buf + *got, size - *got,
                        static_cast<off_t>(offset + *got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed in " + path);
    }
    if (n == 0) break;
    *got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// The kind tag of a header prefix, after checking the magic.
StatusOr<uint8_t> ParseKind(const char* data, size_t size,
                            const std::string& path) {
  if (size < sizeof(kStpqMagic) ||
      std::memcmp(data, kStpqMagic, sizeof(kStpqMagic)) != 0) {
    return Status::Corruption("bad STPQ magic in " + path);
  }
  if (size < sizeof(kStpqMagic) + 1) {
    return Status::Corruption("truncated STPQ header in " + path);
  }
  return static_cast<uint8_t>(data[sizeof(kStpqMagic)]);
}

Status CheckHeader(const char* data, size_t size, const std::string& path,
                   uint8_t expected_kind, uint64_t* count) {
  auto kind = ParseKind(data, size, path);
  if (!kind.ok()) return kind.status();
  if (*kind != expected_kind) {
    return Status::Corruption("STPQ record kind mismatch in " + path);
  }
  if (size < kStpqHeaderBytes) {
    return Status::Corruption("truncated STPQ header in " + path);
  }
  std::memcpy(count, data + sizeof(kStpqMagic) + 1, sizeof(*count));
  return Status::Ok();
}

// The one STPQ record decoder, behind the full readers and StpqReader's
// ranged reads alike (a full read is one ranged read). It walks one
// in-memory byte run and never reads past its end: a field that would is a
// truncation. `file_bytes` caps the untrusted length fields (overflow-safe:
// compared, never multiplied).
class RecordCursor {
 public:
  RecordCursor(const char* data, size_t size, uint64_t file_bytes,
               const std::string& path)
      : pos_(data), end_(data + size), file_bytes_(file_bytes), path_(path) {}

  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

  Status Next(EventRecord* r) {
    uint32_t len = 0;
    if (!Take(&r->id) || !Take(&r->x) || !Take(&r->y) || !Take(&r->time) ||
        !Take(&len)) {
      return Truncated();
    }
    if (static_cast<uint64_t>(len) > file_bytes_) {
      return Status::Corruption("implausible attr length in " + path_);
    }
    if (len > remaining()) return Truncated();
    r->attr.assign(pos_, len);
    pos_ += len;
    return Status::Ok();
  }

  Status Next(TrajRecord* r) {
    uint64_t n = 0;
    if (!Take(&r->id) || !Take(&n)) return Truncated();
    // `n * 24 > file_bytes` wraps for n near 2^64 and the following
    // resize(n) would throw; divide instead of multiply.
    if (n > file_bytes_ / kTrajPointBytes) {
      return Status::Corruption("implausible point count in " + path_);
    }
    if (n > remaining() / kTrajPointBytes) return Truncated();
    // The on-disk point is the in-memory point (x, y, time, native-endian),
    // so the whole array copies in one go.
    static_assert(sizeof(TrajPointRecord) == kTrajPointBytes &&
                  std::is_trivially_copyable_v<TrajPointRecord>);
    r->points.resize(static_cast<size_t>(n));
    size_t bytes = static_cast<size_t>(n) * kTrajPointBytes;
    // An empty vector's data() may be null, which memcpy must not get.
    if (bytes != 0) std::memcpy(r->points.data(), pos_, bytes);
    pos_ += bytes;
    return Status::Ok();
  }

 private:
  template <typename T>
  bool Take(T* value) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(value, pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  Status Truncated() const {
    return Status::Corruption("truncated STPQ record in " + path_);
  }

  const char* pos_;
  const char* end_;
  uint64_t file_bytes_;
  const std::string& path_;
};

// The full readers: the whole record area is one ranged read, so a file
// with bytes after its last record is Corruption too.
template <typename RecordT>
StatusOr<std::vector<RecordT>> ReadWholeStpq(const std::string& path,
                                             uint8_t kind,
                                             uint64_t min_record_bytes,
                                             uint64_t* io_bytes) {
  auto reader = StpqReader::Open(path, kind);
  if (!reader.ok()) return reader.status();
  if (io_bytes != nullptr) *io_bytes += reader->file_bytes();
  std::vector<RecordT> records;
  // The header count is untrusted until every record deserializes; clamp
  // the reserve to what the file could possibly hold so a corrupt count
  // cannot trigger a giant allocation. The record loop still walks the full
  // claimed count and reports the truncation.
  records.reserve(static_cast<size_t>(std::min(
      reader->record_count(), reader->file_bytes() / min_record_bytes)));
  ST4ML_RETURN_IF_ERROR(reader->ReadRecordsAt(
      kStpqHeaderBytes, reader->file_bytes(), reader->record_count(),
      &records));
  return records;
}

}  // namespace

Status WriteStpqFile(const std::string& path,
                     const std::vector<EventRecord>& records,
                     uint64_t* io_bytes) {
  std::ofstream out;
  ST4ML_RETURN_IF_ERROR(
      OpenForWrite(path, kStpqKindEvent, records.size(), &out));
  for (const EventRecord& r : records) {
    WriteRaw(out, r.id);
    WriteRaw(out, r.x);
    WriteRaw(out, r.y);
    WriteRaw(out, r.time);
    uint32_t len = static_cast<uint32_t>(r.attr.size());
    WriteRaw(out, len);
    out.write(r.attr.data(), len);
  }
  return FinishWrite(out, path, io_bytes);
}

Status WriteStpqFile(const std::string& path,
                     const std::vector<TrajRecord>& records,
                     uint64_t* io_bytes) {
  std::ofstream out;
  ST4ML_RETURN_IF_ERROR(OpenForWrite(path, kStpqKindTraj, records.size(), &out));
  for (const TrajRecord& r : records) {
    WriteRaw(out, r.id);
    uint64_t n = r.points.size();
    WriteRaw(out, n);
    for (const TrajPointRecord& p : r.points) {
      WriteRaw(out, p.x);
      WriteRaw(out, p.y);
      WriteRaw(out, p.time);
    }
  }
  return FinishWrite(out, path, io_bytes);
}

StatusOr<std::vector<EventRecord>> ReadStpqEvents(const std::string& path,
                                                  uint64_t* io_bytes) {
  return ReadWholeStpq<EventRecord>(path, kStpqKindEvent, kMinEventRecordBytes,
                                    io_bytes);
}

StatusOr<std::vector<TrajRecord>> ReadStpqTrajs(const std::string& path,
                                                uint64_t* io_bytes) {
  return ReadWholeStpq<TrajRecord>(path, kStpqKindTraj, kMinTrajRecordBytes,
                                   io_bytes);
}

StatusOr<uint8_t> ReadStpqKind(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("no such STPQ file: " + path);
  char head[sizeof(kStpqMagic) + 1];
  size_t got = 0;
  Status read = PreadFull(fd, 0, sizeof(head), head, &got, path);
  ::close(fd);
  ST4ML_RETURN_IF_ERROR(read);
  auto kind = ParseKind(head, got, path);
  if (kind.ok() && *kind != kStpqKindEvent && *kind != kStpqKindTraj) {
    return Status::Corruption("unknown STPQ record kind in " + path);
  }
  return kind;
}

StatusOr<StpqReader> StpqReader::Open(const std::string& path,
                                      uint8_t expected_kind) {
  ST4ML_RETURN_IF_ERROR(
      GlobalFaultInjector().MaybeFail(fault_site::kStpqRead, path));
  StpqReader reader;
  reader.path_ = path;
  reader.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (reader.fd_ < 0) return Status::NotFound("no such STPQ file: " + path);
  struct stat st;
  if (::fstat(reader.fd_, &st) != 0) {
    return Status::IOError("cannot stat " + path);
  }
  char head[kStpqHeaderBytes];
  size_t got = 0;
  ST4ML_RETURN_IF_ERROR(
      PreadFull(reader.fd_, 0, sizeof(head), head, &got, path));
  ST4ML_RETURN_IF_ERROR(
      CheckHeader(head, got, path, expected_kind, &reader.record_count_));
  reader.file_bytes_ = static_cast<uint64_t>(st.st_size);
  reader.bytes_read_ = kStpqHeaderBytes;
  return reader;
}

StpqReader::StpqReader(StpqReader&& other) noexcept {
  *this = std::move(other);
}

StpqReader& StpqReader::operator=(StpqReader&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    file_bytes_ = other.file_bytes_;
    record_count_ = other.record_count_;
    bytes_read_ = other.bytes_read_;
    buf_ = std::move(other.buf_);
  }
  return *this;
}

StpqReader::~StpqReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status StpqReader::CheckRange(uint64_t offset, uint64_t end_offset) const {
  if (offset < kStpqHeaderBytes || end_offset < offset ||
      end_offset > file_bytes_) {
    return Status::Corruption("record range outside file bounds in " + path_);
  }
  return Status::Ok();
}

template <typename RecordT>
Status StpqReader::ReadRecordsAt(uint64_t offset, uint64_t end_offset,
                                 uint64_t count, std::vector<RecordT>* out) {
  ST4ML_RETURN_IF_ERROR(CheckRange(offset, end_offset));
  size_t size = static_cast<size_t>(end_offset - offset);
  if (buf_.size() < size) buf_.resize(size);
  size_t got = 0;
  ST4ML_RETURN_IF_ERROR(
      PreadFull(fd_, offset, size, buf_.data(), &got, path_));
  // A file truncated since Open ends the run early.
  if (got != size) {
    return Status::Corruption("short read of record range in " + path_);
  }
  RecordCursor cur(buf_.data(), size, file_bytes_, path_);
  for (uint64_t i = 0; i < count; ++i) {
    RecordT r;
    ST4ML_RETURN_IF_ERROR(cur.Next(&r));
    out->push_back(std::move(r));
  }
  // The records must consume EXACTLY the promised run: a sidecar whose
  // offsets disagree with the file is corruption, not silently wrong data.
  if (cur.remaining() != 0) {
    return Status::Corruption("record range mismatch in " + path_);
  }
  bytes_read_ += size;
  return Status::Ok();
}

template Status StpqReader::ReadRecordsAt(uint64_t, uint64_t, uint64_t,
                                          std::vector<EventRecord>*);
template Status StpqReader::ReadRecordsAt(uint64_t, uint64_t, uint64_t,
                                          std::vector<TrajRecord>*);

std::vector<std::string> ListStpqFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".stpq") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

uint64_t FileSizeBytes(const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

Status WriteStpqMeta(const std::string& path,
                     const std::vector<StpqPartMeta>& parts) {
  std::error_code ec;
  fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  // Staged like the record writers: live index.meta files are re-published
  // under readers by the compactor, which must never expose a torn list.
  std::string tmp = TmpPathFor(path);
  std::ofstream out(tmp, std::ios::trunc);
  if (!out.is_open()) return Status::IOError("cannot open for writing: " + path);
  out << "stpq-meta v1\n";
  char line[512];
  for (const StpqPartMeta& p : parts) {
    std::snprintf(line, sizeof(line),
                  "%s %.17g %.17g %.17g %.17g %" PRId64 " %" PRId64
                  " %" PRIu64 "\n",
                  p.file.c_str(), p.box.mbr.x_min, p.box.mbr.y_min,
                  p.box.mbr.x_max, p.box.mbr.y_max, p.box.time.start(),
                  p.box.time.end(), p.count);
    out << line;
  }
  // Same explicit flush/close as FinishWrite: the destructor's flush is too
  // late to report an error from.
  out.flush();
  if (!out.good()) {
    out.close();
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + path);
  }
  out.close();
  if (out.fail()) {
    std::remove(tmp.c_str());
    return Status::IOError("failed to close " + path);
  }
  return PublishFileAtomic(tmp, path);
}

StatusOr<std::vector<StpqPartMeta>> ReadStpqMeta(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("no such meta file: " + path);
  std::string header;
  std::getline(in, header);
  if (header != "stpq-meta v1") {
    return Status::Corruption("bad meta header in " + path);
  }
  std::vector<StpqPartMeta> parts;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    StpqPartMeta p;
    double x_min, y_min, x_max, y_max;
    int64_t t_start, t_end;
    if (!(fields >> p.file >> x_min >> y_min >> x_max >> y_max >> t_start >>
          t_end >> p.count)) {
      return Status::Corruption("bad meta line in " + path + ": " + line);
    }
    p.box = STBox(Mbr(x_min, y_min, x_max, y_max), Duration(t_start, t_end));
    parts.push_back(std::move(p));
  }
  return parts;
}

}  // namespace st4ml
