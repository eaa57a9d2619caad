// Corrupt-input matrix for the STPQ readers: every malformed file must come
// back as a Corruption/NotFound Status — never a throw, a crash, or a
// header-driven giant allocation.

#include "storage/stpq.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/stix.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("st4ml_stpq_corrupt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<EventRecord> SomeEvents(int n) {
  Rng rng(7);
  std::vector<EventRecord> events;
  for (int i = 0; i < n; ++i) {
    EventRecord r;
    r.id = i;
    r.x = rng.Uniform(0, 10);
    r.y = rng.Uniform(0, 10);
    r.time = rng.UniformInt(0, 1000);
    r.attr = "abc";
    events.push_back(r);
  }
  return events;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Append(std::string* bytes, const T& value) {
  bytes->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Layout refresher: "STPQ1" | kind u8 | count u64 | records. The count
// field starts at byte 6.
constexpr size_t kCountOffset = sizeof(kStpqMagic) + 1;

TEST(StpqCorruptionTest, MissingFileIsNotFound) {
  std::string dir = TempDir("missing");
  auto loaded = ReadStpqEvents(dir + "/nope.stpq");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kNotFound);
}

TEST(StpqCorruptionTest, BadMagicIsCorruption) {
  std::string dir = TempDir("magic");
  std::string path = dir + "/bad.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(3)).ok());
  std::string bytes = Slurp(path);
  bytes[0] = 'X';
  Dump(path, bytes);
  auto loaded = ReadStpqEvents(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, EmptyFileIsCorruption) {
  std::string dir = TempDir("empty");
  std::string path = dir + "/empty.stpq";
  Dump(path, "");
  auto loaded = ReadStpqEvents(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, TruncatedHeaderIsCorruption) {
  std::string dir = TempDir("header");
  std::string path = dir + "/short.stpq";
  std::string bytes(kStpqMagic, sizeof(kStpqMagic));
  bytes.push_back(static_cast<char>(kStpqKindEvent));
  Dump(path, bytes);  // magic + kind, no count
  auto loaded = ReadStpqEvents(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, WrongRecordKindIsCorruption) {
  std::string dir = TempDir("kind");
  std::string path = dir + "/traj.stpq";
  ASSERT_TRUE(
      WriteStpqFile(path, std::vector<TrajRecord>(2)).ok());
  auto loaded = ReadStpqEvents(path);  // events reader on a traj file
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, OversizedCountDoesNotOverAllocate) {
  // A count claiming ~2^60 records in a tiny file must fail as Corruption
  // when the records run out — and must NOT reserve() count slots first
  // (the clamp caps the reserve at file_bytes / min_record_size, so this
  // test completes without exhausting memory).
  std::string dir = TempDir("count");
  std::string path = dir + "/huge.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(2)).ok());
  std::string bytes = Slurp(path);
  uint64_t huge = uint64_t{1} << 60;
  std::memcpy(&bytes[kCountOffset], &huge, sizeof(huge));
  Dump(path, bytes);
  auto loaded = ReadStpqEvents(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, OversizedTrajCountDoesNotOverAllocate) {
  std::string dir = TempDir("tcount");
  std::string path = dir + "/huge.stpq";
  ASSERT_TRUE(WriteStpqFile(path, std::vector<TrajRecord>(1)).ok());
  std::string bytes = Slurp(path);
  uint64_t huge = uint64_t{1} << 61;
  std::memcpy(&bytes[kCountOffset], &huge, sizeof(huge));
  Dump(path, bytes);
  auto loaded = ReadStpqTrajs(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, OverflowingPointCountIsCorruption) {
  // npoints chosen so that npoints * 24 wraps a u64 to a SMALL number: the
  // old `n * 24 > file_bytes` check passed and resize(n) then threw
  // length_error. The divide-form check must reject it as Corruption.
  std::string dir = TempDir("points");
  std::string path = dir + "/wrap.stpq";
  std::string bytes(kStpqMagic, sizeof(kStpqMagic));
  bytes.push_back(static_cast<char>(kStpqKindTraj));
  Append(&bytes, uint64_t{1});                     // one record
  Append(&bytes, int64_t{5});                      // id
  uint64_t wrapping = (uint64_t{1} << 63) + 2;     // * 24 wraps to 48
  Append(&bytes, wrapping);                        // npoints
  Dump(path, bytes);
  auto loaded = ReadStpqTrajs(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  EXPECT_NE(loaded.status().message().find("point count"), std::string::npos);
}

TEST(StpqCorruptionTest, ImplausibleAttrLengthIsCorruption) {
  // An attr_len bigger than the whole file must be rejected before the
  // resize(len) allocation, not after a 4 GiB read attempt.
  std::string dir = TempDir("attr");
  std::string path = dir + "/attr.stpq";
  std::string bytes(kStpqMagic, sizeof(kStpqMagic));
  bytes.push_back(static_cast<char>(kStpqKindEvent));
  Append(&bytes, uint64_t{1});
  Append(&bytes, int64_t{1});    // id
  Append(&bytes, double{1.0});   // x
  Append(&bytes, double{2.0});   // y
  Append(&bytes, int64_t{3});    // time
  Append(&bytes, uint32_t{0xFFFFFFFF});  // attr_len
  Dump(path, bytes);
  auto loaded = ReadStpqEvents(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  EXPECT_NE(loaded.status().message().find("attr length"), std::string::npos);
}

TEST(StpqCorruptionTest, TruncatedEventTailIsCorruption) {
  std::string dir = TempDir("tail");
  std::string path = dir + "/tail.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(10)).ok());
  std::string bytes = Slurp(path);
  Dump(path, bytes.substr(0, bytes.size() - 7));
  auto loaded = ReadStpqEvents(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, TruncatedTrajTailIsCorruption) {
  std::string dir = TempDir("ttail");
  std::string path = dir + "/tail.stpq";
  TrajRecord t;
  t.id = 1;
  for (int i = 0; i < 8; ++i) {
    TrajPointRecord p;
    p.x = i;
    p.y = i;
    p.time = i;
    t.points.push_back(p);
  }
  ASSERT_TRUE(WriteStpqFile(path, std::vector<TrajRecord>{t}).ok());
  std::string bytes = Slurp(path);
  Dump(path, bytes.substr(0, bytes.size() - 3));
  auto loaded = ReadStpqTrajs(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, BadMetaHeaderIsCorruption) {
  std::string dir = TempDir("meta");
  std::string path = dir + "/idx.meta";
  Dump(path, "stpq-meta v999\n");
  auto loaded = ReadStpqMeta(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, BadMetaLineIsCorruption) {
  std::string dir = TempDir("metaline");
  std::string path = dir + "/idx.meta";
  Dump(path, "stpq-meta v1\npart-00000.stpq not-a-number\n");
  auto loaded = ReadStpqMeta(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

// ---- atomic publish: writers stage into `<path>.tmp` and rename into
// place, so a torn write can never leave a half-written file under the
// final name.

TEST(StpqCorruptionTest, TornPublishLeavesOriginalIntact) {
  std::string dir = TempDir("tornpub");
  std::string path = dir + "/part.stpq";
  auto original = SomeEvents(5);
  ASSERT_TRUE(WriteStpqFile(path, original).ok());
  std::string before = Slurp(path);

  // Sabotage the staging path: a DIRECTORY at `<path>.tmp` makes the tmp
  // open fail, simulating a publish torn before the rename.
  fs::create_directories(path + ".tmp");
  Status rewrite = WriteStpqFile(path, SomeEvents(50));
  ASSERT_FALSE(rewrite.ok());
  // The previously published file is byte-identical and still loads: a
  // failed publish must be invisible to readers.
  EXPECT_EQ(Slurp(path), before);
  auto loaded = ReadStpqEvents(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), original.size());
  fs::remove_all(path + ".tmp");
}

TEST(StpqCorruptionTest, SuccessfulPublishLeavesNoTmpDebris) {
  std::string dir = TempDir("pubclean");
  std::string path = dir + "/part.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(5)).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  ASSERT_TRUE(BuildStixForStpq(path, SomeEvents(5)).ok());
  EXPECT_FALSE(fs::exists(StixPathFor(path) + ".tmp"));
}

TEST(StpqCorruptionTest, TornStixPublishLeavesOldSidecarIntact) {
  std::string dir = TempDir("tornstix");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  ASSERT_TRUE(BuildStixForStpq(path, events).ok());
  std::string stix = StixPathFor(path);
  std::string before = Slurp(stix);

  fs::create_directories(stix + ".tmp");
  ASSERT_FALSE(BuildStixForStpq(path, events).ok());
  EXPECT_EQ(Slurp(stix), before);
  // The surviving sidecar still validates against its source.
  EXPECT_TRUE(StixIndex::Open(stix, path).ok());
  fs::remove_all(stix + ".tmp");
}

// ---- ranged reads: a sidecar that disagrees with its file must surface as
// Corruption from ReadRecordsAt, never as silently wrong records.

TEST(StpqCorruptionTest, RangedReadVerifiesPromisedByteRun) {
  std::string dir = TempDir("range");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(5);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  uint64_t first_bytes = StpqRecordBytes(events[0]);

  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<EventRecord> out;
  // Promise one record but a byte run that spans two: parse must notice
  // the leftover bytes instead of returning a short read.
  Status mismatched = reader->ReadRecordsAt(
      kStpqHeaderBytes, kStpqHeaderBytes + first_bytes + 4, 1, &out);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, RangedReadRejectsRunPastEof) {
  std::string dir = TempDir("rangeeof");
  std::string path = dir + "/part.stpq";
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(3)).ok());
  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok());
  std::vector<EventRecord> out;
  uint64_t eof = reader->file_bytes();
  Status past = reader->ReadRecordsAt(eof - 4, eof + 64, 1, &out);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, RangedReadRunEndingInsideARecordIsCorruption) {
  std::string dir = TempDir("rangecut");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(4);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  uint64_t two = StpqRecordBytes(events[0]) + StpqRecordBytes(events[1]);
  for (uint64_t cut : {uint64_t{1}, uint64_t{3}, uint64_t{9}}) {
    auto reader = StpqReader::Open(path, kStpqKindEvent);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<EventRecord> out;
    Status st = reader->ReadRecordsAt(kStpqHeaderBytes,
                                      kStpqHeaderBytes + two - cut, 2, &out);
    ASSERT_FALSE(st.ok()) << "cut=" << cut;
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << "cut=" << cut;
  }
}

TrajRecord SomeTraj(int64_t id, int points) {
  TrajRecord t;
  t.id = id;
  for (int i = 0; i < points; ++i) {
    t.points.push_back(TrajPointRecord{1.0 * i, 2.0 * i, 10 * i});
  }
  return t;
}

TEST(StpqCorruptionTest, RangedTrajRunWithTrailingBytesIsCorruption) {
  std::string dir = TempDir("rangetrail");
  std::string path = dir + "/part.stpq";
  std::vector<TrajRecord> trajs = {SomeTraj(1, 3), SomeTraj(2, 5)};
  ASSERT_TRUE(WriteStpqFile(path, trajs).ok());
  auto reader = StpqReader::Open(path, kStpqKindTraj);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<TrajRecord> out;
  // One record promised, but the run also covers 8 bytes of the next.
  uint64_t end = kStpqHeaderBytes + StpqRecordBytes(trajs[0]) + 8;
  Status st = reader->ReadRecordsAt(kStpqHeaderBytes, end, 1, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  // The exact run still reads: the reader survives a bad run.
  out.clear();
  ASSERT_TRUE(reader
                  ->ReadRecordsAt(kStpqHeaderBytes,
                                  kStpqHeaderBytes + StpqRecordBytes(trajs[0]),
                                  1, &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].points.size(), 3u);
}

TEST(StpqCorruptionTest, RangedAttrLengthPastRunEndIsCorruption) {
  // attr_len stays plausible for the FILE (the next records are there) but
  // points past the end of the run: the parse must stop at the run's end.
  std::string dir = TempDir("rangeattr");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(3);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  std::string bytes = Slurp(path);
  size_t len_at = kStpqHeaderBytes + 8 + 8 + 8 + 8;
  uint32_t longer = 40;
  std::memcpy(&bytes[len_at], &longer, sizeof(longer));
  Dump(path, bytes);
  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<EventRecord> out;
  Status st = reader->ReadRecordsAt(
      kStpqHeaderBytes, kStpqHeaderBytes + StpqRecordBytes(events[0]), 1, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, RangedPointCountPastRunEndIsCorruption) {
  std::string dir = TempDir("rangepoints");
  std::string path = dir + "/part.stpq";
  std::vector<TrajRecord> trajs = {SomeTraj(1, 2), SomeTraj(2, 6)};
  ASSERT_TRUE(WriteStpqFile(path, trajs).ok());
  std::string bytes = Slurp(path);
  uint64_t more = 5;  // record 0 has 2 points; 5 reach into record 1
  std::memcpy(&bytes[kStpqHeaderBytes + 8], &more, sizeof(more));
  Dump(path, bytes);
  auto reader = StpqReader::Open(path, kStpqKindTraj);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<TrajRecord> out;
  Status st = reader->ReadRecordsAt(
      kStpqHeaderBytes, kStpqHeaderBytes + StpqRecordBytes(trajs[0]), 1, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

TEST(StpqCorruptionTest, StpqTruncatedAfterSidecarBuildIsCleanError) {
  std::string dir = TempDir("rangetrunc");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  ASSERT_TRUE(BuildStixForStpq(path, events).ok());
  auto index = StixIndex::Open(StixPathFor(path), path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto reader = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  uint64_t tail_start = index->RecordOffset(40);
  uint64_t tail_end = index->RecordOffset(50);
  fs::resize_file(path, tail_start + 5);

  // Truncated under an open reader: the run's read comes up short.
  std::vector<EventRecord> out;
  Status st = reader->ReadRecordsAt(tail_start, tail_end, 10, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  // A reader opened after the truncation rejects the sidecar's offsets...
  auto fresh = StpqReader::Open(path, kStpqKindEvent);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  out.clear();
  st = fresh->ReadRecordsAt(tail_start, tail_end, 10, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  // ...the sidecar itself no longer validates against its file...
  auto stale = StixIndex::Open(StixPathFor(path), path);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), Status::Code::kInvalidArgument);
  // ...and the full reader reports the cut-off tail.
  auto full = ReadStpqEvents(path);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), Status::Code::kCorruption);
}

// ---- `.stix` sidecar: a damaged index must be rejected by Open's
// validation (InvalidArgument), leaving the planner to fall back to a
// linear scan of the intact .stpq. The full mutation matrix lives in
// stix_test.cc; this spot-checks the reader-facing contract.

TEST(StpqCorruptionTest, StixBadMagicIsInvalidArgument) {
  std::string dir = TempDir("stixmagic");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  ASSERT_TRUE(BuildStixForStpq(path, events).ok());
  std::string stix = StixPathFor(path);
  std::string bytes = Slurp(stix);
  bytes[0] = 'Q';
  Dump(stix, bytes);
  auto index = StixIndex::Open(stix, path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument);
  // The data file itself is untouched and still loads.
  EXPECT_TRUE(ReadStpqEvents(path).ok());
}

TEST(StpqCorruptionTest, StixTruncationIsInvalidArgument) {
  std::string dir = TempDir("stixtrunc");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  ASSERT_TRUE(BuildStixForStpq(path, events).ok());
  std::string stix = StixPathFor(path);
  std::string bytes = Slurp(stix);
  Dump(stix, bytes.substr(0, bytes.size() / 3));
  auto index = StixIndex::Open(stix, path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument);
}

TEST(StpqCorruptionTest, StixStaleAfterSourceRewriteIsInvalidArgument) {
  std::string dir = TempDir("stixstale");
  std::string path = dir + "/part.stpq";
  auto events = SomeEvents(50);
  ASSERT_TRUE(WriteStpqFile(path, events).ok());
  ASSERT_TRUE(BuildStixForStpq(path, events).ok());
  ASSERT_TRUE(WriteStpqFile(path, SomeEvents(60)).ok());  // invalidates
  auto index = StixIndex::Open(StixPathFor(path), path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(index.status().message().find("stale"), std::string::npos);
}

}  // namespace
}  // namespace st4ml
