// Copyright 2026 The DOD Authors.
//
// Property / fuzz tests for the checkpoint manifest parser and the payload
// codec. The contract under test: arbitrarily malformed input — corrupted
// JSON, truncated payloads, version skew, job-key mismatch, random byte
// mutations — always degrades into a structured Status. Never UB, never a
// crash, never a silently wrong record. Each case is driven by a seeded
// deterministic PRNG so failures replay exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "durability/checkpoint.h"
#include "durability/payload.h"
#include "streaming/streaming_detector.h"

namespace dod {
namespace {

// SplitMix64: tiny, deterministic, good enough to drive mutations.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

std::string ValidManifest() {
  return R"({
  "format_version": 3,
  "job_key": "dod-1234",
  "tasks": [
    {"phase": "map", "index": 0, "file": "DATA.log",
     "offset": 0, "bytes": 16, "checksum": "00a9c1f3e5b70d42"},
    {"phase": "reduce", "index": 3, "file": "DATA.log",
     "offset": 16, "bytes": 4096, "checksum": "ffffffffffffffff"}
  ]
})";
}

TEST(ManifestFuzzTest, ValidManifestParses) {
  const auto parsed =
      CheckpointStore::ParseManifest(ValidManifest(), "dod-1234");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().format_version, CheckpointStore::kFormatVersion);
  EXPECT_EQ(parsed.value().job_key, "dod-1234");
  ASSERT_EQ(parsed.value().records.size(), 2u);
  EXPECT_EQ(parsed.value().records[0].phase, "map");
  EXPECT_EQ(parsed.value().records[1].index, 3);
  EXPECT_EQ(parsed.value().records[1].checksum, 0xFFFFFFFFFFFFFFFFULL);
}

TEST(ManifestFuzzTest, VersionSkewIsStructured) {
  for (const char* version : {"0", "1", "2", "999"}) {
    std::string text = ValidManifest();
    const size_t at = text.find("\"format_version\": 3");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, std::string("\"format_version\": 3").size(),
                 std::string("\"format_version\": ") + version);
    const auto parsed = CheckpointStore::ParseManifest(text, "dod-1234");
    ASSERT_FALSE(parsed.ok()) << version;
    EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition)
        << version;
  }
  {
    // A negative version is malformed rather than merely skewed.
    std::string text = ValidManifest();
    text.replace(text.find("\"format_version\": 3"),
                 std::string("\"format_version\": 3").size(),
                 "\"format_version\": -1");
    EXPECT_EQ(CheckpointStore::ParseManifest(text, "dod-1234").status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ManifestFuzzTest, JobKeyMismatchIsStructured) {
  const auto parsed =
      CheckpointStore::ParseManifest(ValidManifest(), "dod-other");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
  // Empty expected key skips the check (fuzz-harness escape hatch).
  EXPECT_TRUE(CheckpointStore::ParseManifest(ValidManifest(), "").ok());
}

// 100 seeded cases: every prefix truncation of a valid manifest must fail
// with a structured error (the only parseable prefix is the whole text).
TEST(ManifestFuzzTest, TruncationsNeverParse) {
  const std::string text = ValidManifest();
  Rng rng(0xDEADBEEF);
  for (int i = 0; i < 100; ++i) {
    const size_t keep = rng.Below(text.size());  // strictly shorter
    const auto parsed = CheckpointStore::ParseManifest(
        std::string_view(text).substr(0, keep), "dod-1234");
    ASSERT_FALSE(parsed.ok()) << "prefix of " << keep << " bytes parsed";
    EXPECT_NE(parsed.status().code(), StatusCode::kOk);
  }
}

// 200 seeded cases: random single/multi-byte mutations of a valid manifest
// either still parse (the mutation hit whitespace or a value and kept the
// grammar intact) or fail with a structured Status. Either way: no crash,
// and anything that does parse still carries sane, bounded fields.
TEST(ManifestFuzzTest, RandomMutationsAreStructuredOrStillValid) {
  const std::string base = ValidManifest();
  Rng rng(0x5EED5EED);
  for (int i = 0; i < 200; ++i) {
    std::string text = base;
    const int mutations = 1 + static_cast<int>(rng.Below(8));
    for (int m = 0; m < mutations; ++m) {
      const size_t at = rng.Below(text.size());
      switch (rng.Below(3)) {
        case 0:  // flip a byte
          text[at] = static_cast<char>(rng.Next() & 0xFF);
          break;
        case 1:  // delete a byte
          text.erase(at, 1);
          break;
        default:  // insert a byte
          text.insert(at, 1, static_cast<char>(rng.Next() & 0xFF));
          break;
      }
      if (text.empty()) text = "x";
    }
    const auto parsed = CheckpointStore::ParseManifest(text, "");
    if (!parsed.ok()) {
      EXPECT_NE(parsed.status().code(), StatusCode::kOk);
      continue;
    }
    // Survivors must still be internally consistent.
    EXPECT_EQ(parsed.value().format_version, CheckpointStore::kFormatVersion);
    for (const CheckpointRecord& record : parsed.value().records) {
      EXPECT_FALSE(record.phase.empty());
      EXPECT_EQ(record.phase.find_first_not_of(
                    "abcdefghijklmnopqrstuvwxyz0123456789_"),
                std::string::npos);
      EXPECT_GE(record.index, 0);
      EXPECT_FALSE(record.file.empty());
    }
  }
}

// Garbage that was never JSON: structured rejection, no crash.
TEST(ManifestFuzzTest, PureGarbageIsRejected) {
  Rng rng(0xBADF00D);
  for (int i = 0; i < 50; ++i) {
    std::string garbage(rng.Below(256) + 1, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next() & 0xFF);
    const auto parsed = CheckpointStore::ParseManifest(garbage, "k");
    // A random byte string parsing as a valid manifest would be miraculous.
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().code(), StatusCode::kOk);
  }
}

TEST(ManifestFuzzTest, HostileFieldValuesAreRejected) {
  // Field-level skew a version bump or hand edit could produce.
  const std::vector<std::string> hostile = {
      // Not an object at all.
      R"([1, 2, 3])",
      R"("just a string")",
      // Missing required fields.
      R"({"format_version": 3})",
      R"({"job_key": "k", "tasks": []})",
      // Wrong types.
      R"({"format_version": "one", "job_key": "k", "tasks": []})",
      R"({"format_version": 3, "job_key": 7, "tasks": []})",
      R"({"format_version": 3, "job_key": "k", "tasks": 5})",
      // Bad records.
      R"({"format_version": 3, "job_key": "k",
          "tasks": [{"phase": "map"}]})",
      R"({"format_version": 3, "job_key": "k",
          "tasks": [{"phase": "Chaos!", "index": 0, "file": "f", "offset": 0,
                     "bytes": 1, "checksum": "00"}]})",
      R"({"format_version": 3, "job_key": "k",
          "tasks": [{"phase": "map", "index": -4, "file": "f", "offset": 0,
                     "bytes": 1, "checksum": "00"}]})",
      // Missing payload offset.
      R"({"format_version": 3, "job_key": "k",
          "tasks": [{"phase": "map", "index": 0, "file": "f",
                     "bytes": 1, "checksum": "00"}]})",
      // Checksum not hex.
      R"({"format_version": 3, "job_key": "k",
          "tasks": [{"phase": "map", "index": 0, "file": "f", "offset": 0,
                     "bytes": 1, "checksum": "zzzz"}]})",
      // Path escape in the payload file name.
      R"({"format_version": 3, "job_key": "k",
          "tasks": [{"phase": "map", "index": 0, "file": "../../etc/x",
                     "offset": 0, "bytes": 1,
                     "checksum": "00a9c1f3e5b70d42"}]})",
  };
  for (const std::string& text : hostile) {
    const auto parsed = CheckpointStore::ParseManifest(text, "k");
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.status().code(), StatusCode::kOk) << text;
  }
}

// ---------------------------------------------------------------------------
// Journal record lines under fuzz.

std::string ValidRecordLine() {
  return R"({"phase": "reduce", "index": 7, "file": "DATA.log",)"
         R"( "offset": 4096, "bytes": 128, "checksum": "00a9c1f3e5b70d42"})";
}

TEST(JournalFuzzTest, ValidRecordLineParses) {
  const auto parsed = CheckpointStore::ParseRecordLine(ValidRecordLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().phase, "reduce");
  EXPECT_EQ(parsed.value().index, 7);
  EXPECT_EQ(parsed.value().file, "DATA.log");
  EXPECT_EQ(parsed.value().offset, 4096u);
  EXPECT_EQ(parsed.value().bytes, 128u);
  EXPECT_EQ(parsed.value().checksum, 0x00a9c1f3e5b70d42ull);
}

// Every proper prefix of a record line is a torn append; none may parse.
TEST(JournalFuzzTest, TruncatedLinesNeverParse) {
  const std::string line = ValidRecordLine();
  for (size_t len = 0; len < line.size(); ++len) {
    const auto parsed = CheckpointStore::ParseRecordLine(line.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "torn prefix of length " << len << " parsed";
  }
}

// Random single-byte corruption of a journal line: structured rejection or a
// still-internally-consistent record, never UB.
TEST(JournalFuzzTest, RandomMutationsAreStructuredOrStillValid) {
  const std::string base = ValidRecordLine();
  Rng rng(0x10664);
  for (int i = 0; i < 200; ++i) {
    std::string mutated = base;
    const size_t pos = rng.Below(mutated.size());
    mutated[pos] = static_cast<char>(rng.Next() & 0xFF);
    const auto parsed = CheckpointStore::ParseRecordLine(mutated);
    if (!parsed.ok()) continue;
    EXPECT_FALSE(parsed.value().phase.empty());
    EXPECT_EQ(parsed.value().phase.find_first_not_of(
                  "abcdefghijklmnopqrstuvwxyz0123456789_"),
              std::string::npos);
    EXPECT_GE(parsed.value().index, 0);
    EXPECT_FALSE(parsed.value().file.empty());
  }
}

// ---------------------------------------------------------------------------
// Payload codec under fuzz.

std::string ValidPayload() {
  PayloadWriter writer;
  writer.U64(3);
  writer.F64Vec({1.5, -2.5, 4.0});
  writer.String("profile");
  writer.U8(1);
  writer.F64(0.25);
  return writer.Take();
}

Status DrainAsWritten(std::string_view bytes) {
  PayloadReader reader(bytes);
  uint64_t count = 0;
  DOD_RETURN_IF_ERROR(reader.U64(&count));
  std::vector<double> values;
  DOD_RETURN_IF_ERROR(reader.F64Vec(&values));
  std::string tag;
  DOD_RETURN_IF_ERROR(reader.String(&tag));
  uint8_t flag = 0;
  DOD_RETURN_IF_ERROR(reader.U8(&flag));
  double weight = 0.0;
  DOD_RETURN_IF_ERROR(reader.F64(&weight));
  return reader.ExpectDone();
}

// 100 seeded truncations: every strict prefix must fail somewhere in the
// read sequence — fixed-width reads leave no ambiguous prefix.
TEST(PayloadFuzzTest, EveryTruncationFails) {
  const std::string payload = ValidPayload();
  ASSERT_TRUE(DrainAsWritten(payload).ok());
  Rng rng(0xFEEDFACE);
  for (int i = 0; i < 100; ++i) {
    const size_t keep = rng.Below(payload.size());
    const Status status =
        DrainAsWritten(std::string_view(payload).substr(0, keep));
    ASSERT_FALSE(status.ok()) << "prefix of " << keep << " bytes drained";
    EXPECT_EQ(status.code(), StatusCode::kIoError);
  }
}

// 200 seeded mutations: a mutated payload either still drains (the flip
// landed in a value, not a length prefix) or fails structurally. Length
// prefixes are the attack surface — a corrupted count must never read out
// of bounds (ASan/UBSan CI leg would flag it).
TEST(PayloadFuzzTest, RandomMutationsNeverReadOutOfBounds) {
  const std::string base = ValidPayload();
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 200; ++i) {
    std::string payload = base;
    const int mutations = 1 + static_cast<int>(rng.Below(4));
    for (int m = 0; m < mutations; ++m) {
      if (rng.Below(2) == 0 && payload.size() > 1) {
        payload.resize(payload.size() - 1 - rng.Below(payload.size() - 1));
      } else {
        payload[rng.Below(payload.size())] =
            static_cast<char>(rng.Next() & 0xFF);
      }
    }
    const Status status = DrainAsWritten(payload);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kIoError);
    }
  }
}

TEST(PayloadFuzzTest, OverflowingLengthPrefixIsRejected) {
  // A length prefix claiming more elements than bytes remain must fail
  // before any allocation explosion: count * sizeof(double) overflows or
  // overruns, both rejected.
  for (const uint64_t count :
       {uint64_t{1} << 62, uint64_t{0xFFFFFFFFFFFFFFFF}, uint64_t{1000}}) {
    PayloadWriter writer;
    writer.U64(count);
    writer.F64(1.0);  // far fewer bytes than `count` doubles
    PayloadReader reader(writer.str());
    std::vector<double> values;
    const Status status = reader.F64Vec(&values);
    ASSERT_FALSE(status.ok()) << count;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << count;
    EXPECT_TRUE(values.empty());
  }
  PayloadWriter writer;
  writer.U32(0xFFFFFFFFu);
  PayloadReader reader(writer.str());
  std::string out;
  EXPECT_EQ(reader.String(&out).code(), StatusCode::kIoError);
}

TEST(PayloadFuzzTest, FailedReaderStaysFailed) {
  PayloadWriter writer;
  writer.U32(7);
  PayloadReader reader(writer.str());
  uint64_t wide = 0;
  ASSERT_FALSE(reader.U64(&wide).ok());  // 4 bytes can't fill a u64
  // The cursor did not advance into garbage; everything keeps failing.
  uint32_t narrow = 0;
  EXPECT_FALSE(reader.U32(&narrow).ok());
  EXPECT_FALSE(reader.ExpectDone().ok());
}

// ---------------------------------------------------------------------------
// Hostile stream snapshots: the v4 codec's per-point summaries and
// watermark/reorder section are attacker-controlled state a restore must
// never trust. Every malformed record — duplicate ids, non-finite
// clocks/timestamps/coordinates, dims skew, arrival-sequence skew,
// source-order violations, summaries that contradict the flagged set,
// truncations, random byte mutations — degrades into a structured Status,
// never UB, a silently admitted out-of-order block, or a wrong verdict.

namespace fs = std::filesystem;

class StreamTempDir {
 public:
  explicit StreamTempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              (name + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~StreamTempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

StreamingConfig HostileRestoreConfig(const std::string& dir) {
  StreamingConfig config;
  config.params.radius = 1.0;
  config.params.min_neighbors = 2;
  config.params.seed = 7;
  config.watermark.enabled = true;
  config.watermark.lateness = 5.0;
  config.checkpoint_dir = dir;
  return config;
}

// Knobs for hand-crafting a v4 snapshot; the defaults produce a valid one
// (one source window of two isolated, flagged resident points with exact
// zero counts, one buffered block).
struct V4Knobs {
  std::vector<uint32_t> window_sources = {0};
  // (count, saturated) of resident ids 1 and 2, and the flagged set.
  std::pair<uint32_t, uint8_t> summary1 = {0, 0};
  std::pair<uint32_t, uint8_t> summary2 = {0, 0};
  std::vector<uint32_t> outliers = {1, 2};
  std::vector<std::pair<uint32_t, double>> clocks = {{0, 10.0}};
  uint64_t pending_arrival = 2;
  double pending_ts = 9.0;
  double pending_coord = 6.0;
  uint32_t pending_dims = 2;
  std::vector<uint32_t> pending_ids = {7};
};

std::string V4StreamPayload(const V4Knobs& k) {
  PayloadWriter w;
  w.U32(4);  // version
  w.U64(1);  // round
  w.U64(1);  // next_seq
  w.U32(2);  // dims
  w.U64(k.window_sources.size());
  for (size_t s = 0; s < k.window_sources.size(); ++s) {
    w.U32(k.window_sources[s]);
    w.U8(1);      // saw_timestamp
    w.F64(8.0);   // high water
    if (s == 0) {
      // One block, two isolated resident points (ids 1 and 2).
      w.U64(1);
      w.U64(0);  // seq
      w.F64(8.0);
      w.U64(2);
      const double p1[2] = {0.0, 0.0};
      const double p2[2] = {50.0, 50.0};
      w.U32(1);
      w.Raw(p1, sizeof(p1));
      w.U32(k.summary1.first);
      w.U8(k.summary1.second);
      w.U32(2);
      w.Raw(p2, sizeof(p2));
      w.U32(k.summary2.first);
      w.U8(k.summary2.second);
    } else {
      w.U64(0);  // later sources carry no blocks
    }
  }
  w.U64(k.outliers.size());
  for (uint32_t id : k.outliers) w.U32(id);
  // Watermark/reorder section.
  w.U64(3);   // arrivals
  w.U64(0);   // late_dropped
  w.U8(1);    // saw_arrival
  w.F64(10.0);  // global max ts
  w.U64(3);   // next_arrival
  w.U64(k.clocks.size());
  for (const auto& [source, clock] : k.clocks) {
    w.U32(source);
    w.F64(clock);
  }
  w.U64(1);  // one pending block
  w.U64(k.pending_arrival);
  w.U32(0);  // source
  w.F64(k.pending_ts);
  w.U32(k.pending_dims);
  w.U64(k.pending_ids.size());
  for (uint32_t id : k.pending_ids) {
    w.U32(id);
    std::vector<double> coords(k.pending_dims == 0 ? 2 : k.pending_dims,
                               k.pending_coord);
    w.Raw(coords.data(), sizeof(double) * coords.size());
  }
  return w.Take();
}

void CommitHostileSnapshot(const std::string& dir, const std::string& key,
                           const std::string& payload) {
  auto store = CheckpointStore::Open(dir, key, false);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store.value()->CommitTask("stream", 3, payload).ok());
  PayloadWriter latest;
  latest.U64(3);
  ASSERT_TRUE(store.value()->CommitTask("latest", 0, latest.str()).ok());
}

TEST(StreamSnapshotFuzzTest, ValidV4PayloadRestores) {
  StreamTempDir dir("dod-ckfuzz-stream-valid");
  const StreamingConfig base = HostileRestoreConfig(dir.str());
  CommitHostileSnapshot(dir.str(), StreamingDetector::JobKeyFor(base),
                        V4StreamPayload(V4Knobs{}));
  StreamingConfig config = base;
  config.resume = true;
  auto resumed = StreamingDetector::Create(config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->rounds(), 1u);
  EXPECT_EQ(resumed.value()->outliers(), (std::vector<PointId>{1, 2}));
  EXPECT_EQ(resumed.value()->arrivals(), 3u);
  EXPECT_EQ(resumed.value()->buffered_blocks(), 1u);
  EXPECT_EQ(resumed.value()->resident_points(), 2u);
}

TEST(StreamSnapshotFuzzTest, HostileReorderRecordsAreStructurallyRejected) {
  struct Case {
    const char* name;
    V4Knobs knobs;
  };
  std::vector<Case> cases;
  {
    Case c{"pending id duplicates a resident id", {}};
    c.knobs.pending_ids = {1};
    cases.push_back(c);
  }
  {
    Case c{"duplicate ids within the reorder buffer", {}};
    c.knobs.pending_ids = {7, 7};
    cases.push_back(c);
  }
  {
    Case c{"non-finite pending timestamp", {}};
    c.knobs.pending_ts = std::nan("");
    cases.push_back(c);
  }
  {
    Case c{"non-finite pending coordinate", {}};
    c.knobs.pending_coord = std::numeric_limits<double>::infinity();
    cases.push_back(c);
  }
  {
    Case c{"zero pending dims", {}};
    c.knobs.pending_dims = 0;
    cases.push_back(c);
  }
  {
    Case c{"pending dims disagree with the window", {}};
    c.knobs.pending_dims = 3;
    cases.push_back(c);
  }
  {
    Case c{"pending arrival beyond the arrival cursor", {}};
    c.knobs.pending_arrival = 5;  // >= persisted next_arrival of 3
    cases.push_back(c);
  }
  {
    Case c{"watermark clocks not strictly ascending", {}};
    c.knobs.clocks = {{0, 10.0}, {0, 4.0}};
    cases.push_back(c);
  }
  {
    Case c{"non-finite watermark clock", {}};
    c.knobs.clocks = {{0, std::nan("")}};
    cases.push_back(c);
  }
  {
    Case c{"window source ids not strictly ascending", {}};
    c.knobs.window_sources = {1, 1};
    cases.push_back(c);
  }

  StreamTempDir dir("dod-ckfuzz-stream-hostile");
  const StreamingConfig base = HostileRestoreConfig(dir.str());
  const std::string key = StreamingDetector::JobKeyFor(base);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    CommitHostileSnapshot(dir.str(), key, V4StreamPayload(c.knobs));
    StreamingConfig config = base;
    config.resume = true;
    auto resumed = StreamingDetector::Create(config);
    ASSERT_FALSE(resumed.ok()) << c.name;
    EXPECT_NE(resumed.status().code(), StatusCode::kOk);
  }
}

TEST(StreamSnapshotFuzzTest, SummariesContradictingVerdictsAreIoErrors) {
  // r=1, k=2. A restored summary must agree with the flagged set: a
  // saturated bound is never below k, and a point is flagged exactly when
  // its exact count is below k. Anything else is a corrupt snapshot.
  struct Case {
    const char* name;
    V4Knobs knobs;
  };
  std::vector<Case> cases;
  {
    Case c{"saturated point whose count is below k", {}};
    c.knobs.summary1 = {1, 1};
    c.knobs.outliers = {2};
    cases.push_back(c);
  }
  {
    Case c{"exact count below k that is not flagged", {}};
    c.knobs.summary1 = {1, 0};
    c.knobs.outliers = {2};
    cases.push_back(c);
  }
  {
    Case c{"flagged point whose exact count is at least k", {}};
    c.knobs.summary1 = {5, 0};
    cases.push_back(c);
  }

  StreamTempDir dir("dod-ckfuzz-stream-summaries");
  const StreamingConfig base = HostileRestoreConfig(dir.str());
  const std::string key = StreamingDetector::JobKeyFor(base);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    CommitHostileSnapshot(dir.str(), key, V4StreamPayload(c.knobs));
    StreamingConfig config = base;
    config.resume = true;
    auto resumed = StreamingDetector::Create(config);
    ASSERT_FALSE(resumed.ok()) << c.name;
    EXPECT_EQ(resumed.status().code(), StatusCode::kIoError)
        << resumed.status().ToString();
  }
}

// 60 seeded truncations: every strict prefix of a valid v4 snapshot fails
// somewhere in the fixed-width read sequence — never a partial restore.
TEST(StreamSnapshotFuzzTest, TruncatedSnapshotsNeverRestore) {
  const std::string payload = V4StreamPayload(V4Knobs{});
  StreamTempDir dir("dod-ckfuzz-stream-trunc");
  const StreamingConfig base = HostileRestoreConfig(dir.str());
  const std::string key = StreamingDetector::JobKeyFor(base);
  Rng rng(0x57E4);
  for (int i = 0; i < 60; ++i) {
    const size_t keep = rng.Below(payload.size());
    CommitHostileSnapshot(dir.str(), key, payload.substr(0, keep));
    StreamingConfig config = base;
    config.resume = true;
    auto resumed = StreamingDetector::Create(config);
    ASSERT_FALSE(resumed.ok()) << "prefix of " << keep << " bytes restored";
    EXPECT_NE(resumed.status().code(), StatusCode::kOk);
  }
}

// 80 seeded byte mutations: a flipped snapshot either still restores (the
// flip landed in a value) or fails with a structured Status — never UB
// (the ASan/UBSan CI leg runs this too).
TEST(StreamSnapshotFuzzTest, MutatedSnapshotsAreStructuredOrStillValid) {
  const std::string payload = V4StreamPayload(V4Knobs{});
  StreamTempDir dir("dod-ckfuzz-stream-mut");
  const StreamingConfig base = HostileRestoreConfig(dir.str());
  const std::string key = StreamingDetector::JobKeyFor(base);
  Rng rng(0xA40);
  for (int i = 0; i < 80; ++i) {
    std::string mutated = payload;
    const int flips = 1 + static_cast<int>(rng.Below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Below(mutated.size())] =
          static_cast<char>(rng.Next() & 0xFF);
    }
    CommitHostileSnapshot(dir.str(), key, mutated);
    StreamingConfig config = base;
    config.resume = true;
    auto resumed = StreamingDetector::Create(config);
    if (resumed.ok()) {
      // Survivors must be coherent enough to keep serving.
      (void)resumed.value()->buffered_blocks();
      (void)resumed.value()->outliers();
    } else {
      EXPECT_NE(resumed.status().code(), StatusCode::kOk);
    }
  }
}

TEST(PayloadFuzzTest, ChecksumDistinguishesEveryMutation) {
  // Property: FNV-1a over the payload changes under any single-byte flip —
  // this is what lets LoadTask reject corrupted records.
  const std::string payload = ValidPayload();
  const uint64_t reference = Fnv1a64(payload);
  Rng rng(0xABCD);
  for (int i = 0; i < 100; ++i) {
    std::string mutated = payload;
    const size_t at = rng.Below(mutated.size());
    const char flip = static_cast<char>(1 + rng.Below(255));
    mutated[at] = static_cast<char>(mutated[at] ^ flip);
    EXPECT_NE(Fnv1a64(mutated), reference) << "flip at " << at;
  }
}

}  // namespace
}  // namespace dod
