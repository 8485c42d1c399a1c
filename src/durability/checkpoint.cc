// Copyright 2026 The DOD Authors.

#include "durability/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "durability/payload.h"
#include "observability/json.h"

namespace dod {
namespace {

namespace fs = std::filesystem;

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Writes `contents` to `path` atomically: temp file in the same directory,
// flush, rename over the target.
Status AtomicWriteFile(const fs::path& path, const std::string& contents) {
  fs::path temp = path;
  temp += ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open " + temp.string() +
                             " for writing: " + std::strerror(errno));
    }
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      return Status::IoError("short write to " + temp.string());
    }
  }
  std::error_code ec;
  fs::rename(temp, path, ec);
  if (ec) {
    fs::remove(temp, ec);
    return Status::IoError("cannot rename " + temp.string() + " over " +
                           path.string() + ": " + ec.message());
  }
  return Status::Ok();
}

Result<std::string> ReadFileToString(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path.string() + ": " +
                            std::strerror(errno));
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read failure on " + path.string());
  }
  return contents.str();
}

// A manifest field that must be a non-negative integral number.
Result<uint64_t> GetU64Field(const JsonValue& obj, const std::string& key,
                             const char* where) {
  if (!obj.Has(key) || !obj.Get(key).is_number()) {
    return Status::InvalidArgument(std::string(where) + " is missing numeric " +
                                   key);
  }
  double v = obj.Get(key).number_value();
  if (v < 0.0 || v != v || v > 1.8e19) {
    return Status::InvalidArgument(std::string(where) + " has out-of-range " +
                                   key);
  }
  return static_cast<uint64_t>(v);
}

bool ValidPhaseName(const std::string& phase) {
  if (phase.empty() || phase.size() > 32) return false;
  for (char c : phase) {
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

// Validates one task-record object (a `tasks` entry or a journal line).
Result<CheckpointRecord> ParseRecordObject(const JsonValue& entry) {
  if (!entry.is_object()) {
    return Status::InvalidArgument("manifest task entry is not an object");
  }
  CheckpointRecord record;
  if (!entry.Has("phase") || !entry.Get("phase").is_string()) {
    return Status::InvalidArgument("manifest task entry is missing phase");
  }
  record.phase = entry.Get("phase").string_value();
  // Phase names are lowercase identifiers ("map", "reduce", "stream",
  // "latest", ...); the syntactic check keeps rejecting corrupted records
  // without a whitelist every new subsystem would have to extend.
  if (!ValidPhaseName(record.phase)) {
    return Status::InvalidArgument("manifest task entry has invalid phase " +
                                   record.phase);
  }
  DOD_ASSIGN_OR_RETURN(uint64_t index,
                       GetU64Field(entry, "index", "manifest task entry"));
  if (index > CheckpointStore::kMaxTaskIndex) {
    return Status::InvalidArgument("manifest task entry index too large");
  }
  record.index = static_cast<int>(index);
  if (!entry.Has("file") || !entry.Get("file").is_string()) {
    return Status::InvalidArgument("manifest task entry is missing file");
  }
  record.file = entry.Get("file").string_value();
  // Payload files live directly in the store directory; a path with
  // separators could escape it.
  if (record.file.empty() ||
      record.file.find_first_of("/\\") != std::string::npos) {
    return Status::InvalidArgument("manifest task entry has invalid file " +
                                   record.file);
  }
  DOD_ASSIGN_OR_RETURN(record.offset,
                       GetU64Field(entry, "offset", "manifest task entry"));
  DOD_ASSIGN_OR_RETURN(record.bytes,
                       GetU64Field(entry, "bytes", "manifest task entry"));
  // The checksum is a full 64-bit value; JSON numbers round-trip through
  // double (53-bit mantissa) in this parser, so it is stored as hex text.
  if (!entry.Has("checksum") || !entry.Get("checksum").is_string()) {
    return Status::InvalidArgument(
        "manifest task entry is missing string checksum");
  }
  const std::string& checksum_hex = entry.Get("checksum").string_value();
  char* end = nullptr;
  errno = 0;
  record.checksum = std::strtoull(checksum_hex.c_str(), &end, 16);
  if (checksum_hex.empty() ||
      end != checksum_hex.c_str() + checksum_hex.size() || errno == ERANGE) {
    return Status::InvalidArgument(
        "manifest task entry has malformed checksum " + checksum_hex);
  }
  return record;
}

// One journal line: {"phase": ..., "index": ..., "file": ...,
// "offset": ..., "bytes": ..., "checksum": ...}\n
std::string RecordLine(const CheckpointRecord& record) {
  char checksum_hex[17];
  std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                static_cast<unsigned long long>(record.checksum));
  std::ostringstream out;
  out << "{\"phase\": \"" << record.phase
      << "\", \"index\": " << record.index << ", \"file\": \""
      << JsonEscape(record.file) << "\", \"offset\": " << record.offset
      << ", \"bytes\": " << record.bytes << ", \"checksum\": \""
      << checksum_hex << "\"}\n";
  return out.str();
}

}  // namespace

Result<CheckpointRecord> CheckpointStore::ParseRecordLine(
    std::string_view line) {
  DOD_ASSIGN_OR_RETURN(JsonValue entry, JsonValue::Parse(line));
  return ParseRecordObject(entry);
}

Result<CheckpointManifest> CheckpointStore::ParseManifest(
    std::string_view text, const std::string& expected_job_key) {
  DOD_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("manifest root is not an object");
  }
  CheckpointManifest manifest;
  DOD_ASSIGN_OR_RETURN(uint64_t version,
                       GetU64Field(root, "format_version", "manifest"));
  if (version != static_cast<uint64_t>(kFormatVersion)) {
    return Status::FailedPrecondition(
        "manifest format_version " + std::to_string(version) +
        " is not the supported version " + std::to_string(kFormatVersion));
  }
  manifest.format_version = static_cast<int>(version);
  if (!root.Has("job_key") || !root.Get("job_key").is_string()) {
    return Status::InvalidArgument("manifest is missing string job_key");
  }
  manifest.job_key = root.Get("job_key").string_value();
  if (!expected_job_key.empty() && manifest.job_key != expected_job_key) {
    return Status::FailedPrecondition(
        "manifest belongs to job " + manifest.job_key +
        ", not the requested job " + expected_job_key +
        " — refusing to resume from another job's checkpoints");
  }
  if (!root.Has("tasks") || !root.Get("tasks").is_array()) {
    return Status::InvalidArgument("manifest is missing tasks array");
  }
  for (const JsonValue& entry : root.Get("tasks").array()) {
    DOD_ASSIGN_OR_RETURN(CheckpointRecord record, ParseRecordObject(entry));
    manifest.records.push_back(std::move(record));
  }
  return manifest;
}

Result<std::unique_ptr<CheckpointStore>> CheckpointStore::Open(
    const std::string& dir, const std::string& job_key, bool resume) {
  if (dir.empty()) {
    return Status::InvalidArgument("checkpoint directory must not be empty");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint directory " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<CheckpointStore> store(new CheckpointStore(dir, job_key));
  fs::path manifest_path = fs::path(dir) / "MANIFEST.json";

  if (resume && fs::exists(manifest_path)) {
    DOD_ASSIGN_OR_RETURN(std::string text, ReadFileToString(manifest_path));
    DOD_ASSIGN_OR_RETURN(CheckpointManifest manifest,
                         ParseManifest(text, job_key));
    for (CheckpointRecord& record : manifest.records) {
      std::pair<std::string, int> key(record.phase, record.index);
      store->records_[std::move(key)] = std::move(record);
    }
    // Replay the commit journal over the snapshot. Appends land whole or
    // torn-at-the-tail, so replay stops at the first line that is
    // unterminated or fails to parse — everything after it is suspect and
    // those tasks simply re-run.
    const fs::path journal_path = fs::path(dir) / "MANIFEST.log";
    if (fs::exists(journal_path)) {
      DOD_ASSIGN_OR_RETURN(std::string journal,
                           ReadFileToString(journal_path));
      size_t start = 0;
      while (start < journal.size()) {
        const size_t newline = journal.find('\n', start);
        if (newline == std::string::npos) break;  // torn final append
        const std::string_view line(journal.data() + start, newline - start);
        start = newline + 1;
        if (line.empty()) continue;
        Result<CheckpointRecord> record = ParseRecordLine(line);
        if (!record.ok()) break;
        std::pair<std::string, int> key(record.value().phase,
                                        record.value().index);
        store->records_[std::move(key)] = std::move(record).value();
      }
    }
    return store;
  }

  // Fresh run: drop any stale state so a later resume cannot mix jobs,
  // then durably establish this job's identity before any commits.
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const fs::path& p = entry.path();
    if (p.filename() == "MANIFEST.json" || p.filename() == "MANIFEST.log" ||
        p.filename() == "DATA.log" || p.extension() == ".ckpt" ||
        p.extension() == ".tmp") {
      fs::remove(p, ec);
    }
  }
  DOD_RETURN_IF_ERROR(store->WriteManifestSnapshot());
  return store;
}

bool CheckpointStore::HasTask(std::string_view phase, int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.count({std::string(phase), index}) != 0;
}

size_t CheckpointStore::CommittedTasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

Result<std::string> CheckpointStore::LoadTask(std::string_view phase,
                                              int index) const {
  CheckpointRecord record;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find({std::string(phase), index});
    if (it == records_.end()) {
      return Status::NotFound("no committed checkpoint for " +
                              std::string(phase) + " task " +
                              std::to_string(index));
    }
    record = it->second;
  }
  const fs::path segment_path = fs::path(dir_) / record.file;
  std::ifstream in(segment_path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open checkpoint segment " +
                           segment_path.string() + ": " +
                           std::strerror(errno));
  }
  in.seekg(0, std::ios::end);
  const uint64_t segment_size = static_cast<uint64_t>(in.tellg());
  if (record.offset > segment_size ||
      record.bytes > segment_size - record.offset) {
    return Status::IoError(
        "checkpoint payload at " + record.file + "+" +
        std::to_string(record.offset) + " (" + std::to_string(record.bytes) +
        " bytes) overruns the " + std::to_string(segment_size) +
        "-byte segment — truncated or torn write");
  }
  std::string payload(record.bytes, '\0');
  in.seekg(static_cast<std::streamoff>(record.offset));
  in.read(payload.data(), static_cast<std::streamsize>(record.bytes));
  if (!in) {
    return Status::IoError("read failure on checkpoint segment " +
                           segment_path.string());
  }
  if (Fnv1a64(payload) != record.checksum) {
    return Status::IoError("checkpoint payload at " + record.file + "+" +
                           std::to_string(record.offset) +
                           " fails its checksum — corrupted");
  }
  return payload;
}

Status CheckpointStore::CommitTask(std::string_view phase, int index,
                                   const std::string& payload) {
  CheckpointRecord record;
  record.phase = std::string(phase);
  record.index = index;
  record.file = "DATA.log";
  record.bytes = payload.size();
  record.checksum = Fnv1a64(payload);

  // Payload bytes into the segment first, then the journal line — see the
  // durability protocol in the header. Both are appends to already-open
  // streams, so the held-lock work is microseconds.
  std::lock_guard<std::mutex> lock(mu_);
  DOD_RETURN_IF_ERROR(OpenLogsLocked());
  record.offset = segment_end_;
  segment_.write(payload.data(),
                 static_cast<std::streamsize>(payload.size()));
  segment_.flush();
  if (!segment_) {
    return Status::IoError("checkpoint segment append failed for " +
                           record.phase + " task " +
                           std::to_string(record.index));
  }
  segment_end_ += payload.size();
  journal_ << RecordLine(record);
  journal_.flush();
  if (!journal_) {
    return Status::IoError("checkpoint journal append failed for " +
                           record.phase + " task " +
                           std::to_string(record.index));
  }
  records_[{record.phase, record.index}] = std::move(record);
  return Status::Ok();
}

Status CheckpointStore::OpenLogsLocked() {
  if (journal_.is_open()) return Status::Ok();
  const fs::path segment_path = fs::path(dir_) / "DATA.log";
  // Resuming into a non-empty segment: new payloads append after the
  // existing bytes (including any orphaned tail from a torn commit).
  std::error_code ec;
  segment_end_ =
      fs::exists(segment_path, ec) ? fs::file_size(segment_path, ec) : 0;
  segment_.open(segment_path, std::ios::binary | std::ios::app);
  if (!segment_) {
    return Status::IoError("cannot open checkpoint segment in " + dir_ +
                           ": " + std::strerror(errno));
  }
  journal_.open(fs::path(dir_) / "MANIFEST.log",
                std::ios::binary | std::ios::app);
  if (!journal_) {
    return Status::IoError("cannot open checkpoint journal in " + dir_ +
                           ": " + std::strerror(errno));
  }
  return Status::Ok();
}

// The snapshot written when a store opens fresh: job identity plus any
// records known at that moment (none today; a future compaction could fold
// the journal in here).
Status CheckpointStore::WriteManifestSnapshot() {
  std::ostringstream out;
  out << "{\n  \"format_version\": " << kFormatVersion << ",\n"
      << "  \"job_key\": \"" << JsonEscape(job_key_) << "\",\n"
      << "  \"tasks\": [";
  bool first = true;
  for (const auto& [key, record] : records_) {
    out << (first ? "\n" : ",\n");
    first = false;
    std::string line = RecordLine(record);
    line.pop_back();  // the journal newline
    out << "    " << line;
  }
  out << "\n  ]\n}\n";
  return AtomicWriteFile(fs::path(dir_) / "MANIFEST.json", out.str());
}

}  // namespace dod
