// Copyright 2026 The DOD Authors.

#include "io/csv.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace dod {
namespace {

// Splits `line` on `delim`, trimming nothing (numeric fields tolerate
// leading whitespace via strtod).
std::vector<std::string> SplitFields(const std::string& line, char delim) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, delim)) fields.push_back(field);
  // A trailing delimiter denotes one final empty field.
  if (!line.empty() && line.back() == delim) fields.emplace_back();
  return fields;
}

bool ParseDouble(const std::string& s, double* out) {
  const char* begin = s.c_str();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  if (end == begin) return false;
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  return *end == '\0';
}

}  // namespace

Status WriteCsv(const Dataset& dataset, const std::string& path,
                const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  char buf[64];
  for (size_t i = 0; i < dataset.size(); ++i) {
    const double* p = dataset[static_cast<PointId>(i)];
    for (int d = 0; d < dataset.dims(); ++d) {
      std::snprintf(buf, sizeof(buf), "%.17g", p[d]);
      if (d > 0) out << options.delimiter;
      out << buf;
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<Dataset> ReadCsv(const std::string& path, const CsvOptions& options) {
  if (options.columns.size() > static_cast<size_t>(kMaxDimensions)) {
    return Status::InvalidArgument(
        "at most " + std::to_string(kMaxDimensions) +
        " coordinate columns, got " + std::to_string(options.columns.size()));
  }
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);

  std::string line;
  int line_no = 0;
  for (int i = 0; i < options.skip_rows && std::getline(in, line); ++i) {
    ++line_no;
  }

  int dims = static_cast<int>(options.columns.size());
  Dataset dataset(dims > 0 ? dims : 1);
  bool dims_known = dims > 0;

  Point p(dims_known ? dims : 1);
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitFields(line, options.delimiter);
    if (!dims_known) {
      dims = static_cast<int>(fields.size());
      if (dims < 1 || dims > kMaxDimensions) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": unsupported dimensionality " +
                                       std::to_string(dims));
      }
      dataset = Dataset(dims);
      p = Point(dims);
      dims_known = true;
    }
    if (!options.columns.empty()) {
      for (int d = 0; d < dims; ++d) {
        const int col = options.columns[d];
        if (col < 0 || col >= static_cast<int>(fields.size())) {
          return Status::InvalidArgument("line " + std::to_string(line_no) +
                                         ": missing column " +
                                         std::to_string(col));
        }
        if (!ParseDouble(fields[col], &p[d])) {
          return Status::InvalidArgument("line " + std::to_string(line_no) +
                                         ": bad number '" + fields[col] + "'");
        }
      }
    } else {
      if (static_cast<int>(fields.size()) != dims) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": expected " +
            std::to_string(dims) + " fields, got " +
            std::to_string(fields.size()));
      }
      for (int d = 0; d < dims; ++d) {
        if (!ParseDouble(fields[d], &p[d])) {
          return Status::InvalidArgument("line " + std::to_string(line_no) +
                                         ": bad number '" + fields[d] + "'");
        }
      }
    }
    dataset.Append(p);
  }
  // strtod happily parses "nan" and "inf"; reject them here so a poisoned
  // CSV fails loudly instead of corrupting cell assignment downstream.
  DOD_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

}  // namespace dod
