// Copyright 2026 The DOD Authors.
//
// CSV import/export for datasets. The OpenStreetMap/TIGER extracts the paper
// uses are row-per-record text files; this module lets users load their own
// extracts into a `dod::Dataset`.

#ifndef DOD_IO_CSV_H_
#define DOD_IO_CSV_H_

#include <string>

#include "common/dataset.h"
#include "common/status.h"

namespace dod {

struct CsvOptions {
  char delimiter = ',';
  // Skip this many leading rows (e.g. a header line).
  int skip_rows = 0;
  // If non-empty, read only these zero-based column indices, in order, as
  // the point coordinates (e.g. {2, 3} for longitude/latitude). When empty,
  // every column is a coordinate.
  std::vector<int> columns;
};

// Writes one point per row with `%.17g` precision (round-trip exact).
Status WriteCsv(const Dataset& dataset, const std::string& path,
                const CsvOptions& options = {});

// Reads a CSV file into a Dataset. Dimensionality is taken from
// `options.columns` when given, otherwise from the first data row; more than
// kMaxDimensions columns is InvalidArgument. Rows with the wrong field count
// or unparsable numbers yield an error mentioning the line number.
Result<Dataset> ReadCsv(const std::string& path,
                        const CsvOptions& options = {});

}  // namespace dod

#endif  // DOD_IO_CSV_H_
