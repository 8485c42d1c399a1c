// Copyright 2026 The DOD Authors.
//
// Human-readable run reports for DodResult — the summary blocks the CLI
// and examples print.

#ifndef DOD_CORE_REPORT_H_
#define DOD_CORE_REPORT_H_

#include <string>

#include "core/config.h"
#include "core/pipeline.h"

namespace dod {

// Multi-line summary: configuration, outliers, plan composition, stage
// breakdown, the kernel table the run used, and headline counters.
std::string FormatRunReport(const DodConfig& config, const DodResult& result,
                            size_t input_points);

}  // namespace dod

#endif  // DOD_CORE_REPORT_H_
