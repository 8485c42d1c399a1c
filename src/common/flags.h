// Copyright 2026 The DOD Authors.
//
// Minimal dependency-free command-line flag parsing for the CLI tools.
// Supports --name=value, --name value, and boolean --name / --no-name.

#ifndef DOD_COMMON_FLAGS_H_
#define DOD_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace dod {

class FlagParser {
 public:
  // Parses argv; unrecognized "--" tokens become flags, bare tokens become
  // positional arguments. Returns an error for malformed input (e.g. a
  // dangling "--name" at end of line is treated as boolean true).
  static Result<FlagParser> Parse(int argc, const char* const* argv);

  // Typed getters with defaults. Get*Or never fails; the checked variants
  // return errors for unparsable values.
  std::string GetStringOr(const std::string& name,
                          const std::string& fallback) const;
  Result<double> GetDouble(const std::string& name, double fallback) const;
  Result<long long> GetInt(const std::string& name, long long fallback) const;
  // GetInt restricted to the integers in [lo, hi]: anything else — out of
  // range, fractional, nan — is InvalidArgument naming the flag, so a
  // caller's narrowing cast can never wrap a value around.
  Result<long long> GetIntInRange(const std::string& name, long long fallback,
                                  long long lo, long long hi) const;
  // GetDouble restricted to finite values > 0: zero, negatives, inf and
  // nan are InvalidArgument naming the flag.
  Result<double> GetPositiveDouble(const std::string& name,
                                   double fallback) const;
  bool GetBoolOr(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Flags seen but never read by any getter; lets tools reject typos.
  std::vector<std::string> UnusedFlags() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

}  // namespace dod

#endif  // DOD_COMMON_FLAGS_H_
