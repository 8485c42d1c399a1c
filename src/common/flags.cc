// Copyright 2026 The DOD Authors.

#include "common/flags.h"

#include <cstdlib>

namespace dod {

Result<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser parser;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      parser.positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    if (arg.empty()) {
      // A bare "--": the rest is positional.
      for (int j = i + 1; j < argc; ++j) parser.positional_.push_back(argv[j]);
      break;
    }
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      parser.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // --no-foo is boolean false.
    if (arg.rfind("no-", 0) == 0) {
      parser.values_[arg.substr(3)] = "false";
      continue;
    }
    // "--name value" when the next token is not a flag; else boolean true.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      parser.values_[arg] = argv[i + 1];
      ++i;
    } else {
      parser.values_[arg] = "true";
    }
  }
  return parser;
}

std::string FlagParser::GetStringOr(const std::string& name,
                                    const std::string& fallback) const {
  read_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

Result<double> FlagParser::GetDouble(const std::string& name,
                                     double fallback) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name + ": bad number '" +
                                   it->second + "'");
  }
  return value;
}

Result<long long> FlagParser::GetInt(const std::string& name,
                                     long long fallback) const {
  Result<double> value = GetDouble(name, static_cast<double>(fallback));
  if (!value.ok()) return value.status();
  // The cast is undefined outside long long's range (and for nan); 2^63 is
  // the first double past it.
  if (!(value.value() >= -0x1p63 && value.value() < 0x1p63)) {
    return Status::InvalidArgument("flag --" + name +
                                   ": integer out of range");
  }
  return static_cast<long long>(value.value());
}

bool FlagParser::GetBoolOr(const std::string& name, bool fallback) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> FlagParser::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, _] : values_) {
    if (!read_.count(name)) unused.push_back(name);
  }
  return unused;
}

}  // namespace dod
