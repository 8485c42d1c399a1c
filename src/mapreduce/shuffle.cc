// Copyright 2026 The DOD Authors.

#include "mapreduce/shuffle.h"

namespace dod {

const char* ShuffleModeName(ShuffleMode mode) {
  switch (mode) {
    case ShuffleMode::kSorted:
      return "sorted";
    case ShuffleMode::kColumnar:
      return "columnar";
  }
  return "unknown";
}

}  // namespace dod
