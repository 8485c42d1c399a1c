// Copyright 2026 The DOD Authors.
//
// RAII tracing spans emitted as Chrome trace-event JSON (load the file at
// chrome://tracing or https://ui.perfetto.dev).
//
// Usage:
//   trace::Start();                       // or dod_cli --trace_out=...
//   { trace::Span span("phase", "map"); span.Arg("tasks", 32); ... }
//   trace::Stop();
//   trace::WriteChromeJson("trace.json");
//
// Cost model: when collection is disabled (the default), a Span
// construction is one relaxed atomic load and a branch; no clock is read
// and nothing allocates. Configuring the build with -DDOD_ENABLE_TRACING=OFF
// replaces Span with a compile-time no-op sink (empty inline methods), so
// instrumented code carries zero overhead. When enabled, each span is
// recorded into a thread-local buffer (no lock on the hot path); buffers
// are folded into a global list when the owning thread exits and when a
// snapshot/write is taken.
//
// Determinism: WriteChromeJson sorts events by (category, name, args) and
// renames thread ids to dense indices in that sorted order, so two runs of
// the same seeded workload produce traces that are identical except for
// the "ts"/"dur" timestamp fields — content-deterministic modulo time.
//
// Snapshot/Write must only be called while no other thread is emitting
// spans (e.g. after a pipeline run: the executor joins its workers first).

#ifndef DOD_OBSERVABILITY_TRACE_H_
#define DOD_OBSERVABILITY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace dod::trace {

// One completed span ("X" event). `args` holds pre-rendered JSON object
// members without the braces, e.g. `"task":3,"attempt":0`.
struct TraceEvent {
  const char* category = "";
  const char* name = "";
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
  std::string args;
};

#if !defined(DOD_TRACING_DISABLED)

namespace internal {
extern std::atomic<bool> g_enabled;
void Record(TraceEvent&& event);
double NowMicros();
uint32_t ThreadId();
}  // namespace internal

// True when spans are being collected. Inline relaxed load: the only cost
// instrumented code pays when tracing is off.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

// Clears previously collected events and starts collection.
void Start();
// Stops collection; collected events remain available.
void Stop();
// Drops every collected event (does not change the enabled state).
void Clear();

// All collected events, unordered. Flushes the calling thread's buffer.
std::vector<TraceEvent> SnapshotEvents();

// Writes the normalized Chrome trace (see determinism note above).
Status WriteChromeJson(const std::string& path);

// A RAII span: records one complete event from construction to
// destruction. `category` and `name` must be string literals (stored by
// pointer). Arg() attaches key/value pairs rendered into the event's
// "args" object.
class Span {
 public:
  Span(const char* category, const char* name)
      : active_(Enabled()), category_(category), name_(name) {
    if (active_) start_us_ = internal::NowMicros();
  }
  ~Span() {
    if (!active_) return;
    TraceEvent event;
    event.category = category_;
    event.name = name_;
    event.ts_us = start_us_;
    event.dur_us = internal::NowMicros() - start_us_;
    event.tid = internal::ThreadId();
    event.args = std::move(args_);
    internal::Record(std::move(event));
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Span& Arg(const char* key, T value) {
    if (active_) AppendArg(key, std::to_string(value));
    return *this;
  }
  Span& Arg(const char* key, double value);
  Span& Arg(const char* key, const char* value);

 private:
  void AppendArg(const char* key, std::string_view rendered);

  bool active_;
  const char* category_;
  const char* name_;
  double start_us_ = 0.0;
  std::string args_;
};

#else  // DOD_TRACING_DISABLED

// Compile-time no-op sink: every member is an empty inline, so the
// optimizer erases instrumentation entirely.
inline bool Enabled() { return false; }
inline void Start() {}
inline void Stop() {}
inline void Clear() {}
inline std::vector<TraceEvent> SnapshotEvents() { return {}; }
Status WriteChromeJson(const std::string& path);  // writes an empty trace

class Span {
 public:
  Span(const char*, const char*) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Span& Arg(const char*, T) { return *this; }
  Span& Arg(const char*, double) { return *this; }
  Span& Arg(const char*, const char*) { return *this; }
};

#endif  // DOD_TRACING_DISABLED

}  // namespace dod::trace

#endif  // DOD_OBSERVABILITY_TRACE_H_
