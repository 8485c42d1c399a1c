// Copyright 2026 The DOD Authors.
//
// validate_trace — schema checker for the observability artifacts dod_cli
// emits (--trace_out / --metrics_out). Used by CI to assert that a faulted
// multi-threaded run produced a Chrome-loadable trace with one span per
// task attempt and a metrics dump with populated per-partition cost rows.
//
//   validate_trace --trace trace.json --metrics metrics.json
//                  [--min_task_spans N] [--min_partitions N]
//                  [--require_durability] [--require_streaming]
//                  [--require_spill]
//
// With --require_durability the run must have been checkpointed: the trace
// must hold at least one "durability"-category span and the metrics dump
// must carry the full durability.* schema (checkpoint counters + write
// histogram + memory gauge) with at least one task written or resumed.
//
// With --require_spill the run's shuffle must actually have spilled: the
// trace must hold at least one shuffle_spill span carrying its
// records/bytes args, and the metrics dump must carry the full mr.spill.*
// schema (run counters + run-records histogram) with runs both written
// and merged.
//
// With --require_streaming the run must have come from the streaming
// service (dod_stream_cli): the trace must hold at least one "round"
// span, exactly one summary_update and one summary_recount span per round
// span, and reorder_admit spans carrying their numeric args — and the
// metrics dump must carry the stream.*, stream.summary.* and
// stream.watermark.* schemas (round/delta/pair/late-drop counters,
// dirty-fraction, round-latency and recount-queue histograms,
// resident/saturated-point and buffered-block gauges) with at
// least one completed round.
// Streaming runs pass --min_task_spans 0 --min_partitions 0 — the
// incremental path counts cells directly, without MapReduce tasks or
// partition profiles.
//
// Every partition profile must name its reduce task: an integer in
// [0, mr.reduce_tasks). The counter sums the reduce tasks of every job the
// run scheduled, so for a two-job (Domain) run the bound is the sum.
//
// Exits 0 when both documents validate, 1 with a diagnostic otherwise.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/flags.h"
#include "observability/json.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "validate_trace: %s\n", message.c_str());
  return EXIT_FAILURE;
}

dod::Result<dod::JsonValue> LoadJson(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return dod::Status::InvalidArgument("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  dod::Result<dod::JsonValue> parsed = dod::JsonValue::Parse(text);
  if (!parsed.ok()) {
    return dod::Status::InvalidArgument(path + ": " +
                                        parsed.status().message());
  }
  return parsed;
}

// Chrome trace event format: every complete ("ph":"X") event must carry
// name/cat/ts/dur/pid/tid. https://chromium.org trace_event format doc.
int ValidateTrace(const dod::JsonValue& doc, long long min_task_spans,
                  bool require_durability, bool require_streaming,
                  bool require_spill) {
  if (!doc.is_object()) return Fail("trace: top level is not an object");
  if (!doc.Has("traceEvents") || !doc.Get("traceEvents").is_array()) {
    return Fail("trace: missing traceEvents array");
  }
  const auto& events = doc.Get("traceEvents").array();
  if (events.empty()) return Fail("trace: traceEvents is empty");

  long long task_spans = 0;
  long long durability_spans = 0;
  long long spill_spans = 0;
  long long merge_spans = 0;
  long long stream_spans = 0;
  long long round_spans = 0;
  long long summary_update_spans = 0;
  long long summary_recount_spans = 0;
  long long reorder_admit_spans = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const dod::JsonValue& event = events[i];
    const std::string where = "trace: event " + std::to_string(i);
    if (!event.is_object()) return Fail(where + " is not an object");
    for (const char* key : {"name", "cat", "ph"}) {
      if (!event.Get(key).is_string()) {
        return Fail(where + ": missing string field \"" + key + "\"");
      }
    }
    if (event.Get("ph").string_value() != "X") {
      return Fail(where + ": ph is not \"X\"");
    }
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      if (!event.Get(key).is_number()) {
        return Fail(where + ": missing numeric field \"" + key + "\"");
      }
    }
    if (event.Get("ts").number_value() < 0 ||
        event.Get("dur").number_value() < 0) {
      return Fail(where + ": negative ts/dur");
    }
    if (event.Get("cat").string_value() == "task") ++task_spans;
    if (event.Get("cat").string_value() == "durability") ++durability_spans;
    if (event.Get("cat").string_value() == "shuffle") {
      const std::string& name = event.Get("name").string_value();
      if (name == "shuffle_spill") {
        ++spill_spans;
        for (const char* key : {"records", "bytes"}) {
          if (!event.Get("args").Get(key).is_number()) {
            return Fail(where + ": shuffle_spill span missing numeric arg \"" +
                        key + "\"");
          }
        }
      } else if (name == "merge") {
        ++merge_spans;
      }
    }
    if (event.Get("cat").string_value() == "stream") {
      ++stream_spans;
      const std::string& name = event.Get("name").string_value();
      if (name == "round") {
        ++round_spans;
      } else if (name == "reorder_admit") {
        ++reorder_admit_spans;
        for (const char* key : {"arrival", "buffered"}) {
          if (!event.Get("args").Get(key).is_number()) {
            return Fail(where + ": reorder_admit span missing numeric arg \"" +
                        key + "\"");
          }
        }
      } else if (name == "summary_update") {
        ++summary_update_spans;
        for (const char* key : {"dirty_cells", "inc_pairs", "dec_pairs"}) {
          if (!event.Get("args").Get(key).is_number()) {
            return Fail(where + ": summary_update span missing numeric arg \"" +
                        key + "\"");
          }
        }
      } else if (name == "summary_recount") {
        ++summary_recount_spans;
        for (const char* key : {"recounts", "full_counts"}) {
          if (!event.Get("args").Get(key).is_number()) {
            return Fail(where +
                        ": summary_recount span missing numeric arg \"" + key +
                        "\"");
          }
        }
      }
    }
  }
  if (task_spans < min_task_spans) {
    return Fail("trace: " + std::to_string(task_spans) +
                " task spans, expected >= " + std::to_string(min_task_spans));
  }
  if (require_durability && durability_spans == 0) {
    return Fail("trace: no durability spans (checkpoint_commit / "
                "checkpoint_restore) in a run that required them");
  }
  if (require_streaming && round_spans == 0) {
    return Fail("trace: no stream.round spans in a run that required them");
  }
  if (require_spill && spill_spans == 0) {
    return Fail("trace: no shuffle_spill spans in a run that required "
                "spilling");
  }
  // Every round runs exactly one summary update and one re-count pass; a
  // mismatch means a round dropped part of its telemetry, or a pass ran
  // outside a round.
  if (require_streaming && (summary_update_spans != round_spans ||
                            summary_recount_spans != round_spans)) {
    return Fail("trace: " + std::to_string(round_spans) + " round spans vs " +
                std::to_string(summary_update_spans) +
                " summary_update and " +
                std::to_string(summary_recount_spans) +
                " summary_recount spans (must be equal)");
  }
  std::printf(
      "trace ok: %zu events, %lld task spans, %lld durability spans, "
      "%lld spill spans, %lld merge spans, "
      "%lld stream spans (%lld round, %lld summary_update, "
      "%lld summary_recount, %lld reorder_admit)\n",
      events.size(), task_spans, durability_spans, spill_spans, merge_spans,
      stream_spans, round_spans, summary_update_spans, summary_recount_spans,
      reorder_admit_spans);
  return EXIT_SUCCESS;
}

// The durability.* names the engine registers unconditionally, plus the
// shuffle's budget-fallback counter; a metrics dump from a checkpointed run
// must carry every one of them, and must show actual checkpoint traffic
// (tasks written or resumed).
int ValidateDurabilityMetrics(const dod::JsonValue& metrics) {
  const dod::JsonValue& counters = metrics.Get("counters");
  for (const char* name :
       {"durability.checkpoint.tasks_written",
        "durability.checkpoint.tasks_resumed",
        "durability.checkpoint.bytes_written",
        "durability.checkpoint.load_failures", "durability.control.aborts",
        "mr.shuffle.fallback.budget", "durability.memory.reserve_skipped"}) {
    if (!counters.Get(name).is_number()) {
      return Fail(std::string("metrics: missing durability counter \"") +
                  name + "\"");
    }
  }
  const dod::JsonValue& peak =
      metrics.Get("gauges").Get("durability.memory.peak_bytes");
  if (!peak.Get("count").is_number() || !peak.Get("max").is_number()) {
    return Fail("metrics: missing gauge \"durability.memory.peak_bytes\"");
  }
  const dod::JsonValue& write_seconds =
      metrics.Get("histograms").Get("durability.checkpoint.write_seconds");
  if (!write_seconds.Get("count").is_number() ||
      !write_seconds.Get("sum").is_number() ||
      !write_seconds.Get("buckets").is_array()) {
    return Fail(
        "metrics: histogram \"durability.checkpoint.write_seconds\" "
        "malformed");
  }
  const double written =
      counters.Get("durability.checkpoint.tasks_written").number_value();
  const double resumed =
      counters.Get("durability.checkpoint.tasks_resumed").number_value();
  if (written + resumed <= 0.0) {
    return Fail("metrics: no checkpoint traffic (tasks_written + "
                "tasks_resumed == 0) in a run that required durability");
  }
  std::printf("durability ok: %.0f tasks written, %.0f resumed\n", written,
              resumed);
  return EXIT_SUCCESS;
}

// The mr.spill.* names the engine folds in after every job; a metrics dump
// from a spilled run must carry the whole family and show actual run
// traffic (runs written AND merged back).
int ValidateSpillMetrics(const dod::JsonValue& metrics) {
  const dod::JsonValue& counters = metrics.Get("counters");
  for (const char* name :
       {"mr.spill.map_tasks", "mr.spill.reduce_tasks", "mr.spill.runs_written",
        "mr.spill.bytes_written", "mr.spill.runs_merged",
        "mr.spill.bytes_read", "mr.shuffle.fallback.density",
        "mr.shuffle.fallback.budget", "mr.shuffle.fallback.spill"}) {
    if (!counters.Get(name).is_number()) {
      return Fail(std::string("metrics: missing spill counter \"") + name +
                  "\"");
    }
  }
  const dod::JsonValue& run_records =
      metrics.Get("histograms").Get("mr.spill.run_records");
  if (!run_records.Get("count").is_number() ||
      !run_records.Get("sum").is_number() ||
      !run_records.Get("buckets").is_array()) {
    return Fail("metrics: histogram \"mr.spill.run_records\" malformed");
  }
  const double written = counters.Get("mr.spill.runs_written").number_value();
  const double merged = counters.Get("mr.spill.runs_merged").number_value();
  if (written <= 0.0) {
    return Fail("metrics: mr.spill.runs_written == 0 in a run that required "
                "spilling");
  }
  if (merged <= 0.0) {
    return Fail("metrics: mr.spill.runs_merged == 0 — runs were written but "
                "never merged back");
  }
  std::printf("spill ok: %.0f runs written, %.0f merged, %.0f bytes\n",
              written, merged,
              counters.Get("mr.spill.bytes_written").number_value());
  return EXIT_SUCCESS;
}

// The stream.* names the streaming service records every round; a metrics
// dump from a streaming run must carry the whole family and show at least
// one completed round.
int ValidateStreamingMetrics(const dod::JsonValue& metrics) {
  const dod::JsonValue& counters = metrics.Get("counters");
  for (const char* name :
       {"stream.rounds", "stream.cells_redetected", "stream.delta_flagged",
        "stream.delta_cleared", "stream.summary.insert_count_pairs",
        "stream.summary.expiry_count_pairs",
        "stream.summary.full_count_points",
        "stream.summary.recount_points", "stream.late_dropped",
        "stream.watermark.advances", "stream.watermark.reorder_admitted"}) {
    if (!counters.Get(name).is_number()) {
      return Fail(std::string("metrics: missing streaming counter \"") +
                  name + "\"");
    }
  }
  for (const char* name :
       {"stream.resident_points", "stream.summary.saturated_points",
        "stream.watermark.buffered_blocks"}) {
    const dod::JsonValue& gauge = metrics.Get("gauges").Get(name);
    if (!gauge.Get("count").is_number() || !gauge.Get("max").is_number()) {
      return Fail(std::string("metrics: missing gauge \"") + name + "\"");
    }
  }
  // A run that dropped late blocks must have been under a watermark policy
  // — reorder admissions account for every admitted round there.
  const double late_dropped =
      counters.Get("stream.late_dropped").number_value();
  const double reorder_admitted =
      counters.Get("stream.watermark.reorder_admitted").number_value();
  if (late_dropped > 0.0 && reorder_admitted <= 0.0) {
    return Fail("metrics: stream.late_dropped > 0 without any "
                "stream.watermark.reorder_admitted rounds");
  }
  for (const char* name :
       {"stream.dirty_cell_fraction", "stream.round_seconds",
        "stream.summary.recount_queue"}) {
    const dod::JsonValue& histogram = metrics.Get("histograms").Get(name);
    if (!histogram.Get("count").is_number() ||
        !histogram.Get("sum").is_number() ||
        !histogram.Get("buckets").is_array()) {
      return Fail(std::string("metrics: histogram \"") + name +
                  "\" malformed");
    }
  }
  const double rounds = counters.Get("stream.rounds").number_value();
  if (rounds <= 0.0) {
    return Fail("metrics: stream.rounds == 0 in a run that required "
                "streaming");
  }
  std::printf(
      "streaming ok: %.0f rounds, %.0f dirty cells, %.0f reorder-admitted, "
      "%.0f late-dropped\n",
      rounds,
      counters.Get("stream.cells_redetected").number_value(),
      reorder_admitted, late_dropped);
  return EXIT_SUCCESS;
}

int ValidateMetrics(const dod::JsonValue& doc, long long min_partitions,
                    bool require_durability, bool require_streaming,
                    bool require_spill) {
  if (!doc.is_object()) return Fail("metrics: top level is not an object");
  const dod::JsonValue& metrics = doc.Get("metrics");
  if (!metrics.is_object()) return Fail("metrics: missing metrics object");
  for (const char* section : {"counters", "gauges", "histograms"}) {
    if (!metrics.Get(section).is_object()) {
      return Fail(std::string("metrics: missing section \"") + section +
                  "\"");
    }
  }
  if (metrics.Get("counters").object().empty()) {
    return Fail("metrics: no counters recorded");
  }
  for (const auto& [name, value] : metrics.Get("counters").object()) {
    if (!value.is_number()) {
      return Fail("metrics: counter \"" + name + "\" is not a number");
    }
  }
  for (const auto& [name, value] : metrics.Get("histograms").object()) {
    if (!value.Get("count").is_number() || !value.Get("sum").is_number() ||
        !value.Get("buckets").is_array()) {
      return Fail("metrics: histogram \"" + name + "\" malformed");
    }
  }

  const dod::JsonValue& profiles = doc.Get("partition_profiles");
  if (!profiles.is_array()) {
    return Fail("metrics: missing partition_profiles array");
  }
  if (static_cast<long long>(profiles.array().size()) < min_partitions) {
    return Fail("metrics: " + std::to_string(profiles.array().size()) +
                " partition profiles, expected >= " +
                std::to_string(min_partitions));
  }
  const dod::JsonValue& reduce_counter =
      metrics.Get("counters").Get("mr.reduce_tasks");
  if (!profiles.array().empty() && !reduce_counter.is_number()) {
    return Fail("metrics: partition profiles without an mr.reduce_tasks "
                "counter");
  }
  const double reduce_tasks =
      reduce_counter.is_number() ? reduce_counter.number_value() : 0.0;
  for (size_t i = 0; i < profiles.array().size(); ++i) {
    const dod::JsonValue& profile = profiles.array()[i];
    const std::string where = "metrics: profile " + std::to_string(i);
    if (!profile.Get("algorithm").is_string()) {
      return Fail(where + ": missing algorithm");
    }
    for (const char* key :
         {"cell", "reduce_task", "core_points", "support_points", "area",
          "density", "predicted_cost", "measured_distance_evals",
          "measured_seconds"}) {
      if (!profile.Get(key).is_number()) {
        return Fail(where + ": missing numeric field \"" + key + "\"");
      }
    }
    const double task = profile.Get("reduce_task").number_value();
    if (task != std::floor(task) || task < 0.0 || !(task < reduce_tasks)) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    ": reduce_task %g is not an integer in [0, %g) "
                    "(mr.reduce_tasks)",
                    task, reduce_tasks);
      return Fail(where + detail);
    }
    // "Populated" means the planner actually priced the partition and the
    // reducer actually measured it; empty husks fail CI.
    if (profile.Get("predicted_cost").number_value() <= 0.0) {
      return Fail(where + ": predicted_cost not populated");
    }
  }
  if (require_durability &&
      ValidateDurabilityMetrics(metrics) != EXIT_SUCCESS) {
    return EXIT_FAILURE;
  }
  if (require_spill && ValidateSpillMetrics(metrics) != EXIT_SUCCESS) {
    return EXIT_FAILURE;
  }
  if (require_streaming &&
      ValidateStreamingMetrics(metrics) != EXIT_SUCCESS) {
    return EXIT_FAILURE;
  }
  std::printf("metrics ok: %zu counters, %zu partition profiles\n",
              metrics.Get("counters").object().size(),
              profiles.array().size());
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  const dod::Result<dod::FlagParser> parsed =
      dod::FlagParser::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const dod::FlagParser& flags = parsed.value();

  const std::string trace_path = flags.GetStringOr("trace", "");
  const std::string metrics_path = flags.GetStringOr("metrics", "");
  constexpr long long kMaxLongLong = std::numeric_limits<long long>::max();
  const dod::Result<long long> task_spans_flag =
      flags.GetIntInRange("min_task_spans", 1, 0, kMaxLongLong);
  if (!task_spans_flag.ok()) return Fail(task_spans_flag.status().ToString());
  const dod::Result<long long> partitions_flag =
      flags.GetIntInRange("min_partitions", 1, 0, kMaxLongLong);
  if (!partitions_flag.ok()) return Fail(partitions_flag.status().ToString());
  const long long min_task_spans = task_spans_flag.value();
  const long long min_partitions = partitions_flag.value();
  const bool require_durability =
      flags.GetBoolOr("require_durability", false);
  const bool require_streaming = flags.GetBoolOr("require_streaming", false);
  const bool require_spill = flags.GetBoolOr("require_spill", false);
  if (trace_path.empty() && metrics_path.empty()) {
    return Fail("nothing to do: pass --trace and/or --metrics");
  }
  const std::vector<std::string> unused = flags.UnusedFlags();
  if (!unused.empty()) return Fail("unknown flag --" + unused.front());

  if (!trace_path.empty()) {
    const dod::Result<dod::JsonValue> doc = LoadJson(trace_path);
    if (!doc.ok()) return Fail(doc.status().ToString());
    if (ValidateTrace(doc.value(), min_task_spans, require_durability,
                      require_streaming, require_spill) != EXIT_SUCCESS) {
      return EXIT_FAILURE;
    }
  }
  if (!metrics_path.empty()) {
    const dod::Result<dod::JsonValue> doc = LoadJson(metrics_path);
    if (!doc.ok()) return Fail(doc.status().ToString());
    if (ValidateMetrics(doc.value(), min_partitions, require_durability,
                        require_streaming, require_spill) != EXIT_SUCCESS) {
      return EXIT_FAILURE;
    }
  }
  return EXIT_SUCCESS;
}
