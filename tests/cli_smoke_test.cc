// Copyright 2026 The DOD Authors.
//
// End-to-end smoke tests of the dod_cli binary: exercises the flag paths,
// CSV/binary I/O, plan export, and error handling through the real
// executable — plus dod_stream_cli's closing summary line and
// validate_trace's flag checks. The binary locations come from the
// DOD_CLI_PATH / DOD_STREAM_CLI_PATH / DOD_VALIDATE_TRACE_PATH compile
// definitions set by CMake.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/csv.h"

#ifndef DOD_CLI_PATH
#define DOD_CLI_PATH "build/tools/dod_cli"
#endif
#ifndef DOD_STREAM_CLI_PATH
#define DOD_STREAM_CLI_PATH "build/tools/dod_stream_cli"
#endif
#ifndef DOD_VALIDATE_TRACE_PATH
#define DOD_VALIDATE_TRACE_PATH "build/tools/validate_trace"
#endif

namespace dod {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunCommand(const std::string& args,
                         const char* binary = DOD_CLI_PATH) {
  const std::string command = std::string(binary) + " " + args + " 2>&1";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

TEST(CliSmokeTest, HelpExitsZero) {
  const CommandResult result = RunCommand("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("--strategy"), std::string::npos);
}

TEST(CliSmokeTest, GeneratedRunReportsOutliers) {
  const CommandResult result =
      RunCommand("--generate uniform --n 3000 --density 0.02 --seed 7");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("outliers"), std::string::npos);
  EXPECT_NE(result.output.find("DMT"), std::string::npos);
}

TEST(CliSmokeTest, AllStrategiesRun) {
  for (const char* strategy :
       {"domain", "unispace", "ddriven", "cdriven", "dmt"}) {
    const CommandResult result = RunCommand(
        std::string("--generate uniform --n 1500 --strategy ") + strategy);
    EXPECT_EQ(result.exit_code, 0) << strategy << ": " << result.output;
  }
}

TEST(CliSmokeTest, CsvInputAndOutput) {
  const std::string in_path = testing::TempDir() + "/cli_smoke_in.csv";
  const std::string out_path = testing::TempDir() + "/cli_smoke_out.csv";
  {
    // A grid of points plus one far-away outlier.
    std::string csv;
    for (int x = 0; x < 30; ++x) {
      for (int y = 0; y < 30; ++y) {
        csv += std::to_string(x) + "," + std::to_string(y) + "\n";
      }
    }
    csv += "500,500\n";
    FILE* f = fopen(in_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(csv.c_str(), f);
    fclose(f);
  }
  const CommandResult result = RunCommand("--input " + in_path +
                                          " --radius 2 --k 4 --out " +
                                          out_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  Result<Dataset> outliers = ReadCsv(out_path);
  ASSERT_TRUE(outliers.ok());
  // The isolated point must be among the reported outliers.
  bool found = false;
  for (size_t i = 0; i < outliers.value().size(); ++i) {
    if (outliers.value()[static_cast<PointId>(i)][0] == 500.0) found = true;
  }
  EXPECT_TRUE(found);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(CliSmokeTest, BadCsvFlagsAreRejected) {
  // Nine columns once aborted on Dataset's dimensionality DOD_CHECK (exit
  // 134), "0,x" read column 0 twice through atoi, and --skip-rows wrapped
  // through an int cast.
  const std::string in_path = testing::TempDir() + "/cli_smoke_flags.csv";
  {
    FILE* f = fopen(in_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (int row = 0; row < 20; ++row) {
      fputs("0,1,2,3,4,5,6,7,8,9\n", f);
    }
    fclose(f);
  }
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"columns", "0,1,2,3,4,5,6,7,8"},
      {"columns", "0,x"},
      {"columns", "0,-1"},
      {"columns", "1x"},
      {"columns", "0,,1"},
      {"columns", "0,"},
      {"columns", "99999999999"},
      {"skip-rows", "-1"},
      {"skip-rows", "4294967297"},
      {"skip-rows", "1.5"},
  };
  for (const auto& [flag, value] : bad) {
    const CommandResult result =
        RunCommand("--input " + in_path + " --" + flag + " " + value);
    EXPECT_EQ(result.exit_code, 1) << flag << " " << value;
    EXPECT_NE(result.output.find("error: "), std::string::npos)
        << flag << " " << value << ": " << result.output;
  }
  // Good values still read: columns in any order, a header row skipped.
  const CommandResult good = RunCommand(
      "--input " + in_path + " --columns 9,0,3 --skip-rows 1");
  EXPECT_EQ(good.exit_code, 0) << good.output;
  std::remove(in_path.c_str());
}

TEST(CliSmokeTest, ValidateTraceRejectsBadIntegerFlags) {
  // A non-numeric minimum once aborted through ValueOrDie (exit 134).
  for (const char* flag : {"min_task_spans", "min_partitions"}) {
    for (const char* value : {"abc", "-1", "2.5"}) {
      const CommandResult result = RunCommand(
          std::string("--metrics unused.json --") + flag + " " + value,
          DOD_VALIDATE_TRACE_PATH);
      EXPECT_EQ(result.exit_code, 1) << flag << " " << value;
      EXPECT_NE(result.output.find(std::string("--") + flag),
                std::string::npos)
          << flag << " " << value << ": " << result.output;
    }
  }
}

TEST(CliSmokeTest, PlanExport) {
  const std::string plan_path = testing::TempDir() + "/cli_smoke_plan.txt";
  const CommandResult result = RunCommand(
      "--generate uniform --n 2000 --plan-out " + plan_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  FILE* f = fopen(plan_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[16] = {0};
  ASSERT_NE(fgets(header, sizeof(header), f), nullptr);
  EXPECT_EQ(std::string(header).rfind("dod-plan", 0), 0u);
  fclose(f);
  std::remove(plan_path.c_str());
}

TEST(CliSmokeTest, TransientFaultInjectionStillSucceeds) {
  const CommandResult result = RunCommand(
      "--generate uniform --n 2000 --seed 7 --fault_failure_prob 0.35 "
      "--fault_seed 9 --max_task_attempts 8 --verbose");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // Under a 35% per-attempt failure rate something fails and recovers, and
  // the report advertises it.
  EXPECT_NE(result.output.find("fault recovery"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(" failed, "), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(" retried)"), std::string::npos)
      << result.output;
}

TEST(CliSmokeTest, ExhaustedRetriesFailCleanly) {
  const CommandResult result = RunCommand(
      "--generate uniform --n 1000 --fault_failure_prob 1 "
      "--max_task_attempts 2");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("failed after 2 attempts"), std::string::npos)
      << result.output;
}

TEST(CliSmokeTest, UnknownFlagIsRejected) {
  const CommandResult result =
      RunCommand("--generate uniform --n 1000 --bogus-flag 3");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown flag"), std::string::npos);
}

TEST(CliSmokeTest, BadStrategyIsRejected) {
  const CommandResult result =
      RunCommand("--generate uniform --n 1000 --strategy quantum");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown --strategy"), std::string::npos);
}

TEST(CliSmokeTest, MissingInputFileIsRejected) {
  const CommandResult result = RunCommand("--input /no/such/file.csv");
  EXPECT_NE(result.exit_code, 0);
}

TEST(CliSmokeTest, OutOfRangeThreadCountsAreRejected) {
  // 4294967298 once truncated to 2 threads on the int cast; -3 once meant
  // "all hardware threads" to the streaming CLI.
  const CommandResult batch =
      RunCommand("--generate uniform --n 1000 --threads 4294967298");
  EXPECT_NE(batch.exit_code, 0) << batch.output;
  EXPECT_NE(batch.output.find("--threads"), std::string::npos)
      << batch.output;
  const CommandResult stream = RunCommand(
      "--generate uniform --n 1000 --threads -3", DOD_STREAM_CLI_PATH);
  EXPECT_NE(stream.exit_code, 0) << stream.output;
  EXPECT_NE(stream.output.find("--threads"), std::string::npos)
      << stream.output;
}

TEST(CliSmokeTest, OutOfRangeFaultFlagsAreRejected) {
  // Each of these was once accepted silently: 4294967297 attempts
  // truncated to 1 on the int cast, crash task 4294967296 to 0, and the
  // probabilities were used as given.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"max_task_attempts", "4294967297"},
      {"max_task_attempts", "0"},
      {"max_task_attempts", "nan"},
      {"fault_crash_task", "4294967296"},
      {"fault_crash_task", "-2"},
      {"fault_failure_prob", "-0.1"},
      {"fault_failure_prob", "1.5"},
      {"fault_failure_prob", "nan"},
      {"fault_drop_prob", "-1"},
      {"fault_drop_prob", "2"},
      {"fault_drop_prob", "nan"},
      {"fault_corrupt_prob", "-0.5"},
      {"fault_corrupt_prob", "1.01"},
      {"fault_corrupt_prob", "nan"},
  };
  for (const auto& [flag, value] : bad) {
    const CommandResult result = RunCommand(
        "--generate uniform --n 1000 --" + flag + " " + value);
    EXPECT_NE(result.exit_code, 0) << flag << " " << value;
    EXPECT_NE(result.output.find("--" + flag), std::string::npos)
        << flag << " " << value << ": " << result.output;
  }
}

TEST(CliSmokeTest, OutOfRangeIntegerFlagsAreRejected) {
  // Each of these once reached a narrowing cast: --k 4294967297 ran with
  // k = 1, --checkpoint_every -1 committed every 2^64 - 1 rounds, and a
  // negative --kill_after_round silently meant "never".
  const std::vector<std::pair<std::string, std::string>> batch = {
      {"k", "4294967297"}, {"k", "0"},          {"k", "2.5"},
      {"threads", "-1"},   {"threads", "1025"}, {"max_task_attempts", "1.5"},
      {"fault_crash_task", "-1.5"},
  };
  for (const auto& [flag, value] : batch) {
    const CommandResult result = RunCommand(
        "--generate uniform --n 1000 --" + flag + " " + value);
    EXPECT_NE(result.exit_code, 0) << flag << " " << value;
    EXPECT_NE(result.output.find("--" + flag), std::string::npos)
        << flag << " " << value << ": " << result.output;
  }
  const std::vector<std::pair<std::string, std::string>> stream = {
      {"k", "4294967297"},
      {"k", "-1"},
      {"threads", "1025"},
      {"threads", "4294967297"},
      {"checkpoint_every", "-1"},
      {"checkpoint_every", "1e19"},
      {"kill_after_round", "-1"},
      {"kill_after_round", "nan"},
      {"source_id", "4294967296"},
      {"source_id", "-1"},
  };
  for (const auto& [flag, value] : stream) {
    const CommandResult result = RunCommand(
        "--generate uniform --n 1000 --" + flag + " " + value,
        DOD_STREAM_CLI_PATH);
    EXPECT_NE(result.exit_code, 0) << flag << " " << value;
    EXPECT_NE(result.output.find("--" + flag), std::string::npos)
        << flag << " " << value << ": " << result.output;
  }
}

TEST(CliSmokeTest, OutOfRangeSizingFlagsAreRejected) {
  // --blocks, --reducers, --buckets and --n once aborted (exit 134) on a
  // DOD_CHECK or std::length_error, --reducers 5000000000 wrapped through
  // an int cast, and the rest ran without an error.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"blocks", "0"},         {"blocks", "-1"},
      {"reducers", "0"},       {"reducers", "-3"},
      {"reducers", "5000000000"},
      {"buckets", "0"},        {"buckets", "-4"},
      {"n", "-5"},             {"partitions", "0"},
      {"partitions", "-1"},    {"sample-rate", "-1"},
      {"sample-rate", "nan"},  {"deadline_ms", "-5"},
  };
  for (const auto& [flag, value] : bad) {
    const std::string size = flag == "n" ? "" : "--n 4000 ";
    const CommandResult result = RunCommand("--generate uniform " + size +
                                            "--threads 2 --" + flag + " " +
                                            value);
    EXPECT_EQ(result.exit_code, 1) << flag << " " << value;
    EXPECT_NE(result.output.find("error: "), std::string::npos)
        << flag << " " << value << ": " << result.output;
    EXPECT_NE(result.output.find("--" + flag), std::string::npos)
        << flag << " " << value << ": " << result.output;
  }
}

TEST(CliSmokeTest, NonPositiveOrNonFiniteDensityIsRejected) {
  // 0, -2 and nan once aborted the generator's DOD_CHECK (exit 134); inf
  // ran silently on a zero-area domain.
  for (const char* binary : {DOD_CLI_PATH, DOD_STREAM_CLI_PATH}) {
    for (const char* value : {"0", "-2", "nan", "inf"}) {
      const CommandResult result = RunCommand(
          std::string("--generate uniform --n 4000 --density ") + value,
          binary);
      EXPECT_EQ(result.exit_code, 1) << binary << " " << value;
      EXPECT_NE(result.output.find("error: "), std::string::npos)
          << binary << " " << value << ": " << result.output;
      EXPECT_NE(result.output.find("--density"), std::string::npos)
          << binary << " " << value << ": " << result.output;
    }
  }
}

TEST(CliSmokeTest, DeletedStragglerFlagIsUnknown) {
  const CommandResult result = RunCommand(
      "--generate uniform --n 1000 --fault_straggler_prob 0.5");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown flag --fault_straggler_prob"),
            std::string::npos)
      << result.output;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CliSmokeTest, StreamSummaryReportsLatencyAndSaturatedPoints) {
  // 20 rounds of 300 points over a 4-block window, dense enough (about 50
  // neighbors within r = 2) that counts saturate.
  const std::string args =
      "--generate uniform --n 6000 --density 20 --block_size 300 "
      "--window 4 --radius 2 --k 4 --delta_out ";
  const std::string first = testing::TempDir() + "/cli_smoke_deltas_1.log";
  const std::string second = testing::TempDir() + "/cli_smoke_deltas_2.log";
  const CommandResult result = RunCommand(args + first, DOD_STREAM_CLI_PATH);
  ASSERT_EQ(result.exit_code, 0) << result.output;

  const size_t at = result.output.find("outliers, ");
  ASSERT_NE(at, std::string::npos) << result.output;
  size_t saturated = 0;
  double p50_ms = -1.0;
  double p99_ms = -1.0;
  size_t rounds = 0;
  ASSERT_EQ(std::sscanf(result.output.c_str() + at,
                        "outliers, %zu saturated points; round latency "
                        "p50 %lf ms p99 %lf ms over %zu rounds",
                        &saturated, &p50_ms, &p99_ms, &rounds),
            4)
      << result.output;
  EXPECT_GT(saturated, 0u);
  EXPECT_EQ(rounds, 20u);
  EXPECT_GT(p50_ms, 0.0);
  EXPECT_LE(p50_ms, p99_ms);

  // The delta log stays deterministic: no timings, identical across runs.
  ASSERT_EQ(RunCommand(args + second, DOD_STREAM_CLI_PATH).exit_code, 0);
  const std::string log = ReadFile(first);
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log, ReadFile(second));
  EXPECT_EQ(log.find("latency"), std::string::npos);
  EXPECT_EQ(log.find("ms"), std::string::npos);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

}  // namespace
}  // namespace dod
