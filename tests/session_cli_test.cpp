// End-to-end kill-and-resume test against the real CLI binary: a
// sessioned run is SIGKILLed mid-optimization via the
// ASCDG_CRASH_AFTER_WRITES hook, then resumed with --resume. Completed
// stages must replay from their artifacts (a second resume of the
// finished session re-simulates nothing beyond the before-CDG suite),
// and mismatched configurations must be refused.
//
// The binary path arrives via the ASCDG_CLI_PATH compile definition
// (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "util/json.hpp"

#ifndef ASCDG_CLI_PATH
#error "ASCDG_CLI_PATH must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

struct CliResult {
  int exit_code = -1;       ///< WEXITSTATUS (137 = killed by SIGKILL)
  std::string output;       ///< stdout + stderr
};

/// Runs `command` under the shell, capturing combined output. The shell
/// reports a SIGKILLed child as exit 128 + 9 = 137.
CliResult run_cli(const std::string& command) {
  CliResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// The sessioned run all tests share; small budgets, fixed seed.
std::string run_command(const fs::path& session, const std::string& extra) {
  return std::string(ASCDG_CLI_PATH) +
         " run io_unit --family crc --before-sims 50 --samples 10"
         " --sample-sims 20 --iterations 3 --point-sims 20 --harvest 100"
         " --seed 5 --session " +
         session.string() + " " + extra;
}

std::size_t total_simulations(const std::string& output) {
  const std::string needle = "total simulations: ";
  const auto pos = output.find(needle);
  EXPECT_NE(pos, std::string::npos) << output;
  if (pos == std::string::npos) return 0;
  std::string digits;
  for (std::size_t i = pos + needle.size(); i < output.size(); ++i) {
    const char c = output[i];
    if (c >= '0' && c <= '9') {
      digits += c;
    } else if (c != ',') {
      break;
    }
  }
  return std::stoull(digits);
}

ascdg::util::JsonValue read_manifest(const fs::path& session) {
  FILE* f = std::fopen((session / "manifest.json").c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return ascdg::util::json_parse(text);
}

fs::path scratch_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("ascdg_session_cli_" + name);
  fs::remove_all(dir);
  return dir;
}

TEST(SessionCli, KillMidOptimizationThenResume) {
  const fs::path session = scratch_dir("kill_resume");

  // 1. Crash hook: SIGKILL right after the 12th atomic write — for
  // these budgets that is mid-optimization, past the first iteration
  // checkpoints (verified: the manifest below asserts it).
  const CliResult killed = run_cli("ASCDG_CRASH_AFTER_WRITES=12 " +
                                   run_command(session, ""));
  EXPECT_EQ(killed.exit_code, 137) << killed.output;  // 128 + SIGKILL

  // The manifest survived atomically: sampling done, optimization
  // caught in flight with its iteration checkpoint on disk.
  const auto crashed = read_manifest(session);
  EXPECT_EQ(crashed.at("schema").as_string(), "ascdg-session-v1");
  bool opt_running = false;
  bool all_done = true;
  for (const auto& stage : crashed.at("stages").as_array()) {
    const bool done = stage.at("status").as_string() == "done";
    all_done = all_done && done;
    if (stage.at("name").as_string() == "optimization" && !done) {
      opt_running = true;
    }
  }
  EXPECT_TRUE(opt_running);
  EXPECT_FALSE(all_done);
  EXPECT_TRUE(fs::exists(session / "optimization.ckpt.jsonl"));

  // 2. Resume finishes the run from the last checkpoint.
  const CliResult resumed = run_cli(run_command(session, "--resume"));
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("resume #1"), std::string::npos)
      << resumed.output;
  EXPECT_NE(resumed.output.find("picked up after 'sampling'"),
            std::string::npos)
      << resumed.output;
  const auto finished = read_manifest(session);
  for (const auto& stage : finished.at("stages").as_array()) {
    EXPECT_EQ(stage.at("status").as_string(), "done")
        << stage.at("name").as_string();
  }
  EXPECT_TRUE(fs::exists(session / "best_template.tmpl"));
  // The mid-flight checkpoint was retired with its stage.
  EXPECT_FALSE(fs::exists(session / "optimization.ckpt.jsonl"));

  // 3. Resuming the completed session replays every stage from its
  // artifact: only the (unsessioned) before-CDG suite is simulated, so
  // the total drops below the partial resume's.
  const CliResult replay = run_cli(run_command(session, "--resume"));
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("resume #2"), std::string::npos)
      << replay.output;
  EXPECT_LT(total_simulations(replay.output),
            total_simulations(resumed.output));
}

TEST(SessionCli, ResumeRejectsChangedSeed) {
  const fs::path session = scratch_dir("seed_mismatch");
  const CliResult fresh = run_cli(run_command(session, ""));
  ASSERT_EQ(fresh.exit_code, 0) << fresh.output;

  std::string command = run_command(session, "--resume");
  command.replace(command.find("--seed 5"), 8, "--seed 9");
  const CliResult mismatched = run_cli(command);
  EXPECT_NE(mismatched.exit_code, 0);
  EXPECT_NE(mismatched.output.find("different configuration"),
            std::string::npos)
      << mismatched.output;
}

TEST(SessionCli, InspectRendersTheSessionAndSelfCompareIsZeroDelta) {
  const fs::path session = scratch_dir("inspect");
  const CliResult ran =
      run_cli(run_command(session, "--timeline=20 --trace"));
  ASSERT_EQ(ran.exit_code, 0) << ran.output;
  ASSERT_TRUE(fs::exists(session / "telemetry.jsonl"));
  ASSERT_TRUE(fs::exists(session / "trace.jsonl"));

  const CliResult inspected =
      run_cli(std::string(ASCDG_CLI_PATH) + " inspect " + session.string());
  EXPECT_EQ(inspected.exit_code, 0) << inspected.output;
  EXPECT_NE(inspected.output.find("sims per covered event"),
            std::string::npos)
      << inspected.output;
  EXPECT_NE(inspected.output.find("telemetry"), std::string::npos);
  EXPECT_NE(inspected.output.find("span-trace profile"), std::string::npos);

  const CliResult as_json = run_cli(std::string(ASCDG_CLI_PATH) +
                                    " inspect " + session.string() + " --json");
  EXPECT_EQ(as_json.exit_code, 0) << as_json.output;
  EXPECT_NE(as_json.output.find("\"schema\":\"ascdg-inspect-v1\""),
            std::string::npos)
      << as_json.output;

  // A session compared against itself must report exactly zero delta.
  const CliResult compared =
      run_cli(std::string(ASCDG_CLI_PATH) + " inspect " + session.string() +
              " --compare " + session.string() + " --json");
  EXPECT_EQ(compared.exit_code, 0) << compared.output;
  EXPECT_NE(compared.output.find("\"delta_sims_per_covered_event\":0"),
            std::string::npos)
      << compared.output;
  EXPECT_NE(compared.output.find("\"delta_total_sims\":0"), std::string::npos)
      << compared.output;
  // Throughput compares as a ratio: a session against itself is 1x.
  EXPECT_NE(compared.output.find("\"delta_sims_per_sec\":0"),
            std::string::npos)
      << compared.output;
  EXPECT_NE(compared.output.find("\"sims_per_sec_speedup\":1"),
            std::string::npos)
      << compared.output;
}

TEST(SessionCli, InspectRejectsADirectoryWithoutArtifacts) {
  const fs::path empty = scratch_dir("inspect_empty");
  fs::create_directories(empty);
  const CliResult result =
      run_cli(std::string(ASCDG_CLI_PATH) + " inspect " + empty.string());
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("not a session directory"), std::string::npos)
      << result.output;
}

TEST(SessionCli, TimelineSequenceSurvivesKillAndResume) {
  const fs::path session = scratch_dir("timeline_kill");
  // Same crash point as KillMidOptimizationThenResume: telemetry's own
  // index writes bypass the crash hook, so write #12 still lands
  // mid-optimization.
  const CliResult killed =
      run_cli("ASCDG_CRASH_AFTER_WRITES=12 " +
              run_command(session, "--timeline=10"));
  ASSERT_EQ(killed.exit_code, 137) << killed.output;
  ASSERT_TRUE(fs::exists(session / "telemetry.jsonl"));

  const CliResult resumed =
      run_cli(run_command(session, "--resume --timeline=10"));
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;

  // One continuous history across the crash: seq is gapless from 0,
  // exactly as a live /timeseries scrape would have replayed it.
  std::ifstream in(session / "telemetry.jsonl");
  std::string line;
  std::uint64_t expected_seq = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto doc = ascdg::util::json_parse(line);
    EXPECT_EQ(doc.at("seq").as_uint64(), expected_seq) << line;
    ++expected_seq;
  }
  EXPECT_GE(expected_seq, 2u);  // at least one sample per process

  // The index was finalized by the resumed process and counts every
  // line, including the crashed process's.
  const auto index = ascdg::util::json_parse([&] {
    std::ifstream idx(session / "telemetry.index.json");
    std::string text((std::istreambuf_iterator<char>(idx)),
                     std::istreambuf_iterator<char>());
    return text;
  }());
  EXPECT_EQ(index.at("schema").as_string(), "ascdg-timeseries-v1");
  EXPECT_TRUE(index.at("final").as_bool());
  EXPECT_EQ(index.at("samples").as_uint64(), expected_seq);
}

TEST(SessionCli, ResumeWithoutSessionIsAnError) {
  const CliResult result = run_cli(
      std::string(ASCDG_CLI_PATH) +
      " run io_unit --family crc --resume --before-sims 50 --samples 5"
      " --sample-sims 10 --iterations 1 --point-sims 10 --harvest 0");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("session"), std::string::npos)
      << result.output;
}

}  // namespace
