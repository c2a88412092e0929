// End-to-end backend parity against the real CLI binary: the same flow
// run on --backend=thread and --backend=process:8 must produce
// byte-identical coverage artifacts (CSV phase table, saved best
// template) and the same simulation count — wall-clock is the only
// thing allowed to differ. Also pins the strict --backend parsing
// contract: a bad spec is a usage error (exit 1) with a hint, never a
// runtime error (exit 2) or a silent fallback; and that any other bad
// flag is a usage error before the first simulation, and a flag's
// value is never read as a positional argument.
//
// The binary path arrives via the ASCDG_CLI_PATH compile definition
// (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifndef ASCDG_CLI_PATH
#error "ASCDG_CLI_PATH must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

struct CliResult {
  int exit_code = -1;  ///< WEXITSTATUS
  std::string output;  ///< stdout + stderr
};

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

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// A small fixed-seed flow writing its coverage artifacts under `dir`.
std::string flow_command(const fs::path& dir, const std::string& backend) {
  return std::string(ASCDG_CLI_PATH) +
         " run io_unit --family crc --before-sims 50 --samples 10"
         " --sample-sims 20 --iterations 2 --point-sims 20 --harvest 500"
         " --seed 5 --backend=" + backend +
         " --csv " + (dir / "phases.csv").string() +
         " --save-best " + (dir / "best.tmpl").string();
}

/// The "total simulations: N" line — the cost metric both backends
/// must agree on.
std::string total_simulations_line(const std::string& output) {
  const auto pos = output.find("total simulations:");
  EXPECT_NE(pos, std::string::npos) << output;
  if (pos == std::string::npos) return {};
  return output.substr(pos, output.find('\n', pos) - pos);
}

class BackendCli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ascdg_backend_cli_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(BackendCli, ProcessBackendIsBitIdenticalToThreadBackend) {
  const fs::path thread_dir = dir_ / "thread";
  const fs::path process_dir = dir_ / "process";
  fs::create_directories(thread_dir);
  fs::create_directories(process_dir);

  const CliResult on_thread = run_cli(flow_command(thread_dir, "thread"));
  ASSERT_EQ(on_thread.exit_code, 0) << on_thread.output;
  const CliResult on_process = run_cli(flow_command(process_dir, "process:8"));
  ASSERT_EQ(on_process.exit_code, 0) << on_process.output;

  EXPECT_EQ(slurp(thread_dir / "phases.csv"),
            slurp(process_dir / "phases.csv"));
  EXPECT_EQ(slurp(thread_dir / "best.tmpl"),
            slurp(process_dir / "best.tmpl"));
  EXPECT_EQ(total_simulations_line(on_thread.output),
            total_simulations_line(on_process.output));
}

TEST_F(BackendCli, UnknownBackendNameIsAUsageErrorWithHint) {
  const CliResult result = run_cli(flow_command(dir_, "bogus"));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("unknown backend 'bogus'"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("thread|process[:N]"), std::string::npos)
      << result.output;
}

TEST_F(BackendCli, GarbageWorkerCountIsAUsageError) {
  for (const char* spec : {"process:abc", "process:0", "process:",
                           "thread:1x"}) {
    const CliResult result = run_cli(flow_command(dir_, spec));
    EXPECT_EQ(result.exit_code, 1) << spec << ": " << result.output;
    EXPECT_NE(result.output.find("backend"), std::string::npos)
        << result.output;
  }
}

TEST_F(BackendCli, BareBackendFlagWithoutSpecIsRejected) {
  // `--backend` with no value eats nothing: the stray token fails the
  // run under the unknown-flag contract (exit 1), not silently.
  const CliResult result = run_cli(
      std::string(ASCDG_CLI_PATH) +
      " before io_unit --sims 50 --backend");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("--backend"), std::string::npos)
      << result.output;
}

TEST_F(BackendCli, ProcessBackendWorksOnAuxiliaryCommands) {
  const CliResult result = run_cli(std::string(ASCDG_CLI_PATH) +
                                   " before io_unit --sims 50"
                                   " --backend=process:2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const CliResult reference = run_cli(std::string(ASCDG_CLI_PATH) +
                                      " before io_unit --sims 50");
  EXPECT_EQ(reference.exit_code, 0) << reference.output;
  EXPECT_EQ(result.output, reference.output);
}

// Flag errors on `run` surface before the first simulation, not after
// the whole flow has run (and written its outputs).
TEST_F(BackendCli, UnknownRunFlagFailsBeforeAnySimulation) {
  const CliResult result = run_cli(flow_command(dir_, "thread") +
                                   " --bogus-flag");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("unrecognized argument(s): --bogus-flag"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("total simulations:"), std::string::npos)
      << result.output;
  EXPECT_FALSE(fs::exists(dir_ / "phases.csv"));
}

// A value flag never takes the next flag as its value: `--trace --csv
// out.csv` is a bare --trace (a usage error without --session), not a
// trace file named "--csv".
TEST_F(BackendCli, TraceNeverTakesTheNextFlagAsItsFile) {
  const CliResult result = run_cli(
      "cd " + dir_.string() + " && " + ASCDG_CLI_PATH +
      " run io_unit --family crc --before-sims 50 --samples 10"
      " --sample-sims 20 --iterations 2 --point-sims 20 --harvest 500"
      " --trace --csv out.csv");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("bare --trace needs --session"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("total simulations:"), std::string::npos)
      << result.output;
  EXPECT_FALSE(fs::exists(dir_ / "--csv"));
  EXPECT_FALSE(fs::exists(dir_ / "out.csv"));
}

// A flag's value that precedes the unit is the flag's, not the unit:
// every command consumes its flags before its positional arguments.
TEST_F(BackendCli, FlagValueBeforeTheUnitIsNotTakenAsTheUnit) {
  const CliResult flag_first =
      run_cli(std::string(ASCDG_CLI_PATH) + " before --sims 50 io_unit");
  EXPECT_EQ(flag_first.exit_code, 0) << flag_first.output;
  EXPECT_EQ(flag_first.output.find("unknown unit"), std::string::npos)
      << flag_first.output;
  const CliResult unit_first =
      run_cli(std::string(ASCDG_CLI_PATH) + " before io_unit --sims 50");
  EXPECT_EQ(unit_first.exit_code, 0) << unit_first.output;
  EXPECT_EQ(flag_first.output, unit_first.output);
}

// Stray flags fail every command before it simulates, not only `run`
// and `campaign`: `holes` would otherwise run its whole suite first.
TEST_F(BackendCli, UnknownFlagOnAuxiliaryCommandFailsBeforeAnySimulation) {
  const CliResult result =
      run_cli(std::string(ASCDG_CLI_PATH) +
              " holes ifu --family ifu --sims 3000 --bogus");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("unrecognized argument(s): --bogus"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("maximal holes"), std::string::npos)
      << result.output;
}

}  // namespace
