// Fault-injection layer: FailurePoint trigger semantics, the durable
// atomic writer under injected ENOSPC/short-write/rename failures, the
// append-only log (torn tails, corrupt lines, injected write/sync
// failures), stale-temp reaping on session open, and the HTTP server's
// EINTR handling (both injected deterministically and via a real
// interval-timer signal storm).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/artifacts.hpp"
#include "flow/session.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/fs.hpp"

namespace {

namespace fs = std::filesystem;
using ascdg::util::Durability;
using ascdg::util::FailurePoint;
using Id = ascdg::util::FailurePoint::Id;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ascdg_fault_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

bool has_tmp_files(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().ends_with(".tmp")) return true;
  }
  return false;
}

/// Every test leaves the process with nothing armed.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FailurePoint::disarm_all(); }
};

// ------------------------------------------------ trigger semantics

TEST_F(FaultTest, DisarmedCheckIsFreeAndCountsNothing) {
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteFsync), 0);
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteFsync), 0);
  // The disarmed fast path must not touch any state.
  EXPECT_EQ(FailurePoint::checks(Id::kAtomicWriteFsync), 0u);
  EXPECT_EQ(FailurePoint::fires(Id::kAtomicWriteFsync), 0u);
}

TEST_F(FaultTest, OneShotFiresExactlyOnceWithItsErrno) {
  FailurePoint::prime_one_shot(Id::kAtomicWriteRename, ENOSPC);
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteRename), ENOSPC);
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteRename), 0);
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteRename), 0);
  EXPECT_EQ(FailurePoint::fires(Id::kAtomicWriteRename), 1u);
}

TEST_F(FaultTest, OneShotPointsAreIndependent) {
  FailurePoint::prime_one_shot(Id::kHttpRecv, EINTR);
  FailurePoint::prime_one_shot(Id::kHttpSend, ECONNRESET);
  EXPECT_EQ(FailurePoint::check(Id::kHttpSend), ECONNRESET);
  EXPECT_EQ(FailurePoint::check(Id::kHttpRecv), EINTR);
  EXPECT_EQ(FailurePoint::check(Id::kHttpSend), 0);
  EXPECT_EQ(FailurePoint::check(Id::kHttpRecv), 0);
}

TEST_F(FaultTest, EveryNthFiresOnExactMultiples) {
  FailurePoint::prime_every_nth(Id::kAtomicWriteWrite, 3, EIO);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(FailurePoint::check(Id::kAtomicWriteWrite) != 0);
  }
  const std::vector<bool> expected = {false, false, true,  false, false,
                                      true,  false, false, true};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(FailurePoint::checks(Id::kAtomicWriteWrite), 9u);
  EXPECT_EQ(FailurePoint::fires(Id::kAtomicWriteWrite), 3u);
}

TEST_F(FaultTest, EveryFirstFiresAlways) {
  FailurePoint::prime_every_nth(Id::kArtifactRead, 1, ENOENT);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(FailurePoint::check(Id::kArtifactRead), ENOENT);
  }
}

TEST_F(FaultTest, ProbabilisticScheduleReplaysExactlyUnderASeed) {
  const auto draw_sequence = [](std::uint64_t seed) {
    FailurePoint::prime_probability(Id::kHttpAccept, 0.5, seed, EINTR);
    std::vector<bool> fired;
    for (int i = 0; i < 128; ++i) {
      fired.push_back(FailurePoint::check(Id::kHttpAccept) != 0);
    }
    FailurePoint::disarm(Id::kHttpAccept);
    return fired;
  };
  const std::vector<bool> first = draw_sequence(42);
  const std::vector<bool> replay = draw_sequence(42);
  EXPECT_EQ(first, replay);
  // p = 0.5 over 128 draws: both outcomes must occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FaultTest, ProbabilityExtremesNeverAndAlwaysFire) {
  FailurePoint::prime_probability(Id::kHttpRecv, 0.0, 1, EINTR);
  FailurePoint::prime_probability(Id::kHttpSend, 1.0, 1, EINTR);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(FailurePoint::check(Id::kHttpRecv), 0);
    EXPECT_EQ(FailurePoint::check(Id::kHttpSend), EINTR);
  }
}

TEST_F(FaultTest, DisarmAllResetsEverything) {
  FailurePoint::prime_every_nth(Id::kAtomicWriteOpen, 1, EIO);
  EXPECT_NE(FailurePoint::check(Id::kAtomicWriteOpen), 0);
  FailurePoint::disarm_all();
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteOpen), 0);
  EXPECT_EQ(FailurePoint::checks(Id::kAtomicWriteOpen), 0u);
  EXPECT_EQ(FailurePoint::fires(Id::kAtomicWriteOpen), 0u);
}

TEST_F(FaultTest, NamesRoundTripThroughFind) {
  for (int i = 0; i < FailurePoint::kIdCount; ++i) {
    const auto id = static_cast<Id>(i);
    const auto found = FailurePoint::find(FailurePoint::name(id));
    ASSERT_TRUE(found.has_value()) << FailurePoint::name(id);
    EXPECT_EQ(*found, id);
  }
  EXPECT_FALSE(FailurePoint::find("no.such.point").has_value());
}

// ------------------------------------------------ env spec parsing

TEST_F(FaultTest, InstallArmsMultipleEntries) {
  FailurePoint::install(
      "atomic_write.fsync=nth:2,errno=ENOSPC;http.recv=once,errno=EINTR");
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteFsync), 0);
  EXPECT_EQ(FailurePoint::check(Id::kAtomicWriteFsync), ENOSPC);
  EXPECT_EQ(FailurePoint::check(Id::kHttpRecv), EINTR);
  EXPECT_EQ(FailurePoint::check(Id::kHttpRecv), 0);
}

TEST_F(FaultTest, InstallAcceptsNumericErrnoAndProbabilitySeed) {
  FailurePoint::install("http.send=prob:1.0,errno=104,seed=7");
  EXPECT_EQ(FailurePoint::check(Id::kHttpSend), 104);  // ECONNRESET
}

TEST_F(FaultTest, MalformedSpecsAreFatalNotSilent) {
  const char* bad_specs[] = {
      "no.such.point=once",
      "atomic_write.fsync",
      "atomic_write.fsync=maybe",
      "atomic_write.fsync=nth:abc",
      "atomic_write.fsync=nth:0",
      "atomic_write.fsync=prob:1.5",
      "atomic_write.fsync=once,errno=EWHATEVER",
      "atomic_write.fsync=once,flavor=spicy",
  };
  for (const char* spec : bad_specs) {
    EXPECT_THROW(FailurePoint::install(spec), ascdg::util::ConfigError)
        << spec;
    FailurePoint::disarm_all();
  }
}

// ------------------------------------------------ durable atomic writes

TEST_F(FaultTest, AtomicWriteOpenFailureLeavesNothingBehind) {
  const fs::path dir = scratch_dir("open_fail");
  FailurePoint::prime_one_shot(Id::kAtomicWriteOpen, EMFILE);
  EXPECT_THROW(ascdg::util::atomic_write_file(dir / "a.json", "data"),
               ascdg::util::Error);
  EXPECT_FALSE(fs::exists(dir / "a.json"));
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, ShortWriteCleansTempAndKeepsPreviousCheckpoint) {
  const fs::path dir = scratch_dir("short_write");
  const fs::path file = dir / "ckpt.json";
  ascdg::util::atomic_write_file(file, "previous checkpoint");
  FailurePoint::prime_one_shot(Id::kAtomicWriteWrite, ENOSPC);
  const std::string next(4096, 'x');
  EXPECT_THROW(ascdg::util::atomic_write_file(file, next),
               ascdg::util::Error);
  EXPECT_EQ(read_file(file), "previous checkpoint");
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, FsyncFailureCleansTempAndKeepsPreviousCheckpoint) {
  const fs::path dir = scratch_dir("fsync_fail");
  const fs::path file = dir / "ckpt.json";
  ascdg::util::atomic_write_file(file, "previous checkpoint");
  FailurePoint::prime_one_shot(Id::kAtomicWriteFsync, ENOSPC);
  EXPECT_THROW(ascdg::util::atomic_write_file(file, "torn"),
               ascdg::util::Error);
  EXPECT_EQ(read_file(file), "previous checkpoint");
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, RenameFailureCleansTempAndKeepsPreviousCheckpoint) {
  const fs::path dir = scratch_dir("rename_fail");
  const fs::path file = dir / "ckpt.json";
  ascdg::util::atomic_write_file(file, "previous checkpoint");
  FailurePoint::prime_one_shot(Id::kAtomicWriteRename, EIO);
  EXPECT_THROW(ascdg::util::atomic_write_file(file, "torn"),
               ascdg::util::Error);
  EXPECT_EQ(read_file(file), "previous checkpoint");
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, DirFsyncFailureSurfacesButTheRenameStands) {
  const fs::path dir = scratch_dir("dir_fsync_fail");
  const fs::path file = dir / "ckpt.json";
  FailurePoint::prime_one_shot(Id::kAtomicWriteDirFsync, EIO);
  // The rename already committed when the directory fsync fails; the
  // caller sees the failure (durability not guaranteed) but the file
  // content is the complete new version — never torn.
  EXPECT_THROW(ascdg::util::atomic_write_file(file, "new"),
               ascdg::util::Error);
  EXPECT_EQ(read_file(file), "new");
  EXPECT_FALSE(has_tmp_files(dir));
}

TEST_F(FaultTest, DirFsyncEinvalIsTolerated) {
  // Filesystems that cannot fsync a directory report EINVAL; that is
  // not an error the caller can act on.
  const fs::path dir = scratch_dir("dir_fsync_einval");
  FailurePoint::prime_one_shot(Id::kAtomicWriteDirFsync, EINVAL);
  EXPECT_NO_THROW(ascdg::util::atomic_write_file(dir / "a.json", "data"));
  EXPECT_EQ(read_file(dir / "a.json"), "data");
}

TEST_F(FaultTest, NoFsyncDurabilityNeverReachesTheFsyncSites) {
  const fs::path dir = scratch_dir("no_fsync");
  FailurePoint::prime_one_shot(Id::kAtomicWriteFsync, EIO);
  FailurePoint::prime_one_shot(Id::kAtomicWriteDirFsync, EIO);
  EXPECT_NO_THROW(ascdg::util::atomic_write_file(dir / "a.json", "data",
                                                 Durability::kNoFsync));
  EXPECT_EQ(read_file(dir / "a.json"), "data");
  EXPECT_EQ(FailurePoint::fires(Id::kAtomicWriteFsync), 0u);
  EXPECT_EQ(FailurePoint::fires(Id::kAtomicWriteDirFsync), 0u);
}

// ------------------------------------------------ append-only log

using ascdg::util::AppendLog;

/// The "i" field of every record the log at `path` reads back.
std::vector<std::size_t> record_ids(const fs::path& path) {
  std::vector<std::size_t> ids;
  for (const auto& record : AppendLog::read(path)) {
    ids.push_back(record.at("i").as_size());
  }
  return ids;
}

std::string record(std::size_t i, std::size_t pad = 0) {
  return "{\"i\":" + std::to_string(i) + ",\"pad\":\"" +
         std::string(pad, 'x') + "\"}";
}

TEST_F(FaultTest, AppendLogRoundTripsAcrossReopen) {
  const fs::path file = scratch_dir("log_round_trip") / "sub" / "it.jsonl";
  EXPECT_TRUE(AppendLog::read(file).empty());  // missing reads as empty
  {
    AppendLog log(file);
    log.append(record(1));
    log.append(record(2));
  }
  {
    AppendLog log(file);  // reopen appends after the existing records
    log.append(record(3));
  }
  EXPECT_EQ(record_ids(file), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(read_file(file),
            record(1) + "\n" + record(2) + "\n" + record(3) + "\n");
}

TEST_F(FaultTest, AppendLogReopenTruncatesTornTailThenAppendsCleanly) {
  const fs::path file = scratch_dir("log_torn_tail") / "it.jsonl";
  {
    AppendLog log(file);
    log.append(record(1));
    log.append(record(2));
  }
  // A crash mid-append leaves a partial record without its newline.
  std::ofstream(file, std::ios::app | std::ios::binary) << "{\"i\":3,\"pa";
  EXPECT_EQ(record_ids(file), (std::vector<std::size_t>{1, 2}));
  {
    AppendLog log(file);
    EXPECT_EQ(read_file(file), record(1) + "\n" + record(2) + "\n");
    log.append(record(4));
  }
  EXPECT_EQ(record_ids(file), (std::vector<std::size_t>{1, 2, 4}));
}

TEST_F(FaultTest, AppendLogCorruptMiddleLineRaisesParseError) {
  const fs::path file = scratch_dir("log_corrupt") / "it.jsonl";
  std::ofstream(file, std::ios::binary)
      << record(1) << "\n{\"i\":2,\"pad\n" << record(3) << "\n";
  try {
    (void)AppendLog::read(file);
    ADD_FAILURE() << "a corrupt complete line was accepted";
  } catch (const ascdg::util::ParseError& err) {
    EXPECT_EQ(err.line(), 2u) << err.what();
    EXPECT_NE(std::string(err.what()).find("it.jsonl"), std::string::npos)
        << err.what();
  }
}

TEST_F(FaultTest, AppendLogWriteFailureLeavesNoTornRecord) {
  const fs::path file = scratch_dir("log_write_fail") / "it.jsonl";
  AppendLog log(file);
  log.append(record(1));
  // A short write: half the record lands, then ENOSPC.
  FailurePoint::prime_one_shot(Id::kAppendLogWrite, ENOSPC);
  EXPECT_THROW(log.append(record(2, 4096)), ascdg::util::Error);
  EXPECT_EQ(FailurePoint::fires(Id::kAppendLogWrite), 1u);
  EXPECT_EQ(read_file(file), record(1) + "\n");
  log.append(record(3));
  EXPECT_EQ(record_ids(file), (std::vector<std::size_t>{1, 3}));
}

TEST_F(FaultTest, AppendLogSyncFailureLeavesNoTornRecord) {
  const fs::path file = scratch_dir("log_sync_fail") / "it.jsonl";
  AppendLog log(file);
  log.append(record(1));
  // The record was written whole but never made durable: it must not
  // count as committed, so it is cut off again.
  FailurePoint::prime_one_shot(Id::kAppendLogSync, EIO);
  EXPECT_THROW(log.append(record(2)), ascdg::util::Error);
  EXPECT_EQ(FailurePoint::fires(Id::kAppendLogSync), 1u);
  EXPECT_EQ(read_file(file), record(1) + "\n");
  log.append(record(3));
  EXPECT_EQ(record_ids(file), (std::vector<std::size_t>{1, 3}));
}

TEST_F(FaultTest, AppendLogNoFsyncNeverReachesTheSyncSite) {
  const fs::path file = scratch_dir("log_no_fsync") / "it.jsonl";
  FailurePoint::prime_one_shot(Id::kAppendLogSync, EIO);
  AppendLog log(file, Durability::kNoFsync);
  EXPECT_NO_THROW(log.append(record(1)));
  EXPECT_EQ(FailurePoint::fires(Id::kAppendLogSync), 0u);
  EXPECT_EQ(record_ids(file), (std::vector<std::size_t>{1}));
}

// ------------------------------------------------ session integration

TEST_F(FaultTest, SessionOpenReapsStaleTempFiles) {
  const fs::path dir = scratch_dir("stale_open");
  const std::vector<std::string> stages = {"alpha", "beta"};
  ascdg::flow::Session::create(dir, 0xF00D, 5, stages);
  std::ofstream(dir / "optimization.ckpt.json.tmp") << "torn by SIGKILL";
  std::ofstream(dir / "manifest.json.tmp") << "torn by SIGKILL";
  ascdg::flow::Session::open(dir, 0xF00D, stages);
  EXPECT_FALSE(fs::exists(dir / "optimization.ckpt.json.tmp"));
  EXPECT_FALSE(fs::exists(dir / "manifest.json.tmp"));
  EXPECT_TRUE(fs::exists(dir / "manifest.json"));
}

TEST_F(FaultTest, SessionCreateReapsStaleTempFiles) {
  const fs::path dir = scratch_dir("stale_create");
  std::ofstream(dir / "sampling.json.tmp") << "torn";
  ascdg::flow::Session::create(dir, 0xF00D, 5,
                               std::vector<std::string>{"alpha"});
  EXPECT_FALSE(fs::exists(dir / "sampling.json.tmp"));
}

TEST_F(FaultTest, ManifestReadFailureIsInjectable) {
  const fs::path dir = scratch_dir("manifest_read");
  const std::vector<std::string> stages = {"alpha"};
  ascdg::flow::Session::create(dir, 0xF00D, 5, stages);
  FailurePoint::prime_one_shot(Id::kManifestRead, EIO);
  EXPECT_THROW(ascdg::flow::Session::open(dir, 0xF00D, stages),
               ascdg::util::Error);
  // Injection consumed; the next open succeeds.
  EXPECT_NO_THROW(ascdg::flow::Session::open(dir, 0xF00D, stages));
}

TEST_F(FaultTest, ArtifactReadFailureIsInjectable) {
  const fs::path dir = scratch_dir("artifact_read");
  ascdg::util::atomic_write_file(dir / "a.json", R"({"a":1})");
  FailurePoint::prime_one_shot(Id::kArtifactRead, EIO);
  EXPECT_THROW((void)ascdg::flow::read_json_file(dir / "a.json"),
               ascdg::util::Error);
  EXPECT_EQ(ascdg::flow::read_json_file(dir / "a.json").at("a").as_size(),
            1u);
}

// ------------------------------------------------ HTTP EINTR handling

/// Minimal EINTR-robust HTTP client — the *test* must survive the
/// signal storm too.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) != 0) {
    if (errno == EINTR || errno == EALREADY) continue;
    if (errno == EISCONN) break;
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(FaultTest, HttpServerRetriesInjectedEintrOnEveryPath) {
  ascdg::obs::Registry reg;
  reg.counter("ascdg_fault_probe_total").add(1);
  ascdg::obs::HttpServerConfig config;
  config.registry = &reg;
  ascdg::obs::HttpServer server(config);
  ASSERT_NE(server.port(), 0);

  // Every second accept/recv/send syscall "returns" EINTR. Before the
  // retry fix each of these dropped the connection or truncated the
  // response mid-flight.
  FailurePoint::prime_every_nth(Id::kHttpAccept, 2, EINTR);
  FailurePoint::prime_every_nth(Id::kHttpRecv, 2, EINTR);
  FailurePoint::prime_every_nth(Id::kHttpSend, 2, EINTR);

  for (int i = 0; i < 8; ++i) {
    const std::string response = http_get(server.port(), "/metrics");
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << i;
    EXPECT_NE(response.find("ascdg_fault_probe_total 1"), std::string::npos)
        << i;
  }
  EXPECT_GT(FailurePoint::fires(Id::kHttpRecv), 0u);
  EXPECT_GT(FailurePoint::fires(Id::kHttpSend), 0u);
}

void sigalrm_noop(int) {}

TEST_F(FaultTest, HttpServerSurvivesAnIntervalTimerEintrStorm) {
  ascdg::obs::Registry reg;
  reg.counter("ascdg_fault_storm_total").add(1);
  ascdg::obs::HttpServerConfig config;
  config.registry = &reg;
  ascdg::obs::HttpServer server(config);
  ASSERT_NE(server.port(), 0);

  // A real signal storm: SIGALRM every 2 ms, installed *without*
  // SA_RESTART so blocking syscalls in whichever thread takes the
  // signal actually return EINTR.
  struct sigaction action = {};
  action.sa_handler = sigalrm_noop;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous = {};
  ASSERT_EQ(sigaction(SIGALRM, &action, &previous), 0);
  itimerval timer = {};
  timer.it_interval.tv_usec = 2000;
  timer.it_value.tv_usec = 2000;
  itimerval previous_timer = {};
  ASSERT_EQ(setitimer(ITIMER_REAL, &timer, &previous_timer), 0);

  int ok = 0;
  constexpr int kRequests = 100;
  for (int i = 0; i < kRequests; ++i) {
    const std::string response = http_get(server.port(), "/metrics");
    if (response.find("HTTP/1.1 200 OK") != std::string::npos &&
        response.find("ascdg_fault_storm_total 1") != std::string::npos) {
      ++ok;
    }
  }

  setitimer(ITIMER_REAL, &previous_timer, nullptr);
  sigaction(SIGALRM, &previous, nullptr);
  EXPECT_EQ(ok, kRequests);
}

}  // namespace
