// The execution-backend seam: spec parsing, backend construction, and
// the contract both implementations must share — bit-identical results
// for any backend and worker count, clean error-and-heal behavior when
// a worker process dies (really or via injected pipe faults), and the
// registry-resolvable-unit precondition of the process backend.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "coverage/repository.hpp"
#include "duv/registry.hpp"
#include "exec/backend.hpp"
#include "exec/process_farm.hpp"
#include "exec/thread_farm.hpp"
#include "flow/session.hpp"
#include "flow/types.hpp"
#include "tgen/test_template.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/rng.hpp"

namespace ascdg::exec {
namespace {

// --- --backend spec parsing ------------------------------------------

TEST(BackendSpec, ParsesValidSpecs) {
  EXPECT_EQ(parse_backend_spec("thread"),
            (BackendConfig{BackendConfig::Kind::kThread, 0}));
  EXPECT_EQ(parse_backend_spec("process"),
            (BackendConfig{BackendConfig::Kind::kProcess, 0}));
  EXPECT_EQ(parse_backend_spec("thread:4"),
            (BackendConfig{BackendConfig::Kind::kThread, 4}));
  EXPECT_EQ(parse_backend_spec("process:8"),
            (BackendConfig{BackendConfig::Kind::kProcess, 8}));
}

TEST(BackendSpec, ToStringIsCanonical) {
  EXPECT_EQ(to_string(BackendConfig{}), "thread");
  EXPECT_EQ(to_string(parse_backend_spec("process:8")), "process:8");
  EXPECT_EQ(to_string(parse_backend_spec("thread:2")), "thread:2");
}

TEST(BackendSpec, RejectsGarbage) {
  for (const char* spec : {"", "bogus", "Process", "process:", "process:0",
                           "process:abc", "process:8x", "process:-1", ":4"}) {
    EXPECT_THROW((void)parse_backend_spec(spec), util::ConfigError) << spec;
  }
  // The message carries the accepted forms — it doubles as the CLI hint.
  try {
    (void)parse_backend_spec("bogus");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& err) {
    EXPECT_NE(std::string(err.what()).find("thread|process[:N]"),
              std::string::npos)
        << err.what();
  }
}

TEST(BackendSpec, MakeBackendConstructsTheConfiguredKind) {
  const auto thread_backend = make_backend(parse_backend_spec("thread:2"));
  EXPECT_EQ(thread_backend->kind(), "thread");
  EXPECT_EQ(thread_backend->worker_count(), 2u);
  const auto process_backend = make_backend(parse_backend_spec("process:2"));
  EXPECT_EQ(process_backend->kind(), "process");
  EXPECT_EQ(process_backend->worker_count(), 2u);
}

// --- Cross-backend bit-identity --------------------------------------

/// Every template worth sweeping for a unit (mirrors duv_batch_test):
/// the whole regression suite plus the defaults.
std::vector<tgen::TestTemplate> templates_under_test(const duv::Duv& duv) {
  std::vector<tgen::TestTemplate> tmpls = duv.suite();
  tmpls.push_back(duv.defaults());
  return tmpls;
}

/// Jobs over the unit's template matrix with deliberately awkward
/// counts: zero, sub-chunk, exactly one chunk, and a few chunks plus a
/// remainder (kChunk is 64 on both backends).
std::vector<Job> jobs_for(const std::vector<tgen::TestTemplate>& tmpls) {
  constexpr std::size_t kCounts[] = {0, 33, 64, 150};
  std::vector<Job> jobs;
  for (std::size_t j = 0; j < tmpls.size(); ++j) {
    jobs.push_back(
        {&tmpls[j], kCounts[j % std::size(kCounts)], 0xC11 + j, j});
  }
  return jobs;
}

class BackendEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendEquivalence, ProcessMatchesThreadAtAllWorkerCounts) {
  const auto duv = duv::make_unit(GetParam());
  ASSERT_NE(duv, nullptr);
  const auto tmpls = templates_under_test(*duv);
  const auto jobs = jobs_for(tmpls);

  ThreadFarm thread_farm(3);
  const auto expected = thread_farm.run_all(*duv, jobs);
  ASSERT_EQ(expected.size(), jobs.size());

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ProcessFarm process_farm(workers);
    const auto got = process_farm.run_all(*duv, jobs);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(got[j], expected[j])
          << duv->name() << "/" << tmpls[j].name() << " with " << workers
          << " workers";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllUnits, BackendEquivalence,
                         ::testing::Values("ifu", "lsu", "io_unit",
                                           "l3_cache"));

TEST(ProcessBackend, ZeroCountBatchReturnsEmptyStatsPerJob) {
  const auto duv = duv::make_unit("io_unit");
  ASSERT_NE(duv, nullptr);
  const tgen::TestTemplate tmpl = duv->defaults();
  const std::vector<Job> jobs = {{&tmpl, 0, 1}, {&tmpl, 0, 2}};
  ProcessFarm farm(2);
  const auto stats = farm.run_all(*duv, jobs);
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.sims(), 0u);
    EXPECT_EQ(s.event_count(), duv->space().size());
  }
  EXPECT_EQ(farm.total_simulations(), 0u);
}

TEST(ProcessBackend, RunConvenienceMatchesThreadBackend) {
  const auto duv = duv::make_unit("lsu");
  ASSERT_NE(duv, nullptr);
  ThreadFarm thread_farm(2);
  ProcessFarm process_farm(2);
  const auto expected = thread_farm.run(*duv, duv->defaults(), 137, 0xFEED);
  EXPECT_EQ(process_farm.run(*duv, duv->defaults(), 137, 0xFEED), expected);
  EXPECT_EQ(process_farm.total_simulations(), 137u);
  EXPECT_EQ(process_farm.telemetry().simulations, 137u);
  EXPECT_EQ(process_farm.telemetry().runs, 1u);
}

// --- Worker-death semantics ------------------------------------------

TEST(ProcessBackend, WorkerKilledBetweenRunsHealsSilently) {
  const auto duv = duv::make_unit("io_unit");
  ASSERT_NE(duv, nullptr);
  ProcessFarm farm(2);
  const auto expected = farm.run(*duv, duv->defaults(), 100, 7);

  const auto pids = farm.worker_pids();
  ASSERT_EQ(pids.size(), 2u);
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
  // Give the kernel a beat to turn the child into a reapable zombie.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The next run reaps and respawns the dead slot before scheduling —
  // no error surfaces and results stay bit-identical.
  EXPECT_EQ(farm.run(*duv, duv->defaults(), 100, 7), expected);
  EXPECT_GE(farm.respawns(), 1u);
}

/// One attempt at catching a worker mid-batch with SIGKILL: returns
/// true when the kill landed while the batch was still in flight (the
/// run_all raised). A fast machine can finish `count` simulations
/// before the signal lands, so the caller escalates the count.
bool mid_run_kill_raised(const duv::Duv& duv, std::size_t count) {
  ProcessFarm farm(1);
  const auto pids = farm.worker_pids();  // stable: captured before the run
  EXPECT_EQ(pids.size(), 1u);
  const tgen::TestTemplate tmpl = duv.defaults();
  const Job job{&tmpl, count, 42};

  std::atomic<bool> threw{false};
  std::string message;
  std::thread runner([&] {
    try {
      (void)farm.run_all(duv, std::span<const Job>(&job, 1));
    } catch (const util::Error& err) {
      threw = true;
      message = err.what();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (void)::kill(pids[0], SIGKILL);
  runner.join();
  if (!threw) return false;

  // The error is a clean per-batch diagnostic, and the farm stays
  // usable: the next run respawns the killed worker and succeeds.
  EXPECT_NE(message.find("process backend: worker"), std::string::npos)
      << message;
  const auto after = farm.run(duv, tmpl, 50, 9);
  EXPECT_EQ(after.sims(), 50u);
  EXPECT_GE(farm.respawns(), 1u);
  return true;
}

TEST(ProcessBackend, WorkerKilledMidBatchRaisesCleanErrorAndFarmStaysUsable) {
  const auto duv = duv::make_unit("io_unit");
  ASSERT_NE(duv, nullptr);
  bool raised = false;
  for (const std::size_t count : {std::size_t{1} << 20, std::size_t{1} << 22,
                                  std::size_t{1} << 24}) {
    if (mid_run_kill_raised(*duv, count)) {
      raised = true;
      break;
    }
  }
  EXPECT_TRUE(raised)
      << "SIGKILL never landed mid-batch, even at 16M simulations";
}

/// Disarms every failure point on scope exit, pass or fail.
struct FailPointGuard {
  ~FailPointGuard() { util::FailurePoint::disarm_all(); }
};

TEST(ProcessBackend, InjectedPipeWriteFailureRaisesAndHeals) {
  const FailPointGuard guard;
  const auto duv = duv::make_unit("io_unit");
  ASSERT_NE(duv, nullptr);
  ProcessFarm farm(2);
  const auto expected = farm.run(*duv, duv->defaults(), 100, 3);

  // Same spelling the CLI fuzz harness uses via ASCDG_FAIL_POINTS.
  util::FailurePoint::install("exec.pipe_write=once,errno=EPIPE");
  try {
    (void)farm.run(*duv, duv->defaults(), 100, 3);
    FAIL() << "expected util::Error";
  } catch (const util::Error& err) {
    EXPECT_NE(std::string(err.what()).find("died while receiving work"),
              std::string::npos)
        << err.what();
  }
  EXPECT_EQ(util::FailurePoint::fires(util::FailurePoint::Id::kExecPipeWrite),
            1u);

  // The (healthy) worker was retired on the failed write; the next run
  // respawns it and the farm is whole again.
  EXPECT_EQ(farm.run(*duv, duv->defaults(), 100, 3), expected);
  EXPECT_GE(farm.respawns(), 1u);
}

TEST(ProcessBackend, InjectedPipeReadFailureRaisesAndHeals) {
  const FailPointGuard guard;
  const auto duv = duv::make_unit("io_unit");
  ASSERT_NE(duv, nullptr);
  ProcessFarm farm(2);
  const auto expected = farm.run(*duv, duv->defaults(), 100, 3);

  util::FailurePoint::prime_one_shot(util::FailurePoint::Id::kExecPipeRead,
                                     ECONNRESET);
  try {
    (void)farm.run(*duv, duv->defaults(), 100, 3);
    FAIL() << "expected util::Error";
  } catch (const util::Error& err) {
    EXPECT_NE(std::string(err.what()).find("died mid-batch"),
              std::string::npos)
        << err.what();
  }
  EXPECT_EQ(farm.run(*duv, duv->defaults(), 100, 3), expected);
  EXPECT_GE(farm.respawns(), 1u);
}

// --- Registry-resolvable-unit precondition ---------------------------

/// A Duv the registry does not know: workers rebuild units by name, so
/// the process backend must refuse it up front (the thread backend
/// keeps running such units in-process — the custom_duv example).
class UnregisteredDuv final : public duv::Duv {
 public:
  UnregisteredDuv() : defaults_("unregistered_defaults") {
    for (int e = 0; e < 4; ++e) {
      events_.push_back(space_.declare_event("ev" + std::to_string(e)));
    }
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "not_in_registry";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return space_;
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return defaults_;
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate&, std::uint64_t seed) const override {
    coverage::CoverageVector vec(space_.size());
    util::Xoshiro256 rng(seed);
    vec.hit(events_[static_cast<std::size_t>(
        rng.uniform_i64(0, static_cast<std::int64_t>(events_.size()) - 1))]);
    return vec;
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return {defaults_};
  }

 private:
  coverage::CoverageSpace space_;
  tgen::TestTemplate defaults_;
  std::vector<coverage::EventId> events_;
};

TEST(ProcessBackend, RefusesUnitsTheRegistryCannotResolve) {
  const UnregisteredDuv duv;
  // The thread backend happily runs it...
  ThreadFarm thread_farm(2);
  EXPECT_EQ(thread_farm.run(duv, duv.defaults(), 10, 1).sims(), 10u);
  // ...the process backend refuses before shipping any work.
  ProcessFarm process_farm(1);
  try {
    (void)process_farm.run(duv, duv.defaults(), 10, 1);
    FAIL() << "expected util::ConfigError";
  } catch (const util::ConfigError& err) {
    EXPECT_NE(std::string(err.what()).find("not_in_registry"),
              std::string::npos)
        << err.what();
  }
  // The refusal is a precondition failure, not a farm failure: the
  // workers were never touched and a registry unit still runs.
  const auto io = duv::make_unit("io_unit");
  ASSERT_NE(io, nullptr);
  EXPECT_EQ(process_farm.run(*io, io->defaults(), 10, 1).sims(), 10u);
}

// Each job is split into near-equal contiguous slices, one per worker:
// a 200-sim job on 4 workers is 50/50/50/50, not 64/64/64/8 with every
// 8-sim tail on the same worker; and the longer slices rotate.
TEST(ProcessBackend, PlanBalancesEveryJobAcrossWorkers) {
  const tgen::TestTemplate tmpl("t");
  std::vector<Job> jobs;
  for (const std::size_t count :
       std::vector<std::size_t>{200, 200, 10, 1, 0, 3, 257, 64, 7}) {
    jobs.push_back({&tmpl, count, 0});
  }
  for (const std::size_t worker_n : std::vector<std::size_t>{1, 3, 4, 8}) {
    const auto plan = ProcessFarm::plan_slices(jobs, worker_n);
    ASSERT_EQ(plan.size(), worker_n);
    std::vector<std::size_t> total(worker_n, 0);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::string label = "workers=" + std::to_string(worker_n) +
                                " job=" + std::to_string(j);
      std::vector<std::size_t> sims(worker_n, 0);
      std::vector<std::pair<std::size_t, std::size_t>> ranges;
      for (std::size_t w = 0; w < worker_n; ++w) {
        std::size_t slices = 0;
        for (const auto& slice : plan[w]) {
          if (slice.job != j) continue;
          ++slices;
          for (const auto& [begin, end] : slice.chunks) {
            EXPECT_LT(begin, end) << label;
            EXPECT_LE(end - begin, 64u) << label;
            sims[w] += end - begin;
            total[w] += end - begin;
            ranges.emplace_back(begin, end);
          }
        }
        EXPECT_LE(slices, 1u) << label << " worker=" << w;
      }
      const auto [lo, hi] = std::minmax_element(sims.begin(), sims.end());
      EXPECT_LE(*hi - *lo, 1u) << label;
      // The chunks tile [0, count) exactly once.
      std::sort(ranges.begin(), ranges.end());
      std::size_t next = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, next) << label;
        next = end;
      }
      EXPECT_EQ(next, jobs[j].count) << label;
    }
    // The longer slices rotate across jobs, so the whole batch is
    // balanced too, small jobs included.
    const auto [lo, hi] = std::minmax_element(total.begin(), total.end());
    EXPECT_LE(*hi - *lo, 1u) << "workers=" << worker_n;
  }
}

// --- Session interplay -----------------------------------------------

TEST(BackendSeam, BackendChoiceIsExcludedFromTheSessionFingerprint) {
  flow::FlowConfig on_thread;
  flow::FlowConfig on_process;
  on_process.backend = parse_backend_spec("process:8");
  // Backends are bit-identical by contract, so a session started on one
  // may resume on another — the fingerprint must not see the choice.
  EXPECT_EQ(flow::config_fingerprint(on_thread, "io_unit/crc"),
            flow::config_fingerprint(on_process, "io_unit/crc"));
  // ...while knobs that do change results still split the fingerprint.
  flow::FlowConfig other_seed;
  other_seed.seed = 4242;
  EXPECT_NE(flow::config_fingerprint(on_thread, "io_unit/crc"),
            flow::config_fingerprint(other_seed, "io_unit/crc"));
}

}  // namespace
}  // namespace ascdg::exec
