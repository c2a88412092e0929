// Tests for the batch simulation farm: determinism across worker
// counts, job batching, accounting, edge cases (zero counts), and the
// v2 guarantees — exception propagation, drain-on-destruct, work
// stealing telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "batch/sim_farm.hpp"
#include "cdg/cdg_objective.hpp"
#include "exec/thread_farm.hpp"
#include "cdg/skeletonizer.hpp"
#include "duv/io_unit.hpp"
#include "duv/l3_cache.hpp"
#include "neighbors/neighbors.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ascdg::batch {
namespace {

/// Forwards to an inner unit but throws after `fail_after` simulations —
/// models a crashing RTL simulator inside the farm.
class ThrowingDuv final : public duv::Duv {
 public:
  explicit ThrowingDuv(const duv::Duv& inner, std::size_t fail_after = 0)
      : inner_(&inner), fail_after_(fail_after) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "throwing";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return inner_->space();
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return inner_->defaults();
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) >= fail_after_) {
      throw util::Error("injected DUV failure");
    }
    return inner_->simulate(tmpl, seed);
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return inner_->suite();
  }

 private:
  const duv::Duv* inner_;
  std::size_t fail_after_;
  mutable std::atomic<std::size_t> calls_{0};
};

/// Forwards to an inner unit (compiled tables included) but throws from
/// the `fail_at`-th compile (0-based) — models a template the unit
/// cannot compile, arriving after earlier jobs are already running.
class CompileThrowingDuv final : public duv::Duv {
 public:
  CompileThrowingDuv(const duv::Duv& inner, std::size_t fail_at)
      : inner_(&inner), fail_at_(fail_at) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "compile_throwing";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return inner_->space();
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return inner_->defaults();
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    return inner_->simulate(tmpl, seed);
  }
  [[nodiscard]] std::unique_ptr<Compiled> compile(
      const tgen::TestTemplate& tmpl) const override {
    if (compiles_.fetch_add(1, std::memory_order_relaxed) == fail_at_) {
      throw util::Error("injected compile failure");
    }
    return inner_->compile(tmpl);
  }
  void simulate_batch(const tgen::TestTemplate& tmpl, const Compiled* compiled,
                      std::span<const std::uint64_t> seeds,
                      std::span<coverage::CoverageVector> out) const override {
    inner_->simulate_batch(tmpl, compiled, seeds, out);
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return inner_->suite();
  }

 private:
  const duv::Duv* inner_;
  std::size_t fail_at_;
  mutable std::atomic<std::size_t> compiles_{0};
};

/// Forwards to an inner unit with an artificial per-simulation delay,
/// so tests can observe the farm with work still queued.
class SlowDuv final : public duv::Duv {
 public:
  explicit SlowDuv(const duv::Duv& inner) : inner_(&inner) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "slow";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return inner_->space();
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return inner_->defaults();
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return inner_->simulate(tmpl, seed);
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return inner_->suite();
  }

 private:
  const duv::Duv* inner_;
};

TEST(SimFarm, ResultIndependentOfWorkerCount) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  coverage::SimStats reference;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    SimFarm farm(workers);
    const auto stats = farm.run(io, tmpl, 500, 42);
    if (workers == 1) {
      reference = stats;
    } else {
      EXPECT_EQ(stats, reference) << "workers=" << workers;
    }
  }
}

TEST(SimFarm, RunAllIndependentOfWorkerCount) {
  const duv::L3Cache l3;
  const auto suite = l3.suite();
  ASSERT_GE(suite.size(), 2u);
  std::vector<SimFarm::Job> jobs{{&suite[0], 150, 7}, {&suite[1], 90, 8}};
  std::vector<coverage::SimStats> reference;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    SimFarm farm(workers);
    auto batch = farm.run_all(l3, jobs);
    if (workers == 1) {
      reference = std::move(batch);
    } else {
      EXPECT_EQ(batch, reference) << "workers=" << workers;
    }
  }
}

TEST(SimFarm, MatchesDirectSerialSimulation) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  SimFarm farm(3);
  const auto farm_stats = farm.run(io, tmpl, 200, 7);

  coverage::SimStats direct(io.space().size());
  const util::SeedStream seeds(7);
  for (std::size_t i = 0; i < 200; ++i) {
    direct.record(io.simulate(tmpl, seeds.at(i)));
  }
  EXPECT_EQ(farm_stats, direct);
}

TEST(SimFarm, RunAllPreservesJobOrderAndSeeds) {
  const duv::L3Cache l3;
  const auto suite = l3.suite();
  ASSERT_GE(suite.size(), 3u);
  SimFarm farm(2);
  std::vector<SimFarm::Job> jobs;
  for (std::size_t j = 0; j < 3; ++j) {
    jobs.push_back({&suite[j], 100, 1000 + j});
  }
  const auto batch = farm.run_all(l3, jobs);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    const auto solo = farm.run(l3, suite[j], 100, 1000 + j);
    EXPECT_EQ(batch[j], solo) << "job " << j;
  }
}

TEST(SimFarm, DifferentSeedsGiveDifferentStats) {
  const duv::IoUnit io;
  SimFarm farm(2);
  const auto a = farm.run(io, io.defaults(), 300, 1);
  const auto b = farm.run(io, io.defaults(), 300, 2);
  EXPECT_FALSE(a == b);
}

TEST(SimFarm, CountsSimulations) {
  const duv::IoUnit io;
  SimFarm farm(2);
  EXPECT_EQ(farm.total_simulations(), 0u);
  (void)farm.run(io, io.defaults(), 130, 5);
  EXPECT_EQ(farm.total_simulations(), 130u);
  (void)farm.run(io, io.defaults(), 70, 5);
  EXPECT_EQ(farm.total_simulations(), 200u);
}

TEST(SimFarm, ZeroCountJobReturnsEmptyStats) {
  const duv::IoUnit io;
  SimFarm farm(2);
  const auto stats = farm.run(io, io.defaults(), 0, 5);
  EXPECT_EQ(stats.sims(), 0u);
}

TEST(SimFarm, RunAllWithEmptyJobList) {
  const duv::IoUnit io;
  SimFarm farm(2);
  const auto results = farm.run_all(io, {});
  EXPECT_TRUE(results.empty());
}

TEST(SimFarm, StatsSimsMatchRequestedCount) {
  const duv::IoUnit io;
  SimFarm farm(4);
  // Non-multiple of the internal chunk size.
  const auto stats = farm.run(io, io.defaults(), 257, 3);
  EXPECT_EQ(stats.sims(), 257u);
}

TEST(SimFarm, DefaultWorkerCountIsPositive) {
  SimFarm farm;
  EXPECT_GE(farm.worker_count(), 1u);
}

TEST(SimFarm, ManySmallJobsComplete) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  SimFarm farm(2);
  std::vector<SimFarm::Job> jobs(40, SimFarm::Job{&tmpl, 5, 0});
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].seed_root = j;
  const auto results = farm.run_all(io, jobs);
  ASSERT_EQ(results.size(), 40u);
  for (const auto& stats : results) EXPECT_EQ(stats.sims(), 5u);
}

// Chunk-boundary property: the farm's result must be independent of how
// the internal chunking slices the work.
class ChunkBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkBoundary, CountsAroundChunkSizeAreExact) {
  const duv::IoUnit io;
  SimFarm farm(2);
  const std::size_t count = GetParam();
  const auto stats = farm.run(io, io.defaults(), count, 11);
  EXPECT_EQ(stats.sims(), count);

  // And identical to a serial reference.
  coverage::SimStats direct(io.space().size());
  const util::SeedStream seeds(11);
  for (std::size_t i = 0; i < count; ++i) {
    direct.record(io.simulate(io.defaults(), seeds.at(i)));
  }
  EXPECT_EQ(stats, direct);
}

INSTANTIATE_TEST_SUITE_P(Batch, ChunkBoundary,
                         ::testing::Values(1u, 63u, 64u, 65u, 127u, 128u, 200u));

TEST(SimFarm, ConcurrentCallersShareThePool) {
  const duv::IoUnit io;
  SimFarm farm(2);
  coverage::SimStats a, b;
  std::thread caller([&] { a = farm.run(io, io.defaults(), 100, 21); });
  b = farm.run(io, io.defaults(), 100, 22);
  caller.join();
  EXPECT_EQ(a.sims(), 100u);
  EXPECT_EQ(b.sims(), 100u);
  EXPECT_FALSE(a == b);  // different seeds
  // Each equals its serial reference.
  const auto check = [&](const coverage::SimStats& got, std::uint64_t seed) {
    coverage::SimStats direct(io.space().size());
    const util::SeedStream seeds(seed);
    for (std::size_t i = 0; i < 100; ++i) {
      direct.record(io.simulate(io.defaults(), seeds.at(i)));
    }
    EXPECT_EQ(got, direct);
  };
  check(a, 21);
  check(b, 22);
}

// ------------------------------------------------------- v2 guarantees --

TEST(SimFarmV2, ThrowingSimulationPropagatesInsteadOfHanging) {
  const duv::IoUnit io;
  const ThrowingDuv bad(io, /*fail_after=*/0);
  SimFarm farm(2);
  EXPECT_THROW((void)farm.run(bad, io.defaults(), 200, 1), util::Error);
}

TEST(SimFarmV2, ThrowMidRunStillPropagates) {
  const duv::IoUnit io;
  // Several chunks complete before the failure hits.
  const ThrowingDuv bad(io, /*fail_after=*/150);
  SimFarm farm(2);
  EXPECT_THROW((void)farm.run(bad, io.defaults(), 512, 1), util::Error);
  EXPECT_GE(farm.telemetry().exceptions, 1u);
}

TEST(SimFarmV2, ExceptionMessageSurvives) {
  const duv::IoUnit io;
  const ThrowingDuv bad(io);
  SimFarm farm(2);
  try {
    (void)farm.run(bad, io.defaults(), 64, 1);
    FAIL() << "run() must rethrow the DUV exception";
  } catch (const util::Error& e) {
    EXPECT_STREQ(e.what(), "injected DUV failure");
  }
}

TEST(SimFarmV2, FarmUsableAfterException) {
  const duv::IoUnit io;
  const ThrowingDuv bad(io);
  SimFarm farm(2);
  EXPECT_THROW((void)farm.run(bad, io.defaults(), 128, 1), util::Error);
  const auto stats = farm.run(io, io.defaults(), 100, 5);
  EXPECT_EQ(stats.sims(), 100u);
}

TEST(SimFarmV2, RunAllWithZeroCountJobsMixedIn) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  SimFarm farm(2);
  std::vector<SimFarm::Job> jobs{
      {&tmpl, 100, 1}, {&tmpl, 0, 2}, {&tmpl, 70, 3}, {&tmpl, 0, 4}};
  const auto results = farm.run_all(io, jobs);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].sims(), 100u);
  EXPECT_EQ(results[1].sims(), 0u);
  EXPECT_EQ(results[2].sims(), 70u);
  EXPECT_EQ(results[3].sims(), 0u);
  EXPECT_EQ(results[0], farm.run(io, tmpl, 100, 1));
  EXPECT_EQ(results[2], farm.run(io, tmpl, 70, 3));
}

TEST(SimFarmV2, JobsFarExceedWorkers) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  SimFarm farm(2);
  std::vector<SimFarm::Job> jobs(300, SimFarm::Job{&tmpl, 3, 0});
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].seed_root = j;
  const auto results = farm.run_all(io, jobs);
  ASSERT_EQ(results.size(), 300u);
  for (const auto& stats : results) EXPECT_EQ(stats.sims(), 3u);
  // Spot-check against serial references.
  for (const std::size_t j : {0u, 150u, 299u}) {
    coverage::SimStats direct(io.space().size());
    const util::SeedStream seeds(j);
    for (std::size_t i = 0; i < 3; ++i) {
      direct.record(io.simulate(tmpl, seeds.at(i)));
    }
    EXPECT_EQ(results[j], direct) << "job " << j;
  }
}

TEST(SimFarmV2, TelemetryCountersAreConsistent) {
  const duv::IoUnit io;
  SimFarm farm(2);
  (void)farm.run(io, io.defaults(), 130, 5);  // 3 chunks (64+64+2)
  const auto& tmpl = io.defaults();
  std::vector<SimFarm::Job> jobs{{&tmpl, 64, 1}, {&tmpl, 64, 2}};
  (void)farm.run_all(io, jobs);  // 2 chunks

  const TelemetrySnapshot snap = farm.telemetry();
  EXPECT_EQ(snap.simulations, 258u);
  EXPECT_EQ(snap.simulations, farm.total_simulations());
  EXPECT_EQ(snap.chunks, 5u);
  EXPECT_EQ(snap.enqueued, 5u);
  EXPECT_EQ(snap.runs, 2u);
  EXPECT_EQ(snap.exceptions, 0u);
  EXPECT_GE(snap.max_queue_depth, 1u);
  EXPECT_LE(snap.steals, snap.chunks);
  EXPECT_GT(snap.busy_ns, 0u);
  std::size_t histogram_total = 0;
  for (const std::size_t count : snap.chunk_latency) histogram_total += count;
  EXPECT_EQ(histogram_total, snap.chunks);
  EXPECT_GT(snap.mean_chunk_us(), 0.0);
}

TEST(SimFarmV2, DestructorDrainsInFlightRun) {
  const duv::IoUnit io;
  const SlowDuv slow(io);
  auto farm = std::make_unique<SimFarm>(2);
  // The helper thread must not touch the unique_ptr itself — reset()
  // below writes it concurrently; only the pointee is synchronized.
  SimFarm* const raw = farm.get();
  coverage::SimStats stats;
  std::thread caller(
      [&stats, raw, &slow, &io] { stats = raw->run(slow, io.defaults(), 256, 3); });
  // Wait until all 4 chunks are queued, then tear the farm down while
  // they are still in flight: v2 drains instead of dropping them.
  while (raw->telemetry().enqueued < 4) std::this_thread::yield();
  farm.reset();
  caller.join();
  EXPECT_EQ(stats.sims(), 256u);
}

// Regression: the pre-registry queue-depth gauge was updated with a
// non-atomic read-modify-write racing enqueue against steal, so after a
// run it could drift away from zero and the recorded peak could be
// garbage. The obs::Gauge keeps one atomic cell with matched inc/dec,
// so an idle farm must read exactly zero — under concurrent run_all
// callers too (this test runs under TSan in CI).
TEST(SimFarmV2, QueueDepthGaugeIsConsistentUnderConcurrentRuns) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  SimFarm farm(4);
  constexpr std::size_t kCallers = 4;
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&farm, &io, &tmpl, t] {
      std::vector<SimFarm::Job> jobs(8, SimFarm::Job{&tmpl, 16, 0});
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].seed_root = t * 100 + j;
      }
      for (int round = 0; round < 5; ++round) (void)farm.run_all(io, jobs);
    });
  }
  for (auto& caller : callers) caller.join();

  const TelemetrySnapshot snap = farm.telemetry();
  // Matched inc/dec: nothing queued once every run_all returned.
  EXPECT_EQ(snap.queue_depth, 0u);
  // 4 callers x 5 rounds x 8 jobs, one chunk each (16 < chunk size).
  EXPECT_EQ(snap.enqueued, kCallers * 5u * 8u);
  EXPECT_EQ(snap.chunks, snap.enqueued);
  EXPECT_GE(snap.max_queue_depth, 1u);
  EXPECT_LE(snap.max_queue_depth, snap.enqueued);
  EXPECT_EQ(snap.simulations, kCallers * 5u * 8u * 16u);
}

// Batched objective evaluation through the shared farm, under TSan in
// CI: several optimizer threads, each with its own CdgObjective,
// dispatch whole stencils as single run_all calls against one pool.
// The farm is the only shared state; results must match a lone caller.
TEST(SimFarmV2, ConcurrentBatchedEvaluationsAreRaceFreeAndDeterministic) {
  const duv::IoUnit io;
  tgen::TestTemplate seed_tmpl;
  for (const auto& tmpl : io.suite()) {
    if (tmpl.name() == "io_crc_smoke") seed_tmpl = tmpl;
  }
  ASSERT_FALSE(seed_tmpl.name().empty());
  const tgen::Skeleton skeleton =
      cdg::Skeletonizer().skeletonize(seed_tmpl);
  const coverage::SimStats none(io.space().size());
  const neighbors::ApproximatedTarget target =
      neighbors::family_target(io.space(), "crc", none);

  const std::size_t dim = skeleton.mark_count();
  std::vector<opt::Point> xs;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 12; ++i) {
    xs.emplace_back(dim, 0.05 * static_cast<double>(i + 1));
    seeds.push_back(5000 + i);
  }

  exec::ThreadFarm farm(4);
  // Reference: a single caller evaluating the same batch.
  cdg::CdgObjective reference(io, farm, skeleton, target, 20);
  const std::vector<double> expected = reference.evaluate_batch(xs, seeds);

  constexpr std::size_t kCallers = 4;
  std::vector<std::vector<double>> got(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      cdg::CdgObjective objective(io, farm, skeleton, target, 20);
      for (int round = 0; round < 3; ++round) {
        got[t] = objective.evaluate_batch(xs, seeds);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t t = 0; t < kCallers; ++t) {
    EXPECT_EQ(got[t], expected) << "caller " << t;
  }
}

TEST(SimFarmV2, ExceptionInOneJobOfManyRetiresTheWholeCall) {
  const duv::IoUnit io;
  const ThrowingDuv bad(io, /*fail_after=*/40);
  const auto& tmpl = io.defaults();
  SimFarm farm(4);
  std::vector<SimFarm::Job> jobs(10, SimFarm::Job{&tmpl, 64, 0});
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].seed_root = j;
  EXPECT_THROW((void)farm.run_all(bad, jobs), util::Error);
  // Every chunk retired (nothing left queued): an immediate clean run
  // works and the counters balance.
  const auto stats = farm.run(io, tmpl, 64, 9);
  EXPECT_EQ(stats.sims(), 64u);
  const TelemetrySnapshot snap = farm.telemetry();
  EXPECT_EQ(snap.enqueued, 11u);
  EXPECT_GE(snap.exceptions, 1u);
}

// Jobs are compiled as they are enqueued, so a compile can fail after
// earlier jobs' chunks are already running: the call must retire them,
// rethrow the compile error, and leave the farm serving the next run.
TEST(SimFarmV2, CompileFailureMidSubmissionRethrowsWithoutHanging) {
  const duv::IoUnit io;
  const CompileThrowingDuv bad(io, /*fail_at=*/2);  // job 3 of 8
  const auto& tmpl = io.defaults();
  SimFarm farm(4);
  std::vector<SimFarm::Job> jobs(8, SimFarm::Job{&tmpl, 200, 0});
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].seed_root = j;
  try {
    (void)farm.run_all(bad, jobs);
    ADD_FAILURE() << "run_all swallowed the compile failure";
  } catch (const util::Error& err) {
    EXPECT_STREQ(err.what(), "injected compile failure");
  }
  const TelemetrySnapshot before = farm.telemetry();
  EXPECT_EQ(before.queue_depth, 0u);
  EXPECT_EQ(before.active_runs, 0u);
  // Only the first two jobs (4 chunks of <= 64 sims each) were queued.
  EXPECT_EQ(before.enqueued, 8u);

  const auto stats = farm.run_all(io, jobs);
  ASSERT_EQ(stats.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(stats[j], farm.run(io, tmpl, 200, j)) << "job " << j;
  }
}

}  // namespace
}  // namespace ascdg::batch
