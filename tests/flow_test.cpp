// Tests for the flow engine's durable sessions: artifact JSON
// round-trips, manifest lifecycle and rejection paths, config
// fingerprinting, resume-without-resimulation for single runs and
// campaigns, bit-identical optimizer restart from a serialized
// checkpoint, resume from the optimizer stages' iteration logs, the
// run / run_from_template shared-tail regression, and the per-stage
// trace spans agreeing with the stage ledger.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_farm.hpp"
#include "coverage/repository.hpp"
#include "duv/io_unit.hpp"
#include "flow/artifacts.hpp"
#include "flow/campaign.hpp"
#include "flow/runner.hpp"
#include "flow/session.hpp"
#include "flow/types.hpp"
#include "neighbors/neighbors.hpp"
#include "obs/trace.hpp"
#include "opt/implicit_filtering.hpp"
#include "opt/synthetic.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/json.hpp"

namespace ascdg::flow {
namespace {

namespace fs = std::filesystem;
using util::ConfigError;
using util::Error;
using util::ParseError;

/// Fresh scratch directory under the system temp dir, wiped on entry so
/// reruns start clean. Unique per test to keep gtest shuffling safe.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("ascdg_flow_test_" + name);
  fs::remove_all(dir);
  return dir;
}

// ----------------------------------------------------------- artifacts --

TEST(Artifacts, HexU64RoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xDEADBEEFCAFEBABE},
        std::uint64_t{0xFFFFFFFFFFFFFFFF}}) {
    const std::string text = hex_u64(v);
    EXPECT_EQ(text.size(), 18u);
    EXPECT_TRUE(text.starts_with("0x"));
    EXPECT_EQ(parse_hex_u64(util::json_parse("\"" + text + "\"")), v);
  }
  // Malformed inputs: wrong length, missing prefix, non-hex digits.
  EXPECT_THROW((void)parse_hex_u64(util::json_parse(R"("0x123")")), Error);
  EXPECT_THROW(
      (void)parse_hex_u64(util::json_parse(R"("zz0123456789abcdef")")), Error);
  EXPECT_THROW(
      (void)parse_hex_u64(util::json_parse(R"("0x0123456789abcdeg")")), Error);
  EXPECT_THROW((void)parse_hex_u64(util::json_parse("42")), Error);
}

TEST(Artifacts, SimStatsRoundTrip) {
  const auto stats = coverage::SimStats::from_counts(10, {3, 0, 7, 10});
  const auto parsed = sim_stats_from_json(util::json_parse(to_json(stats)));
  EXPECT_EQ(parsed, stats);
  // Empty accumulator round-trips too.
  const coverage::SimStats empty(5);
  EXPECT_EQ(sim_stats_from_json(util::json_parse(to_json(empty))), empty);
}

TEST(Artifacts, PhaseOutcomeRoundTrip) {
  PhaseOutcome phase;
  phase.name = "sampling";
  phase.sims = 4000;
  phase.wall_ms = 123.456789;
  phase.stats = coverage::SimStats::from_counts(4000, {17, 0, 4000});
  const auto parsed =
      phase_outcome_from_json(util::json_parse(to_json(phase)));
  EXPECT_EQ(parsed.name, phase.name);
  EXPECT_EQ(parsed.sims, phase.sims);
  EXPECT_EQ(parsed.wall_ms, phase.wall_ms);  // bit-identical
  EXPECT_EQ(parsed.stats, phase.stats);
}

TEST(Artifacts, SamplingRoundTrip) {
  cdg::RandomSampleResult sampling;
  for (int i = 0; i < 3; ++i) {
    cdg::Sample sample;
    sample.point = {0.1 * i, 1.0 / 3.0, 0.999999999999};
    sample.target_value = 0.07 * i;
    sample.stats = coverage::SimStats::from_counts(
        20, {static_cast<std::size_t>(i), 20});
    sampling.samples.push_back(std::move(sample));
  }
  sampling.best_index = 2;
  sampling.combined = coverage::SimStats::from_counts(60, {3, 60});
  sampling.simulations = 60;

  const auto parsed = sampling_from_json(util::json_parse(to_json(sampling)));
  ASSERT_EQ(parsed.samples.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed.samples[i].point, sampling.samples[i].point);
    EXPECT_EQ(parsed.samples[i].target_value, sampling.samples[i].target_value);
    EXPECT_EQ(parsed.samples[i].stats, sampling.samples[i].stats);
  }
  EXPECT_EQ(parsed.best_index, 2u);
  EXPECT_EQ(parsed.combined, sampling.combined);
  EXPECT_EQ(parsed.simulations, 60u);
}

TEST(Artifacts, SamplingRejectsBestIndexOutOfRange) {
  cdg::RandomSampleResult sampling;
  sampling.samples.emplace_back();
  sampling.samples.back().stats = coverage::SimStats(1);
  sampling.best_index = 7;
  EXPECT_THROW((void)sampling_from_json(util::json_parse(to_json(sampling))),
               Error);
}

TEST(Artifacts, OptResultRoundTrip) {
  opt::OptResult result;
  result.best_point = {1.0 / 3.0, 0.25, 1e-12};
  result.best_value = 6.02214076e-2;
  result.evaluations = 321;
  result.reason = opt::StopReason::kTargetReached;
  for (std::size_t i = 0; i < 3; ++i) {
    const double x = static_cast<double>(i);
    opt::IterationRecord record;
    record.iteration = i;
    record.center_value = 0.1 * x;
    record.best_value = 0.1 * x + 0.05;
    record.step = 0.4 / (x + 1.0);
    record.evaluations = 10 * (i + 1);
    record.moved = (i % 2) == 0;
    record.resamples = i % 2;
    record.halved = i == 2;
    result.trace.push_back(record);
  }
  const auto parsed = opt_result_from_json(util::json_parse(to_json(result)));
  EXPECT_EQ(parsed.best_point, result.best_point);
  EXPECT_EQ(parsed.best_value, result.best_value);
  EXPECT_EQ(parsed.evaluations, result.evaluations);
  EXPECT_EQ(parsed.reason, result.reason);
  ASSERT_EQ(parsed.trace.size(), result.trace.size());
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_EQ(parsed.trace[i].iteration, result.trace[i].iteration);
    EXPECT_EQ(parsed.trace[i].center_value, result.trace[i].center_value);
    EXPECT_EQ(parsed.trace[i].best_value, result.trace[i].best_value);
    EXPECT_EQ(parsed.trace[i].step, result.trace[i].step);
    EXPECT_EQ(parsed.trace[i].evaluations, result.trace[i].evaluations);
    EXPECT_EQ(parsed.trace[i].moved, result.trace[i].moved);
    EXPECT_EQ(parsed.trace[i].resamples, result.trace[i].resamples);
    EXPECT_EQ(parsed.trace[i].halved, result.trace[i].halved);
  }
}

TEST(Artifacts, CheckpointRoundTripPreservesRawRngState) {
  opt::IfCheckpoint ckpt;
  ckpt.next_iteration = 4;
  ckpt.center = {0.5, 1.0 / 7.0};
  ckpt.center_value = 0.123456789012345678;
  ckpt.step = 0.05;
  ckpt.stale_rounds = 2;
  ckpt.evaluations = 99;
  ckpt.best_point = {0.75, 0.25};
  ckpt.best_value = 0.987654321;
  // RNG words exceed 2^53 — they must survive via the hex encoding.
  ckpt.rng_state = {0xFFFFFFFFFFFFFFFFULL, 0x8000000000000001ULL,
                    0xDEADBEEFCAFEBABEULL, 1ULL};
  ckpt.eval_seed_counter = 0x123456789ABCDEF0ULL;
  opt::IterationRecord record;
  record.iteration = 3;
  record.best_value = 0.9;
  ckpt.trace.push_back(record);

  const auto parsed = checkpoint_from_json(util::json_parse(to_json(ckpt)));
  EXPECT_EQ(parsed.next_iteration, ckpt.next_iteration);
  EXPECT_EQ(parsed.center, ckpt.center);
  EXPECT_EQ(parsed.center_value, ckpt.center_value);
  EXPECT_EQ(parsed.step, ckpt.step);
  EXPECT_EQ(parsed.stale_rounds, ckpt.stale_rounds);
  EXPECT_EQ(parsed.evaluations, ckpt.evaluations);
  EXPECT_EQ(parsed.best_point, ckpt.best_point);
  EXPECT_EQ(parsed.best_value, ckpt.best_value);
  EXPECT_EQ(parsed.rng_state, ckpt.rng_state);
  EXPECT_EQ(parsed.eval_seed_counter, ckpt.eval_seed_counter);
  ASSERT_EQ(parsed.trace.size(), 1u);
  EXPECT_EQ(parsed.trace[0].iteration, 3u);
}

TEST(Artifacts, DoubleArrayRoundTripsNaNAsNull) {
  const std::vector<double> values = {0.0, -1.5, std::nan("")};
  const std::string text = json_double_array(values);
  EXPECT_NE(text.find("null"), std::string::npos);
  const auto parsed = double_array_from_json(util::json_parse(text));
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], 0.0);
  EXPECT_EQ(parsed[1], -1.5);
  EXPECT_TRUE(std::isnan(parsed[2]));
}

TEST(Artifacts, ReadJsonFileErrors) {
  const fs::path dir = scratch_dir("read_json");
  EXPECT_THROW((void)read_json_file(dir / "missing.json"), Error);
  atomic_write_file(dir / "bad.json", "{\"a\": not json");
  EXPECT_THROW((void)read_json_file(dir / "bad.json"), ParseError);
  atomic_write_file(dir / "good.json", R"({"a": 1})");
  EXPECT_EQ(read_json_file(dir / "good.json").at("a").as_int64(), 1);
}

// ------------------------------------------------------------- session --

TEST(Session, AtomicWriteCreatesParentsAndReplaces) {
  const fs::path dir = scratch_dir("atomic");
  const fs::path file = dir / "deep" / "nested" / "artifact.json";
  atomic_write_file(file, "first");
  atomic_write_file(file, "second");
  std::ifstream is(file);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  // No temp-file droppings left behind.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(file.parent_path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

std::vector<std::string> stage_names() {
  return {"skeletonize", "sampling", "optimization"};
}

TEST(Session, CreateMarkResumeLifecycle) {
  const fs::path dir = scratch_dir("lifecycle");
  const auto names = stage_names();
  Session session = Session::create(dir, 0xFEEDULL, 2021, names);
  EXPECT_TRUE(fs::exists(dir / "manifest.json"));
  EXPECT_EQ(session.resumes(), 0u);
  EXPECT_FALSE(session.stage_done("skeletonize"));

  session.mark_running("skeletonize");
  session.mark_done("skeletonize", 0, 1.5);
  session.mark_running("sampling");
  session.mark_done("sampling", 400, 20.25);
  session.mark_running("optimization");  // in flight at the "crash"

  Session resumed = Session::open(dir, 0xFEEDULL, names);
  EXPECT_EQ(resumed.resumes(), 1u);
  EXPECT_EQ(resumed.resumed_from(), "sampling");
  EXPECT_TRUE(resumed.stage_done("skeletonize"));
  EXPECT_TRUE(resumed.stage_done("sampling"));
  EXPECT_FALSE(resumed.stage_done("optimization"));
  ASSERT_EQ(resumed.stages().size(), 3u);
  EXPECT_EQ(resumed.stages()[1].sims, 400u);
  EXPECT_EQ(resumed.stages()[1].wall_ms, 20.25);
  EXPECT_EQ(resumed.stages()[2].status, "running");
  EXPECT_EQ(resumed.seed(), 2021u);
  EXPECT_EQ(resumed.fingerprint(), 0xFEEDULL);

  const auto summary = resumed.summary();
  EXPECT_EQ(summary.dir, dir.string());
  EXPECT_EQ(summary.resumes, 1u);
  EXPECT_EQ(summary.resumed_from, "sampling");
}

TEST(Session, ResumeBeforeAnyStageReportsNone) {
  const fs::path dir = scratch_dir("resume_none");
  const auto names = stage_names();
  (void)Session::create(dir, 1, 2, names);
  const Session resumed = Session::open(dir, 1, names);
  EXPECT_EQ(resumed.resumed_from(), "none");
}

TEST(Session, CreateOverwritesExistingManifest) {
  const fs::path dir = scratch_dir("recreate");
  const auto names = stage_names();
  Session first = Session::create(dir, 1, 2, names);
  first.mark_done("skeletonize", 0, 1.0);
  const Session second = Session::create(dir, 1, 2, names);
  EXPECT_FALSE(second.stage_done("skeletonize"));  // started over
  EXPECT_EQ(second.resumes(), 0u);
}

TEST(Session, OpenRejectsMissingManifest) {
  const fs::path dir = scratch_dir("no_manifest");
  fs::create_directories(dir);
  EXPECT_THROW((void)Session::open(dir, 1, stage_names()), Error);
}

TEST(Session, OpenRejectsCorruptManifest) {
  const fs::path dir = scratch_dir("corrupt");
  (void)Session::create(dir, 1, 2, stage_names());
  atomic_write_file(dir / "manifest.json", "{\"schema\": \"ascdg-ses");
  EXPECT_THROW((void)Session::open(dir, 1, stage_names()), ParseError);
}

TEST(Session, OpenRejectsFingerprintMismatch) {
  const fs::path dir = scratch_dir("fingerprint");
  (void)Session::create(dir, 0xAAAAULL, 2, stage_names());
  EXPECT_THROW((void)Session::open(dir, 0xBBBBULL, stage_names()),
               ConfigError);
}

TEST(Session, OpenRejectsStageListMismatch) {
  const fs::path dir = scratch_dir("stage_list");
  (void)Session::create(dir, 1, 2, stage_names());
  const std::vector<std::string> other{"skeletonize", "sampling"};
  EXPECT_THROW((void)Session::open(dir, 1, other), ConfigError);
}

TEST(Session, FingerprintTracksTrajectoryNotTelemetry) {
  FlowConfig config;
  const std::uint64_t base = config_fingerprint(config, "run");

  // Trajectory-affecting knobs change the fingerprint.
  FlowConfig seeded = config;
  seeded.seed = 999;
  EXPECT_NE(config_fingerprint(seeded, "run"), base);
  FlowConfig budget = config;
  budget.sample_templates += 1;
  EXPECT_NE(config_fingerprint(budget, "run"), base);
  FlowConfig refine = config;
  refine.refine_with_real_target = !refine.refine_with_real_target;
  EXPECT_NE(config_fingerprint(refine, "run"), base);

  // The context key (unit / target identity) is part of the question.
  EXPECT_NE(config_fingerprint(config, "template:other"), base);

  // Telemetry and session plumbing are resumable-legal to toggle.
  FlowConfig telemetry = config;
  telemetry.session_dir = "/tmp/elsewhere";
  telemetry.resume = true;
  telemetry.serve_port = 8080;
  telemetry.watchdog_stall_secs = 60;
  telemetry.flight_recorder_records = 128;
  EXPECT_EQ(config_fingerprint(telemetry, "run"), base);
}

// ---------------------------------------------------- optimizer restart --

TEST(OptimizerRestart, SerializedCheckpointResumesBitIdentically) {
  // Run uninterrupted; capture the iteration-2 checkpoint through a full
  // JSON serialize/parse cycle; resume a fresh run from the parsed copy.
  // The paper's noise model (Bernoulli draws) makes any RNG drift
  // visible immediately, so equality here is exact, not approximate.
  opt::ImplicitFilteringOptions options;
  options.directions = 4;
  options.max_iterations = 6;
  options.initial_step = 0.3;
  options.direction_mode = opt::DirectionMode::kSparse;
  options.seed = 42;

  // Each checkpoint carries only its own iteration; the trace so far is
  // their concatenation, as the session's iteration log rebuilds it.
  std::vector<opt::IterationRecord> trace_so_far;
  std::string ckpt_json;
  options.on_checkpoint = [&](const opt::IfCheckpoint& ckpt) {
    ASSERT_EQ(ckpt.trace.size(), 1u);
    trace_so_far.push_back(ckpt.trace.front());
    if (ckpt.next_iteration == 2) {
      opt::IfCheckpoint full = ckpt;
      full.trace = trace_so_far;
      ckpt_json = to_json(full);
    }
  };
  opt::BernoulliHill objective({0.7, 0.3, 0.5}, 0.6, 4.0, 50);
  const std::vector<double> x0 = {0.5, 0.5, 0.5};
  const auto full = opt::implicit_filtering(objective, x0, options);
  ASSERT_FALSE(ckpt_json.empty());

  const opt::IfCheckpoint ckpt =
      checkpoint_from_json(util::json_parse(ckpt_json));
  opt::ImplicitFilteringOptions resume_options = options;
  resume_options.on_checkpoint = nullptr;
  resume_options.resume = &ckpt;
  opt::BernoulliHill fresh({0.7, 0.3, 0.5}, 0.6, 4.0, 50);
  const auto resumed = opt::implicit_filtering(fresh, x0, resume_options);

  EXPECT_EQ(resumed.best_value, full.best_value);
  EXPECT_EQ(resumed.best_point, full.best_point);
  EXPECT_EQ(resumed.evaluations, full.evaluations);
  EXPECT_EQ(resumed.reason, full.reason);
  ASSERT_EQ(resumed.trace.size(), full.trace.size());
  for (std::size_t i = 0; i < full.trace.size(); ++i) {
    EXPECT_EQ(resumed.trace[i].center_value, full.trace[i].center_value);
    EXPECT_EQ(resumed.trace[i].best_value, full.trace[i].best_value);
    EXPECT_EQ(resumed.trace[i].step, full.trace[i].step);
  }
}

// ------------------------------------------------------- sessioned runs --

FlowConfig small_config() {
  FlowConfig config;
  config.sample_templates = 12;
  config.sample_sims = 20;
  config.opt_directions = 4;
  config.opt_sims_per_point = 20;
  config.opt_max_iterations = 2;
  config.harvest_sims = 60;
  config.seed = 7;
  return config;
}

TEST(SessionedRun, ResumeRequiresSessionDir) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  FlowConfig config = small_config();
  config.resume = true;  // but no session_dir
  EXPECT_THROW(CdgRunner(io, farm, config), ConfigError);
}

TEST(SessionedRun, CompletedSessionResumesWithZeroSimulations) {
  const duv::IoUnit io;
  const fs::path dir = scratch_dir("resume_zero");
  const auto target = neighbors::family_target(
      io.space(), "crc", coverage::SimStats(io.space().size()));
  const auto seed_template = io.suite().front();

  FlowConfig config = small_config();
  config.session_dir = dir.string();

  exec::ThreadFarm farm1(2);
  CdgRunner runner1(io, farm1, config);
  const auto first = runner1.run_from_template(target, seed_template);
  EXPECT_EQ(farm1.total_simulations(), first.flow_sims());
  ASSERT_TRUE(runner1.session_summary().has_value());
  EXPECT_EQ(runner1.session_summary()->resumes, 0u);

  // Resume with a FRESH farm: every stage replays from its artifact, so
  // the farm runs nothing and the results are bit-identical.
  config.resume = true;
  exec::ThreadFarm farm2(2);
  CdgRunner runner2(io, farm2, config);
  const auto second = runner2.run_from_template(target, seed_template);
  EXPECT_EQ(farm2.total_simulations(), 0u);

  EXPECT_EQ(second.seed_template, first.seed_template);
  EXPECT_EQ(second.sampling.best_index, first.sampling.best_index);
  EXPECT_EQ(second.sampling.combined, first.sampling.combined);
  EXPECT_EQ(second.optimization.best_value, first.optimization.best_value);
  EXPECT_EQ(second.optimization.best_point, first.optimization.best_point);
  EXPECT_EQ(second.harvest_phase.stats, first.harvest_phase.stats);
  EXPECT_EQ(second.sampling_phase.sims, first.sampling_phase.sims);
  EXPECT_EQ(second.optimization_phase.sims, first.optimization_phase.sims);
  EXPECT_EQ(second.harvest_phase.sims, first.harvest_phase.sims);
  ASSERT_EQ(second.first_hits.size(), first.first_hits.size());
  for (std::size_t i = 0; i < first.first_hits.size(); ++i) {
    EXPECT_EQ(second.first_hits[i].phase, first.first_hits[i].phase);
  }

  ASSERT_TRUE(runner2.session_summary().has_value());
  const auto& summary = *runner2.session_summary();
  EXPECT_EQ(summary.resumes, 1u);
  EXPECT_EQ(summary.resumed_from, "harvest");
  for (const auto& stage : summary.stages) {
    EXPECT_TRUE(stage.done()) << stage.name;
  }
}

TEST(SessionedRun, ResumeRejectsChangedConfig) {
  const duv::IoUnit io;
  const fs::path dir = scratch_dir("resume_reject");
  const auto target = neighbors::family_target(
      io.space(), "crc", coverage::SimStats(io.space().size()));

  FlowConfig config = small_config();
  config.session_dir = dir.string();
  exec::ThreadFarm farm(2);
  CdgRunner runner(io, farm, config);
  (void)runner.run_from_template(target, io.suite().front());

  // A different seed answers a different question: hard error.
  config.resume = true;
  config.seed = 1234;
  exec::ThreadFarm farm2(2);
  CdgRunner changed(io, farm2, config);
  EXPECT_THROW((void)changed.run_from_template(target, io.suite().front()),
               ConfigError);

  // So does resuming a run() session through run_from_template (the
  // context key differs even with identical budgets).
  config.seed = small_config().seed;
  exec::ThreadFarm farm3(2);
  CdgRunner other_entry(io, farm3, config);
  const auto other_template = io.suite().back();
  EXPECT_THROW((void)other_entry.run_from_template(target, other_template),
               ConfigError);
}

// The dedupe regression for the monolith split: run() is coarse search
// plus the exact tail run_from_template() executes, so with the coarse
// winner as the explicit seed both entry points must produce the same
// flow trajectory (before-coverage bookkeeping aside).
TEST(SessionedRun, RunMatchesRunFromTemplateOnSameSeed) {
  const duv::IoUnit io;
  const auto suite = io.suite();

  exec::ThreadFarm farm1(2);
  coverage::CoverageRepository repo(io.space().size());
  for (std::size_t j = 0; j < suite.size(); ++j) {
    repo.record(suite[j].name(), farm1.run(io, suite[j], 150, 500 + j));
  }
  FlowConfig config = small_config();
  config.coarse_best_templates = 1;  // seed == one suite template, verbatim
  const auto target = neighbors::family_target(io.space(), "crc", repo.total());

  CdgRunner full(io, farm1, config);
  const auto via_run = full.run(target, repo, suite);

  const tgen::TestTemplate* seed_template = nullptr;
  for (const auto& t : suite) {
    if (t.name() == via_run.seed_template) seed_template = &t;
  }
  ASSERT_NE(seed_template, nullptr) << via_run.seed_template;

  exec::ThreadFarm farm2(2);
  CdgRunner from_template(io, farm2, config);
  const auto via_template =
      from_template.run_from_template(target, *seed_template);

  EXPECT_EQ(via_template.seed_template, via_run.seed_template);
  EXPECT_EQ(via_template.skeleton.mark_count(), via_run.skeleton.mark_count());
  ASSERT_EQ(via_template.sampling.samples.size(),
            via_run.sampling.samples.size());
  EXPECT_EQ(via_template.sampling.best_index, via_run.sampling.best_index);
  EXPECT_EQ(via_template.sampling.combined, via_run.sampling.combined);
  EXPECT_EQ(via_template.optimization.best_value,
            via_run.optimization.best_value);
  EXPECT_EQ(via_template.optimization.best_point,
            via_run.optimization.best_point);
  EXPECT_EQ(via_template.harvest_phase.stats, via_run.harvest_phase.stats);
  EXPECT_EQ(via_template.flow_sims(), via_run.flow_sims());
}

// The pipeline instruments every stage it runs: one span per manifest
// stage, coarse included, whose sims equal the stage ledger's row, and
// the refinement optimizer's eval_batch spans nest under `refinement`.
TEST(SessionedRun, TraceHasOneSpanPerStageMatchingTheLedger) {
  const duv::IoUnit io;
  const auto suite = io.suite();
  exec::ThreadFarm farm(2);
  coverage::CoverageRepository repo(io.space().size());
  for (std::size_t j = 0; j < suite.size(); ++j) {
    repo.record(suite[j].name(), farm.run(io, suite[j], 150, 500 + j));
  }
  const auto target = neighbors::family_target(io.space(), "crc", repo.total());

  std::ostringstream trace;
  obs::Tracer sink(trace);
  FlowConfig config = small_config();
  config.session_dir = scratch_dir("traced_ledger").string();
  config.refine_with_real_target = true;
  config.refine_threshold = 0.0;  // any evidence switches objectives
  config.refine_max_iterations = 2;
  config.trace = &sink;
  CdgRunner runner(io, farm, config);
  const auto result = runner.run(target, repo, suite);
  ASSERT_TRUE(result.refinement.has_value());

  std::map<std::uint64_t, std::string> span_names;  // span_id -> name
  std::map<std::string, std::vector<std::size_t>> stage_span_sims;
  std::vector<std::uint64_t> eval_batch_parents;
  std::istringstream lines(trace.str());
  std::string line;
  while (std::getline(lines, line)) {
    const util::JsonValue doc = util::json_parse(line);
    if (doc.at("event").as_string() != "span") continue;
    const std::string name = doc.at("span").as_string();
    span_names[doc.at("span_id").as_uint64()] = name;
    if (name == "eval_batch") {
      eval_batch_parents.push_back(doc.at("parent_id").as_uint64());
    } else if (name != "flow") {
      stage_span_sims[name].push_back(doc.at("sims").as_size());
    }
  }

  ASSERT_TRUE(runner.session_summary().has_value());
  const auto& stages = runner.session_summary()->stages;
  ASSERT_EQ(stages.size(), 6u);
  ASSERT_EQ(stage_span_sims.size(), stages.size());
  for (const auto& stage : stages) {
    const auto& sims = stage_span_sims[stage.name];
    ASSERT_EQ(sims.size(), 1u) << stage.name;
    EXPECT_EQ(sims.front(), stage.sims) << stage.name;
  }

  std::size_t under_refinement = 0;
  for (const auto parent : eval_batch_parents) {
    const std::string& name = span_names[parent];
    EXPECT_TRUE(name == "optimization" || name == "refinement") << name;
    if (name == "refinement") ++under_refinement;
  }
  EXPECT_EQ(under_refinement, 1u + result.refinement->trace.size());
}

// ------------------------------------------------------- iteration log --

/// A sessioned flow that also refines on the real target, so both
/// optimizer stages keep an iteration log.
FlowConfig logged_config(const fs::path& dir) {
  FlowConfig config = small_config();
  config.session_dir = dir.string();
  config.opt_max_iterations = 6;
  config.refine_with_real_target = true;
  config.refine_threshold = 0.0;  // any evidence switches objectives
  config.refine_max_iterations = 3;
  return config;
}

class IterationLog : public ::testing::Test {
 protected:
  void TearDown() override { util::FailurePoint::disarm_all(); }

  FlowResult run(const FlowConfig& config) {
    exec::ThreadFarm farm(2);
    CdgRunner runner(io_, farm, config);
    return runner.run_from_template(target_, io_.suite().front());
  }

  /// Runs until the `k`-th iteration append fails, leaving the running
  /// stage's log with the records before it.
  void run_until_append(const FlowConfig& config, std::uint64_t k) {
    util::FailurePoint::prime_every_nth(
        util::FailurePoint::Id::kAppendLogWrite, k, ENOSPC);
    EXPECT_THROW((void)run(config), Error);
    util::FailurePoint::disarm_all();
  }

  /// Every result field a resumed flow must reproduce bit for bit (wall
  /// times aside).
  static void expect_same_flow(const FlowResult& got, const FlowResult& want,
                               const std::string& label) {
    EXPECT_EQ(to_json(got.optimization), to_json(want.optimization)) << label;
    ASSERT_EQ(got.refinement.has_value(), want.refinement.has_value())
        << label;
    if (want.refinement.has_value()) {
      EXPECT_EQ(to_json(*got.refinement), to_json(*want.refinement)) << label;
    }
    EXPECT_EQ(got.optimization_phase.sims, want.optimization_phase.sims)
        << label;
    EXPECT_EQ(got.optimization_phase.stats, want.optimization_phase.stats)
        << label;
    EXPECT_EQ(got.best_template, want.best_template) << label;
    EXPECT_EQ(got.harvest_phase.stats, want.harvest_phase.stats) << label;
  }

  const duv::IoUnit io_;
  const neighbors::ApproximatedTarget target_ = neighbors::family_target(
      io_.space(), "crc", coverage::SimStats(io_.space().size()));
};

/// A record's structure with every scalar reduced to its kind: records
/// of equal shape have the same keys and array lengths, so their sizes
/// differ only by the digits of their values.
std::string json_shape(const util::JsonValue& value) {
  std::string out;
  if (value.is_object()) {
    out += '{';
    for (const auto& [key, member] : value.as_object()) {
      out += key + ':' + json_shape(member) + ',';
    }
    out += '}';
  } else if (value.is_array()) {
    out += '[';
    for (const auto& element : value.as_array()) out += json_shape(element);
    out += ']';
  } else {
    out += std::to_string(static_cast<int>(value.kind()));
  }
  return out;
}

TEST_F(IterationLog, RecordSizeDoesNotGrowWithTheIterationNumber) {
  const fs::path dir = scratch_dir("log_record_size");
  FlowConfig config = logged_config(dir);
  config.opt_max_iterations = 12;
  config.opt_min_step = 1e-9;  // run every iteration
  run_until_append(config, 12);

  // A whole-state checkpoint carried the trace so far, one entry more
  // per iteration; every log record has the first one's shape.
  std::ifstream is(dir / "optimization.ckpt.jsonl", std::ios::binary);
  std::vector<std::string> shapes;
  std::string line;
  while (std::getline(is, line)) {
    const util::JsonValue record = util::json_parse(line);
    EXPECT_EQ(record.at("if").at("trace").as_array().size(), 1u);
    EXPECT_EQ(record.at("if").at("next_iteration").as_size(),
              shapes.size() + 1);
    shapes.push_back(json_shape(record));
    EXPECT_EQ(shapes.back(), shapes.front()) << "record " << shapes.size();
  }
  EXPECT_EQ(shapes.size(), 11u);
}

TEST_F(IterationLog, ResumeFromTheLogIsBitIdentical) {
  const FlowResult want = run(logged_config(scratch_dir("log_baseline")));
  ASSERT_TRUE(want.refinement.has_value());
  const std::size_t opt_n = want.optimization.trace.size();
  const std::size_t refine_n = want.refinement->trace.size();
  ASSERT_GE(opt_n, 2u);
  ASSERT_GE(refine_n, 2u);

  // Interrupt at the first and the last optimization append and in the
  // middle of refinement; each resume must finish the same flow.
  for (const std::size_t k : {std::size_t{1}, opt_n, opt_n + 2}) {
    const std::string label = "interrupted at append " + std::to_string(k);
    const fs::path dir = scratch_dir("log_resume_" + std::to_string(k));
    FlowConfig config = logged_config(dir);
    run_until_append(config, k);
    const std::string stage = k <= opt_n ? "optimization" : "refinement";
    EXPECT_TRUE(fs::exists(dir / (stage + ".ckpt.jsonl"))) << label;

    config.resume = true;
    expect_same_flow(run(config), want, label);
    EXPECT_FALSE(fs::exists(dir / "optimization.ckpt.jsonl")) << label;
    EXPECT_FALSE(fs::exists(dir / "refinement.ckpt.jsonl")) << label;
  }
}

TEST_F(IterationLog, OlderBuildsWholeStateCheckpointIsRemovedAndTheStageReruns) {
  const FlowResult want = run(logged_config(scratch_dir("legacy_baseline")));
  const fs::path dir = scratch_dir("legacy_ckpt");
  FlowConfig config = logged_config(dir);
  run_until_append(config, 1);  // optimization in flight, log empty
  std::ofstream(dir / "optimization.ckpt.json") << "{\"if\":\"stale\"}\n";

  config.resume = true;
  expect_same_flow(run(config), want, "legacy checkpoint");
  EXPECT_FALSE(fs::exists(dir / "optimization.ckpt.json"));
}

// ------------------------------------------------------------ campaign --

TEST(Campaign, SessionResumesWithZeroSimulations) {
  const duv::IoUnit io;
  const fs::path dir = scratch_dir("campaign_resume");
  const auto family = io.crc_family();
  const std::vector<neighbors::ApproximatedTarget> targets{
      neighbors::ApproximatedTarget({family[2]},
                                    {{family[0], 0.5}, {family[2], 2.0}}),
      neighbors::ApproximatedTarget({family[3]},
                                    {{family[1], 0.5}, {family[3], 2.0}}),
  };
  const auto suite = io.suite();
  FlowConfig config = small_config();
  config.session_dir = dir.string();

  exec::ThreadFarm farm1(2);
  const auto first =
      run_multi_target(io, farm1, config, targets, suite.front());
  EXPECT_EQ(first.session_dir, dir.string());
  ASSERT_EQ(first.sessions.size(), 3u);  // shared + one per target
  EXPECT_TRUE(fs::exists(dir / "campaign.json"));
  EXPECT_TRUE(fs::exists(dir / "shared" / "manifest.json"));
  EXPECT_TRUE(fs::exists(dir / "target_00" / "manifest.json"));
  EXPECT_TRUE(fs::exists(dir / "target_01" / "manifest.json"));

  config.resume = true;
  exec::ThreadFarm farm2(2);
  const auto second =
      run_multi_target(io, farm2, config, targets, suite.front());
  EXPECT_EQ(farm2.total_simulations(), 0u);
  EXPECT_EQ(second.sims_saved, first.sims_saved);
  EXPECT_EQ(second.sampling.best_index, first.sampling.best_index);
  EXPECT_EQ(second.sampling.combined, first.sampling.combined);
  ASSERT_EQ(second.per_target.size(), first.per_target.size());
  for (std::size_t t = 0; t < first.per_target.size(); ++t) {
    EXPECT_EQ(second.per_target[t].optimization.best_value,
              first.per_target[t].optimization.best_value);
    EXPECT_EQ(second.per_target[t].optimization.best_point,
              first.per_target[t].optimization.best_point);
    EXPECT_EQ(second.per_target[t].harvest_phase.stats,
              first.per_target[t].harvest_phase.stats);
  }
  for (const auto& session : second.sessions) {
    EXPECT_EQ(session.resumes, 1u);
  }
}

TEST(Campaign, ResumeRejectsDifferentTargetSet) {
  const duv::IoUnit io;
  const fs::path dir = scratch_dir("campaign_reject");
  const auto family = io.crc_family();
  const std::vector<neighbors::ApproximatedTarget> two{
      neighbors::ApproximatedTarget({family[0]}, {{family[0], 1.0}}),
      neighbors::ApproximatedTarget({family[1]}, {{family[1], 1.0}}),
  };
  const auto suite = io.suite();
  FlowConfig config = small_config();
  config.session_dir = dir.string();
  exec::ThreadFarm farm(2);
  (void)run_multi_target(io, farm, config, two, suite.front());

  // Resuming with a different target count contradicts the manifest.
  config.resume = true;
  const std::vector<neighbors::ApproximatedTarget> three{
      two[0], two[1],
      neighbors::ApproximatedTarget({family[2]}, {{family[2], 1.0}})};
  exec::ThreadFarm farm2(2);
  EXPECT_THROW((void)run_multi_target(io, farm2, config, three, suite.front()),
               ConfigError);
}

}  // namespace
}  // namespace ascdg::flow
