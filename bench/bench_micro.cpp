// Microbenchmarks (google-benchmark): throughput of every substrate the
// flow leans on — DUV simulation, template parsing/instantiation,
// sampler draws, TAC queries, coverage accumulation, and farm scaling.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <optional>
#include <sstream>

#include "batch/sim_farm.hpp"
#include "exec/process_farm.hpp"
#include "cdg/skeletonizer.hpp"
#include "coverage/repository.hpp"
#include "flow/artifacts.hpp"
#include "flow/session.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/run_state.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "duv/ifu.hpp"
#include "duv/io_unit.hpp"
#include "duv/l3_cache.hpp"
#include "duv/registry.hpp"
#include "stimgen/sampler.hpp"
#include "tac/tac.hpp"
#include "tgen/parser.hpp"
#include "util/failure.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace ascdg;

void BM_IoUnitSimulate(benchmark::State& state) {
  const duv::IoUnit io;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(io.simulate(io.defaults(), seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IoUnitSimulate);

void BM_L3CacheSimulate(benchmark::State& state) {
  const duv::L3Cache l3;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l3.simulate(l3.defaults(), seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_L3CacheSimulate);

void BM_IfuSimulate(benchmark::State& state) {
  const duv::Ifu ifu;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ifu.simulate(ifu.defaults(), seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IfuSimulate);

void BM_TemplateParse(benchmark::State& state) {
  const std::string text = tgen::to_text(duv::IoUnit().defaults());
  for (auto _ : state) {
    benchmark::DoNotOptimize(tgen::parse_template(text));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_TemplateParse);

void BM_SkeletonInstantiate(benchmark::State& state) {
  const duv::IoUnit io;
  const auto skel = cdg::Skeletonizer().skeletonize(io.defaults());
  util::Xoshiro256 rng(1);
  std::vector<double> weights(skel.mark_count());
  for (auto _ : state) {
    for (double& w : weights) w = rng.uniform();
    benchmark::DoNotOptimize(skel.instantiate("probe", weights));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SkeletonInstantiate);

void BM_SamplerWeightedDraw(benchmark::State& state) {
  const duv::IoUnit io;
  util::Xoshiro256 rng(1);
  stimgen::ParameterSampler sampler(nullptr, io.defaults(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.draw("Cmd"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SamplerWeightedDraw);

void BM_SamplerRangeDraw(benchmark::State& state) {
  const duv::IoUnit io;
  util::Xoshiro256 rng(1);
  stimgen::ParameterSampler sampler(nullptr, io.defaults(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.draw_range("GapDelay"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SamplerRangeDraw);

void BM_CoverageRecord(benchmark::State& state) {
  const duv::Ifu ifu;  // largest space (260+ events)
  const auto vec = ifu.simulate(ifu.defaults(), 3);
  coverage::SimStats stats(ifu.space().size());
  for (auto _ : state) {
    stats.record(vec);
  }
  benchmark::DoNotOptimize(stats);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoverageRecord);

// Word-level union of one simulation's bitmap into an accumulator — the
// merge the farm's partials and the repository lean on.
void BM_CoverageOrInto(benchmark::State& state) {
  const duv::Ifu ifu;  // largest space (260+ events)
  coverage::CoverageVector acc(ifu.space().size());
  const auto vec = ifu.simulate(ifu.defaults(), 3);
  for (auto _ : state) {
    acc.merge(vec);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoverageOrInto);

void BM_CoveragePopcount(benchmark::State& state) {
  const duv::Ifu ifu;
  const auto vec = ifu.simulate(ifu.defaults(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec.popcount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoveragePopcount);

// One kernel step per bundled unit: a farm-chunk-wide simulate_batch
// call over the unit's defaults with precompiled tables — the farm's
// unit of work minus scheduling. items/sec is single-core wall-clock
// sims/sec of that unit's kernel.
void BM_DuvStep(benchmark::State& state, const char* unit_name) {
  const auto unit = duv::make_unit(unit_name);
  const auto& tmpl = unit->defaults();
  const auto compiled = unit->compile(tmpl);
  constexpr std::size_t kWidth = 64;
  std::vector<std::uint64_t> seeds(kWidth);
  std::vector<coverage::CoverageVector> out(kWidth);
  std::uint64_t next = 1;
  for (auto _ : state) {
    for (auto& s : seeds) s = next++;
    unit->simulate_batch(tmpl, compiled.get(), seeds, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWidth));
}
BENCHMARK_CAPTURE(BM_DuvStep, ifu, "ifu")->UseRealTime();
BENCHMARK_CAPTURE(BM_DuvStep, io_unit, "io_unit")->UseRealTime();
BENCHMARK_CAPTURE(BM_DuvStep, l3_cache, "l3_cache")->UseRealTime();
BENCHMARK_CAPTURE(BM_DuvStep, lsu, "lsu")->UseRealTime();

void BM_TacBestTemplates(benchmark::State& state) {
  const duv::IoUnit io;
  batch::SimFarm farm(2);
  coverage::CoverageRepository repo(io.space().size());
  for (const auto& tmpl : io.suite()) {
    repo.record(tmpl.name(), farm.run(io, tmpl, 50, 1));
  }
  const tac::Tac tac_view(repo);
  const auto family = io.crc_family();
  const std::vector<coverage::EventId> events(family.begin(), family.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(tac_view.best_templates(events, 3));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TacBestTemplates);

void BM_FarmRun(benchmark::State& state) {
  const duv::IoUnit io;
  batch::SimFarm farm(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(farm.run(io, io.defaults(), 256, seed++));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 256));
  const auto farm_stats = farm.telemetry();
  state.counters["steals"] =
      benchmark::Counter(static_cast<double>(farm_stats.steals));
}
BENCHMARK(BM_FarmRun)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The flow's hot shape: many independent jobs (one per sampled
// template) fanned across few workers in one run_all call.
void BM_FarmRunAll(benchmark::State& state) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  batch::SimFarm farm(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kJobs = 32;
  constexpr std::size_t kSimsPerJob = 64;
  std::vector<batch::SimFarm::Job> jobs(kJobs,
                                        batch::SimFarm::Job{&tmpl, kSimsPerJob, 0});
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (auto& job : jobs) job.seed_root = seed++;
    benchmark::DoNotOptimize(farm.run_all(io, jobs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kJobs * kSimsPerJob));
}
BENCHMARK(BM_FarmRunAll)->Arg(2)->Arg(8)->UseRealTime();

// BM_FarmRunAll with the metrics registry mutators short-circuited, for
// the instrumentation-overhead comparison (acceptance: enabled regresses
// < 5% vs this).
void BM_FarmRunAllMetricsOff(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  batch::SimFarm farm(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kJobs = 32;
  constexpr std::size_t kSimsPerJob = 64;
  std::vector<batch::SimFarm::Job> jobs(kJobs,
                                        batch::SimFarm::Job{&tmpl, kSimsPerJob, 0});
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (auto& job : jobs) job.seed_root = seed++;
    benchmark::DoNotOptimize(farm.run_all(io, jobs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kJobs * kSimsPerJob));
  obs::set_metrics_enabled(true);
}
BENCHMARK(BM_FarmRunAllMetricsOff)->Arg(2)->Arg(8)->UseRealTime();

// The throughput headline: the run_all hot shape with chunks
// dispatched as batch-of-seeds kernel calls over compiled tables.
void BM_FarmRunAllBatched(benchmark::State& state) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  batch::SimFarm farm(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kJobs = 32;
  constexpr std::size_t kSimsPerJob = 64;
  std::vector<batch::SimFarm::Job> jobs(
      kJobs, batch::SimFarm::Job{&tmpl, kSimsPerJob, 0});
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (auto& job : jobs) job.seed_root = seed++;
    benchmark::DoNotOptimize(farm.run_all(io, jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobs * kSimsPerJob));
}
BENCHMARK(BM_FarmRunAllBatched)->Arg(1)->Arg(8)->UseRealTime();

// The fork-based process backend on the identical workload: what the
// pipe protocol + per-worker recompilation cost relative to the thread
// farm above. Reported by tools/bench_summary.py as process sims/sec
// (informational — no regression gate; the IPC overhead is the price
// of crash isolation, see docs/backends.md).
void BM_ProcessFarmRunAll(benchmark::State& state) {
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  exec::ProcessFarm farm(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kJobs = 32;
  constexpr std::size_t kSimsPerJob = 64;
  std::vector<exec::Job> jobs(kJobs, exec::Job{&tmpl, kSimsPerJob, 0});
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (auto& job : jobs) job.seed_root = seed++;
    benchmark::DoNotOptimize(farm.run_all(io, jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobs * kSimsPerJob));
}
BENCHMARK(BM_ProcessFarmRunAll)->Arg(1)->Arg(8)->UseRealTime();

/// IoUnit with compile()/simulate_batch() hidden behind the scalar
/// fallback — exactly how an external RTL wrapper presents itself, and
/// the per-simulation baseline the batched path is compared against.
class ScalarIoUnit final : public duv::Duv {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "io_unit_scalar";
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return io_.space();
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return io_.defaults();
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    return io_.simulate(tmpl, seed);
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return io_.suite();
  }

 private:
  duv::IoUnit io_;
};

// Scalar-dispatch baseline for BM_FarmRunAllBatched: same workload, no
// shared compiled tables, one simulate() per instance. The bench summary
// fails the CI job if batched sims/sec regresses below this.
void BM_FarmRunAllScalar(benchmark::State& state) {
  const ScalarIoUnit io;
  const auto& tmpl = io.defaults();
  batch::SimFarm farm(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kJobs = 32;
  constexpr std::size_t kSimsPerJob = 64;
  std::vector<batch::SimFarm::Job> jobs(
      kJobs, batch::SimFarm::Job{&tmpl, kSimsPerJob, 0});
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (auto& job : jobs) job.seed_root = seed++;
    benchmark::DoNotOptimize(farm.run_all(io, jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobs * kSimsPerJob));
}
BENCHMARK(BM_FarmRunAllScalar)->Arg(1)->Arg(8)->UseRealTime();

void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::Counter& counter =
      obs::registry().counter("bench_counter_total", {{"bench", "micro"}});
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::Histogram& hist =
      obs::registry().histogram("bench_hist_us", {{"bench", "micro"}});
  std::uint64_t v = 1;
  for (auto _ : state) {
    hist.observe(v++);
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_TracerSpan(benchmark::State& state) {
  // /dev/null keeps memory flat however many iterations benchmark picks.
  obs::Tracer tracer(std::filesystem::path("/dev/null"));
  for (auto _ : state) {
    obs::Span span = tracer.span("bench");
    benchmark::DoNotOptimize(span.id());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerSpan);

// --- live-introspection overhead guards (acceptance: the *ServeOn /
// *RecorderOn variants regress < 5% vs their baselines above; the CI
// bench artifact archives both sides of each pair).

void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder recorder(1024);
  const std::string line(96, 'x');  // a typical trace-event width
  for (auto _ : state) {
    recorder.record(line);
  }
  benchmark::DoNotOptimize(recorder.recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlightRecorderRecord);

// BM_TracerSpan with a flight-recorder mirror attached — the delta is
// the per-event cost of keeping the crash ring warm.
void BM_TracerSpanRecorderOn(benchmark::State& state) {
  obs::FlightRecorder recorder(1024);
  obs::Tracer tracer(std::filesystem::path("/dev/null"));
  tracer.mirror_to(&recorder);
  for (auto _ : state) {
    obs::Span span = tracer.span("bench");
    benchmark::DoNotOptimize(span.id());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerSpanRecorderOn);

// One full /metrics scrape against a registry shaped like a real run
// (a few dozen series) — bounds what a 1 Hz Prometheus poller costs.
void BM_HttpMetricsScrape(benchmark::State& state) {
  obs::Registry reg;
  for (int i = 0; i < 24; ++i) {
    reg.counter("bench_scrape_total", {{"series", std::to_string(i)}})
        .add(static_cast<std::uint64_t>(i));
    reg.histogram("bench_scrape_us", {{"series", std::to_string(i)}})
        .observe(static_cast<std::uint64_t>(i) * 17);
  }
  obs::HttpServerConfig config;
  config.registry = &reg;
  obs::HttpServer server(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle("GET", "/metrics"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HttpMetricsScrape);

// BM_FarmRunAll with the introspection service live: HTTP server
// accepting scrapes on its own thread while the farm saturates the
// workers. The delta vs BM_FarmRunAll is the serve-mode overhead.
void BM_FarmRunAllServeOn(benchmark::State& state) {
  obs::HttpServerConfig http_config;
  obs::HttpServer server(http_config);
  const duv::IoUnit io;
  const auto& tmpl = io.defaults();
  batch::SimFarm farm(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kJobs = 32;
  constexpr std::size_t kSimsPerJob = 64;
  std::vector<batch::SimFarm::Job> jobs(kJobs,
                                        batch::SimFarm::Job{&tmpl, kSimsPerJob, 0});
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (auto& job : jobs) job.seed_root = seed++;
    benchmark::DoNotOptimize(farm.run_all(io, jobs));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kJobs * kSimsPerJob));
}
BENCHMARK(BM_FarmRunAllServeOn)->Arg(2)->Arg(8)->UseRealTime();

/// One realistically sized optimizer-iteration record: a `dim`-dim
/// template space, the state after iteration 10 with that iteration's
/// trace entry, and the stage's merged stats over a 30-event space —
/// the shape of one line of `optimization.ckpt.jsonl`.
std::string iteration_record(std::size_t dim) {
  opt::IfCheckpoint ckpt;
  ckpt.next_iteration = 11;
  ckpt.center.assign(dim, 0.333333333333);
  ckpt.center_value = 0.125;
  ckpt.step = 0.05;
  ckpt.evaluations = 11 * (dim + 1);
  ckpt.best_point.assign(dim, 0.666666666666);
  ckpt.best_value = 0.25;
  ckpt.rng_state = {0xDEADBEEFCAFEBABEULL, 0x123456789ABCDEF0ULL, 42ULL, 7ULL};
  ckpt.eval_seed_counter = 1234;
  opt::IterationRecord record;
  record.iteration = 10;
  record.center_value = 0.1;
  record.evaluations = ckpt.evaluations;
  ckpt.trace.push_back(record);
  std::vector<std::size_t> hits(30);
  for (std::size_t e = 0; e < hits.size(); ++e) hits[e] = 1000 + 37 * e;
  return util::JsonObject{}
      .add_raw("if", flow::to_json(ckpt))
      .add("sims", std::size_t{4400})
      .add_raw("stats", flow::to_json(coverage::SimStats::from_counts(
                            4400, std::move(hits))))
      .add("wall_ms", 89.959731)
      .str();
}

/// Times `append` of one iteration record to a fresh log in the temp
/// directory. The log restarts, untimed, every 4096 appends so a long
/// run stays small on disk.
template <typename Append>
void time_log_appends(benchmark::State& state, const char* dir_name,
                      util::Durability durability, Append append) {
  const std::string record =
      iteration_record(static_cast<std::size_t>(state.range(0)));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / dir_name;
  const std::filesystem::path file = dir / "optimization.ckpt.jsonl";
  std::filesystem::remove_all(dir);
  std::optional<util::AppendLog> log;
  log.emplace(file, durability);
  std::size_t appended = 0;
  for (auto _ : state) {
    if (++appended % 4096 == 0) {
      state.PauseTiming();
      log.reset();
      std::filesystem::remove(file);
      log.emplace(file, durability);
      state.ResumeTiming();
    }
    append(*log, record);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(record.size() + 1)));
  log.reset();
  std::filesystem::remove_all(dir);
}

// One durable optimizer-iteration checkpoint: append one iteration
// record (20- or 100-dim template space) to the stage's iteration log —
// one write and one fdatasync, through the flow layer's crash-hook
// wrapper. This is the only extra cost a sessioned run pays per
// optimizer iteration, and it no longer grows with the iteration number.
void BM_SessionCheckpoint(benchmark::State& state) {
  time_log_appends(state, "ascdg_bench_session", util::Durability::kFull,
                   [](util::AppendLog& log, const std::string& record) {
                     flow::append_record(log, record);
                   });
}
BENCHMARK(BM_SessionCheckpoint)->Arg(20)->Arg(100)->UseRealTime();

// The same append with fdatasync elided: the gap to
// BM_SessionCheckpoint is the price of the durability guarantee.
void BM_SessionCheckpointNoFsync(benchmark::State& state) {
  time_log_appends(state, "ascdg_bench_session_nofsync",
                   util::Durability::kNoFsync,
                   [](util::AppendLog& log, const std::string& record) {
                     log.append(record);
                   });
}
BENCHMARK(BM_SessionCheckpointNoFsync)->Arg(20)->Arg(100)->UseRealTime();

// The disarmed fast path of a failure point: one relaxed atomic load.
// Injection sites sit on every write/fsync/rename and inside the HTTP
// serve loop, so this must stay indistinguishable from free — the CI
// overhead guard watches it.
void BM_FailurePointCheckOff(benchmark::State& state) {
  util::FailurePoint::disarm_all();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::FailurePoint::check(util::FailurePoint::Id::kAtomicWriteFsync));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FailurePointCheckOff);

// One telemetry sample: registry snapshot + line render + ring slot
// (memory-only; the file append is the session's problem, not the
// sampler's). This is what --timeline costs the run per interval, so
// it must stay far below any sane sampling period.
void BM_TimeSeriesSample(benchmark::State& state) {
  obs::Registry reg;
  // A realistic registry shape: per-farm counters, cache counters,
  // busy gauges, latency histograms.
  for (int farm = 0; farm < 4; ++farm) {
    const std::string id = std::to_string(farm);
    reg.counter("ascdg_farm_simulations_total", {{"farm", id}}).add(100'000);
    reg.gauge("ascdg_farm_worker_busy_fraction", {{"farm", id}}).set(900'000);
    auto& hist = reg.histogram("ascdg_farm_chunk_latency_us", {{"farm", id}});
    for (std::uint64_t v = 1; v < 4096; v *= 2) hist.observe(v);
  }
  reg.counter("ascdg_eval_cache_hits_total").add(5'000);
  reg.counter("ascdg_eval_cache_misses_total").add(1'000);
  obs::RunState run;
  run.start_flow("bench");
  run.enter_phase("optimization");
  obs::TimeSeriesConfig config;
  config.start_thread = false;
  config.registry = &reg;
  config.run_state = &run;
  config.mirror_to_recorder = false;
  obs::TimeSeriesRecorder recorder(config);
  for (auto _ : state) {
    recorder.sample_now();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeSeriesSample);

void BM_XoshiroU64(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_XoshiroU64);

}  // namespace

int main(int argc, char** argv) {
  ascdg::util::set_log_level(ascdg::util::LogLevel::kWarn);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
