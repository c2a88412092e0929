// ascdg_e2e — the library side of the end-to-end benchmark (README.md).
//
//   ascdg_e2e setup <unit> --backend SPEC
//   ascdg_e2e run <unit> --family F <budget flags> --save-best FILE
//             [--session DIR] [--timeline=MS] [--trace]
//   ascdg_e2e campaign <unit> --families F1,F2,... <budget flags>
//             --save-best FILE [--session DIR]
//
// `setup` times the public constructors a CLI operation starts with:
// the unit, the execution backend (forking its workers for
// process:N) and the regression suite, kSetupReps times, before any
// simulation.
//
// `run` and `campaign` repeat what `ascdg run` / `ascdg campaign` do,
// through the same public calls in the same order, with the two seams
// the layers meet at wrapped in timers:
//
//   * TimedDuv around duv::Duv — simulate_batch (the duv kernel) and
//     compile (stimgen's compiled tables, built once per farm job);
//   * TimedBackend around exec::Backend — run_all (the farm).
//
// Both forward every call unchanged, so results are bit-identical to
// the CLI's; run.py checks that by comparing digests. Every budget
// flag is required: the harness never falls back to a default that
// could drift from the CLI's. Each command prints one JSON object on
// stdout: the digest inputs (total sims, per-target harvest hits; the
// best template goes to --save-best) and the raw per-layer counters,
// from which run.py derives the per-layer metrics.
//
// Exit codes: 0 success, 1 usage error, 2 runtime error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "duv/registry.hpp"
#include "exec/backend.hpp"
#include "flow/campaign.hpp"
#include "flow/runner.hpp"
#include "flow/session.hpp"
#include "neighbors/neighbors.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "tgen/file_io.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/strings.hpp"

namespace {

using namespace ascdg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t nanos_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

double nanos_to_seconds(std::uint64_t nanos) {
  return static_cast<double>(nanos) / 1e9;
}

/// Counters of the Duv seam; farm workers add to them concurrently.
struct DuvCounters {
  std::atomic<std::uint64_t> sims{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> compiles{0};
  std::atomic<std::uint64_t> compile_ns{0};
};

void add(std::atomic<std::uint64_t>& counter, std::uint64_t value) {
  counter.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t read(const std::atomic<std::uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

/// Times the duv kernel and the stimgen compile step of a wrapped unit.
/// On the process backend the workers rebuild the unit by name, so only
/// calls made in this process are seen.
class TimedDuv final : public duv::Duv {
 public:
  explicit TimedDuv(std::unique_ptr<duv::Duv> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return inner_->space();
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return inner_->defaults();
  }
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override {
    return inner_->suite();
  }

  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override {
    const auto start = Clock::now();
    auto out = inner_->simulate(tmpl, seed);
    add(counters_.busy_ns, nanos_since(start));
    add(counters_.calls, 1);
    add(counters_.sims, 1);
    return out;
  }

  [[nodiscard]] std::unique_ptr<Compiled> compile(
      const tgen::TestTemplate& tmpl) const override {
    const auto start = Clock::now();
    auto compiled = inner_->compile(tmpl);
    add(counters_.compile_ns, nanos_since(start));
    add(counters_.compiles, 1);
    return compiled;
  }

  void simulate_batch(const tgen::TestTemplate& tmpl, const Compiled* compiled,
                      std::span<const std::uint64_t> seeds,
                      std::span<coverage::CoverageVector> out) const override {
    const auto start = Clock::now();
    inner_->simulate_batch(tmpl, compiled, seeds, out);
    add(counters_.busy_ns, nanos_since(start));
    add(counters_.calls, 1);
    add(counters_.sims, seeds.size());
  }

  [[nodiscard]] const DuvCounters& counters() const noexcept {
    return counters_;
  }

 private:
  std::unique_ptr<duv::Duv> inner_;
  mutable DuvCounters counters_;
};

struct ExecCounters {
  std::size_t calls = 0;
  std::size_t jobs = 0;
  std::size_t sims = 0;
  double run_all_s = 0.0;
};

/// A farm job copied out of a run_all call, for the kernel replay.
struct RecordedJob {
  tgen::TestTemplate tmpl;
  std::size_t count = 0;
  std::uint64_t seed_root = 0;
};

/// Times exec::Backend::run_all. With a non-zero `record_stride` it also
/// keeps a copy of every stride-th job, so the kernel rate of a process
/// farm (whose simulations run out of sight, in its workers) can be
/// measured by replaying those jobs in-process.
class TimedBackend final : public exec::Backend {
 public:
  TimedBackend(std::unique_ptr<exec::Backend> inner, std::size_t record_stride)
      : inner_(std::move(inner)), record_stride_(record_stride) {}

  [[nodiscard]] std::string_view kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::size_t worker_count() const noexcept override {
    return inner_->worker_count();
  }
  [[nodiscard]] std::size_t total_simulations() const noexcept override {
    return inner_->total_simulations();
  }
  [[nodiscard]] batch::TelemetrySnapshot telemetry() const override {
    return inner_->telemetry();
  }
  [[nodiscard]] double worker_busy_fraction() const noexcept override {
    return inner_->worker_busy_fraction();
  }

  [[nodiscard]] std::vector<coverage::SimStats> run_all(
      const duv::Duv& duv, std::span<const exec::Job> jobs) override {
    const auto start = Clock::now();
    auto stats = inner_->run_all(duv, jobs);
    const double elapsed = seconds_since(start);
    const std::lock_guard lock(mutex_);
    ++counters_.calls;
    counters_.jobs += jobs.size();
    counters_.run_all_s += elapsed;
    for (const auto& job : jobs) {
      counters_.sims += job.count;
      if (record_stride_ != 0 && seen_jobs_++ % record_stride_ == 0) {
        recorded_.push_back({*job.tmpl, job.count, job.seed_root});
      }
    }
    return stats;
  }

  [[nodiscard]] ExecCounters counters() const {
    const std::lock_guard lock(mutex_);
    return counters_;
  }

  [[nodiscard]] const std::vector<RecordedJob>& recorded() const noexcept {
    return recorded_;
  }

 private:
  std::unique_ptr<exec::Backend> inner_;
  std::size_t record_stride_;
  mutable std::mutex mutex_;
  ExecCounters counters_;
  std::size_t seen_jobs_ = 0;
  std::vector<RecordedJob> recorded_;
};

/// Every recorded_ job of a process farm is a 1/kReplayStride sample of
/// its job stream; replaying it on one in-process worker gives the
/// kernel rate at a few per cent of the operation's cost.
constexpr std::size_t kReplayStride = 16;

/// Set-up repetitions per `setup` call; run.py reports their median.
constexpr std::size_t kSetupReps = 41;

/// "--name VALUE" / "--name=VALUE" / bare "--name". Every flag must be
/// consumed: a stray one is a usage error, never silently ignored.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!arg.starts_with("--")) {
        throw util::ConfigError("unexpected argument '" + arg + "'");
      }
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
        values_[arg.substr(2)] = argv[++i];
      } else {
        values_[arg.substr(2)] = "";
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return values_.contains(name);
  }

  /// Consumes a bare switch.
  bool flag(const std::string& name) {
    const auto it = values_.find(name);
    if (it == values_.end()) return false;
    if (!it->second.empty()) {
      throw util::ConfigError("--" + name + " takes no value");
    }
    values_.erase(it);
    return true;
  }

  /// Consumes a required value.
  std::string text(const std::string& name) {
    const auto it = values_.find(name);
    if (it == values_.end() || it->second.empty()) {
      throw util::ConfigError("--" + name + " is required");
    }
    std::string value = it->second;
    values_.erase(it);
    return value;
  }

  std::string text_or(const std::string& name, std::string fallback) {
    return has(name) ? text(name) : fallback;
  }

  std::size_t size(const std::string& name) {
    const std::string value = text(name);
    const auto parsed = util::parse_int(value);
    if (!parsed.has_value() || *parsed < 0) {
      throw util::ConfigError("bad value for --" + name + ": '" + value + "'");
    }
    return static_cast<std::size_t>(*parsed);
  }

  void expect_consumed() const {
    if (!values_.empty()) {
      throw util::ConfigError("unrecognized flag --" + values_.begin()->first);
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

std::unique_ptr<duv::Duv> make_unit_or_throw(const std::string& name) {
  auto unit = duv::make_unit(name);
  if (unit == nullptr) throw util::ConfigError("unknown unit '" + name + "'");
  return unit;
}

/// The budget flags `ascdg run` and `ascdg campaign` share, all required.
flow::FlowConfig budget_config(Flags& flags) {
  flow::FlowConfig config;
  config.sample_templates = flags.size("samples");
  config.sample_sims = flags.size("sample-sims");
  config.opt_max_iterations = flags.size("iterations");
  config.opt_directions = flags.size("directions");
  config.opt_sims_per_point = flags.size("point-sims");
  config.harvest_sims = flags.size("harvest");
  config.seed = flags.size("seed");
  const std::string cache = flags.text("eval-cache");
  if (cache != "on" && cache != "off") {
    throw util::ConfigError("--eval-cache must be 'on' or 'off'");
  }
  config.eval_cache = cache == "on";
  config.backend = exec::parse_backend_spec(flags.text("backend"));
  return config;
}

/// The CLI's before-CDG regression: every suite template, `sims` times.
coverage::CoverageRepository simulate_suite(const duv::Duv& unit,
                                            exec::Backend& farm,
                                            std::size_t sims) {
  coverage::CoverageRepository repo(unit.space().size());
  const auto suite = unit.suite();
  std::vector<exec::Job> jobs;
  for (std::size_t j = 0; j < suite.size(); ++j) {
    jobs.push_back({&suite[j], sims, 0xC11 + j});
  }
  const auto stats = farm.run_all(unit, jobs);
  for (std::size_t j = 0; j < suite.size(); ++j) {
    repo.record(suite[j].name(), stats[j]);
  }
  return repo;
}

bool harvest_hit(const coverage::SimStats& harvest, coverage::EventId event) {
  return harvest.sims() != 0 && event.value < harvest.event_count() &&
         harvest.hits(event) > 0;
}

/// Timings the operation measures around the layer calls.
struct FlowTimes {
  double regression_s = 0.0;  ///< the suite run_all before the pipeline
  double run_s = 0.0;         ///< CdgRunner::run / run_multi_target
  double run_exec_s = 0.0;    ///< exec run_all time inside run_s
};

struct CacheCounts {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evaluations = 0;

  void add(const flow::FlowResult& result) {
    hits += result.eval_cache_hits;
    misses += result.eval_cache_misses;
    evaluations += result.optimization.evaluations;
    if (result.refinement.has_value()) {
      evaluations += result.refinement->evaluations;
    }
  }
};

/// A point-in-time copy of the Duv seam's counters.
struct DuvSnapshot {
  std::uint64_t sims = 0;
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  std::uint64_t compiles = 0;
  double compile_s = 0.0;
};

DuvSnapshot snapshot(const DuvCounters& counters) {
  return {read(counters.sims), read(counters.calls),
          nanos_to_seconds(read(counters.busy_ns)), read(counters.compiles),
          nanos_to_seconds(read(counters.compile_ns))};
}

/// Replays a process farm's recorded jobs on a one-worker thread farm:
/// the duv and stimgen work of a process farm happens in its workers,
/// out of sight of the Duv wrapper in this process.
DuvSnapshot replay_kernel(std::string_view unit_name,
                          std::span<const RecordedJob> recorded) {
  TimedDuv unit(make_unit_or_throw(std::string(unit_name)));
  const auto farm = exec::make_backend(
      {.kind = exec::BackendConfig::Kind::kThread, .workers = 1});
  std::vector<exec::Job> jobs;
  jobs.reserve(recorded.size());
  for (const auto& job : recorded) {
    jobs.push_back({&job.tmpl, job.count, job.seed_root});
  }
  (void)farm->run_all(unit, jobs);
  return snapshot(unit.counters());
}

/// The layer counters every operation reports. On a process farm the
/// duv/stimgen fields come from replay_kernel ("kernel_source":
/// "replay", over "replay_jobs" of the farm's jobs), on a thread farm
/// from the farm's own calls ("farm").
util::JsonObject layer_json(const TimedDuv& unit, const TimedBackend& farm,
                            const FlowTimes& times, const CacheCounts& cache) {
  const bool replay = farm.kind() == "process";
  const auto start = Clock::now();
  const DuvSnapshot duv = replay ? replay_kernel(unit.name(), farm.recorded())
                                 : snapshot(unit.counters());
  const double replay_s = replay ? seconds_since(start) : 0.0;
  const auto exec = farm.counters();
  util::JsonObject out;
  out.add("workers", farm.worker_count())
      .add("kernel_source", replay ? "replay" : "farm")
      .add("replay_s", replay_s)
      .add("replay_jobs", replay ? farm.recorded().size() : std::size_t{0})
      .add("duv_sims", duv.sims)
      .add("duv_calls", duv.calls)
      .add("duv_busy_s", duv.busy_s)
      .add("compiles", duv.compiles)
      .add("compile_s", duv.compile_s)
      .add("exec_calls", exec.calls)
      .add("exec_jobs", exec.jobs)
      .add("exec_sims", exec.sims)
      .add("exec_run_all_s", exec.run_all_s)
      .add("regression_s", times.regression_s)
      .add("flow_run_s", times.run_s)
      .add("flow_exec_s", times.run_exec_s)
      .add("eval_cache_hits", cache.hits)
      .add("eval_cache_misses", cache.misses)
      .add("opt_evaluations", cache.evaluations);
  return out;
}

std::size_t record_stride_for(const flow::FlowConfig& config) {
  return config.backend.kind == exec::BackendConfig::Kind::kProcess
             ? kReplayStride
             : 0;
}

int cmd_setup(const std::string& unit_name, Flags& flags) {
  const auto config = exec::parse_backend_spec(flags.text("backend"));
  flags.expect_consumed();
  std::string nanos = "[";
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    const auto unit = make_unit_or_throw(unit_name);
    const auto farm = exec::make_backend(config);
    const auto suite = unit->suite();
    const std::uint64_t elapsed = nanos_since(start);
    if (suite.empty() || farm->worker_count() == 0) {
      throw util::Error("setup built an empty suite or farm");
    }
    nanos += (rep == 0 ? "" : ",") + std::to_string(elapsed);
  }
  nanos += "]";
  std::cout << util::JsonObject().add_raw("setup_ns", nanos).str() << '\n';
  return 0;
}

int cmd_run(const std::string& unit_name, Flags& flags) {
  // Same construction order as `ascdg run`: unit, backend (a process
  // farm forks here, before any helper thread), then telemetry sinks.
  TimedDuv unit(make_unit_or_throw(unit_name));
  const std::string family = flags.text("family");
  const std::size_t before_sims = flags.size("before-sims");
  flow::FlowConfig config = budget_config(flags);
  config.session_dir = flags.text_or("session", "");
  const std::string best_path = flags.text("save-best");
  const bool trace_flag = flags.flag("trace");
  config.timeline_interval_ms =
      flags.has("timeline") ? flags.size("timeline") : 0;
  flags.expect_consumed();
  if (unit.space().family_events(family).empty()) {
    throw util::ConfigError("unknown family '" + family + "'");
  }
  if (trace_flag && config.session_dir.empty()) {
    throw util::ConfigError("bare --trace needs --session");
  }
  TimedBackend farm(exec::make_backend(config.backend),
                    record_stride_for(config));

  if (!config.session_dir.empty()) {
    std::filesystem::create_directories(config.session_dir);
  }
  const std::filesystem::path session_dir = config.session_dir;
  std::unique_ptr<obs::Tracer> trace;
  if (trace_flag) {
    trace = std::make_unique<obs::Tracer>(session_dir / flow::kTraceFile);
    config.trace = trace.get();
  }
  std::unique_ptr<obs::TimeSeriesRecorder> timeline;
  if (config.timeline_interval_ms != 0) {
    obs::TimeSeriesConfig ts_config;
    ts_config.sample_interval =
        std::chrono::milliseconds(config.timeline_interval_ms);
    if (!config.session_dir.empty()) {
      ts_config.jsonl_path = session_dir / flow::kTelemetryFile;
      ts_config.index_path = session_dir / flow::kTelemetryIndexFile;
    }
    timeline = std::make_unique<obs::TimeSeriesRecorder>(ts_config);
  }

  FlowTimes times;
  auto start = Clock::now();
  const auto repo = simulate_suite(unit, farm, before_sims);
  times.regression_s = seconds_since(start);
  const auto target =
      neighbors::family_target(unit.space(), family, repo.total());

  flow::CdgRunner runner(unit, farm, config);
  const auto suite = unit.suite();
  const double exec_before = farm.counters().run_all_s;
  start = Clock::now();
  const auto result = runner.run(target, repo, suite);
  times.run_s = seconds_since(start);
  times.run_exec_s = farm.counters().run_all_s - exec_before;
  if (timeline != nullptr) timeline->stop();

  tgen::save_template(best_path, result.best_template);
  util::JsonObject hits;
  std::size_t covered = 0;
  for (const auto event : target.targets()) {
    const auto& harvest = result.harvest_phase.stats;
    hits.add(unit.space().name(event),
             harvest.sims() > 0 ? harvest.hits(event) : std::size_t{0});
    if (harvest_hit(harvest, event)) ++covered;
  }
  CacheCounts cache;
  cache.add(result);
  std::cout << util::JsonObject()
                   .add("total_sims", farm.total_simulations())
                   .add("covered", covered)
                   .add_raw("harvest_hits", hits.str())
                   .add_raw("layers", layer_json(unit, farm, times, cache).str())
                   .str()
            << '\n';
  return 0;
}

int cmd_campaign(const std::string& unit_name, Flags& flags) {
  TimedDuv unit(make_unit_or_throw(unit_name));
  const std::string families_arg = flags.text("families");
  const std::size_t before_sims = flags.size("before-sims");
  flow::FlowConfig config = budget_config(flags);
  config.session_dir = flags.text_or("session", "");
  const std::string best_path = flags.text("save-best");
  flags.expect_consumed();
  TimedBackend farm(exec::make_backend(config.backend),
                    record_stride_for(config));

  FlowTimes times;
  auto start = Clock::now();
  const auto repo = simulate_suite(unit, farm, before_sims);
  times.regression_s = seconds_since(start);

  std::vector<neighbors::ApproximatedTarget> targets;
  std::vector<std::string> family_names;
  for (const auto family : util::split(families_arg, ',')) {
    if (family.empty()) continue;
    const std::string name(family);
    if (unit.space().family_events(name).empty()) {
      throw util::ConfigError("unknown family '" + name + "'");
    }
    family_names.push_back(name);
    targets.push_back(
        neighbors::family_target(unit.space(), name, repo.total()));
  }
  if (targets.empty()) throw util::ConfigError("--families lists no family");

  // The CLI's default seed template: the coarse search's top pick for
  // the first family.
  const auto suite = unit.suite();
  const std::string wanted =
      flow::coarse_search(targets.front(), repo, 1).front().name;
  const auto seed_tmpl =
      std::find_if(suite.begin(), suite.end(),
                   [&](const tgen::TestTemplate& t) { return t.name() == wanted; });
  if (seed_tmpl == suite.end()) {
    throw util::Error("seed template '" + wanted + "' is not in the suite");
  }

  const double exec_before = farm.counters().run_all_s;
  start = Clock::now();
  const auto result =
      flow::run_multi_target(unit, farm, config, targets, *seed_tmpl);
  times.run_s = seconds_since(start);
  times.run_exec_s = farm.counters().run_all_s - exec_before;

  std::vector<tgen::TestTemplate> bests;
  util::JsonObject families;
  std::size_t covered = 0;
  CacheCounts cache;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const auto& flow_result = result.per_target[t];
    bests.push_back(flow_result.best_template);
    cache.add(flow_result);
    std::size_t hit = 0;
    for (const auto event : targets[t].targets()) {
      if (harvest_hit(flow_result.harvest_phase.stats, event)) ++hit;
    }
    covered += hit;
    families.add_raw(family_names[t],
                     util::JsonObject()
                         .add("hit", hit)
                         .add("targets", targets[t].targets().size())
                         .add("flow_sims", flow_result.flow_sims())
                         .str());
  }
  tgen::save_templates(best_path, bests);
  std::cout << util::JsonObject()
                   .add("total_sims", farm.total_simulations())
                   .add("covered", covered)
                   .add_raw("families", families.str())
                   .add_raw("layers", layer_json(unit, farm, times, cache).str())
                   .str()
            << '\n';
  return 0;
}

int usage() {
  std::cerr << "usage: ascdg_e2e setup|run|campaign <unit> [flags] "
               "(see trace_harness.cpp)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string unit = argv[2];
  try {
    Flags flags(argc, argv, 3);
    if (command == "setup") return cmd_setup(unit, flags);
    if (command == "run") return cmd_run(unit, flags);
    if (command == "campaign") return cmd_campaign(unit, flags);
    return usage();
  } catch (const util::ConfigError& err) {
    std::cerr << "error: " << err.what() << '\n';
    return 1;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << '\n';
    return 2;
  }
}
