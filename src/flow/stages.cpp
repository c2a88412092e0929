#include "flow/stages.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

#include "cdg/cdg_objective.hpp"
#include "cdg/random_sample.hpp"
#include "cdg/skeletonizer.hpp"
#include "flow/artifacts.hpp"
#include "flow/runner.hpp"
#include "tgen/file_io.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/jsonl.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace ascdg::flow {

namespace {

using Clock = StageContext::Clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Emits one "phase" trace event: the phase's simulation budget and
/// latency, plus any caller-supplied detail fields.
void trace_phase(obs::Tracer* sink, std::string_view key,
                 const PhaseOutcome& phase, const util::JsonObject& details) {
  if (sink == nullptr) return;
  util::JsonObject event;
  event.add("event", "phase")
      .add("phase", key)
      .add("label", phase.name)
      .add("sims", phase.sims)
      .add("wall_ms", phase.wall_ms)
      .merge(details);
  sink->emit(event);
}

/// Builds the implicit-filtering options the flow config asks for; the
/// optimize and refine stages share everything but budget/seed/label.
opt::ImplicitFilteringOptions base_if_options(const FlowConfig& config) {
  opt::ImplicitFilteringOptions options;
  options.directions = config.opt_directions;
  options.initial_step = config.opt_initial_step;
  options.min_step = config.opt_min_step;
  options.max_iterations = config.opt_max_iterations;
  options.resample_center = config.opt_resample_center;
  options.direction_mode = config.opt_direction_mode;
  options.halve_patience = config.opt_halve_patience;
  options.target_value = config.opt_target_value;
  options.trace = config.trace;
  return options;
}

coverage::SimStats merged(const coverage::SimStats& prefix,
                          const coverage::SimStats& suffix) {
  coverage::SimStats out = prefix;
  out.merge(suffix);
  return out;
}

/// Mid-stage optimizer checkpoint: one record of a stage's iteration
/// log. The IfCheckpoint carries the state after the iteration and that
/// iteration's record only; the stage's cost prefix (sims / stats /
/// cache traffic / wall spent so far) lets a resumed stage report
/// totals as if never interrupted. No field grows with the iteration
/// number, so an append costs the same at iteration 1 and 1000.
struct OptStageCheckpoint {
  opt::IfCheckpoint ifc;
  std::size_t sims = 0;
  coverage::SimStats stats;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  double wall_ms = 0.0;
  double evidence = 0.0;  ///< refine only: the probe's real-target value
};

std::string iteration_log_name(std::string_view stage) {
  return std::string(stage) + ".ckpt.jsonl";
}

/// Appends one iteration's record to the stage's log (one write and one
/// fdatasync; counted by the crash hook like an atomic write).
void append_opt_checkpoint(util::AppendLog& log,
                           const OptStageCheckpoint& ckpt) {
  append_record(log, util::JsonObject{}
                         .add_raw("if", to_json(ckpt.ifc))
                         .add("sims", ckpt.sims)
                         .add_raw("stats", to_json(ckpt.stats))
                         .add("cache_hits", ckpt.cache_hits)
                         .add("cache_misses", ckpt.cache_misses)
                         .add("wall_ms", ckpt.wall_ms)
                         .add("evidence", ckpt.evidence)
                         .str());
}

/// Rebuilds the resume state from a stage's iteration log: every
/// field from the last record, the trace concatenated over all of them.
/// nullopt when no iteration was committed.
std::optional<OptStageCheckpoint> read_iteration_log(const Session& session,
                                                     std::string_view stage) {
  const auto records =
      util::AppendLog::read(session.artifact_path(iteration_log_name(stage)));
  if (records.empty()) return std::nullopt;
  OptStageCheckpoint ckpt;
  std::vector<opt::IterationRecord> trace;
  for (const auto& record : records) {
    ckpt.ifc = checkpoint_from_json(record.at("if"));
    trace.insert(trace.end(), ckpt.ifc.trace.begin(), ckpt.ifc.trace.end());
  }
  ckpt.ifc.trace = std::move(trace);
  const util::JsonValue& last = records.back();
  ckpt.sims = last.at("sims").as_size();
  ckpt.stats = sim_stats_from_json(last.at("stats"));
  ckpt.cache_hits = last.at("cache_hits").as_size();
  ckpt.cache_misses = last.at("cache_misses").as_size();
  ckpt.wall_ms = last.at("wall_ms").as_double();
  ckpt.evidence = last.at("evidence").as_double();
  return ckpt;
}

/// Builds before the iteration log rewrote one whole-state
/// `<stage>.ckpt.json` per iteration. Such a leftover is removed and
/// its stage reruns from the start, which reproduces the same result.
void drop_legacy_checkpoint(const Session& session, std::string_view stage) {
  std::error_code ec;
  if (std::filesystem::remove(
          session.artifact_path(std::string(stage) + ".ckpt.json"), ec)) {
    util::log_warn(stage, ": removed a checkpoint from an older build; "
                   "the stage reruns from its start");
  }
}

void remove_if_exists(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace

// ------------------------------------------------------------- coarse --

void CoarseSearchStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  const auto ranked = coarse_search(
      *ctx.target, *ctx.before,
      std::max<std::size_t>(1, config.coarse_best_templates));
  // Resolve the ranked names to template objects and merge their
  // parameters into one seed template (paper §IV-B: "find the best n
  // test-templates that hit these events. The parameters in these
  // test-templates are selected to be the ones used in the fine-grained
  // search."). On a name clash the higher-ranked template wins.
  tgen::TestTemplate seed;
  std::vector<std::string> merged_names;
  for (const auto& candidate : ranked) {
    for (const auto& tmpl : ctx.suite_templates) {
      if (tmpl.name() != candidate.name) continue;
      merged_names.push_back(tmpl.name());
      for (const auto& param : tmpl.parameters()) {
        if (!seed.contains(parameter_name(param))) seed.add(param);
      }
      break;
    }
  }
  if (merged_names.empty()) {
    throw util::NotFoundError(
        "coarse search: none of the ranked templates ('" + ranked.front().name +
        "', ...) resolve to a known template object");
  }
  seed.set_name(util::join(merged_names, "+"));
  util::log_info("coarse search selected template(s) '", seed.name(),
                 "' (top score ", ranked.front().score, ")");
  if (config.trace != nullptr) {
    // best-k margin: how far ahead of the k-th ranked template the
    // winner is — a small margin means the coarse search was ambiguous.
    config.trace->emit(util::JsonObject{}
                            .add("event", "coarse_search")
                            .add("seed_template", seed.name())
                            .add("merged_templates", merged_names.size())
                            .add("templates_ranked", ranked.size())
                            .add("top_score", ranked.front().score)
                            .add("kth_score", ranked.back().score)
                            .add("margin",
                                 ranked.front().score - ranked.back().score));
  }
  ctx.seed_template = std::move(seed);
}

void CoarseSearchStage::save(StageContext& ctx) const {
  tgen::save_template(ctx.session->artifact_path("coarse.seed_template.tmpl"),
                      ctx.seed_template);
}

void CoarseSearchStage::load(StageContext& ctx) const {
  ctx.seed_template = tgen::load_template(
      ctx.session->artifact_path("coarse.seed_template.tmpl"));
}

// -------------------------------------------------------- skeletonize --

void SkeletonizeStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  FlowResult& result = *ctx.result;
  const cdg::Skeletonizer skeletonizer(config.skeletonizer);
  result.skeleton = skeletonizer.skeletonize(ctx.seed_template);
  util::log_info("skeletonized '", ctx.seed_template.name(), "' -> ",
                 result.skeleton.mark_count(), " marks");
  if (config.trace != nullptr) {
    config.trace->emit(util::JsonObject{}
                            .add("event", "flow_start")
                            .add("seed_template", ctx.seed_template.name())
                            .add("skeleton_marks", result.skeleton.mark_count())
                            .add("before_sims", result.before.sims));
  }
}

void SkeletonizeStage::save(StageContext& ctx) const {
  tgen::save_skeleton(ctx.session->artifact_path("skeleton.skel"),
                      ctx.result->skeleton);
}

void SkeletonizeStage::load(StageContext& ctx) const {
  ctx.result->skeleton =
      tgen::load_skeleton(ctx.session->artifact_path("skeleton.skel"));
}

// ----------------------------------------------------------- sampling --

void SampleStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  FlowResult& result = *ctx.result;
  cdg::RandomSampleOptions sample_options;
  sample_options.templates = config.sample_templates;
  sample_options.sims_per_template = config.sample_sims;
  sample_options.seed = config.seed ^ 0x5A4D91E5ULL;
  result.sampling = cdg::random_sample(*ctx.duv, *ctx.farm, result.skeleton,
                                       *ctx.target, sample_options);
  result.sampling_phase = {"Sampling phase", result.sampling.simulations,
                           result.sampling.combined};
  result.sampling_phase.wall_ms = ms_since(ctx.stage_start);
  util::log_info("sampling phase: best target value ",
                 result.sampling.best().target_value, " over ",
                 result.sampling.simulations, " sims");
  trace_phase(config.trace, "sampling", result.sampling_phase,
              util::JsonObject{}
                  .add("templates", result.sampling.samples.size())
                  .add("best_value", result.sampling.best().target_value));
}

void SampleStage::save(StageContext& ctx) const {
  atomic_write_file(
      ctx.session->artifact_path("sampling.json"),
      util::JsonObject{}
          .add_raw("sampling", to_json(ctx.result->sampling))
          .add_raw("phase", to_json(ctx.result->sampling_phase))
          .str() +
          "\n");
}

void SampleStage::load(StageContext& ctx) const {
  const util::JsonValue doc =
      read_json_file(ctx.session->artifact_path("sampling.json"));
  ctx.result->sampling = sampling_from_json(doc.at("sampling"));
  ctx.result->sampling_phase = phase_outcome_from_json(doc.at("phase"));
}

// ------------------------------------------------------- optimization --

void OptimizeStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  FlowResult& result = *ctx.result;
  const cdg::EvalCacheConfig cache_config{.enabled = config.eval_cache,
                                          .capacity = 1024};
  cdg::CdgObjective objective(*ctx.duv, *ctx.farm, result.skeleton,
                              *ctx.target, config.opt_sims_per_point,
                              cache_config, config.trace);
  opt::ImplicitFilteringOptions if_options = base_if_options(config);
  if_options.seed = config.seed ^ seed_mix_;
  if_options.trace_label = "optimization";

  // Cost prefix from an interrupted earlier attempt at this stage (zero
  // on a fresh run): the resumed totals must look uninterrupted.
  OptStageCheckpoint prefix;
  std::optional<util::AppendLog> log;
  if (ctx.session != nullptr) {
    drop_legacy_checkpoint(*ctx.session, name());
    if (auto resumed = read_iteration_log(*ctx.session, name())) {
      prefix = std::move(*resumed);
      if_options.resume = &prefix.ifc;
      util::log_info("optimization: resuming from checkpoint at iteration ",
                     prefix.ifc.next_iteration, " (", prefix.sims,
                     " sims already spent)");
    }
    log.emplace(ctx.session->artifact_path(iteration_log_name(name())));
    if_options.on_checkpoint = [&](const opt::IfCheckpoint& ifc) {
      OptStageCheckpoint ckpt;
      ckpt.ifc = ifc;
      ckpt.sims = prefix.sims + objective.simulations();
      ckpt.stats = merged(prefix.stats, objective.combined());
      ckpt.cache_hits = prefix.cache_hits + objective.cache_hits();
      ckpt.cache_misses = prefix.cache_misses + objective.cache_misses();
      ckpt.wall_ms = prefix.wall_ms + ms_since(ctx.stage_start);
      append_opt_checkpoint(*log, ckpt);
    };
  }

  result.optimization = opt::implicit_filtering(
      objective, result.sampling.best().point, if_options);
  result.optimization_phase = {"Optimization phase",
                               prefix.sims + objective.simulations(),
                               merged(prefix.stats, objective.combined())};
  result.optimization_phase.wall_ms =
      prefix.wall_ms + ms_since(ctx.stage_start);
  result.eval_cache_hits = prefix.cache_hits + objective.cache_hits();
  result.eval_cache_misses = prefix.cache_misses + objective.cache_misses();
  util::log_info("optimization: ", result.optimization.trace.size(),
                 " iterations, best value ", result.optimization.best_value,
                 " (", to_string(result.optimization.reason), ")");
  ctx.best_point = result.optimization.best_point;
}

void OptimizeStage::save(StageContext& ctx) const {
  const FlowResult& result = *ctx.result;
  atomic_write_file(
      ctx.session->artifact_path("optimization.json"),
      util::JsonObject{}
          .add_raw("optimization", to_json(result.optimization))
          .add_raw("phase", to_json(result.optimization_phase))
          .add("cache_hits", result.eval_cache_hits)
          .add("cache_misses", result.eval_cache_misses)
          .str() +
          "\n");
  remove_if_exists(ctx.session->artifact_path(iteration_log_name(name())));
}

void OptimizeStage::load(StageContext& ctx) const {
  const util::JsonValue doc =
      read_json_file(ctx.session->artifact_path("optimization.json"));
  FlowResult& result = *ctx.result;
  result.optimization = opt_result_from_json(doc.at("optimization"));
  result.optimization_phase = phase_outcome_from_json(doc.at("phase"));
  result.eval_cache_hits = doc.at("cache_hits").as_size();
  result.eval_cache_misses = doc.at("cache_misses").as_size();
  ctx.best_point = result.optimization.best_point;
}

// --------------------------------------------------------- refinement --

void RefineStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  FlowResult& result = *ctx.result;
  // The paper's optimization phase covers implicit filtering and this
  // refinement, so the phase's wall time is the optimize stage's plus
  // this stage's own.
  double wall_base = result.optimization_phase.wall_ms;

  if (config.refine_with_real_target && !ctx.target->targets().empty()) {
    const neighbors::ApproximatedTarget& target = *ctx.target;
    const cdg::EvalCacheConfig cache_config{.enabled = config.eval_cache,
                                            .capacity = 1024};
    OptStageCheckpoint prefix;
    bool mid_refine_resume = false;
    if (ctx.session != nullptr) {
      drop_legacy_checkpoint(*ctx.session, name());
      if (auto resumed = read_iteration_log(*ctx.session, name())) {
        // The crash happened inside the refinement optimizer: the probe
        // already ran and found evidence, so skip straight to resuming.
        prefix = std::move(*resumed);
        mid_refine_resume = true;
        result.optimization_phase.sims = prefix.sims;
        result.optimization_phase.stats = prefix.stats;
        result.eval_cache_hits = prefix.cache_hits;
        result.eval_cache_misses = prefix.cache_misses;
        wall_base = prefix.wall_ms;
        util::log_info("refinement: resuming from checkpoint at iteration ",
                       prefix.ifc.next_iteration);
      }
    }

    double evidence = prefix.evidence;
    if (!mid_refine_resume) {
      // Probe the optimized point for real-target evidence.
      const tgen::TestTemplate probe_tmpl =
          result.skeleton.instantiate("cdg_refine_probe", ctx.best_point);
      const coverage::SimStats probe =
          ctx.farm->run(*ctx.duv, probe_tmpl, config.opt_sims_per_point,
                        config.seed ^ 0x5EF1A37EULL);
      result.optimization_phase.sims += probe.sims();
      result.optimization_phase.stats.merge(probe);
      evidence = target.real_value(probe);
    }
    if (mid_refine_resume || evidence >= config.refine_threshold) {
      // The real objective: the target events themselves, unit weights.
      std::vector<tac::WeightedEvent> raw;
      raw.reserve(target.targets().size());
      for (const auto event : target.targets()) raw.push_back({event, 1.0});
      const neighbors::ApproximatedTarget real_target(target.targets(),
                                                      std::move(raw));
      cdg::CdgObjective refine_objective(*ctx.duv, *ctx.farm, result.skeleton,
                                         real_target, config.opt_sims_per_point,
                                         cache_config, config.trace);
      opt::ImplicitFilteringOptions if_options = base_if_options(config);
      if_options.max_iterations = config.refine_max_iterations;
      if_options.seed = config.seed ^ 0x5EF15EEDULL;
      if_options.trace_label = "refinement";
      // The phase totals at the moment refinement starts — every
      // checkpoint reports these plus the refine objective's own books.
      const std::size_t base_sims = result.optimization_phase.sims;
      const coverage::SimStats base_stats = result.optimization_phase.stats;
      const std::size_t base_hits = result.eval_cache_hits;
      const std::size_t base_misses = result.eval_cache_misses;
      if (mid_refine_resume) if_options.resume = &prefix.ifc;
      std::optional<util::AppendLog> log;
      if (ctx.session != nullptr) {
        log.emplace(ctx.session->artifact_path(iteration_log_name(name())));
        if_options.on_checkpoint = [&](const opt::IfCheckpoint& ifc) {
          OptStageCheckpoint ckpt;
          ckpt.ifc = ifc;
          ckpt.sims = base_sims + refine_objective.simulations();
          ckpt.stats = merged(base_stats, refine_objective.combined());
          ckpt.cache_hits = base_hits + refine_objective.cache_hits();
          ckpt.cache_misses = base_misses + refine_objective.cache_misses();
          ckpt.wall_ms = wall_base + ms_since(ctx.stage_start);
          ckpt.evidence = evidence;
          append_opt_checkpoint(*log, ckpt);
        };
      }
      result.refinement = opt::implicit_filtering(refine_objective,
                                                  ctx.best_point, if_options);
      result.optimization_phase.sims =
          base_sims + refine_objective.simulations();
      result.optimization_phase.stats =
          merged(base_stats, refine_objective.combined());
      result.eval_cache_hits = base_hits + refine_objective.cache_hits();
      result.eval_cache_misses = base_misses + refine_objective.cache_misses();
      if (result.refinement->best_value > evidence) {
        ctx.best_point = result.refinement->best_point;
      }
      util::log_info("refinement: real-objective best ",
                     result.refinement->best_value, " (evidence was ",
                     evidence, ")");
    } else {
      util::log_info("refinement skipped: real-target evidence ", evidence,
                     " below threshold ", config.refine_threshold);
    }
  }

  result.optimization_phase.wall_ms = wall_base + ms_since(ctx.stage_start);
  trace_phase(config.trace, "optimization", result.optimization_phase,
              util::JsonObject{}
                  .add("iterations", result.optimization.trace.size())
                  .add("best_value", result.optimization.best_value)
                  .add("refined", result.refinement.has_value()));
}

void RefineStage::save(StageContext& ctx) const {
  const FlowResult& result = *ctx.result;
  util::JsonObject doc;
  doc.add("refined", result.refinement.has_value());
  if (result.refinement.has_value()) {
    doc.add_raw("refinement", to_json(*result.refinement));
  }
  doc.add_raw("phase", to_json(result.optimization_phase))
      .add("cache_hits", result.eval_cache_hits)
      .add("cache_misses", result.eval_cache_misses)
      .add_raw("best_point", json_double_array(ctx.best_point));
  atomic_write_file(ctx.session->artifact_path("refinement.json"),
                    doc.str() + "\n");
  remove_if_exists(ctx.session->artifact_path(iteration_log_name(name())));
}

void RefineStage::load(StageContext& ctx) const {
  const util::JsonValue doc =
      read_json_file(ctx.session->artifact_path("refinement.json"));
  FlowResult& result = *ctx.result;
  if (doc.at("refined").as_bool()) {
    result.refinement = opt_result_from_json(doc.at("refinement"));
  } else {
    result.refinement.reset();
  }
  result.optimization_phase = phase_outcome_from_json(doc.at("phase"));
  result.eval_cache_hits = doc.at("cache_hits").as_size();
  result.eval_cache_misses = doc.at("cache_misses").as_size();
  ctx.best_point = double_array_from_json(doc.at("best_point"));
}

// ------------------------------------------------------------ harvest --

void HarvestStage::run(StageContext& ctx) {
  const FlowConfig& config = *ctx.config;
  FlowResult& result = *ctx.result;
  result.best_template = result.skeleton.instantiate(
      ctx.seed_template.name() + instance_suffix_, ctx.best_point);
  result.harvest_phase.name = "Running best test";
  if (config.harvest_sims > 0) {
    result.harvest_phase.stats =
        ctx.farm->run(*ctx.duv, result.best_template, config.harvest_sims,
                      config.seed ^ seed_mix_);
    result.harvest_phase.sims = config.harvest_sims;
    util::log_info("harvest: real target value ",
                   ctx.target->real_value(result.harvest_phase.stats),
                   " over ", config.harvest_sims, " sims");
  } else {
    result.harvest_phase.stats = coverage::SimStats(ctx.duv->space().size());
  }
  result.harvest_phase.wall_ms = ms_since(ctx.stage_start);
  trace_phase(config.trace, "harvest", result.harvest_phase,
              util::JsonObject{}.add(
                  "real_value", result.harvest_phase.stats.sims() > 0
                                    ? ctx.target->real_value(
                                          result.harvest_phase.stats)
                                    : 0.0));
}

void HarvestStage::save(StageContext& ctx) const {
  tgen::save_template(ctx.session->artifact_path("best_template.tmpl"),
                      ctx.result->best_template);
  atomic_write_file(
      ctx.session->artifact_path("harvest.json"),
      util::JsonObject{}
          .add_raw("phase", to_json(ctx.result->harvest_phase))
          .str() +
          "\n");
}

void HarvestStage::load(StageContext& ctx) const {
  ctx.result->best_template =
      tgen::load_template(ctx.session->artifact_path("best_template.tmpl"));
  const util::JsonValue doc =
      read_json_file(ctx.session->artifact_path("harvest.json"));
  ctx.result->harvest_phase = phase_outcome_from_json(doc.at("phase"));
}

}  // namespace ascdg::flow
