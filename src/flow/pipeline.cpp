#include "flow/pipeline.hpp"

#include <chrono>

#include "obs/phase_scope.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace ascdg::flow {

Pipeline& Pipeline::add(std::unique_ptr<Stage> stage) {
  stages_.push_back(std::move(stage));
  return *this;
}

std::vector<std::string> Pipeline::stage_names() const {
  std::vector<std::string> names;
  names.reserve(stages_.size());
  for (const auto& stage : stages_) names.emplace_back(stage->name());
  return names;
}

void Pipeline::execute(StageContext& ctx) {
  for (const auto& stage : stages_) {
    const std::string name(stage->name());
    if (ctx.session != nullptr && ctx.session->stage_done(name)) {
      stage->load(ctx);
      util::log_info("session: stage '", name,
                     "' restored from checkpoint (0 simulations)");
      continue;
    }
    if (ctx.session != nullptr) ctx.session->mark_running(name);
    const std::size_t sims_before = ctx.farm->total_simulations();
    obs::Span span = obs::make_span(ctx.config->trace, name);
    obs::PhaseScope scope(name);
    ctx.stage_start = StageContext::Clock::now();
    stage->run(ctx);
    scope.end();
    const std::size_t sims = ctx.farm->total_simulations() - sims_before;
    span.fields().add("sims", sims);
    span.end();
    if (ctx.session != nullptr) {
      stage->save(ctx);
      ctx.session->mark_done(
          name, sims,
          std::chrono::duration<double, std::milli>(
              StageContext::Clock::now() - ctx.stage_start)
              .count());
    }
  }
}

}  // namespace ascdg::flow
