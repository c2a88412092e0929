// Pipeline: executes stages in order against one StageContext.
//
// The pipeline is the one place a stage is instrumented. Each stage it
// runs gets one trace span and one obs::PhaseScope named after the
// stage (so it shows up in the span profile, at /runz and in the
// ascdg_phase_*{phase=...} gauges) and one clock, ctx.stage_start. The
// span carries `sims`: the farm's counter delta across run().
//
// With a session attached, every stage boundary is a durable
// checkpoint: the stage is marked "running" in the manifest, run, its
// artifact written atomically, then marked "done" with the same `sims`
// and the wall time since ctx.stage_start. A stage already recorded
// "done" is restored from its artifact via load() instead — completed
// stages cost zero simulations on resume and emit no telemetry.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "flow/stage.hpp"

namespace ascdg::flow {

class Pipeline {
 public:
  Pipeline& add(std::unique_ptr<Stage> stage);

  /// Manifest stage list, in execution order.
  [[nodiscard]] std::vector<std::string> stage_names() const;

  /// Runs (or restores) every stage in order. Exceptions from a stage
  /// propagate; the session then still records the stage as "running",
  /// which a later resume treats as interrupted.
  void execute(StageContext& ctx);

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
};

}  // namespace ascdg::flow
