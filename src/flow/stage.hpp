// The Stage interface of the flow engine.
//
// The old monolithic CdgRunner::run_from_template is decomposed into
// stages (coarse search, skeletonize, sample, optimize, refine,
// harvest), each owning three responsibilities:
//
//   run()  — do the work: simulate, mutate the shared StageContext, and
//            emit the stage's point events (phase, flow_start, ...) and
//            log lines. The stage's span, phase scope and clock belong
//            to Pipeline::execute, not to run().
//   save() — persist the stage's output as a session artifact
//            (atomic write; only called when a session is attached).
//   load() — reconstruct the stage's output from its artifact instead
//            of re-simulating (resume path; loaded stages are silent —
//            they cost zero simulations and emit no telemetry).
#pragma once

#include <chrono>
#include <string_view>
#include <vector>

#include "exec/backend.hpp"
#include "coverage/repository.hpp"
#include "duv/duv.hpp"
#include "flow/session.hpp"
#include "flow/types.hpp"
#include "neighbors/neighbors.hpp"
#include "tgen/test_template.hpp"

namespace ascdg::flow {

/// Everything a stage can read or produce. One context instance lives
/// for the duration of a pipeline execution; stages communicate only
/// through it (and through the FlowResult it points at).
struct StageContext {
  using Clock = std::chrono::steady_clock;

  const duv::Duv* duv = nullptr;
  exec::Backend* farm = nullptr;
  const FlowConfig* config = nullptr;
  const neighbors::ApproximatedTarget* target = nullptr;
  /// nullptr for an ephemeral (un-sessioned) run.
  Session* session = nullptr;
  FlowResult* result = nullptr;

  // Coarse-search inputs (only set by CdgRunner::run).
  const coverage::CoverageRepository* before = nullptr;
  std::span<const tgen::TestTemplate> suite_templates{};

  /// The seed template the flow skeletonizes — produced by the coarse
  /// stage or supplied by run_from_template.
  tgen::TestTemplate seed_template;

  /// Hand-off from optimize through refine to harvest: the point the
  /// best template is instantiated from.
  std::vector<double> best_point;

  /// When Pipeline::execute started the running stage; stages measure
  /// their phase wall time (and mid-stage checkpoints) from here.
  Clock::time_point stage_start{};
};

class Stage {
 public:
  virtual ~Stage() = default;

  /// Stable stage name — the manifest key and artifact-file prefix.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  virtual void run(StageContext& ctx) = 0;
  virtual void save(StageContext& ctx) const = 0;
  virtual void load(StageContext& ctx) const = 0;
};

}  // namespace ascdg::flow
