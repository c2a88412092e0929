// Concrete pipeline stages, one per step of the paper's flow. Each
// keeps the old monolithic CdgRunner's seed mixes, point events and log
// lines, so every simulation result is unchanged; spans, phase scopes
// and stage clocks are Pipeline::execute's (see pipeline.hpp).
//
// Optimize and Harvest take their seed mix (and the harvest its
// instance-name suffix) as constructor parameters because the
// multi-target campaign driver runs them per target with per-target
// mixes (config.seed ^ (base + t)).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "flow/stage.hpp"

namespace ascdg::flow {

/// §IV-B: TAC-ranks the before-CDG repository's templates against the
/// approximated target and merges the best n into ctx.seed_template.
/// Zero simulations; the artifact is the merged seed template itself.
class CoarseSearchStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "coarse";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;
};

/// §IV-C: marks the seed template's tunable settings. Also emits the
/// flow_start trace event (the monolith emitted it right after
/// skeletonizing, once the mark count was known).
class SkeletonizeStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "skeletonize";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;
};

/// §IV-D: the random-sampling phase.
class SampleStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sampling";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;
};

/// §IV-E: implicit filtering over the skeleton's weight space. With a
/// session attached every iteration appends one fixed-size record (its
/// IterationRecord plus the optimizer state and the stage's partial
/// sims/stats) to the stage's iteration log, and an interrupted stage
/// resumes mid-optimization with a bit-identical trajectory.
class OptimizeStage final : public Stage {
 public:
  explicit OptimizeStage(std::uint64_t seed_mix = 0x0B71417EULL)
      : seed_mix_(seed_mix) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "optimization";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;

 private:
  std::uint64_t seed_mix_;
};

/// §IV-E refinement. Always present in the pipeline (so the session's
/// stage list is config-independent). The paper's optimization phase
/// spans both stages: this one folds its sims and wall time into
/// FlowResult::optimization_phase and emits the "optimization" phase
/// event — which is all it does when refinement is disabled or the
/// real-target evidence is missing.
class RefineStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "refinement";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;
};

/// §IV-F: instantiates the best point and runs the harvest budget.
class HarvestStage final : public Stage {
 public:
  explicit HarvestStage(std::uint64_t seed_mix = 0x4A12E57EDULL,
                        std::string instance_suffix = "_cdg_best")
      : seed_mix_(seed_mix), instance_suffix_(std::move(instance_suffix)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "harvest";
  }
  void run(StageContext& ctx) override;
  void save(StageContext& ctx) const override;
  void load(StageContext& ctx) const override;

 private:
  std::uint64_t seed_mix_;
  std::string instance_suffix_;
};

}  // namespace ascdg::flow
