// Implicit filtering (paper Algorithm 1, after Kelley [6] and Gal et
// al. [5]): a derivative-free stencil search for noisy objectives.
//
// At each iteration the algorithm samples the objective at n points a
// distance h from the current center along random directions; it moves
// the center to the best improving point, or halves h when the center
// is already the best ("to reduce the possibility of overshooting the
// maximum"). Two modifications handle the dynamic simulation noise
// (paper §IV-E): the objective itself averages N samples per point, and
// the center is re-sampled every iteration "to reduce the effect of
// extremely high noise".
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "opt/objective.hpp"

namespace ascdg::opt {

/// Complete mid-run state of an implicit-filtering search, captured
/// after every iteration. A run restarted from a checkpoint (via
/// ImplicitFilteringOptions::resume) continues *bit-identically* to the
/// uninterrupted run: the direction generator's raw state and the
/// eval-seed counter are part of the checkpoint, so the resumed
/// trajectory replays the exact same stencils and noise realizations.
struct IfCheckpoint {
  std::size_t next_iteration = 0;  ///< first iteration still to run
  std::vector<double> center;
  double center_value = 0.0;
  double step = 0.0;               ///< h going into next_iteration
  std::size_t stale_rounds = 0;    ///< improvement-free streak
  std::size_t evaluations = 0;
  std::vector<double> best_point;
  double best_value = 0.0;
  /// Completed iterations. On resume it must hold all of them; in the
  /// on_checkpoint callback it holds only the one just completed.
  std::vector<IterationRecord> trace;
  std::array<std::uint64_t, 4> rng_state{};  ///< direction generator
  std::uint64_t eval_seed_counter = 0;       ///< seeds drawn so far
};

enum class DirectionMode {
  kRandomSphere,  ///< uniformly random unit directions: each coordinate
                  ///< moves ~h/sqrt(dim) — precise but slow in high dim
  kCoordinate,    ///< +-e_i stencil, cycled (classic implicit filtering)
  kRademacher,    ///< random +-1 per coordinate (SPSA-style): every
                  ///< coordinate moves a full +-h per stencil point,
                  ///< much faster in high-dimensional template spaces
  kSparse,        ///< random +-1 on a random ~quarter of the coordinates:
                  ///< targeted moves that can fix one bad setting without
                  ///< disturbing the rest; good when coordinates are
                  ///< weakly coupled and noise is high
};

struct ImplicitFilteringOptions {
  std::size_t directions = 8;   ///< n — stencil points per iteration
  double initial_step = 0.25;   ///< h — initial stencil size
  double min_step = 1e-3;       ///< stop when h falls below this
  std::size_t max_iterations = 50;
  std::size_t max_evaluations = std::numeric_limits<std::size_t>::max();
  std::optional<double> target_value;  ///< stop once center reaches this
  bool resample_center = true;  ///< re-sample the center every iteration
  /// Consecutive improvement-free iterations required before h is
  /// halved. 1 is the textbook algorithm; larger values make the search
  /// robust to unlucky noisy rounds at a useful step size.
  std::size_t halve_patience = 1;
  DirectionMode direction_mode = DirectionMode::kRandomSphere;
  double lower = 0.0;  ///< box lower bound (every coordinate)
  double upper = 1.0;  ///< box upper bound
  std::uint64_t seed = 1;

  /// Optional convergence telemetry sink (not owned; must outlive the
  /// run). When set, every iteration emits one "opt_iter" event —
  /// objective value at the center (the paper's T_N), best stencil
  /// value, stencil size h, cumulative evaluations, and the iteration's
  /// resample / move / halving outcome — parented under the caller's
  /// current span. `trace_label` distinguishes concurrent runs.
  obs::Tracer* trace = nullptr;
  std::string trace_label = "opt";

  /// Durable-session hook: called after every completed iteration with
  /// the resumable state, whose `trace` holds only that iteration, so a
  /// call costs O(1) whatever the iteration number. Concatenating the
  /// traces of every call so far gives the full trace a resume needs.
  /// Checkpoint cost is the caller's (the session layer appends it to
  /// disk). Exceptions propagate and abort the run.
  std::function<void(const IfCheckpoint&)> on_checkpoint;

  /// Warm start from a previous run's checkpoint (not owned; read once
  /// at entry). `x0` is ignored apart from its dimension check, and the
  /// resumed run reproduces the uninterrupted run exactly — including
  /// re-applying the stop conditions the checkpointed iteration may
  /// already have triggered.
  const IfCheckpoint* resume = nullptr;
};

/// Runs implicit filtering from `x0` (clamped into the box).
/// Throws util::ConfigError for malformed options (directions == 0,
/// non-positive step, lower >= upper, or x0 dimension mismatch).
[[nodiscard]] OptResult implicit_filtering(Objective& objective,
                                           std::span<const double> x0,
                                           const ImplicitFilteringOptions& options);

}  // namespace ascdg::opt
