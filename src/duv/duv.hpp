// The design-under-verification interface.
//
// This is the boundary that keeps AS-CDG "black box" (paper §I): the
// CDG flow only ever interacts with a Duv through (a) its coverage-event
// declarations, (b) its default test-template (the full parameter list
// with default settings), and (c) simulate(), which maps a test-template
// plus a seed to a coverage vector. A wrapper around a real RTL
// simulator can implement the same interface.
//
// simulate() must be:
//   * deterministic — the same (template, seed) always yields the same
//     coverage vector;
//   * thread-safe   — no mutable shared state; all simulation state is
//     local to the call (the batch farm calls it concurrently).
//
// simulate_batch() is the farm's hot entry point: it simulates a whole
// span of seeds in one call over the template's compiled distribution
// tables, so the per-template work is done once per job rather than
// once per seed. The default implementation is a loop over simulate(),
// so an external RTL wrapper implements only that method and still
// works everywhere (see docs/porting.md). Whatever the implementation,
// out[i] of a batch must be bit-identical to simulate(tmpl, seeds[i]) —
// batching is an execution detail, never an observable one.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "coverage/space.hpp"
#include "coverage/vector.hpp"
#include "tgen/test_template.hpp"

namespace ascdg::duv {

class Duv {
 public:
  virtual ~Duv() = default;

  Duv(const Duv&) = delete;
  Duv& operator=(const Duv&) = delete;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// All coverage events this unit monitors.
  [[nodiscard]] virtual const coverage::CoverageSpace& space() const noexcept = 0;

  /// The full parameter list with default settings. Test-templates
  /// override a subset of these; unknown parameter names in a template
  /// are ignored by the generator (they simply are never consulted).
  [[nodiscard]] virtual const tgen::TestTemplate& defaults() const noexcept = 0;

  /// Generates one test-instance from `tmpl` (falling back to the
  /// defaults for parameters the template does not set) and simulates
  /// it, returning the coverage vector.
  [[nodiscard]] virtual coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const = 0;

  /// Opaque per-template precomputation (resolved parameter tables,
  /// precompiled distributions, ...). The batch farm compiles each job's
  /// template once and passes the result to every simulate_batch() call
  /// of that job.
  class Compiled {
   public:
    virtual ~Compiled() = default;
    Compiled(const Compiled&) = delete;
    Compiled& operator=(const Compiled&) = delete;

   protected:
    Compiled() = default;
  };

  /// Precompiles `tmpl` for simulate_batch(). The default returns
  /// nullptr — "no precomputation" — which every simulate_batch()
  /// implementation must accept. The result is immutable and safe to
  /// share across threads; it borrows `tmpl`, which must outlive it.
  [[nodiscard]] virtual std::unique_ptr<Compiled> compile(
      const tgen::TestTemplate& tmpl) const {
    (void)tmpl;
    return nullptr;
  }

  /// Simulates seeds[i] into out[i] for the whole span (sizes must
  /// match; each out[i] is overwritten, whatever it held). `compiled`
  /// is either nullptr or this unit's compile() result for `tmpl`.
  /// Contract: out[i] must equal simulate(tmpl, seeds[i]) bit for bit,
  /// at any batch width. The default is exactly that scalar loop, so a
  /// wrapper around a real RTL simulator opts out of batching by simply
  /// not overriding this.
  virtual void simulate_batch(const tgen::TestTemplate& tmpl,
                              const Compiled* compiled,
                              std::span<const std::uint64_t> seeds,
                              std::span<coverage::CoverageVector> out) const {
    (void)compiled;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      out[i] = simulate(tmpl, seeds[i]);
    }
  }

  /// The unit's existing regression suite: the test-templates "developed
  /// by the verification team" (paper §IV-B) that the coarse-grained
  /// search mines for relevant parameters.
  [[nodiscard]] virtual std::vector<tgen::TestTemplate> suite() const = 0;

 protected:
  Duv() = default;
};

}  // namespace ascdg::duv
