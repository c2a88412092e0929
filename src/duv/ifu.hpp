// Behavioural model of an Instruction Fetch Unit with a 256-event
// cross-product coverage model — the paper's Fig. 5 subject.
//
// The cross product is entry(0-7) x thread(0-3) x sector(0-3) x
// branch(0-1): an event fires when a fetch from a given thread is
// allocated into a given fetch-buffer entry, targeting a given icache
// sector, with a given branch-prediction flag.
//
// The fetch buffer has 8 architected entries, but a credit limiter caps
// live occupancy at kCreditCap = 7 — so entry 7 can never be allocated
// and all 32 entry7 events are structurally unhittable. This reproduces
// the paper's honest negative result ("32 events (all entry7 events)
// remained uncovered at the end of the flow, and are considered out of
// the unit capabilities to hit").
//
// Deep entries require many fetches in flight at once: a small fetch
// gap, frequent icache misses (slow drains), and no taken-branch
// redirects (which flush the buffer). The default settings are skewed
// toward thread 0 / sector 0 / not-taken, so the deep corners of the
// cross product start uncovered.
#pragma once

#include <cstdint>

#include "duv/duv.hpp"

namespace ascdg::duv {

class Ifu final : public Duv {
 public:
  Ifu();

  [[nodiscard]] std::string_view name() const noexcept override { return "ifu"; }
  [[nodiscard]] const coverage::CoverageSpace& space() const noexcept override {
    return space_;
  }
  [[nodiscard]] const tgen::TestTemplate& defaults() const noexcept override {
    return defaults_;
  }
  [[nodiscard]] coverage::CoverageVector simulate(
      const tgen::TestTemplate& tmpl, std::uint64_t seed) const override;
  [[nodiscard]] std::unique_ptr<Compiled> compile(
      const tgen::TestTemplate& tmpl) const override;
  void simulate_batch(const tgen::TestTemplate& tmpl, const Compiled* compiled,
                      std::span<const std::uint64_t> seeds,
                      std::span<coverage::CoverageVector> out) const override;
  [[nodiscard]] std::vector<tgen::TestTemplate> suite() const override;

  /// The 256-event cross product block.
  [[nodiscard]] const coverage::CrossProduct& cross_product() const noexcept {
    return *cross_;
  }

  static constexpr std::size_t kEntries = 8;    ///< architected buffer entries
  static constexpr std::size_t kCreditCap = 7;  ///< live-occupancy credit limit
  static constexpr std::size_t kThreads = 4;
  static constexpr std::size_t kSectors = 4;

 private:
  /// Compiled distribution tables + precomputed entry codes (ifu.cpp).
  struct Tables;
  [[nodiscard]] std::unique_ptr<Tables> make_tables(
      const tgen::TestTemplate& tmpl) const;
  /// The one simulation kernel: simulates `seed` into `out` (reset
  /// first). simulate() calls it once; simulate_batch() once per seed.
  void run(const Tables& tables, std::uint64_t seed,
           coverage::CoverageVector& out) const;

  coverage::CoverageSpace space_;
  tgen::TestTemplate defaults_;
  const coverage::CrossProduct* cross_ = nullptr;
  coverage::EventId ev_stall_{};
  coverage::EventId ev_redirect_{};
  coverage::EventId ev_icache_miss_{};
  coverage::EventId ev_thread_switch_{};
};

}  // namespace ascdg::duv
