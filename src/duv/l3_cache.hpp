// Behavioural model of an L3 cache slice with a bypass pipeline — the
// paper's Fig. 4 / Fig. 6 subject.
//
// Requests arrive separated by InterArrival cycles. Bypassable requests
// (non-cacheable reads, DMA, and hinted read misses) allocate an entry
// in a 16-deep bypass tracker until their response returns RespDelay
// cycles later. The family events byp_reqs01 .. byp_reqs16 fire when the
// maximum number of simultaneously in-flight bypass requests reaches
// 1 .. 16 within one simulation.
//
// Two mechanisms give the family its long hard tail:
//   * Little's law — sustained concurrency needs a high bypass arrival
//     rate AND long response delays AND short inter-arrival gaps, three
//     different template parameters;
//   * occupancy backpressure — above kNackThreshold in-flight entries,
//     new bypass requests are NACKed (retried on the normal path) with
//     probability rising quadratically toward 1 at full occupancy, so
//     each extra level of concurrency is multiplicatively harder (the
//     "descent gradient from easily hit events to hard-to-hit events",
//     §V).
#pragma once

#include <cstdint>

#include "duv/duv.hpp"

namespace ascdg::duv {

class L3Cache final : public Duv {
 public:
  L3Cache();

  [[nodiscard]] std::string_view name() const noexcept override {
    return "l3_cache";
  }
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

  /// The byp_reqs01..16 family (ordered easy -> hard).
  [[nodiscard]] const std::vector<coverage::EventId>& byp_family() const noexcept {
    return byp_events_;
  }

  static constexpr std::size_t kTrackerDepth = 16;
  static constexpr std::size_t kNackThreshold = 3;  ///< backpressure onset
  static constexpr std::size_t kWriteQueueDepth = 8;

 private:
  /// Compiled distribution tables + precomputed entry codes (l3_cache.cpp).
  struct Tables;
  [[nodiscard]] std::unique_ptr<Tables> make_tables(
      const tgen::TestTemplate& tmpl) const;
  /// The one simulation kernel: simulates `seed` into `out` (reset
  /// first). simulate() calls it once; simulate_batch() once per seed.
  void run(const Tables& tables, std::uint64_t seed,
           coverage::CoverageVector& out) const;

  coverage::CoverageSpace space_;
  tgen::TestTemplate defaults_;
  std::vector<coverage::EventId> byp_events_;
  std::vector<coverage::EventId> wrq_events_;
  coverage::EventId ev_req_[6]{};
  coverage::EventId ev_hit_{}, ev_miss_{};
  coverage::EventId ev_thread_[4]{};
  coverage::EventId ev_nack_{};
  coverage::EventId ev_tracker_full_{};
};

}  // namespace ascdg::duv
