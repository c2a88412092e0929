#include "duv/l3_cache.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stimgen/compiled.hpp"
#include "tgen/parser.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ascdg::duv {

namespace {

enum Req : std::size_t {
  kReqRead = 0,
  kReqWrite,
  kReqPrefetch,
  kReqCastout,
  kReqNcRead,
  kReqDma,
  kReqCount
};
constexpr const char* kReqNames[kReqCount] = {"read",    "write", "prefetch",
                                              "castout", "nc_read", "dma"};

constexpr std::string_view kSuiteText = R"(
# Nightly defaults.
template l3_default {
  weight ReqType { read: 52, write: 25, prefetch: 11, castout: 10, nc_read: 1, dma: 1 }
}

# Read-dominated workload, high locality.
template l3_read_hot {
  weight ReqType { read: 80, write: 10, prefetch: 10, castout: 0, nc_read: 0, dma: 0 }
  weight AddrLocality { line: 60, page: 30, random: 10 }
}

# Write/castout pressure on the write queue.
template l3_write_pressure {
  weight ReqType { read: 10, write: 55, prefetch: 0, castout: 35, nc_read: 0, dma: 0 }
  range InterArrival [0, 7]
}

# Prefetch trains.
template l3_prefetch_train {
  weight ReqType { read: 30, write: 10, prefetch: 55, castout: 5, nc_read: 0, dma: 0 }
  weight AddrLocality { line: 20, page: 70, random: 10 }
}

# Non-cacheable / DMA traffic smoke test: the template whose parameters
# matter for the bypass tracker family.
template l3_nc_smoke {
  weight ReqType { read: 40, write: 20, prefetch: 12, castout: 10, nc_read: 12, dma: 6 }
  range RespDelay [24, 96]
  range InterArrival [1, 31]
  range NumReqs [80, 240]
}

# Multi-thread fairness.
template l3_thread_mix {
  weight ThreadSel { 0: 25, 1: 25, 2: 25, 3: 25 }
  weight ReqType { read: 55, write: 25, prefetch: 10, castout: 10, nc_read: 0, dma: 0 }
}

# Random-address miss storm.
template l3_miss_storm {
  weight AddrLocality { line: 5, page: 15, random: 80 }
  weight BypassHint { off: 85, on: 15 }
}

# Slow memory corner.
template l3_slow_mem {
  range RespDelay [72, 96]
  weight ReqType { read: 60, write: 20, prefetch: 10, castout: 10, nc_read: 0, dma: 0 }
}

# Back-to-back arrival stress.
template l3_b2b {
  range InterArrival [1, 4]
  weight ReqType { read: 45, write: 30, prefetch: 15, castout: 10, nc_read: 0, dma: 0 }
}
)";

}  // namespace

L3Cache::L3Cache() : defaults_("l3_defaults") {
  // --- Coverage events -------------------------------------------------
  std::vector<std::string> byp_suffixes;
  for (std::size_t k = 1; k <= kTrackerDepth; ++k) {
    byp_suffixes.push_back(k < 10 ? "0" + std::to_string(k)
                                  : std::to_string(k));
  }
  byp_events_ = space_.declare_family("byp_reqs", byp_suffixes);

  std::vector<std::string> wrq_suffixes;
  for (std::size_t k = 1; k <= kWriteQueueDepth; ++k) {
    wrq_suffixes.push_back("0" + std::to_string(k));
  }
  wrq_events_ = space_.declare_family("l3_wrq", wrq_suffixes);

  for (std::size_t r = 0; r < kReqCount; ++r) {
    ev_req_[r] = space_.declare_event("l3_req_" + std::string(kReqNames[r]));
  }
  ev_hit_ = space_.declare_event("l3_dir_hit");
  ev_miss_ = space_.declare_event("l3_dir_miss");
  for (std::size_t t = 0; t < 4; ++t) {
    ev_thread_[t] = space_.declare_event("l3_thr" + std::to_string(t));
  }
  ev_nack_ = space_.declare_event("l3_byp_nack");
  ev_tracker_full_ = space_.declare_event("l3_byp_tracker_full");

  // --- Default parameter settings --------------------------------------
  using tgen::RangeParameter;
  using tgen::Value;
  using tgen::WeightParameter;
  defaults_.add(WeightParameter{"ReqType",
                                {{Value{"read"}, 52},
                                 {Value{"write"}, 25},
                                 {Value{"prefetch"}, 11},
                                 {Value{"castout"}, 8},
                                 {Value{"nc_read"}, 2},
                                 {Value{"dma"}, 2}}});
  defaults_.add(RangeParameter{"InterArrival", 1, 31});
  defaults_.add(RangeParameter{"RespDelay", 8, 96});
  defaults_.add(WeightParameter{"ThreadSel",
                                {{Value{std::int64_t{0}}, 40},
                                 {Value{std::int64_t{1}}, 30},
                                 {Value{std::int64_t{2}}, 20},
                                 {Value{std::int64_t{3}}, 10}}});
  defaults_.add(WeightParameter{
      "AddrLocality",
      {{Value{"line"}, 30}, {Value{"page"}, 40}, {Value{"random"}, 30}}});
  defaults_.add(WeightParameter{"BypassHint",
                                {{Value{"off"}, 95}, {Value{"on"}, 5}}});
  defaults_.add(RangeParameter{"NumReqs", 80, 240});
  defaults_.add(RangeParameter{"WriteBurst", 1, 6});
}

// Compiled per-template distribution tables. Entry codes map ReqType
// entries onto kReqNames indices (unmatched symbols fall back to
// "read"), AddrLocality onto {line=0, page=1, other=2}, and BypassHint
// onto {on=0, other=1}.
struct L3Cache::Tables final : Duv::Compiled {
  stimgen::CompiledTemplate table;
  const stimgen::CompiledParam* num_reqs;
  const stimgen::CompiledParam* inter_arrival;
  const stimgen::CompiledParam* req_type;
  const stimgen::CompiledParam* thread_sel;
  const stimgen::CompiledParam* addr_locality;
  const stimgen::CompiledParam* bypass_hint;
  const stimgen::CompiledParam* write_burst;
  const stimgen::CompiledParam* resp_delay;
  std::vector<std::int32_t> req_codes;
  std::vector<std::int32_t> loc_codes;
  std::vector<std::int32_t> hint_codes;

  Tables(const tgen::TestTemplate* overrides, const tgen::TestTemplate& defaults)
      : table(overrides, defaults),
        num_reqs(table.find("NumReqs")),
        inter_arrival(table.find("InterArrival")),
        req_type(table.find("ReqType")),
        thread_sel(table.find("ThreadSel")),
        addr_locality(table.find("AddrLocality")),
        bypass_hint(table.find("BypassHint")),
        write_burst(table.find("WriteBurst")),
        resp_delay(table.find("RespDelay")) {
    constexpr std::string_view kReqSymbols[kReqCount] = {
        "read", "write", "prefetch", "castout", "nc_read", "dma"};
    constexpr std::string_view kLocality[] = {"line", "page"};
    constexpr std::string_view kOn[] = {"on"};
    req_codes = stimgen::entry_codes(*req_type, kReqSymbols,
                                     static_cast<std::int32_t>(kReqRead));
    loc_codes = stimgen::entry_codes(*addr_locality, kLocality, 2);
    hint_codes = stimgen::entry_codes(*bypass_hint, kOn, 1);
  }
};

void L3Cache::run(const Tables& t, std::uint64_t seed,
                  coverage::CoverageVector& out) const {
  util::Xoshiro256 rng(seed);
  out.reset(space_.size());
  const std::int64_t reqs = t.num_reqs->draw_range(rng);
  std::int64_t now = 0;
  std::size_t write_queue = 0;
  std::size_t max_wrq = 0;
  std::size_t max_concurrency = 0;
  std::int64_t tracker[kTrackerDepth] = {};  ///< bypass completion times
  std::size_t trk_n = 0;

  for (std::int64_t r = 0; r < reqs; ++r) {
    now += t.inter_arrival->draw_range(rng);

    // Retire completed bypass responses.
    trk_n = static_cast<std::size_t>(
        std::remove_if(tracker, tracker + trk_n,
                       [now](std::int64_t done) { return done <= now; }) -
        tracker);
    // Write queue drains one entry per slot.
    if (write_queue > 0) --write_queue;

    const auto req_index = static_cast<std::size_t>(stimgen::entry_code(
        *t.req_type, t.req_codes, t.req_type->draw_index(rng)));
    out.hit(ev_req_[req_index]);

    const std::int64_t thread = t.thread_sel->draw_int(rng);
    out.hit(ev_thread_[static_cast<std::size_t>(
        std::clamp<std::int64_t>(thread, 0, 3))]);

    // Directory lookup: locality controls the hit probability.
    const std::int32_t loc = stimgen::entry_code(
        *t.addr_locality, t.loc_codes, t.addr_locality->draw_index(rng));
    const double hit_p = loc == 0 ? 0.85 : loc == 1 ? 0.55 : 0.15;
    const bool dir_hit = rng.bernoulli(hit_p);
    out.hit(dir_hit ? ev_hit_ : ev_miss_);

    // Write queue occupancy family (secondary, easier family).
    if (req_index == kReqWrite || req_index == kReqCastout) {
      const auto burst =
          static_cast<std::size_t>(t.write_burst->draw_range(rng));
      write_queue = std::min(write_queue + burst, kWriteQueueDepth);
      max_wrq = std::max(max_wrq, write_queue);
    }

    // Bypass eligibility: nc_read and dma always; hinted read misses
    // too. BypassHint is only drawn on a read miss.
    const bool wants_bypass =
        req_index == kReqNcRead || req_index == kReqDma ||
        (req_index == kReqRead && !dir_hit &&
         stimgen::entry_code(*t.bypass_hint, t.hint_codes,
                             t.bypass_hint->draw_index(rng)) == 0);
    if (!wants_bypass) continue;
    if (trk_n >= kTrackerDepth) {
      out.hit(ev_tracker_full_);
      continue;
    }
    // Occupancy backpressure: above kNackThreshold in-flight entries,
    // the accept probability falls off quadratically, reaching 1% just
    // below full occupancy -- the family's "descent gradient".
    if (trk_n >= kNackThreshold) {
      const double headroom =
          static_cast<double>(kTrackerDepth - trk_n) /
          static_cast<double>(kTrackerDepth - kNackThreshold + 1);
      if (!rng.bernoulli(headroom * headroom)) {
        out.hit(ev_nack_);
        continue;
      }
    }
    tracker[trk_n++] = now + t.resp_delay->draw_range(rng);
    max_concurrency = std::max(max_concurrency, trk_n);
  }

  for (std::size_t k = 0; k < byp_events_.size(); ++k) {
    if (max_concurrency >= k + 1) out.hit(byp_events_[k]);
  }
  for (std::size_t k = 0; k < wrq_events_.size(); ++k) {
    if (max_wrq >= k + 1) out.hit(wrq_events_[k]);
  }
}

std::unique_ptr<L3Cache::Tables> L3Cache::make_tables(
    const tgen::TestTemplate& tmpl) const {
  return std::make_unique<Tables>(&tmpl, defaults_);
}

coverage::CoverageVector L3Cache::simulate(const tgen::TestTemplate& tmpl,
                                           std::uint64_t seed) const {
  coverage::CoverageVector vec;
  run(*make_tables(tmpl), seed, vec);
  return vec;
}

std::unique_ptr<duv::Duv::Compiled> L3Cache::compile(
    const tgen::TestTemplate& tmpl) const {
  return make_tables(tmpl);
}

void L3Cache::simulate_batch(const tgen::TestTemplate& tmpl,
                             const Compiled* compiled,
                             std::span<const std::uint64_t> seeds,
                             std::span<coverage::CoverageVector> out) const {
  ASCDG_ASSERT(seeds.size() == out.size(), "batch seed/out size mismatch");
  const std::unique_ptr<Tables> owned =
      compiled == nullptr ? make_tables(tmpl) : nullptr;
  const Tables* tables =
      owned ? owned.get() : dynamic_cast<const Tables*>(compiled);
  ASCDG_ASSERT(tables != nullptr, "compiled tables do not belong to this unit");
  for (std::size_t i = 0; i < seeds.size(); ++i) run(*tables, seeds[i], out[i]);
}

std::vector<tgen::TestTemplate> L3Cache::suite() const {
  return tgen::parse_templates(kSuiteText);
}

}  // namespace ascdg::duv
