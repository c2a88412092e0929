#include "duv/ifu.hpp"

#include <algorithm>
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

constexpr std::string_view kSuiteText = R"(
# Single-thread default run.
template ifu_default {
  weight ThreadSel { 0: 70, 1: 20, 2: 8, 3: 2 }
}

# Sequential fetch bandwidth (no branches).
template ifu_seq_fetch {
  weight BranchDir { not_taken: 98, taken: 2 }
  range FetchGap [6, 15]
  weight SectorSel { 0: 70, 1: 20, 2: 8, 3: 2 }
}

# Branch-heavy workload.
template ifu_branchy {
  weight BranchDir { not_taken: 45, taken: 55 }
  weight Redirect { off: 40, on: 60 }
}

# ICache thrash: many misses, slow drains.
template ifu_icache_thrash {
  weight ICache { hit: 60, miss: 40 }
  range MissLatency [10, 18]
  range FetchGap [2, 15]
}

# SMT fairness mix.
template ifu_smt_mix {
  weight ThreadSel { 0: 25, 1: 25, 2: 25, 3: 25 }
  range FetchGap [6, 12]
}

# Sector sweep diagnostics.
template ifu_sector_sweep {
  weight SectorSel { 0: 25, 1: 25, 2: 25, 3: 25 }
}

# Back-to-back fetch pressure: the template whose parameters matter for
# deep buffer occupancy.
template ifu_b2b_fetch {
  range FetchGap [2, 5]
  weight ICache { hit: 70, miss: 30 }
  weight BranchDir { not_taken: 90, taken: 10 }
}

# Long-latency corner.
template ifu_slow_drain {
  range MissLatency [22, 30]
  weight ICache { hit: 70, miss: 30 }
}
)";

}  // namespace

Ifu::Ifu() : defaults_("ifu_defaults") {
  cross_ = &space_.declare_cross_product(
      "ifu", {{"entry", kEntries},
              {"thread", kThreads},
              {"sector", kSectors},
              {"branch", 2}});
  ev_stall_ = space_.declare_event("ifu_credit_stall");
  ev_redirect_ = space_.declare_event("ifu_redirect_flush");
  ev_icache_miss_ = space_.declare_event("ifu_icache_miss");
  ev_thread_switch_ = space_.declare_event("ifu_thread_switch");

  using tgen::RangeParameter;
  using tgen::Value;
  using tgen::WeightParameter;
  defaults_.add(WeightParameter{"ThreadSel",
                                {{Value{std::int64_t{0}}, 70},
                                 {Value{std::int64_t{1}}, 20},
                                 {Value{std::int64_t{2}}, 8},
                                 {Value{std::int64_t{3}}, 2}}});
  defaults_.add(WeightParameter{"SectorSel",
                                {{Value{std::int64_t{0}}, 50},
                                 {Value{std::int64_t{1}}, 30},
                                 {Value{std::int64_t{2}}, 15},
                                 {Value{std::int64_t{3}}, 5}}});
  defaults_.add(WeightParameter{"BranchDir",
                                {{Value{"not_taken"}, 90}, {Value{"taken"}, 10}}});
  defaults_.add(RangeParameter{"FetchGap", 2, 15});
  defaults_.add(WeightParameter{"ICache",
                                {{Value{"hit"}, 85}, {Value{"miss"}, 15}}});
  defaults_.add(RangeParameter{"HitLatency", 1, 3});
  defaults_.add(RangeParameter{"MissLatency", 8, 30});
  defaults_.add(WeightParameter{"Redirect",
                                {{Value{"off"}, 90}, {Value{"on"}, 10}}});
  defaults_.add(RangeParameter{"NumFetches", 80, 240});
}

// Compiled per-template distribution tables. Entry codes turn per-draw
// symbol comparisons into integer compares: code 0 means the
// "interesting" symbol ("taken" / "miss" / "on"), anything else
// (including an unknown symbol) means the other branch.
struct Ifu::Tables final : Duv::Compiled {
  stimgen::CompiledTemplate table;
  const stimgen::CompiledParam* num_fetches;
  const stimgen::CompiledParam* fetch_gap;
  const stimgen::CompiledParam* thread_sel;
  const stimgen::CompiledParam* sector_sel;
  const stimgen::CompiledParam* branch_dir;
  const stimgen::CompiledParam* icache;
  const stimgen::CompiledParam* hit_latency;
  const stimgen::CompiledParam* miss_latency;
  const stimgen::CompiledParam* redirect;
  std::vector<std::int32_t> branch_taken;
  std::vector<std::int32_t> icache_miss;
  std::vector<std::int32_t> redirect_on;

  Tables(const tgen::TestTemplate* overrides, const tgen::TestTemplate& defaults)
      : table(overrides, defaults),
        num_fetches(table.find("NumFetches")),
        fetch_gap(table.find("FetchGap")),
        thread_sel(table.find("ThreadSel")),
        sector_sel(table.find("SectorSel")),
        branch_dir(table.find("BranchDir")),
        icache(table.find("ICache")),
        hit_latency(table.find("HitLatency")),
        miss_latency(table.find("MissLatency")),
        redirect(table.find("Redirect")) {
    constexpr std::string_view kTaken[] = {"taken"};
    constexpr std::string_view kMiss[] = {"miss"};
    constexpr std::string_view kOn[] = {"on"};
    branch_taken = stimgen::entry_codes(*branch_dir, kTaken, 1);
    icache_miss = stimgen::entry_codes(*icache, kMiss, 1);
    redirect_on = stimgen::entry_codes(*redirect, kOn, 1);
  }
};

void Ifu::run(const Tables& t, std::uint64_t seed,
              coverage::CoverageVector& out) const {
  util::Xoshiro256 rng(seed);
  out.reset(space_.size());
  const std::int64_t fetches = t.num_fetches->draw_range(rng);
  std::int64_t now = 0;
  std::int64_t last_thread = -1;
  std::int64_t live[kCreditCap] = {};  ///< icache response timestamps
  std::size_t live_n = 0;

  for (std::int64_t f = 0; f < fetches; ++f) {
    now += t.fetch_gap->draw_range(rng);

    // Drain entries whose icache response has arrived.
    live_n = static_cast<std::size_t>(
        std::remove_if(live, live + live_n,
                       [now](std::int64_t ready) { return ready <= now; }) -
        live);

    const std::int64_t thread = std::clamp<std::int64_t>(
        t.thread_sel->draw_int(rng), 0, kThreads - 1);
    if (last_thread >= 0 && thread != last_thread) out.hit(ev_thread_switch_);
    last_thread = thread;

    const std::int64_t sector = std::clamp<std::int64_t>(
        t.sector_sel->draw_int(rng), 0, kSectors - 1);
    const bool taken = stimgen::entry_code(*t.branch_dir, t.branch_taken,
                                           t.branch_dir->draw_index(rng)) == 0;

    // Credit limiter: live occupancy is capped at 7, so allocation
    // index 7 (the 8th entry) is structurally unreachable.
    if (live_n >= kCreditCap) {
      out.hit(ev_stall_);
      continue;
    }
    const std::size_t entry = live_n;

    const bool miss = stimgen::entry_code(*t.icache, t.icache_miss,
                                          t.icache->draw_index(rng)) == 0;
    if (miss) out.hit(ev_icache_miss_);
    const std::int64_t latency = miss ? t.miss_latency->draw_range(rng)
                                      : t.hit_latency->draw_range(rng);
    live[live_n++] = now + latency;

    const std::size_t coords[4] = {entry, static_cast<std::size_t>(thread),
                                   static_cast<std::size_t>(sector),
                                   taken ? std::size_t{1} : std::size_t{0}};
    out.hit(space_.cross_event(*cross_, coords));

    // A taken branch with redirect enabled flushes the fetch buffer.
    if (taken && stimgen::entry_code(*t.redirect, t.redirect_on,
                                     t.redirect->draw_index(rng)) == 0) {
      out.hit(ev_redirect_);
      live_n = 0;
    }
  }
}

std::unique_ptr<Ifu::Tables> Ifu::make_tables(
    const tgen::TestTemplate& tmpl) const {
  return std::make_unique<Tables>(&tmpl, defaults_);
}

coverage::CoverageVector Ifu::simulate(const tgen::TestTemplate& tmpl,
                                       std::uint64_t seed) const {
  coverage::CoverageVector vec;
  run(*make_tables(tmpl), seed, vec);
  return vec;
}

std::unique_ptr<duv::Duv::Compiled> Ifu::compile(
    const tgen::TestTemplate& tmpl) const {
  return make_tables(tmpl);
}

void Ifu::simulate_batch(const tgen::TestTemplate& tmpl,
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

std::vector<tgen::TestTemplate> Ifu::suite() const {
  return tgen::parse_templates(kSuiteText);
}

}  // namespace ascdg::duv
