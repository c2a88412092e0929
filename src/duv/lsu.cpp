#include "duv/lsu.hpp"

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

enum Mnemonic : std::size_t { kLoad = 0, kStore, kAdd, kSync, kMnemonicCount };
constexpr const char* kMnemonicNames[kMnemonicCount] = {"load", "store", "add",
                                                        "sync"};

constexpr std::string_view kSuiteText = R"(
# The paper's Fig. 1(a) template, verbatim.
template lsu_stress {
  weight Mnemonic { load: 40, store: 40, add: 0, sync: 20 }
  range CacheDelay [0, 1000]
}

# Nightly defaults.
template lsu_default {
  weight Mnemonic { load: 35, store: 25, add: 30, sync: 10 }
}

# Load bandwidth.
template lsu_load_stream {
  weight Mnemonic { load: 70, store: 10, add: 15, sync: 5 }
  weight AddrPattern { same_line: 10, stride: 60, random: 30 }
}

# Store bursts with frequent fences.
template lsu_store_fence {
  weight Mnemonic { load: 10, store: 55, add: 10, sync: 25 }
}

# Same-line contention smoke test: the template whose parameters matter
# for the forwarding-queue family.
template lsu_same_line {
  weight Mnemonic { load: 30, store: 45, add: 15, sync: 10 }
  weight AddrPattern { same_line: 55, stride: 30, random: 15 }
  range CacheDelay [0, 1000]
}

# Random-address ALU mix.
template lsu_alu_mix {
  weight Mnemonic { load: 20, store: 15, add: 60, sync: 5 }
  weight AddrPattern { same_line: 5, stride: 25, random: 70 }
}

# Slow-memory corner.
template lsu_slow_cache {
  range CacheDelay [600, 1000]
  weight Mnemonic { load: 40, store: 20, add: 30, sync: 10 }
}

# Strided engine (DMA-like).
template lsu_stride_engine {
  weight AddrPattern { same_line: 0, stride: 90, random: 10 }
  range StrideSize [1, 8]
}
)";

}  // namespace

Lsu::Lsu() : defaults_("lsu_defaults") {
  std::vector<std::string> suffixes;
  for (std::size_t k = 1; k <= kStoreQueueDepth; ++k) {
    suffixes.push_back(k < 10 ? "0" + std::to_string(k) : std::to_string(k));
  }
  fwdq_events_ = space_.declare_family("lsu_fwdq", suffixes);

  for (std::size_t m = 0; m < kMnemonicCount; ++m) {
    ev_mnemonic_[m] =
        space_.declare_event("lsu_op_" + std::string(kMnemonicNames[m]));
  }
  ev_fwd_hit_ = space_.declare_event("lsu_fwd_hit");
  ev_ld_hit_ = space_.declare_event("lsu_ld_hit");
  ev_ld_miss_ = space_.declare_event("lsu_ld_miss");
  ev_stq_full_ = space_.declare_event("lsu_stq_full");
  ev_sync_drain_ = space_.declare_event("lsu_sync_drain");
  ev_bank_conflict_ = space_.declare_event("lsu_bank_conflict");

  using tgen::RangeParameter;
  using tgen::Value;
  using tgen::WeightParameter;
  defaults_.add(WeightParameter{"Mnemonic",
                                {{Value{"load"}, 35},
                                 {Value{"store"}, 25},
                                 {Value{"add"}, 30},
                                 {Value{"sync"}, 10}}});
  defaults_.add(RangeParameter{"CacheDelay", 0, 1000});
  defaults_.add(WeightParameter{"AddrPattern",
                                {{Value{"same_line"}, 15},
                                 {Value{"stride"}, 45},
                                 {Value{"random"}, 40}}});
  defaults_.add(RangeParameter{"StrideSize", 1, 8});
  defaults_.add(RangeParameter{"NumInstr", 100, 300});
}

// Compiled per-template distribution tables. Mnemonic codes index
// straight into ev_mnemonic_ (unmatched symbols decay to load);
// address-pattern codes are 0 same_line / 1 stride / 2 random-or-unknown.
struct Lsu::Tables final : Duv::Compiled {
  stimgen::CompiledTemplate table;
  const stimgen::CompiledParam* num_instr;
  const stimgen::CompiledParam* mnemonic;
  const stimgen::CompiledParam* addr_pattern;
  const stimgen::CompiledParam* stride_size;
  const stimgen::CompiledParam* cache_delay;
  std::vector<std::int32_t> mnemonic_codes;
  std::vector<std::int32_t> pattern_codes;

  Tables(const tgen::TestTemplate* overrides, const tgen::TestTemplate& defaults)
      : table(overrides, defaults),
        num_instr(table.find("NumInstr")),
        mnemonic(table.find("Mnemonic")),
        addr_pattern(table.find("AddrPattern")),
        stride_size(table.find("StrideSize")),
        cache_delay(table.find("CacheDelay")) {
    constexpr std::string_view kMnemonics[] = {"load", "store", "add", "sync"};
    constexpr std::string_view kPatterns[] = {"same_line", "stride"};
    mnemonic_codes =
        stimgen::entry_codes(*mnemonic, kMnemonics, static_cast<std::int32_t>(kLoad));
    pattern_codes = stimgen::entry_codes(*addr_pattern, kPatterns, 2);
  }
};

void Lsu::run(const Tables& t, std::uint64_t seed,
              coverage::CoverageVector& out) const {
  util::Xoshiro256 rng(seed);
  out.reset(space_.size());
  const std::int64_t instrs = t.num_instr->draw_range(rng);
  std::int64_t now = 0;
  std::int64_t stride_cursor = 0;
  std::int64_t last_line = -1;
  std::size_t max_fwd = 0;
  struct Store {
    std::int64_t line;
    std::int64_t retire;  ///< cycle at which the store leaves the queue
  };
  Store sq[kStoreQueueDepth] = {};  ///< outstanding stores, oldest first
  std::size_t sq_n = 0;

  // Draws AddrPattern, then StrideSize or a raw uniform line depending
  // on the pattern code.
  const auto draw_line = [&]() -> std::int64_t {
    const std::int32_t pattern = stimgen::entry_code(
        *t.addr_pattern, t.pattern_codes, t.addr_pattern->draw_index(rng));
    if (pattern == 0) return 0;
    if (pattern == 1) {
      stride_cursor =
          (stride_cursor + t.stride_size->draw_range(rng)) % kLineCount;
      return stride_cursor;
    }
    return rng.uniform_i64(0, kLineCount - 1);
  };
  // Two accesses to different lines of the same bank conflict.
  const auto access = [&](std::int64_t line) {
    if (last_line >= 0 && line != last_line && line % 4 == last_line % 4) {
      out.hit(ev_bank_conflict_);
    }
    last_line = line;
  };
  // Retires stores whose timestamp has passed, keeping age order.
  const auto drain = [&] {
    sq_n = static_cast<std::size_t>(
        std::remove_if(sq, sq + sq_n,
                       [now](const Store& s) { return s.retire <= now; }) -
        sq);
  };

  for (std::int64_t i = 0; i < instrs; ++i) {
    now += 4;  // issue bandwidth: one memory op per 4 cycles
    drain();

    const auto m = static_cast<std::size_t>(stimgen::entry_code(
        *t.mnemonic, t.mnemonic_codes, t.mnemonic->draw_index(rng)));
    out.hit(ev_mnemonic_[m]);

    switch (m) {
      case kLoad: {
        const std::int64_t line = draw_line();
        access(line);
        // An outstanding store to the same line forwards its data.
        const bool forwarded = std::any_of(
            sq, sq + sq_n, [line](const Store& s) { return s.line == line; });
        if (forwarded) {
          out.hit(ev_fwd_hit_);
          max_fwd = std::max(max_fwd, sq_n);
        } else {
          // Cache lookup: same-line data is warm; others miss more.
          const double hit_p = line == 0 ? 0.9 : 0.55;
          out.hit(rng.bernoulli(hit_p) ? ev_ld_hit_ : ev_ld_miss_);
        }
        break;
      }
      case kStore: {
        const std::int64_t line = draw_line();
        access(line);
        if (sq_n >= kStoreQueueDepth) {
          // Full queue: the store stalls until the oldest entry drains.
          out.hit(ev_stq_full_);
          now = sq[0].retire;
          drain();
        }
        // Retirement latency scales with the cache delay parameter.
        const std::int64_t delay = t.cache_delay->draw_range(rng);
        sq[sq_n++] = Store{line, now + 4 + delay / 16};
        break;
      }
      case kSync:
        if (sq_n > 0) {
          out.hit(ev_sync_drain_);
          for (std::size_t e = 0; e < sq_n; ++e) {
            now = std::max(now, sq[e].retire);
          }
          sq_n = 0;
        }
        break;
      case kAdd:
      default:
        break;  // filler
    }
  }

  for (std::size_t k = 0; k < fwdq_events_.size(); ++k) {
    if (max_fwd >= k + 1) out.hit(fwdq_events_[k]);
  }
}

std::unique_ptr<Lsu::Tables> Lsu::make_tables(
    const tgen::TestTemplate& tmpl) const {
  return std::make_unique<Tables>(&tmpl, defaults_);
}

coverage::CoverageVector Lsu::simulate(const tgen::TestTemplate& tmpl,
                                       std::uint64_t seed) const {
  coverage::CoverageVector vec;
  run(*make_tables(tmpl), seed, vec);
  return vec;
}

std::unique_ptr<duv::Duv::Compiled> Lsu::compile(
    const tgen::TestTemplate& tmpl) const {
  return make_tables(tmpl);
}

void Lsu::simulate_batch(const tgen::TestTemplate& tmpl,
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

std::vector<tgen::TestTemplate> Lsu::suite() const {
  return tgen::parse_templates(kSuiteText);
}

}  // namespace ascdg::duv
