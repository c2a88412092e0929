#include "duv/io_unit.hpp"

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

// Command indices into ev_cmd_ (must match kCmdNames order).
enum Cmd : std::size_t {
  kRead = 0,
  kWrite,
  kCrcWrite,
  kCrcDone,
  kCtrl,
  kNop,
  kAbort,
  kCmdCount
};
constexpr const char* kCmdNames[kCmdCount] = {"read", "write",    "crc_write",
                                              "crc_done", "ctrl", "nop",
                                              "abort"};

// The unit's existing regression suite (paper §IV-B): templates written
// by the verification team over the project's lifetime. Only a couple
// of them exercise the CRC path at all, which is why the crc_* family
// tail is uncovered before CDG. Kept as DSL text so the suite also
// exercises the parser on realistic input.
constexpr std::string_view kSuiteText = R"(
# Plain defaults: what a nightly sanity run uses.
template io_default {
  weight Cmd { read: 35, write: 30, crc_write: 8, crc_done: 2, ctrl: 10, nop: 10, abort: 5 }
}

# Read bandwidth stress.
template io_read_stress {
  weight Cmd { read: 70, write: 15, crc_write: 0, crc_done: 0, ctrl: 5, nop: 10, abort: 0 }
  range PacketSize [64, 256]
  weight AddrMode { seq: 70, rand: 25, wrap: 5 }
}

# Write bandwidth stress.
template io_write_stress {
  weight Cmd { read: 10, write: 75, crc_write: 0, crc_done: 0, ctrl: 10, nop: 5, abort: 0 }
  range PacketSize [64, 256]
}

# Error recovery paths.
template io_error_storm {
  weight ErrInject { off: 70, crc_err: 15, parity_err: 15 }
  weight Cmd { read: 30, write: 28, crc_write: 8, crc_done: 2, ctrl: 12, nop: 5, abort: 15 }
}

# CRC datapath smoke test: the only template that meaningfully enables
# the crc_write/crc_done pair. This is the one the coarse-grained
# search should find.
template io_crc_smoke {
  weight Cmd { read: 15, write: 10, crc_write: 35, crc_done: 10, ctrl: 5, nop: 20, abort: 5 }
  range BurstLen [2, 8]
  weight ErrInject { off: 98, crc_err: 1, parity_err: 1 }
}

# CRC with lazy pacing - long gaps kill most transfers.
template io_crc_long_gap {
  weight Cmd { read: 20, write: 15, crc_write: 28, crc_done: 7, ctrl: 10, nop: 15, abort: 5 }
  range GapDelay [8, 63]
}

# Control/abort corner cases.
template io_ctrl_heavy {
  weight Cmd { read: 15, write: 15, crc_write: 4, crc_done: 1, ctrl: 35, nop: 10, abort: 20 }
}

# QoS arbitration sweep.
template io_qos_sweep {
  weight Qos { 0: 25, 1: 25, 2: 25, 3: 25 }
  weight Cmd { read: 40, write: 40, crc_write: 0, crc_done: 0, ctrl: 10, nop: 10, abort: 0 }
}

# Address wrap corner.
template io_addr_wrap {
  weight AddrMode { seq: 10, rand: 10, wrap: 80 }
}

# Mixed mild stress.
template io_mixed {
  weight Cmd { read: 28, write: 22, crc_write: 12, crc_done: 3, ctrl: 10, nop: 20, abort: 5 }
  range GapDelay [0, 47]
  weight Qos { 0: 30, 1: 30, 2: 25, 3: 15 }
}
)";

}  // namespace

IoUnit::IoUnit() : defaults_("io_unit_defaults") {
  // --- Coverage events -------------------------------------------------
  const std::array<std::string, 6> crc_suffixes = {"004", "008", "016",
                                                   "032", "064", "096"};
  crc_events_ = space_.declare_family("crc", crc_suffixes);

  for (std::size_t c = 0; c < kCmdCount; ++c) {
    ev_cmd_[c] = space_.declare_event("io_cmd_" + std::string(kCmdNames[c]));
  }
  ev_err_crc_ = space_.declare_event("io_err_crc");
  ev_err_parity_ = space_.declare_event("io_err_parity");
  ev_credit_stall_ = space_.declare_event("io_credit_stall");
  ev_burst_partial_ = space_.declare_event("io_burst_partial");
  ev_link_retrain_ = space_.declare_event("io_link_retrain");
  ev_crc_commit_ = space_.declare_event("io_crc_commit");
  const char* addr_names[3] = {"io_addr_seq", "io_addr_rand", "io_addr_wrap"};
  for (std::size_t i = 0; i < 3; ++i) {
    ev_addr_[i] = space_.declare_event(addr_names[i]);
  }
  for (std::size_t q = 0; q < 4; ++q) {
    ev_qos_[q] = space_.declare_event("io_qos" + std::to_string(q));
  }
  const char* pkt_names[3] = {"io_pkt_small", "io_pkt_med", "io_pkt_large"};
  for (std::size_t i = 0; i < 3; ++i) {
    ev_pkt_[i] = space_.declare_event(pkt_names[i]);
  }

  // --- Default parameter settings --------------------------------------
  using tgen::RangeParameter;
  using tgen::Value;
  using tgen::WeightParameter;
  defaults_.add(WeightParameter{"Cmd",
                                {{Value{"read"}, 35},
                                 {Value{"write"}, 30},
                                 {Value{"crc_write"}, 8},
                                 {Value{"crc_done"}, 2},
                                 {Value{"ctrl"}, 10},
                                 {Value{"nop"}, 10},
                                 {Value{"abort"}, 5}}});
  defaults_.add(RangeParameter{"BurstLen", 1, 8});
  defaults_.add(RangeParameter{"GapDelay", 0, 63});
  defaults_.add(WeightParameter{"ErrInject",
                                {{Value{"off"}, 96},
                                 {Value{"crc_err"}, 2},
                                 {Value{"parity_err"}, 2}}});
  defaults_.add(RangeParameter{"CreditLimit", 4, 8});
  defaults_.add(RangeParameter{"NumOps", 60, 160});
  defaults_.add(WeightParameter{
      "AddrMode",
      {{Value{"seq"}, 50}, {Value{"rand"}, 40}, {Value{"wrap"}, 10}}});
  defaults_.add(WeightParameter{"Qos",
                                {{Value{std::int64_t{0}}, 40},
                                 {Value{std::int64_t{1}}, 30},
                                 {Value{std::int64_t{2}}, 20},
                                 {Value{std::int64_t{3}}, 10}}});
  defaults_.add(RangeParameter{"PacketSize", 1, 256});
}

// Compiled per-template distribution tables. Cmd codes index straight
// into ev_cmd_ (unmatched symbols decay to read);
// ErrInject codes are 0 off / 1 crc_err / 2 any-other-symbol; AddrMode
// codes are 0 seq / 1 rand / 2 wrap-or-unknown.
struct IoUnit::Tables final : Duv::Compiled {
  stimgen::CompiledTemplate table;
  const stimgen::CompiledParam* num_ops;
  const stimgen::CompiledParam* credit_limit;
  const stimgen::CompiledParam* gap_delay;
  const stimgen::CompiledParam* err_inject;
  const stimgen::CompiledParam* addr_mode;
  const stimgen::CompiledParam* qos;
  const stimgen::CompiledParam* packet_size;
  const stimgen::CompiledParam* cmd;
  const stimgen::CompiledParam* burst_len;
  std::vector<std::int32_t> err_codes;
  std::vector<std::int32_t> addr_codes;
  std::vector<std::int32_t> cmd_codes;

  Tables(const tgen::TestTemplate* overrides, const tgen::TestTemplate& defaults)
      : table(overrides, defaults),
        num_ops(table.find("NumOps")),
        credit_limit(table.find("CreditLimit")),
        gap_delay(table.find("GapDelay")),
        err_inject(table.find("ErrInject")),
        addr_mode(table.find("AddrMode")),
        qos(table.find("Qos")),
        packet_size(table.find("PacketSize")),
        cmd(table.find("Cmd")),
        burst_len(table.find("BurstLen")) {
    constexpr std::string_view kErrSyms[] = {"off", "crc_err"};
    constexpr std::string_view kAddrSyms[] = {"seq", "rand"};
    constexpr std::string_view kCmdSyms[] = {"read",     "write", "crc_write",
                                             "crc_done", "ctrl",  "nop",
                                             "abort"};
    err_codes = stimgen::entry_codes(*err_inject, kErrSyms, 2);
    addr_codes = stimgen::entry_codes(*addr_mode, kAddrSyms, 2);
    cmd_codes =
        stimgen::entry_codes(*cmd, kCmdSyms, static_cast<std::int32_t>(kRead));
  }
};

void IoUnit::run(const Tables& t, std::uint64_t seed,
                 coverage::CoverageVector& out) const {
  util::Xoshiro256 rng(seed);
  out.reset(space_.size());
  const std::int64_t ops = t.num_ops->draw_range(rng);
  const std::int64_t credit_limit =
      std::min<std::int64_t>(t.credit_limit->draw_range(rng), kCreditCap);
  std::int64_t credits = credit_limit;
  std::int64_t crc_acc = 0;      ///< beats in the open transfer
  std::int64_t best_commit = 0;  ///< longest *committed* transfer

  // A transfer only counts toward the crc_* family when it is closed by
  // a crc_done command. Anything else that ends it (errors, resetting
  // commands, gap timeout, link retrain) aborts it uncommitted.
  for (std::int64_t op = 0; op < ops; ++op) {
    // Inter-command gap: refills credits; too long a gap times the
    // in-progress CRC transfer out.
    const std::int64_t gap = t.gap_delay->draw_range(rng);
    if (crc_acc > 0 && gap > kGapTimeout) crc_acc = 0;
    credits = std::min(credit_limit, credits + 1 + gap / 8);

    // Error injection pre-empts the command.
    const std::int32_t err = stimgen::entry_code(
        *t.err_inject, t.err_codes, t.err_inject->draw_index(rng));
    if (err != 0) {
      out.hit(err == 1 ? ev_err_crc_ : ev_err_parity_);
      crc_acc = 0;
      continue;
    }

    // Per-command side activity (always-hit shallow events).
    const std::int32_t addr = stimgen::entry_code(
        *t.addr_mode, t.addr_codes, t.addr_mode->draw_index(rng));
    out.hit(ev_addr_[static_cast<std::size_t>(addr)]);
    const std::int64_t qos = t.qos->draw_int(rng);
    out.hit(
        ev_qos_[static_cast<std::size_t>(std::clamp<std::int64_t>(qos, 0, 3))]);
    const std::int64_t pkt = t.packet_size->draw_range(rng);
    out.hit(ev_pkt_[pkt <= 32 ? 0 : pkt <= 128 ? 1 : 2]);

    const auto cmd_index = static_cast<std::size_t>(
        stimgen::entry_code(*t.cmd, t.cmd_codes, t.cmd->draw_index(rng)));
    out.hit(ev_cmd_[cmd_index]);

    switch (cmd_index) {
      case kCrcWrite: {
        const std::int64_t burst = t.burst_len->draw_range(rng);
        if (credits <= 0) {
          // No credits at all: the transfer stalls long enough to die.
          out.hit(ev_credit_stall_);
          crc_acc = 0;
          break;
        }
        const std::int64_t consumed = std::min(burst, credits);
        credits -= consumed;
        if (consumed < burst) out.hit(ev_burst_partial_);
        // Link hazard: each beat independently risks a retrain that
        // kills the transfer. This is environment noise no template
        // parameter can disable, and it is what gives the crc_* family
        // its gradient even under an optimal template.
        for (std::int64_t beat = 0; beat < consumed; ++beat) {
          ++crc_acc;
          if (rng.bernoulli(kBeatHazard)) {
            out.hit(ev_link_retrain_);
            crc_acc = 0;
            break;
          }
        }
        break;
      }
      case kCrcDone:
        if (crc_acc > 0) {
          best_commit = std::max(best_commit, crc_acc);
          out.hit(ev_crc_commit_);
          crc_acc = 0;
        }
        break;
      case kRead:
      case kNop:
        // Neutral: does not disturb an in-progress CRC transfer.
        break;
      case kWrite:
      case kCtrl:
      case kAbort:
        crc_acc = 0;
        break;
      default:
        break;
    }
  }

  for (std::size_t i = 0; i < crc_events_.size(); ++i) {
    if (best_commit >= kCrcThresholds[i]) out.hit(crc_events_[i]);
  }
}

std::unique_ptr<IoUnit::Tables> IoUnit::make_tables(
    const tgen::TestTemplate& tmpl) const {
  return std::make_unique<Tables>(&tmpl, defaults_);
}

coverage::CoverageVector IoUnit::simulate(const tgen::TestTemplate& tmpl,
                                          std::uint64_t seed) const {
  coverage::CoverageVector vec;
  run(*make_tables(tmpl), seed, vec);
  return vec;
}

std::unique_ptr<duv::Duv::Compiled> IoUnit::compile(
    const tgen::TestTemplate& tmpl) const {
  return make_tables(tmpl);
}

void IoUnit::simulate_batch(const tgen::TestTemplate& tmpl,
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

std::vector<tgen::TestTemplate> IoUnit::suite() const {
  return tgen::parse_templates(kSuiteText);
}

}  // namespace ascdg::duv
