// Compiled template→distribution tables for the batch hot path.
//
// ParameterSampler resolves every draw by name: a hash lookup over the
// override template, a fallback lookup over the defaults, and a fresh
// std::vector<double> of weights per weighted draw. That is fine for a
// handful of draws but dominates the profile once the farm simulates
// tens of thousands of instances of the *same* template — the
// resolution result never changes within a job.
//
// CompiledTemplate performs that resolution once per (overrides,
// defaults) pair and exposes allocation-free draw routines that are
// bit-identical to the ParameterSampler path: the same RNG consumption
// (one uniform() per weighted pick, Lemire rejection per range pick,
// nothing consumed on a zero-total weight), the same floating-point
// summation order for total weights, and the same error behaviour
// (util::ValidationError with identical messages, thrown at draw time,
// not compile time). Unit kernels hold CompiledParam pointers resolved
// at compile time and draw through them for every seed.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "tgen/test_template.hpp"
#include "util/rng.hpp"

namespace ascdg::stimgen {

/// One resolved, draw-ready distribution. Referenced templates must
/// outlive the compiled form (it borrows names, values and entries).
class CompiledParam {
 public:
  enum class Kind : std::uint8_t { kWeight, kRange, kSubrange };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::string_view name() const noexcept { return name_; }

  /// Source weight parameter (kWeight only, else nullptr) — unit
  /// kernels read entry values through it when precomputing codes.
  [[nodiscard]] const tgen::WeightParameter* weight() const noexcept {
    return weight_;
  }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return weights_.size();
  }

  /// Draws the entry index of a weight parameter. Equivalent to
  /// ParameterSampler::draw() up to (but not including) returning the
  /// entry's value. Throws util::ValidationError on kind mismatch or
  /// zero total weight (consuming no randomness in the latter case,
  /// like Xoshiro256::weighted_index).
  [[nodiscard]] std::size_t draw_index(util::Xoshiro256& rng) const;

  /// ParameterSampler::draw(): the drawn entry's value.
  [[nodiscard]] const tgen::Value& draw_value(util::Xoshiro256& rng) const;

  /// ParameterSampler::draw_int_value(): the drawn entry's integer
  /// payload; throws util::ValidationError naming the offending value
  /// when the entry is a symbol.
  [[nodiscard]] std::int64_t draw_int(util::Xoshiro256& rng) const;

  /// ParameterSampler::draw_range(): uniform within a range parameter,
  /// or weighted-subrange-then-uniform within a subrange parameter.
  [[nodiscard]] std::int64_t draw_range(util::Xoshiro256& rng) const;

 private:
  friend class CompiledTemplate;

  /// Weighted pick over weights_ with total_ precomputed; replicates
  /// Xoshiro256::weighted_index exactly (returns entry_count() on zero
  /// total, clamps negatives in the scan, last-positive fallback).
  [[nodiscard]] std::size_t pick(util::Xoshiro256& rng) const noexcept;

  std::string_view name_;
  Kind kind_ = Kind::kRange;
  // kWeight / kSubrange: raw entry weights in entry order and their
  // clamped sum (same summation order as the per-draw scalar path, so
  // the product is IEEE-identical).
  std::vector<double> weights_;
  double total_ = 0.0;
  const tgen::WeightParameter* weight_ = nullptr;
  const tgen::SubrangeParameter* subrange_ = nullptr;
  // kWeight: per-entry integer payloads for draw_int.
  std::vector<std::int64_t> int_values_;
  std::vector<std::uint8_t> entry_is_int_;
  // kRange bounds.
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
};

/// All of a DUV's parameters resolved against one override template,
/// in the defaults' declaration order. Built once per batch job.
class CompiledTemplate {
 public:
  /// `overrides` may be null (defaults only); both templates must
  /// outlive the compiled form.
  CompiledTemplate(const tgen::TestTemplate* overrides,
                   const tgen::TestTemplate& defaults);

  /// Number of compiled parameters (== defaults().size()).
  [[nodiscard]] std::size_t size() const noexcept { return params_.size(); }

  /// Parameter by defaults-order handle.
  [[nodiscard]] const CompiledParam& param(std::size_t handle) const {
    return params_[handle];
  }

  /// Parameter by name, or nullptr when the defaults do not declare it.
  /// Pointers stay valid for the CompiledTemplate's lifetime.
  [[nodiscard]] const CompiledParam* find(std::string_view name) const noexcept;

 private:
  std::vector<CompiledParam> params_;
};

/// Sentinel code for a weight entry whose value is an integer where a
/// symbol is expected; entry_code() reproduces the scalar path's
/// std::bad_variant_access when such an entry is drawn.
inline constexpr std::int32_t kNonSymbolEntry = -1;

/// Per-entry codes for a weight parameter: index into `symbols` of the
/// entry's symbol, `unmatched` for symbols not listed, kNonSymbolEntry
/// for integer values. Precomputed once so kernels compare small ints
/// instead of strings per draw.
[[nodiscard]] std::vector<std::int32_t> entry_codes(
    const CompiledParam& param, std::span<const std::string_view> symbols,
    std::int32_t unmatched);

/// Resolves a drawn entry's precomputed code, replicating the scalar
/// path's as_symbol() throw for integer entries.
[[nodiscard]] inline std::int32_t entry_code(
    const CompiledParam& param, std::span<const std::int32_t> codes,
    std::size_t index) {
  const std::int32_t code = codes[index];
  if (code == kNonSymbolEntry) {
    (void)param.weight()->entries[index].value.as_symbol();  // throws
  }
  return code;
}

}  // namespace ascdg::stimgen
