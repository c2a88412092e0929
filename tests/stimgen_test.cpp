// Tests for the biased-random parameter sampler: override/default
// fallback, draw semantics per parameter kind, distribution correctness
// (chi-square goodness of fit), and the compiled draw path checked
// draw for draw against the sampler.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "stimgen/compiled.hpp"
#include "stimgen/profile.hpp"
#include "stimgen/sampler.hpp"
#include "tgen/parser.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace ascdg::stimgen {
namespace {

using tgen::parse_template;
using tgen::TestTemplate;
using tgen::Value;
using util::NotFoundError;
using util::ValidationError;

TestTemplate defaults_template() {
  return parse_template(R"(
    template defaults {
      weight Cmd { read: 50, write: 50 }
      range Delay [0, 9]
      weight Thr { 0: 1, 1: 1 }
      subrange Size { [1, 4]: 3, [5, 8]: 1 }
    }
  )");
}

TEST(Sampler, FallsBackToDefaults) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(1);
  ParameterSampler sampler(nullptr, defaults, rng);
  EXPECT_TRUE(sampler.has("Cmd"));
  const Value v = sampler.draw("Cmd");
  EXPECT_TRUE(v.as_symbol() == "read" || v.as_symbol() == "write");
}

TEST(Sampler, OverrideShadowsDefault) {
  const auto defaults = defaults_template();
  const auto overrides =
      parse_template("template o { weight Cmd { write: 1 } }");
  util::Xoshiro256 rng(2);
  ParameterSampler sampler(&overrides, defaults, rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampler.draw("Cmd").as_symbol(), "write");
  }
}

TEST(Sampler, OverrideDoesNotHideOtherDefaults) {
  const auto defaults = defaults_template();
  const auto overrides =
      parse_template("template o { weight Cmd { write: 1 } }");
  util::Xoshiro256 rng(3);
  ParameterSampler sampler(&overrides, defaults, rng);
  const std::int64_t d = sampler.draw_range("Delay");
  EXPECT_GE(d, 0);
  EXPECT_LE(d, 9);
}

TEST(Sampler, UnknownParameterThrows) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(4);
  ParameterSampler sampler(nullptr, defaults, rng);
  EXPECT_THROW((void)sampler.draw("Nope"), NotFoundError);
  EXPECT_THROW((void)sampler.draw_range("Nope"), NotFoundError);
  EXPECT_FALSE(sampler.has("Nope"));
}

TEST(Sampler, KindMismatchThrows) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(5);
  ParameterSampler sampler(nullptr, defaults, rng);
  EXPECT_THROW((void)sampler.draw("Delay"), ValidationError);      // range as weight
  EXPECT_THROW((void)sampler.draw_range("Cmd"), ValidationError);  // weight as range
}

TEST(Sampler, DrawIntValueOnSymbolThrows) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(6);
  ParameterSampler sampler(nullptr, defaults, rng);
  EXPECT_THROW((void)sampler.draw_int_value("Cmd"), ValidationError);
  const std::int64_t t = sampler.draw_int_value("Thr");
  EXPECT_TRUE(t == 0 || t == 1);
}

TEST(Sampler, RangeDrawUniform) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(7);
  ParameterSampler sampler(nullptr, defaults, rng);
  std::vector<std::size_t> counts(10, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(sampler.draw_range("Delay"))];
  }
  const std::vector<double> expected(10, 0.1);
  EXPECT_LT(util::chi_square_statistic(counts, expected),
            util::chi_square_critical(9, 0.001));
}

TEST(Sampler, SubrangeDrawHonorsWeightsAndUniformWithin) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(8);
  ParameterSampler sampler(nullptr, defaults, rng);
  // Size: [1,4] weight 3, [5,8] weight 1 -> per-value probability is
  // (3/4)/4 for 1..4 and (1/4)/4 for 5..8.
  std::vector<std::size_t> counts(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(sampler.draw_range("Size") - 1)];
  }
  std::vector<double> expected;
  for (int v = 1; v <= 4; ++v) expected.push_back(3.0 / 16.0);
  for (int v = 5; v <= 8; ++v) expected.push_back(1.0 / 16.0);
  EXPECT_LT(util::chi_square_statistic(counts, expected),
            util::chi_square_critical(7, 0.001));
}

TEST(Sampler, WeightedDrawMatchesDistribution) {
  const auto tmpl = parse_template(
      "template t { weight W { a: 10, b: 30, c: 60, d: 0 } }");
  util::Xoshiro256 rng(9);
  ParameterSampler sampler(nullptr, tmpl, rng);
  std::map<std::string, std::size_t> counts;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.draw("W").as_symbol()];
  EXPECT_EQ(counts.count("d"), 0u);  // zero weight never drawn
  const std::vector<std::size_t> observed{counts["a"], counts["b"], counts["c"]};
  const std::vector<double> expected{10, 30, 60};
  EXPECT_LT(util::chi_square_statistic(observed, expected),
            util::chi_square_critical(2, 0.001));
}

TEST(Sampler, DeterministicGivenSeed) {
  const auto defaults = defaults_template();
  std::vector<std::int64_t> first, second;
  for (auto* out : {&first, &second}) {
    util::Xoshiro256 rng(99);
    ParameterSampler sampler(nullptr, defaults, rng);
    for (int i = 0; i < 50; ++i) out->push_back(sampler.draw_range("Delay"));
  }
  EXPECT_EQ(first, second);
}

TEST(DrawFrom, RangeSingleton) {
  util::Xoshiro256 rng(10);
  const tgen::RangeParameter p{"R", 5, 5};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(draw_from(p, rng), 5);
}

TEST(DrawFrom, NegativeRange) {
  util::Xoshiro256 rng(11);
  const tgen::RangeParameter p{"R", -10, -1};
  for (int i = 0; i < 1000; ++i) {
    const auto v = draw_from(p, rng);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -1);
  }
}

TEST(DrawFrom, ZeroTotalWeightThrows) {
  util::Xoshiro256 rng(12);
  const tgen::WeightParameter w{"W", {{Value{"a"}, 0.0}}};
  EXPECT_THROW((void)draw_from(w, rng), ValidationError);
  const tgen::SubrangeParameter s{"S", {{0, 1, 0.0}}};
  EXPECT_THROW((void)draw_from(s, rng), ValidationError);
}

// Parameterized sweep: sampled frequencies track template weights for a
// spread of weight shapes (property-style).
struct WeightShape {
  const char* label;
  std::vector<double> weights;
};

// Print the case by its label so the discovered test name is the same on
// every build; gtest otherwise dumps the struct's raw bytes, pointers
// included.
void PrintTo(const WeightShape& c, std::ostream* os) {
  *os << '"' << c.label << '"';
}

class WeightFidelity : public ::testing::TestWithParam<WeightShape> {};

TEST_P(WeightFidelity, ChiSquareWithinCritical) {
  const auto& shape = GetParam();
  tgen::WeightParameter param{"W", {}};
  for (std::size_t i = 0; i < shape.weights.size(); ++i) {
    param.entries.push_back(
        {Value{static_cast<std::int64_t>(i)}, shape.weights[i]});
  }
  util::Xoshiro256 rng(1234);
  std::vector<std::size_t> counts(shape.weights.size(), 0);
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(draw_from(param, rng).as_int())];
  }
  std::size_t dof = 0;
  for (const double w : shape.weights) {
    if (w > 0) ++dof;
  }
  ASSERT_GE(dof, 2u);
  EXPECT_LT(util::chi_square_statistic(counts, shape.weights),
            util::chi_square_critical(dof - 1, 0.001));
}

INSTANTIATE_TEST_SUITE_P(
    Sampler, WeightFidelity,
    ::testing::Values(WeightShape{"uniform", {1, 1, 1, 1}},
                      WeightShape{"skewed", {100, 10, 1}},
                      WeightShape{"with_zeros", {0, 5, 0, 5}},
                      WeightShape{"tiny_fractions", {0.001, 0.002, 0.003}},
                      WeightShape{"two_values", {7, 3}},
                      WeightShape{"extreme_skew", {10000, 1}}),
    [](const auto& info) { return info.param.label; });

// ------------------------------------------------------ compiled path --

// Overrides for Cmd (an extra symbol), Delay and Size (a zero-weight
// subrange); Thr stays at its default.
TestTemplate compiled_overrides() {
  return parse_template(R"(
    template o {
      weight Cmd { read: 1, write: 3, flush: 2 }
      range Delay [3, 5]
      subrange Size { [10, 12]: 1, [20, 20]: 2, [30, 31]: 0 }
    }
  )");
}

// The message of the util::ValidationError that `draw` throws, or ""
// when it throws none.
template <typename Draw>
std::string validation_message(Draw&& draw) {
  try {
    (void)draw();
  } catch (const ValidationError& e) {
    return e.what();
  }
  return "";
}

TEST(CompiledParam, DrawsMatchSamplerValueForValueAndStateForState) {
  const auto defaults = defaults_template();
  const auto overrides = compiled_overrides();
  for (const TestTemplate* ov : {static_cast<const TestTemplate*>(nullptr),
                                 &overrides}) {
    SCOPED_TRACE(ov == nullptr ? "defaults only" : "with overrides");
    const CompiledTemplate table(ov, defaults);
    const CompiledParam& cmd = *table.find("Cmd");
    const CompiledParam& thr = *table.find("Thr");
    const CompiledParam& delay = *table.find("Delay");
    const CompiledParam& size = *table.find("Size");
    EXPECT_EQ(cmd.kind(), CompiledParam::Kind::kWeight);
    EXPECT_EQ(delay.kind(), CompiledParam::Kind::kRange);
    EXPECT_EQ(size.kind(), CompiledParam::Kind::kSubrange);

    util::Xoshiro256 reference_rng(41);
    util::Xoshiro256 compiled_rng(41);
    ParameterSampler sampler(ov, defaults, reference_rng);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(sampler.draw("Cmd"), cmd.draw_value(compiled_rng));
      ASSERT_EQ(reference_rng.state(), compiled_rng.state());
      ASSERT_EQ(sampler.draw_int_value("Thr"), thr.draw_int(compiled_rng));
      ASSERT_EQ(reference_rng.state(), compiled_rng.state());
      ASSERT_EQ(sampler.draw_range("Delay"), delay.draw_range(compiled_rng));
      ASSERT_EQ(reference_rng.state(), compiled_rng.state());
      ASSERT_EQ(sampler.draw_range("Size"), size.draw_range(compiled_rng));
      ASSERT_EQ(reference_rng.state(), compiled_rng.state());
    }
  }
}

TEST(CompiledParam, ThrowsTheSamplersValidationErrors) {
  const auto defaults = defaults_template();
  // Delay redeclared as a weight parameter: the override's kind wins.
  auto overrides = parse_template(R"(
    template o {
      weight Delay { 1: 1 }
      weight Cmd { read: 1 }
      subrange Size { [1, 2]: 1 }
    }
  )");
  // TestTemplate::add rejects a zero total weight, so zero the weights
  // after validation to reach the draw-time check that both paths keep.
  std::get<tgen::WeightParameter>(
      const_cast<tgen::Parameter&>(*overrides.find("Cmd")))
      .entries[0]
      .weight = 0.0;
  std::get<tgen::SubrangeParameter>(
      const_cast<tgen::Parameter&>(*overrides.find("Size")))
      .entries[0]
      .weight = 0.0;

  for (const TestTemplate* ov : {static_cast<const TestTemplate*>(nullptr),
                                 &std::as_const(overrides)}) {
    SCOPED_TRACE(ov == nullptr ? "defaults only" : "with overrides");
    const CompiledTemplate table(ov, defaults);
    const CompiledParam& cmd = *table.find("Cmd");
    const CompiledParam& thr = *table.find("Thr");
    const CompiledParam& delay = *table.find("Delay");
    const CompiledParam& size = *table.find("Size");

    util::Xoshiro256 reference_rng(42);
    util::Xoshiro256 compiled_rng(42);
    ParameterSampler sampler(ov, defaults, reference_rng);
    const auto expect_same_error = [&](std::string_view what, auto reference,
                                       auto compiled) {
      const std::string expected = validation_message(reference);
      EXPECT_NE(expected.find(what), std::string::npos) << expected;
      EXPECT_EQ(expected, validation_message(compiled));
      EXPECT_EQ(reference_rng.state(), compiled_rng.state());
    };
    expect_same_error(ov == nullptr ? "non-integer value" : "zero total weight",
                      [&] { return sampler.draw_int_value("Cmd"); },
                      [&] { return cmd.draw_int(compiled_rng); });
    expect_same_error("not a range or subrange parameter",
                      [&] { return sampler.draw_range("Thr"); },
                      [&] { return thr.draw_range(compiled_rng); });
    if (ov == nullptr) {
      expect_same_error("not a weight parameter",
                        [&] { return sampler.draw("Delay"); },
                        [&] { return delay.draw_index(compiled_rng); });
    } else {
      expect_same_error("zero total weight",
                        [&] { return sampler.draw("Cmd"); },
                        [&] { return cmd.draw_value(compiled_rng); });
      expect_same_error("zero total weight",
                        [&] { return sampler.draw_range("Size"); },
                        [&] { return size.draw_range(compiled_rng); });
      expect_same_error("not a range or subrange parameter",
                        [&] { return sampler.draw_range("Delay"); },
                        [&] { return delay.draw_range(compiled_rng); });
    }
    // The streams stay aligned after the errors.
    EXPECT_EQ(sampler.draw_int_value("Thr"), thr.draw_int(compiled_rng));
    EXPECT_EQ(reference_rng.state(), compiled_rng.state());
  }
}

// ------------------------------------------------------------ profiler --

TEST(Profiler, CountsDrawsPerParameter) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(31);
  ParameterSampler sampler(nullptr, defaults, rng);
  ScopedDrawProfiler profiler;
  for (int i = 0; i < 10; ++i) (void)sampler.draw("Cmd");
  for (int i = 0; i < 3; ++i) (void)sampler.draw_range("Delay");
  EXPECT_EQ(profiler.counts().at("Cmd"), 10u);
  EXPECT_EQ(profiler.counts().at("Delay"), 3u);
  EXPECT_EQ(profiler.total(), 13u);
  profiler.reset();
  EXPECT_EQ(profiler.total(), 0u);
}

TEST(Profiler, InactiveByDefault) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(32);
  ParameterSampler sampler(nullptr, defaults, rng);
  // No active profiler: draws must not crash and leave no trace.
  (void)sampler.draw("Cmd");
  ScopedDrawProfiler profiler;
  EXPECT_TRUE(profiler.counts().empty());
}

TEST(Profiler, NestingRestoresOuter) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(33);
  ParameterSampler sampler(nullptr, defaults, rng);
  ScopedDrawProfiler outer;
  (void)sampler.draw("Cmd");
  {
    ScopedDrawProfiler inner;
    (void)sampler.draw("Cmd");
    (void)sampler.draw("Cmd");
    EXPECT_EQ(inner.counts().at("Cmd"), 2u);
  }
  (void)sampler.draw("Cmd");
  // Outer saw its own draws only (1 before + 1 after the inner scope).
  EXPECT_EQ(outer.counts().at("Cmd"), 2u);
}

TEST(Profiler, FailedDrawsAreStillCounted) {
  const auto defaults = defaults_template();
  util::Xoshiro256 rng(34);
  ParameterSampler sampler(nullptr, defaults, rng);
  ScopedDrawProfiler profiler;
  EXPECT_THROW((void)sampler.draw("Missing"), util::NotFoundError);
  // The consult attempt is what the profiler measures.
  EXPECT_EQ(profiler.counts().at("Missing"), 1u);
}

}  // namespace
}  // namespace ascdg::stimgen
