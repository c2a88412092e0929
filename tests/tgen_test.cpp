// Tests for the test-template object model, the DSL parser/printer, and
// skeletons: validation rules, parse/print round trips over a corpus,
// mark bookkeeping, and instantiation semantics.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "tgen/file_io.hpp"
#include "tgen/parser.hpp"
#include "util/rng.hpp"
#include "tgen/skeleton.hpp"
#include "tgen/test_template.hpp"
#include "util/error.hpp"

namespace ascdg::tgen {
namespace {

using util::ParseError;
using util::ValidationError;

WeightParameter cmd_param() {
  return WeightParameter{"Cmd",
                         {{Value{"load"}, 40},
                          {Value{"store"}, 40},
                          {Value{"add"}, 0},
                          {Value{"sync"}, 20}}};
}

// ---------------------------------------------------------- parameters --

TEST(Parameter, WeightValidationAcceptsGood) {
  EXPECT_NO_THROW(validate(Parameter{cmd_param()}));
}

TEST(Parameter, WeightRejectsEmptyEntries) {
  EXPECT_THROW(validate(Parameter{WeightParameter{"W", {}}}), ValidationError);
}

TEST(Parameter, WeightRejectsNegativeWeight) {
  EXPECT_THROW(
      validate(Parameter{WeightParameter{"W", {{Value{"a"}, -1.0}}}}),
      ValidationError);
}

TEST(Parameter, WeightRejectsAllZero) {
  EXPECT_THROW(
      validate(Parameter{WeightParameter{
          "W", {{Value{"a"}, 0.0}, {Value{"b"}, 0.0}}}}),
      ValidationError);
}

TEST(Parameter, WeightRejectsDuplicateValues) {
  EXPECT_THROW(
      validate(Parameter{WeightParameter{
          "W", {{Value{"a"}, 1.0}, {Value{"a"}, 2.0}}}}),
      ValidationError);
}

TEST(Parameter, WeightRejectsNonFiniteWeight) {
  EXPECT_THROW(
      validate(Parameter{WeightParameter{
          "W", {{Value{"a"}, std::numeric_limits<double>::infinity()}}}}),
      ValidationError);
}

TEST(Parameter, WeightRejectsBadName) {
  EXPECT_THROW(
      validate(Parameter{WeightParameter{"9bad", {{Value{"a"}, 1.0}}}}),
      ValidationError);
}

TEST(Parameter, RangeValidation) {
  EXPECT_NO_THROW(validate(Parameter{RangeParameter{"R", 0, 10}}));
  EXPECT_NO_THROW(validate(Parameter{RangeParameter{"R", 5, 5}}));
  EXPECT_THROW(validate(Parameter{RangeParameter{"R", 10, 0}}),
               ValidationError);
}

TEST(Parameter, SubrangeValidation) {
  EXPECT_NO_THROW(validate(
      Parameter{SubrangeParameter{"S", {{0, 4, 1.0}, {5, 9, 2.0}}}}));
  // Overlap.
  EXPECT_THROW(
      validate(Parameter{SubrangeParameter{"S", {{0, 5, 1.0}, {5, 9, 2.0}}}}),
      ValidationError);
  // Out of order.
  EXPECT_THROW(
      validate(Parameter{SubrangeParameter{"S", {{5, 9, 1.0}, {0, 4, 2.0}}}}),
      ValidationError);
  // Inverted subrange.
  EXPECT_THROW(validate(Parameter{SubrangeParameter{"S", {{4, 0, 1.0}}}}),
               ValidationError);
  // Zero total weight.
  EXPECT_THROW(validate(Parameter{SubrangeParameter{"S", {{0, 4, 0.0}}}}),
               ValidationError);
}

TEST(Parameter, TotalWeightIgnoresNegatives) {
  // Validation rejects negatives, but total_weight() itself must be
  // defensive for intermediate states.
  WeightParameter p{"W", {{Value{"a"}, 2.0}, {Value{"b"}, 3.0}}};
  EXPECT_DOUBLE_EQ(p.total_weight(), 5.0);
}

// ------------------------------------------------------------ template --

TEST(TestTemplate, AddAndLookup) {
  TestTemplate tmpl("t");
  tmpl.add(cmd_param());
  tmpl.add(RangeParameter{"CacheDelay", 0, 1000});
  EXPECT_EQ(tmpl.size(), 2u);
  EXPECT_TRUE(tmpl.contains("Cmd"));
  EXPECT_NE(tmpl.find_weight("Cmd"), nullptr);
  EXPECT_EQ(tmpl.find_weight("CacheDelay"), nullptr);  // wrong kind
  EXPECT_NE(tmpl.find_range("CacheDelay"), nullptr);
  EXPECT_EQ(tmpl.find("nope"), nullptr);
}

TEST(TestTemplate, DuplicateParameterThrows) {
  TestTemplate tmpl("t");
  tmpl.add(cmd_param());
  EXPECT_THROW(tmpl.add(cmd_param()), ValidationError);
}

TEST(TestTemplate, SetReplacesInPlace) {
  TestTemplate tmpl("t");
  tmpl.add(RangeParameter{"R", 0, 10});
  tmpl.set(RangeParameter{"R", 5, 20});
  EXPECT_EQ(tmpl.size(), 1u);
  EXPECT_EQ(tmpl.find_range("R")->lo, 5);
  tmpl.set(RangeParameter{"R2", 1, 2});
  EXPECT_EQ(tmpl.size(), 2u);
}

TEST(TestTemplate, ParameterNamesInDeclarationOrder) {
  TestTemplate tmpl("t");
  tmpl.add(RangeParameter{"Z", 0, 1});
  tmpl.add(RangeParameter{"A", 0, 1});
  const auto names = tmpl.parameter_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "Z");
  EXPECT_EQ(names[1], "A");
}

// -------------------------------------------------------------- parser --

TEST(Parser, ParsesFigureOneTemplate) {
  // The paper's Fig. 1(a) example, transcribed into the DSL.
  const auto tmpl = parse_template(R"(
    template lsu_stress {
      weight Mnemonic { load: 40, store: 40, add: 0, sync: 20 }
      range CacheDelay [0, 1000]
    }
  )");
  EXPECT_EQ(tmpl.name(), "lsu_stress");
  const auto* mnemonic = tmpl.find_weight("Mnemonic");
  ASSERT_NE(mnemonic, nullptr);
  ASSERT_EQ(mnemonic->entries.size(), 4u);
  EXPECT_EQ(mnemonic->entries[0].value.as_symbol(), "load");
  EXPECT_DOUBLE_EQ(mnemonic->entries[0].weight, 40.0);
  EXPECT_DOUBLE_EQ(mnemonic->entries[2].weight, 0.0);
  const auto* delay = tmpl.find_range("CacheDelay");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->lo, 0);
  EXPECT_EQ(delay->hi, 1000);
}

TEST(Parser, ParsesIntegerValuesAndFloatWeights) {
  const auto tmpl = parse_template(
      "template t { weight Thr { 0: 1.5, 1: 2e1, 2: 0.25 } }");
  const auto* thr = tmpl.find_weight("Thr");
  ASSERT_NE(thr, nullptr);
  EXPECT_EQ(thr->entries[0].value.as_int(), 0);
  EXPECT_DOUBLE_EQ(thr->entries[1].weight, 20.0);
  EXPECT_DOUBLE_EQ(thr->entries[2].weight, 0.25);
}

TEST(Parser, ParsesSubrangeParameter) {
  const auto tmpl = parse_template(
      "template t { subrange D { [0, 9]: 5, [10, 99]: 1 } }");
  const auto* d = tmpl.find_subrange("D");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->entries.size(), 2u);
  EXPECT_EQ(d->entries[1].lo, 10);
  EXPECT_DOUBLE_EQ(d->entries[0].weight, 5.0);
}

TEST(Parser, ParsesNegativeRangeBounds) {
  const auto tmpl = parse_template("template t { range R [-10, -2] }");
  EXPECT_EQ(tmpl.find_range("R")->lo, -10);
  EXPECT_EQ(tmpl.find_range("R")->hi, -2);
}

TEST(Parser, CommentsAndWhitespaceIgnored) {
  const auto all = parse_templates(R"(
    # leading comment
    template a { range R [0, 1] }  # trailing comment
    # between templates
    template b { range R [2, 3] }
  )");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name(), "a");
  EXPECT_EQ(all[1].name(), "b");
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    (void)parse_template("template t {\n  range R [0 1]\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& err) {
    EXPECT_EQ(err.line(), 2u);
  }
}

struct MalformedCase {
  const char* label;
  const char* text;
};

// Print the case by its label so the discovered test name is the same on
// every build; gtest otherwise dumps the struct's raw bytes, pointers
// included.
void PrintTo(const MalformedCase& c, std::ostream* os) {
  *os << '"' << c.label << '"';
}

class MalformedInput : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedInput, Throws) {
  EXPECT_THROW((void)parse_templates(GetParam().text), util::Error);
}

INSTANTIATE_TEST_SUITE_P(
    Parser, MalformedInput,
    ::testing::Values(
        MalformedCase{"missing_brace", "template t { range R [0, 1]"},
        MalformedCase{"bad_keyword", "template t { wight W { a: 1 } }"},
        MalformedCase{"missing_colon", "template t { weight W { a 1 } }"},
        MalformedCase{"mark_in_template", "template t { weight W { a: <W> } }"},
        MalformedCase{"garbage", "%%%%"},
        MalformedCase{"no_name", "template { range R [0, 1] }"},
        MalformedCase{"empty_weight", "template t { weight W { } }"},
        MalformedCase{"float_range_bound", "template t { range R [0.5, 2] }"},
        MalformedCase{"duplicate_param",
                      "template t { range R [0, 1] range R [2, 3] }"},
        MalformedCase{"skeleton_in_templates", "skeleton s { range R [0, 1] }"},
        MalformedCase{"inverted_range", "template t { range R [9, 1] }"},
        MalformedCase{"trailing_junk", "template t { range R [0, 1] } junk"}),
    [](const auto& info) { return info.param.label; });

// Round-trip property: parse(print(t)) == t over a corpus of templates.
class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, ParsePrintParse) {
  const auto parsed = parse_template(GetParam());
  const std::string printed = to_text(parsed);
  const auto reparsed = parse_template(printed);
  EXPECT_EQ(parsed, reparsed) << printed;
  // Printing must also be a fixed point.
  EXPECT_EQ(printed, to_text(reparsed));
}

INSTANTIATE_TEST_SUITE_P(
    Parser, RoundTrip,
    ::testing::Values(
        "template a { weight W { x: 1, y: 2.5, z: 0 } }",
        "template b { range R [0, 1000] }",
        "template c { subrange S { [0, 3]: 1, [4, 9]: 0.5 } }",
        "template d { weight W { 0: 10, 1: 20 } range R [-5, 5] }",
        "template e { weight A { on: 1 } weight B { off: 2 } range C [1, 2] "
        "subrange D { [1, 1]: 3 } }"));

// ------------------------------------------------------------ skeleton --

Skeleton fig1_skeleton() {
  return parse_skeleton(R"(
    skeleton lsu_skel {
      weight Mnemonic { load: <W>, store: <W>, add: 0, sync: <W> }
      subrange CacheDelay { [0, 333]: <W>, [334, 666]: <W>, [667, 1000]: <W> }
    }
  )");
}

TEST(Skeleton, MarkCountAndDescriptions) {
  const auto skel = fig1_skeleton();
  EXPECT_EQ(skel.mark_count(), 6u);
  const auto marks = skel.marks();
  ASSERT_EQ(marks.size(), 6u);
  EXPECT_EQ(marks[0].to_string(), "Mnemonic[load]");
  EXPECT_EQ(marks[2].to_string(), "Mnemonic[sync]");
  EXPECT_EQ(marks[3].to_string(), "CacheDelay[0..333]");
}

TEST(Skeleton, InstantiateAssignsMarksInOrder) {
  const auto skel = fig1_skeleton();
  const std::vector<double> w{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  const auto tmpl = skel.instantiate("inst", w);
  EXPECT_EQ(tmpl.name(), "inst");
  const auto* mnemonic = tmpl.find_weight("Mnemonic");
  ASSERT_NE(mnemonic, nullptr);
  EXPECT_DOUBLE_EQ(mnemonic->entries[0].weight, 0.1);
  EXPECT_DOUBLE_EQ(mnemonic->entries[1].weight, 0.2);
  EXPECT_DOUBLE_EQ(mnemonic->entries[2].weight, 0.0);  // fixed zero kept
  EXPECT_DOUBLE_EQ(mnemonic->entries[3].weight, 0.3);
  const auto* delay = tmpl.find_subrange("CacheDelay");
  ASSERT_NE(delay, nullptr);
  EXPECT_DOUBLE_EQ(delay->entries[2].weight, 0.6);
}

TEST(Skeleton, InstantiateWrongArityThrows) {
  const auto skel = fig1_skeleton();
  const std::vector<double> w{0.1, 0.2};
  EXPECT_THROW((void)skel.instantiate("x", w), ValidationError);
}

TEST(Skeleton, NegativeWeightsClampToZero) {
  const auto skel = fig1_skeleton();
  const std::vector<double> w{-1.0, 0.5, -0.1, 0.2, 0.2, 0.2};
  const auto tmpl = skel.instantiate("x", w);
  EXPECT_DOUBLE_EQ(tmpl.find_weight("Mnemonic")->entries[0].weight, 0.0);
}

TEST(Skeleton, AllZeroParameterFallsBackToUniform) {
  const auto skel = fig1_skeleton();
  const std::vector<double> w{0, 0, 0, 1, 1, 1};
  const auto tmpl = skel.instantiate("x", w);
  // All marked entries bumped to 1.0; the fixed zero stays zero.
  const auto* mnemonic = tmpl.find_weight("Mnemonic");
  EXPECT_DOUBLE_EQ(mnemonic->entries[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(mnemonic->entries[1].weight, 1.0);
  EXPECT_DOUBLE_EQ(mnemonic->entries[2].weight, 0.0);
  EXPECT_DOUBLE_EQ(mnemonic->entries[3].weight, 1.0);
  // The instantiated template must be valid (generatable).
  for (const auto& p : tmpl.parameters()) EXPECT_NO_THROW(validate(p));
}

TEST(Skeleton, InstantiatedTemplatesAlwaysValid) {
  // Property: any weight vector in [-1, 2]^d instantiates to a valid
  // template (clamping + uniform fallback).
  const auto skel = fig1_skeleton();
  util::Xoshiro256 rng(7);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<double> w(skel.mark_count());
    for (double& v : w) v = rng.uniform(-1.0, 2.0);
    const auto tmpl = skel.instantiate("x", w);
    for (const auto& p : tmpl.parameters()) {
      EXPECT_NO_THROW(validate(p));
    }
  }
}

TEST(Skeleton, RoundTripThroughText) {
  const auto skel = fig1_skeleton();
  const auto reparsed = parse_skeleton(to_text(skel));
  EXPECT_EQ(skel, reparsed);
}

TEST(Skeleton, FixedRangeParameterPassesThrough) {
  const auto skel = parse_skeleton(
      "skeleton s { weight W { a: <W> } range R [3, 7] }");
  EXPECT_EQ(skel.mark_count(), 1u);
  const std::vector<double> w{0.5};
  const auto tmpl = skel.instantiate("x", w);
  ASSERT_NE(tmpl.find_range("R"), nullptr);
  EXPECT_EQ(tmpl.find_range("R")->lo, 3);
}

TEST(Skeleton, DuplicateParameterThrows) {
  Skeleton skel("s");
  skel.add(SkeletonWeightParameter{"W", {{Value{"a"}, std::nullopt}}});
  EXPECT_THROW(
      skel.add(SkeletonWeightParameter{"W", {{Value{"b"}, std::nullopt}}}),
      ValidationError);
}

TEST(Skeleton, MixedMarkedAndFixedWeights) {
  const auto skel = parse_skeleton(
      "skeleton s { weight W { a: <W>, b: 5, c: <W> } }");
  EXPECT_EQ(skel.mark_count(), 2u);
  const std::vector<double> w{0.0, 0.0};
  const auto tmpl = skel.instantiate("x", w);
  // Fixed weight 5 keeps the parameter generatable; no fallback bump.
  const auto* wp = tmpl.find_weight("W");
  EXPECT_DOUBLE_EQ(wp->entries[0].weight, 0.0);
  EXPECT_DOUBLE_EQ(wp->entries[1].weight, 5.0);
  EXPECT_DOUBLE_EQ(wp->entries[2].weight, 0.0);
}

// Robustness: random token soup must either parse or throw a typed
// ascdg error — never crash, hang, or throw anything else.
TEST(Parser, RandomTokenSoupNeverCrashes) {
  static constexpr const char* kTokens[] = {
      "template", "skeleton", "weight",  "range", "subrange", "{", "}",
      "[",        "]",        ":",       ",",     "<W>",      "a", "b9",
      "0",        "-3",       "2.5",     "1e9",   "#x\n",     " ", "\n",
      "_id",      "99999999999999999999", ".",    "-",        "<", ">"};
  util::Xoshiro256 rng(20210301);
  for (int rep = 0; rep < 3000; ++rep) {
    std::string text;
    const auto len = rng.uniform_u64(0, 40);
    for (std::uint64_t i = 0; i < len; ++i) {
      text += kTokens[rng.uniform_u64(0, std::size(kTokens) - 1)];
      text += ' ';
    }
    try {
      const auto parsed = parse_templates(text);
      // If it parsed, printing and reparsing must agree.
      for (const auto& tmpl : parsed) {
        EXPECT_EQ(parse_template(to_text(tmpl)), tmpl);
      }
    } catch (const util::Error&) {
      // typed failure: fine
    } catch (const std::bad_variant_access&) {
      FAIL() << "untyped failure on: " << text;
    }
    try {
      (void)parse_skeletons(text);
    } catch (const util::Error&) {
    }
  }
}

// ------------------------------------------------------------- file io --

class FileIo : public ::testing::Test {
 protected:
  std::filesystem::path dir_;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ascdg_tgen_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
};

TEST_F(FileIo, TemplateRoundTrip) {
  const auto tmpl = parse_template(
      "template t { weight W { a: 1, b: 2 } range R [0, 9] }");
  const auto path = dir_ / "t.tmpl";
  save_template(path, tmpl);
  EXPECT_EQ(load_template(path), tmpl);
}

TEST_F(FileIo, MultiTemplateRoundTrip) {
  const auto all = parse_templates(
      "template a { range R [0, 1] } template b { range R [2, 3] }");
  const auto path = dir_ / "suite.tmpl";
  save_templates(path, all);
  const auto loaded = load_templates(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], all[0]);
  EXPECT_EQ(loaded[1], all[1]);
}

TEST_F(FileIo, SkeletonRoundTrip) {
  const auto skel = parse_skeleton(
      "skeleton s { weight W { a: <W>, b: 0 } subrange R { [0, 4]: <W> } }");
  const auto path = dir_ / "s.skel";
  save_skeleton(path, skel);
  EXPECT_EQ(load_skeleton(path), skel);
}

TEST_F(FileIo, CreatesParentDirectories) {
  const auto tmpl = parse_template("template t { range R [0, 1] }");
  const auto path = dir_ / "nested" / "deeper" / "t.tmpl";
  EXPECT_NO_THROW(save_template(path, tmpl));
  EXPECT_EQ(load_template(path), tmpl);
}

TEST_F(FileIo, MissingFileThrows) {
  EXPECT_THROW((void)load_template(dir_ / "nope.tmpl"), util::Error);
}

TEST_F(FileIo, MalformedFileThrowsParseError) {
  const auto path = dir_ / "bad.tmpl";
  std::ofstream(path) << "template { oops";
  EXPECT_THROW((void)load_template(path), util::Error);
}

// --------------------------------------------------------------- value --

TEST(Value, IntAndSymbol) {
  const Value i{std::int64_t{42}};
  const Value s{"load"};
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(s.is_symbol());
  EXPECT_EQ(i.as_int(), 42);
  EXPECT_EQ(s.as_symbol(), "load");
  EXPECT_EQ(i.to_string(), "42");
  EXPECT_EQ(s.to_string(), "load");
  EXPECT_NE(i, s);
  EXPECT_EQ(i, Value{std::int64_t{42}});
}

}  // namespace
}  // namespace ascdg::tgen
