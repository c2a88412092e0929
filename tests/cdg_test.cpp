// Tests for the CDG flow components: Skeletonizer rules (paper §IV-C),
// range splitting, the CDG objective adapter, the random-sampling
// phase, the coarse-grained search, and CdgRunner configuration and
// failure handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_farm.hpp"
#include "cdg/cdg_objective.hpp"
#include "flow/campaign.hpp"
#include "cdg/random_sample.hpp"
#include "flow/runner.hpp"
#include "cdg/skeletonizer.hpp"
#include "duv/io_unit.hpp"
#include "neighbors/neighbors.hpp"
#include "obs/trace.hpp"
#include "opt/baselines.hpp"
#include "opt/implicit_filtering.hpp"
#include "opt/synthetic.hpp"
#include "tgen/parser.hpp"
#include "util/error.hpp"

namespace ascdg::cdg {
namespace {

// The flow-level driver types moved from cdg/runner.hpp to flow/ when
// the runner was decomposed into stages; this file tests both layers.
using namespace ascdg::flow;  // NOLINT

using tgen::parse_template;
using util::ConfigError;
using util::NotFoundError;
using util::ValidationError;

// ---------------------------------------------------------- skeletonizer --

TEST(SkeletonizerRules, MarksPositiveWeightsKeepsZeros) {
  // The paper's Fig. 1 example: add has weight 0 and must stay fixed.
  const auto tmpl = parse_template(R"(
    template lsu_stress {
      weight Mnemonic { load: 40, store: 40, add: 0, sync: 20 }
    }
  )");
  const Skeletonizer skeletonizer;
  const auto skel = skeletonizer.skeletonize(tmpl);
  EXPECT_EQ(skel.name(), "lsu_stress_skel");
  EXPECT_EQ(skel.mark_count(), 3u);
  const auto* wp =
      std::get_if<tgen::SkeletonWeightParameter>(&skel.parameters()[0]);
  ASSERT_NE(wp, nullptr);
  EXPECT_FALSE(wp->entries[0].weight.has_value());  // load marked
  ASSERT_TRUE(wp->entries[2].weight.has_value());   // add fixed
  EXPECT_DOUBLE_EQ(*wp->entries[2].weight, 0.0);
}

TEST(SkeletonizerRules, MarkZeroWeightsOption) {
  const auto tmpl = parse_template(
      "template t { weight W { a: 1, b: 0 } }");
  SkeletonizerOptions options;
  options.mark_zero_weights = true;
  const Skeletonizer skeletonizer(options);
  EXPECT_EQ(skeletonizer.skeletonize(tmpl).mark_count(), 2u);
}

TEST(SkeletonizerRules, RangeBecomesMarkedSubranges) {
  const auto tmpl = parse_template("template t { range CacheDelay [0, 1000] }");
  SkeletonizerOptions options;
  options.subranges = 3;
  const Skeletonizer skeletonizer(options);
  const auto skel = skeletonizer.skeletonize(tmpl);
  EXPECT_EQ(skel.mark_count(), 3u);
  const auto* sp =
      std::get_if<tgen::SkeletonSubrangeParameter>(&skel.parameters()[0]);
  ASSERT_NE(sp, nullptr);
  ASSERT_EQ(sp->entries.size(), 3u);
  // Subranges must tile [0, 1000] exactly.
  EXPECT_EQ(sp->entries.front().lo, 0);
  EXPECT_EQ(sp->entries.back().hi, 1000);
  for (std::size_t i = 1; i < sp->entries.size(); ++i) {
    EXPECT_EQ(sp->entries[i].lo, sp->entries[i - 1].hi + 1);
  }
}

TEST(SkeletonizerRules, SubrangeParameterWeightsMarked) {
  const auto tmpl = parse_template(
      "template t { subrange S { [0, 4]: 2, [5, 9]: 0 } }");
  const Skeletonizer skeletonizer;
  const auto skel = skeletonizer.skeletonize(tmpl);
  EXPECT_EQ(skel.mark_count(), 1u);  // zero-weight subrange stays fixed
}

TEST(SkeletonizerRules, NoTunableSettingsThrows) {
  // All weights zero except... a template whose only parameter is an
  // all-zero-weight weight param cannot exist (validation), so use a
  // weight param with zeros only marked off -> no: simplest impossible
  // case is an empty template.
  tgen::TestTemplate empty("empty");
  const Skeletonizer skeletonizer;
  EXPECT_THROW((void)skeletonizer.skeletonize(empty), ValidationError);
}

TEST(SkeletonizerRules, ZeroSubrangesConfigThrows) {
  SkeletonizerOptions options;
  options.subranges = 0;
  EXPECT_THROW(Skeletonizer{options}, ConfigError);
}

TEST(SkeletonizerRules, SkeletonInstantiatesAgainstOriginalShape) {
  const duv::IoUnit io;
  const auto suite = io.suite();
  const Skeletonizer skeletonizer;
  for (const auto& tmpl : suite) {
    const auto skel = skeletonizer.skeletonize(tmpl);
    const std::vector<double> w(skel.mark_count(), 0.5);
    const auto inst = skel.instantiate("x", w);
    // Same parameter names, in order.
    EXPECT_EQ(inst.parameter_names(), tmpl.parameter_names()) << tmpl.name();
  }
}

// ------------------------------------------------------------ split_range --

TEST(SplitRange, UniformTilesExactly) {
  const auto parts = split_range(0, 9, 3, SubrangeSpacing::kUniform);
  ASSERT_EQ(parts.size(), 3u);
  const std::pair<std::int64_t, std::int64_t> expected0{0, 3};
  const std::pair<std::int64_t, std::int64_t> expected1{4, 6};
  const std::pair<std::int64_t, std::int64_t> expected2{7, 9};
  EXPECT_EQ(parts[0], expected0);
  EXPECT_EQ(parts[1], expected1);
  EXPECT_EQ(parts[2], expected2);
}

TEST(SplitRange, FewerValuesThanSubranges) {
  const auto parts = split_range(5, 6, 8, SubrangeSpacing::kUniform);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].first, 5);
  EXPECT_EQ(parts[0].second, 5);
  EXPECT_EQ(parts[1].first, 6);
  EXPECT_EQ(parts[1].second, 6);
}

TEST(SplitRange, SingletonRange) {
  const auto parts = split_range(7, 7, 4, SubrangeSpacing::kUniform);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].first, 7);
  EXPECT_EQ(parts[0].second, 7);
}

TEST(SplitRange, NegativeBounds) {
  const auto parts = split_range(-10, -1, 2, SubrangeSpacing::kUniform);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].first, -10);
  EXPECT_EQ(parts[1].second, -1);
  EXPECT_EQ(parts[1].first, parts[0].second + 1);
}

class SplitRangeProperty
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t,
                                                 std::size_t, SubrangeSpacing>> {
};

TEST_P(SplitRangeProperty, TilesWithoutGapsOrOverlap) {
  const auto [lo, hi, count, spacing] = GetParam();
  const auto parts = split_range(lo, hi, count, spacing);
  ASSERT_FALSE(parts.empty());
  EXPECT_EQ(parts.front().first, lo);
  EXPECT_EQ(parts.back().second, hi);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_LE(parts[i].first, parts[i].second);
    if (i > 0) EXPECT_EQ(parts[i].first, parts[i - 1].second + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cdg, SplitRangeProperty,
    ::testing::Combine(::testing::Values<std::int64_t>(0, -50, 17),
                       ::testing::Values<std::int64_t>(63, 1000, 17),
                       ::testing::Values<std::size_t>(1, 2, 4, 7, 16),
                       ::testing::Values(SubrangeSpacing::kUniform,
                                         SubrangeSpacing::kGeometric)));

TEST(SplitRange, GeometricWidthsGrow) {
  const auto parts = split_range(0, 1000, 4, SubrangeSpacing::kGeometric);
  ASSERT_EQ(parts.size(), 4u);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const auto w_prev = parts[i - 1].second - parts[i - 1].first;
    const auto w_cur = parts[i].second - parts[i].first;
    EXPECT_GE(w_cur, w_prev);
  }
}

// --------------------------------------------------------- cdg objective --

class CdgObjectiveTest : public ::testing::Test {
 protected:
  duv::IoUnit io_;
  exec::ThreadFarm farm_{2};

  tgen::Skeleton crc_skeleton() {
    const auto suite = io_.suite();
    for (const auto& tmpl : suite) {
      if (tmpl.name() == "io_crc_smoke") {
        return Skeletonizer().skeletonize(tmpl);
      }
    }
    throw std::runtime_error("io_crc_smoke not found");
  }

  neighbors::ApproximatedTarget crc_target() {
    coverage::SimStats none(io_.space().size());
    return neighbors::family_target(io_.space(), "crc", none);
  }
};

TEST_F(CdgObjectiveTest, EvaluateReturnsTargetValueAndAccumulates) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  CdgObjective objective(io_, farm_, skel, target, 50);
  EXPECT_EQ(objective.dimension(), skel.mark_count());
  const std::vector<double> x(skel.mark_count(), 0.5);
  const double v = objective.evaluate(x, 1);
  EXPECT_GE(v, 0.0);
  EXPECT_EQ(objective.simulations(), 50u);
  EXPECT_EQ(objective.combined().sims(), 50u);
  (void)objective.evaluate(x, 2);
  EXPECT_EQ(objective.simulations(), 100u);
  EXPECT_TRUE(objective.has_best());
}

TEST_F(CdgObjectiveTest, TracksBestPoint) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  CdgObjective objective(io_, farm_, skel, target, 50);
  std::vector<double> good(skel.mark_count(), 0.9);
  std::vector<double> bad(skel.mark_count(), 0.0);
  const double vg = objective.evaluate(good, 1);
  const double vb = objective.evaluate(bad, 2);
  EXPECT_DOUBLE_EQ(objective.best_value(), std::max(vg, vb));
}

TEST_F(CdgObjectiveTest, ZeroSimsThrows) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  EXPECT_THROW(CdgObjective(io_, farm_, skel, target, 0), ConfigError);
}

// ------------------------------------------------------ batched dispatch --

TEST_F(CdgObjectiveTest, BatchMatchesScalarEvaluationBitIdentical) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  CdgObjective scalar(io_, farm_, skel, target, 30);
  CdgObjective batched(io_, farm_, skel, target, 30);

  std::vector<opt::Point> xs;
  for (const double w : {0.1, 0.4, 0.7, 1.0}) {
    xs.emplace_back(skel.mark_count(), w);
  }
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44};
  std::vector<double> scalar_values;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    scalar_values.push_back(scalar.evaluate(xs[i], seeds[i]));
  }
  const auto batch_values = batched.evaluate_batch(xs, seeds);
  EXPECT_EQ(batch_values, scalar_values);
  EXPECT_EQ(batched.simulations(), scalar.simulations());
  EXPECT_EQ(batched.combined(), scalar.combined());
  EXPECT_EQ(batched.best_value(), scalar.best_value());
  EXPECT_EQ(batched.best_point(), scalar.best_point());
}

TEST_F(CdgObjectiveTest, BatchResultsIndependentOfWorkerCount) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  exec::ThreadFarm farm1(1);
  exec::ThreadFarm farm8(8);
  CdgObjective obj1(io_, farm1, skel, target, 25);
  CdgObjective obj8(io_, farm8, skel, target, 25);

  std::vector<opt::Point> xs;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 9; ++i) {
    xs.emplace_back(skel.mark_count(), 0.1 * static_cast<double>(i + 1));
    seeds.push_back(100 + i);
  }
  EXPECT_EQ(obj1.evaluate_batch(xs, seeds), obj8.evaluate_batch(xs, seeds));
  EXPECT_EQ(obj1.simulations(), obj8.simulations());
  EXPECT_EQ(obj1.combined(), obj8.combined());
}

TEST_F(CdgObjectiveTest, MismatchedBatchSpansThrow) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  CdgObjective objective(io_, farm_, skel, target, 10);
  const std::vector<opt::Point> xs{opt::Point(skel.mark_count(), 0.5)};
  const std::vector<std::uint64_t> seeds{1, 2};
  EXPECT_THROW((void)objective.evaluate_batch(xs, seeds), ConfigError);
  const std::vector<opt::Point> bad_dim{opt::Point(skel.mark_count() + 1, 0.5)};
  const std::vector<std::uint64_t> one_seed{1};
  EXPECT_THROW((void)objective.evaluate_batch(bad_dim, one_seed), ConfigError);
}

// ------------------------------------------------------- evaluation cache --

TEST_F(CdgObjectiveTest, CacheHitSkipsSimulationAndRepeatsValue) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  CdgObjective objective(io_, farm_, skel, target, 40);
  const std::vector<double> x(skel.mark_count(), 0.5);

  const double v1 = objective.evaluate(x, 9);
  EXPECT_EQ(objective.simulations(), 40u);
  EXPECT_EQ(objective.cache_misses(), 1u);
  EXPECT_EQ(objective.cache_hits(), 0u);

  const double v2 = objective.evaluate(x, 9);  // same (point, seed)
  EXPECT_EQ(v2, v1);
  EXPECT_EQ(objective.simulations(), 40u);  // no resimulation
  EXPECT_EQ(objective.cache_hits(), 1u);
  // The hit still merges its stats: combined coverage matches a
  // cache-free run of the same evaluation sequence.
  EXPECT_EQ(objective.combined().sims(), 80u);

  const double v3 = objective.evaluate(x, 10);  // new seed -> miss
  (void)v3;
  EXPECT_EQ(objective.simulations(), 80u);
  EXPECT_EQ(objective.cache_misses(), 2u);
}

TEST_F(CdgObjectiveTest, CacheOffResimulatesButValuesStillAgree) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  CdgObjective objective(io_, farm_, skel, target, 40,
                         EvalCacheConfig{.enabled = false, .capacity = 0});
  const std::vector<double> x(skel.mark_count(), 0.5);
  const double v1 = objective.evaluate(x, 9);
  const double v2 = objective.evaluate(x, 9);
  EXPECT_EQ(v1, v2);  // determinism comes from the seed, not the cache
  EXPECT_EQ(objective.simulations(), 80u);
  EXPECT_EQ(objective.cache_hits(), 0u);
  EXPECT_EQ(objective.cache_misses(), 0u);
}

TEST_F(CdgObjectiveTest, DuplicatePairInOneBatchSimulatesOnce) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  CdgObjective objective(io_, farm_, skel, target, 40);
  const opt::Point x(skel.mark_count(), 0.5);
  const std::vector<opt::Point> xs{x, x};
  const std::vector<std::uint64_t> seeds{7, 7};
  const auto values = objective.evaluate_batch(xs, seeds);
  EXPECT_EQ(values[0], values[1]);
  EXPECT_EQ(objective.simulations(), 40u);  // one farm job for the pair
  EXPECT_EQ(objective.cache_misses(), 1u);
  EXPECT_EQ(objective.cache_hits(), 1u);
  // Both evaluations still count toward combined coverage.
  EXPECT_EQ(objective.combined().sims(), 80u);
}

TEST_F(CdgObjectiveTest, CacheEvictsLeastRecentlyUsed) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  CdgObjective objective(io_, farm_, skel, target, 20,
                         EvalCacheConfig{.enabled = true, .capacity = 1});
  const std::vector<double> a(skel.mark_count(), 0.2);
  const std::vector<double> b(skel.mark_count(), 0.8);
  (void)objective.evaluate(a, 1);  // miss, cached
  (void)objective.evaluate(a, 1);  // hit: resident
  (void)objective.evaluate(b, 2);  // miss, evicts (a, 1)
  (void)objective.evaluate(b, 2);  // hit: resident
  (void)objective.evaluate(a, 1);  // miss again: was evicted
  EXPECT_EQ(objective.cache_misses(), 3u);
  EXPECT_EQ(objective.cache_hits(), 2u);
  EXPECT_EQ(objective.simulations(), 60u);
}

// Regression: each objective instance must emit globally unique template
// names. Two objectives over the same skeleton used to both name their
// probes "<skeleton>_probe<ordinal>", colliding in shared telemetry and
// coverage-by-template attribution.
TEST_F(CdgObjectiveTest, ProbeNamePrefixUniquePerObjective) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  CdgObjective a(io_, farm_, skel, target, 10);
  CdgObjective b(io_, farm_, skel, target, 10);
  EXPECT_NE(a.probe_prefix(), b.probe_prefix());
  EXPECT_TRUE(a.probe_prefix().starts_with(skel.name()));
  EXPECT_TRUE(b.probe_prefix().starts_with(skel.name()));
}

// ------------------------------------- optimizer x dispatch equivalence --
//
// Satellite guarantee of the batched-evaluation protocol: for every
// optimizer, running against the native batched CdgObjective and against
// a scalarized wrapper (default scalar evaluate loop) yields the same
// OptResult bit for bit, at one worker and at eight.

void expect_same_opt_result(const opt::OptResult& a, const opt::OptResult& b) {
  EXPECT_EQ(a.best_point, b.best_point);
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.reason, b.reason);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].center_value, b.trace[i].center_value);
    EXPECT_EQ(a.trace[i].best_value, b.trace[i].best_value);
    EXPECT_EQ(a.trace[i].evaluations, b.trace[i].evaluations);
    EXPECT_EQ(a.trace[i].moved, b.trace[i].moved);
  }
}

class CdgDispatchEquivalence : public CdgObjectiveTest {
 protected:
  // Runs `run` against the native batch path and the scalarized path on
  // farms of 1 and 8 workers; all four OptResults must be identical.
  template <typename Run>
  void check(Run run) {
    const auto skel = crc_skeleton();
    const auto target = crc_target();
    std::vector<opt::OptResult> results;
    std::vector<std::size_t> sims;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
      exec::ThreadFarm farm(workers);
      CdgObjective native(io_, farm, skel, target, 20);
      results.push_back(run(native, skel.mark_count()));
      sims.push_back(native.simulations());

      CdgObjective inner(io_, farm, skel, target, 20);
      opt::ScalarizedObjective scalar(inner);
      results.push_back(run(scalar, skel.mark_count()));
      sims.push_back(inner.simulations());
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      expect_same_opt_result(results[0], results[i]);
      EXPECT_EQ(sims[0], sims[i]);
    }
  }
};

TEST_F(CdgDispatchEquivalence, ImplicitFiltering) {
  check([](opt::Objective& o, std::size_t dim) {
    opt::ImplicitFilteringOptions options;
    options.max_iterations = 4;
    options.directions = 6;
    options.seed = 301;
    return opt::implicit_filtering(o, std::vector<double>(dim, 0.5), options);
  });
}

TEST_F(CdgDispatchEquivalence, RandomSearch) {
  check([](opt::Objective& o, std::size_t) {
    opt::RandomSearchOptions options;
    options.samples = 24;
    options.seed = 303;
    return opt::random_search(o, options);
  });
}

TEST_F(CdgDispatchEquivalence, CoordinateSearch) {
  check([](opt::Objective& o, std::size_t dim) {
    opt::CoordinateSearchOptions options;
    options.max_iterations = 4;
    options.seed = 307;
    return opt::coordinate_search(o, std::vector<double>(dim, 0.5), options);
  });
}

TEST_F(CdgDispatchEquivalence, NelderMead) {
  check([](opt::Objective& o, std::size_t dim) {
    opt::NelderMeadOptions options;
    options.max_iterations = 8;
    options.tolerance = 1e-12;
    options.max_evaluations = 30;
    options.seed = 311;
    return opt::nelder_mead(o, std::vector<double>(dim, 0.4), options);
  });
}

TEST_F(CdgDispatchEquivalence, CrossEntropy) {
  check([](opt::Objective& o, std::size_t dim) {
    opt::CrossEntropyOptions options;
    options.population = 12;
    options.elite = 3;
    options.max_iterations = 3;
    options.seed = 313;
    return opt::cross_entropy(o, std::vector<double>(dim, 0.5), options);
  });
}

TEST_F(CdgDispatchEquivalence, SimulatedAnnealing) {
  check([](opt::Objective& o, std::size_t dim) {
    opt::SimulatedAnnealingOptions options;
    options.max_evaluations = 30;
    options.seed = 317;
    return opt::simulated_annealing(o, std::vector<double>(dim, 0.5), options);
  });
}

// ---------------------------------------------------------- random sample --

TEST_F(CdgObjectiveTest, RandomSampleShapes) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  RandomSampleOptions options;
  options.templates = 20;
  options.sims_per_template = 25;
  options.seed = 5;
  const auto result = random_sample(io_, farm_, skel, target, options);
  ASSERT_EQ(result.samples.size(), 20u);
  EXPECT_EQ(result.simulations, 500u);
  EXPECT_EQ(result.combined.sims(), 500u);
  EXPECT_LT(result.best_index, result.samples.size());
  for (const auto& sample : result.samples) {
    EXPECT_EQ(sample.point.size(), skel.mark_count());
    EXPECT_EQ(sample.stats.sims(), 25u);
    EXPECT_LE(sample.target_value, result.best().target_value);
  }
}

TEST_F(CdgObjectiveTest, RandomSampleDeterministic) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  RandomSampleOptions options;
  options.templates = 10;
  options.sims_per_template = 20;
  options.seed = 77;
  const auto a = random_sample(io_, farm_, skel, target, options);
  const auto b = random_sample(io_, farm_, skel, target, options);
  EXPECT_EQ(a.best_index, b.best_index);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].point, b.samples[i].point);
    EXPECT_EQ(a.samples[i].stats, b.samples[i].stats);
  }
}

TEST_F(CdgObjectiveTest, RandomSampleZeroBudgetThrows) {
  const auto skel = crc_skeleton();
  const auto target = crc_target();
  RandomSampleOptions options;
  options.templates = 0;
  EXPECT_THROW((void)random_sample(io_, farm_, skel, target, options),
               ConfigError);
}

// ---------------------------------------------------------- coarse search --

TEST(CoarseSearch, RanksAndThrowsWhenEmpty) {
  coverage::CoverageRepository repo(2);
  coverage::CoverageVector vec(2);
  vec.hit(coverage::EventId{0});
  repo.record("good", vec);
  repo.record("idle", coverage::CoverageVector(2));

  const neighbors::ApproximatedTarget target(
      {coverage::EventId{1}},
      {{coverage::EventId{0}, 1.0}, {coverage::EventId{1}, 2.0}});
  const auto ranked = coarse_search(target, repo, 5);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].name, "good");

  // A target with no evidence anywhere must throw.
  const neighbors::ApproximatedTarget dark({coverage::EventId{1}},
                                           {{coverage::EventId{1}, 1.0}});
  EXPECT_THROW((void)coarse_search(dark, repo, 5), NotFoundError);
}

// ---------------------------------------------------------------- runner --

TEST(Runner, ConfigValidation) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  FlowConfig config;
  config.sample_templates = 0;
  EXPECT_THROW(CdgRunner(io, farm, config), ConfigError);
  config = FlowConfig{};
  config.opt_directions = 0;
  EXPECT_THROW(CdgRunner(io, farm, config), ConfigError);
}

TEST(Runner, RunFromTemplateSmallBudget) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  FlowConfig config;
  config.sample_templates = 15;
  config.sample_sims = 20;
  config.opt_directions = 4;
  config.opt_sims_per_point = 20;
  config.opt_max_iterations = 3;
  config.harvest_sims = 100;
  config.seed = 9;
  CdgRunner runner(io, farm, config);

  coverage::SimStats none(io.space().size());
  const auto target = neighbors::family_target(io.space(), "crc", none);
  const auto suite = io.suite();
  const tgen::TestTemplate* seed_tmpl = nullptr;
  for (const auto& t : suite) {
    if (t.name() == "io_crc_smoke") seed_tmpl = &t;
  }
  ASSERT_NE(seed_tmpl, nullptr);

  const auto result = runner.run_from_template(target, *seed_tmpl);
  EXPECT_EQ(result.seed_template, "io_crc_smoke");
  EXPECT_GT(result.skeleton.mark_count(), 0u);
  EXPECT_EQ(result.sampling_phase.sims, 15u * 20u);
  EXPECT_GT(result.optimization_phase.sims, 0u);
  EXPECT_EQ(result.harvest_phase.sims, 100u);
  EXPECT_EQ(result.harvest_phase.stats.sims(), 100u);
  EXPECT_EQ(result.flow_sims(), result.sampling_phase.sims +
                                    result.optimization_phase.sims +
                                    result.harvest_phase.sims);
  // The harvested template instantiates the skeleton.
  EXPECT_FALSE(result.best_template.empty());
  EXPECT_LE(result.optimization.trace.size(), 3u);
}

namespace {
/// Pulls the unsigned integer that follows `"key":` in a JSONL line;
/// returns false when the key is absent.
bool extract_uint_field(const std::string& line, const std::string& key,
                        std::size_t* out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::stoull(line.substr(pos + needle.size()));
  return true;
}
}  // namespace

TEST(Runner, TraceJsonlPhaseSimsSumToFarmTotal) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  std::ostringstream trace;
  obs::Tracer sink(trace);

  FlowConfig config;
  config.sample_templates = 10;
  config.sample_sims = 20;
  config.opt_directions = 4;
  config.opt_sims_per_point = 20;
  config.opt_max_iterations = 2;
  config.harvest_sims = 100;
  config.seed = 11;
  config.trace = &sink;
  CdgRunner runner(io, farm, config);

  coverage::SimStats none(io.space().size());
  const auto target = neighbors::family_target(io.space(), "crc", none);
  const auto result = runner.run_from_template(target, io.suite().front());

  // flow_start, three phases, flow_end — plus the span records, the
  // per-iteration opt_iter series, and one first_hit per target event.
  std::istringstream lines(trace.str());
  std::string line;
  std::size_t phase_lines = 0;
  std::size_t span_lines = 0;
  std::vector<std::string> span_names;
  std::size_t eval_batch_spans = 0;
  std::size_t opt_iter_lines = 0;
  std::size_t first_hit_lines = 0;
  std::size_t sims_total = 0;
  std::size_t farm_total_in_trace = 0;
  std::size_t flow_end_lines = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"event\":\"phase\"") != std::string::npos) {
      ++phase_lines;
      std::size_t sims = 0;
      ASSERT_TRUE(extract_uint_field(line, "sims", &sims)) << line;
      sims_total += sims;
      EXPECT_NE(line.find("\"wall_ms\":"), std::string::npos) << line;
    }
    if (line.find("\"event\":\"span\"") != std::string::npos) {
      if (line.find("\"span\":\"eval_batch\"") != std::string::npos) {
        ++eval_batch_spans;
      } else {
        ++span_lines;
        const std::string key = "\"span\":\"";
        const auto start = line.find(key) + key.size();
        span_names.push_back(line.substr(start, line.find('"', start) - start));
      }
    }
    if (line.find("\"event\":\"opt_iter\"") != std::string::npos) {
      ++opt_iter_lines;
    }
    if (line.find("\"event\":\"first_hit\"") != std::string::npos) {
      ++first_hit_lines;
    }
    if (line.find("\"event\":\"flow_end\"") != std::string::npos) {
      ++flow_end_lines;
      ASSERT_TRUE(
          extract_uint_field(line, "farm_total_sims", &farm_total_in_trace))
          << line;
    }
  }
  EXPECT_EQ(phase_lines, 3u);
  EXPECT_EQ(flow_end_lines, 1u);
  // The flow span plus one span per executed pipeline stage.
  EXPECT_EQ(span_lines, 6u);
  std::sort(span_names.begin(), span_names.end());
  EXPECT_EQ(span_names,
            (std::vector<std::string>{"flow", "harvest", "optimization",
                                      "refinement", "sampling",
                                      "skeletonize"}));
  // One eval_batch span per optimizer dispatch: the initial center,
  // then one whole-stencil batch per iteration.
  EXPECT_EQ(eval_batch_spans, 1u + result.optimization.trace.size());
  EXPECT_EQ(opt_iter_lines, result.optimization.trace.size());
  EXPECT_EQ(first_hit_lines, target.targets().size());
  EXPECT_EQ(result.first_hits.size(), target.targets().size());
  EXPECT_EQ(sink.lines(), 5u + span_lines + eval_batch_spans + opt_iter_lines +
                              first_hit_lines);

  // The paper's cost metric must reconcile: per-phase sims sum to the
  // farm's books (the farm was fresh, so flow sims are all its sims).
  EXPECT_EQ(sims_total, result.flow_sims());
  EXPECT_EQ(sims_total, farm.total_simulations());
  EXPECT_EQ(farm_total_in_trace, farm.total_simulations());

  // Phase wall times were measured.
  EXPECT_GT(result.sampling_phase.wall_ms, 0.0);
  EXPECT_GT(result.optimization_phase.wall_ms, 0.0);
  EXPECT_GT(result.harvest_phase.wall_ms, 0.0);
}

TEST(Runner, FullRunUsesCoarseSearch) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  // Build a small "before" repository from the suite.
  coverage::CoverageRepository repo(io.space().size());
  const auto suite = io.suite();
  for (std::size_t j = 0; j < suite.size(); ++j) {
    repo.record(suite[j].name(), farm.run(io, suite[j], 150, 500 + j));
  }
  FlowConfig config;
  config.sample_templates = 10;
  config.sample_sims = 20;
  config.opt_directions = 4;
  config.opt_sims_per_point = 20;
  config.opt_max_iterations = 2;
  config.harvest_sims = 50;
  CdgRunner runner(io, farm, config);
  const auto target =
      neighbors::family_target(io.space(), "crc", repo.total());
  const auto result = runner.run(target, repo, suite);
  // The merged seed is led by the best-ranked template.
  EXPECT_TRUE(result.seed_template.starts_with("io_crc_smoke"))
      << result.seed_template;
  EXPECT_EQ(result.before.sims, repo.total_sims());
}

TEST(Runner, HarvestCanBeDisabled) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  FlowConfig config;
  config.sample_templates = 5;
  config.sample_sims = 10;
  config.opt_directions = 2;
  config.opt_sims_per_point = 10;
  config.opt_max_iterations = 1;
  config.harvest_sims = 0;
  CdgRunner runner(io, farm, config);
  coverage::SimStats none(io.space().size());
  const auto target = neighbors::family_target(io.space(), "crc", none);
  const auto result =
      runner.run_from_template(target, io.suite().front());
  EXPECT_EQ(result.harvest_phase.sims, 0u);
  EXPECT_EQ(result.harvest_phase.stats.sims(), 0u);
}

TEST(Runner, CorrelationExpansionGrowsObjective) {
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  coverage::CoverageRepository repo(io.space().size());
  const auto suite = io.suite();
  for (std::size_t j = 0; j < suite.size(); ++j) {
    repo.record(suite[j].name(), farm.run(io, suite[j], 200, 900 + j));
  }
  flow::FlowConfig config;
  config.sample_templates = 8;
  config.sample_sims = 10;
  config.opt_directions = 2;
  config.opt_sims_per_point = 10;
  config.opt_max_iterations = 1;
  config.harvest_sims = 0;
  config.expand_target_by_correlation = true;
  config.correlation_min_similarity = 0.7;
  CdgRunner runner(io, farm, config);
  const auto target =
      neighbors::family_target(io.space(), "crc", repo.total());
  // Expansion happens inside run(); it must complete and the flow must
  // still produce a valid skeleton/template.
  const auto result = runner.run(target, repo, suite);
  EXPECT_GT(result.skeleton.mark_count(), 0u);
  EXPECT_FALSE(result.best_template.empty());
}

// ----------------------------------------------------------- refinement --

TEST(Refinement, RunsWhenEvidenceExists) {
  // Target an event the seed template hits reliably -> evidence after
  // the optimization phase is certain, so the refinement stage must run.
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  FlowConfig config;
  config.sample_templates = 10;
  config.sample_sims = 15;
  config.opt_directions = 4;
  config.opt_sims_per_point = 30;
  config.opt_max_iterations = 2;
  config.refine_with_real_target = true;
  config.refine_threshold = 0.001;
  config.refine_max_iterations = 2;
  config.harvest_sims = 100;
  CdgRunner runner(io, farm, config);

  const auto family = io.crc_family();
  // crc_004 as "target": plenty of evidence everywhere.
  const neighbors::ApproximatedTarget target(
      {family[0]}, {{family[0], 2.0}, {family[1], 0.5}});
  const auto suite = io.suite();
  const tgen::TestTemplate* seed_tmpl = nullptr;
  for (const auto& t : suite) {
    if (t.name() == "io_crc_smoke") seed_tmpl = &t;
  }
  ASSERT_NE(seed_tmpl, nullptr);
  const auto result = runner.run_from_template(target, *seed_tmpl);
  ASSERT_TRUE(result.refinement.has_value());
  EXPECT_LE(result.refinement->trace.size(), 2u);
  // Refinement sims are accounted in the optimization phase.
  EXPECT_GT(result.optimization_phase.sims,
            (result.optimization.evaluations) * 30);
}

TEST(Refinement, SkippedWithoutEvidence) {
  // Target the unhittable deep tail with a tiny budget: no evidence,
  // refinement must be skipped.
  const duv::IoUnit io;
  exec::ThreadFarm farm(2);
  FlowConfig config;
  config.sample_templates = 5;
  config.sample_sims = 10;
  config.opt_directions = 2;
  config.opt_sims_per_point = 10;
  config.opt_max_iterations = 1;
  config.refine_with_real_target = true;
  config.refine_threshold = 0.5;  // effectively unreachable
  config.harvest_sims = 0;
  CdgRunner runner(io, farm, config);
  const auto family = io.crc_family();
  const neighbors::ApproximatedTarget target(
      {family[5]}, {{family[0], 1.0}, {family[5], 2.0}});
  const auto result =
      runner.run_from_template(target, io.suite().front());
  EXPECT_FALSE(result.refinement.has_value());
}

TEST(Refinement, OffByDefault) {
  const FlowConfig config;
  EXPECT_FALSE(config.refine_with_real_target);
}

// ---------------------------------------------------------- multi-target --

class MultiTargetTest : public ::testing::Test {
 protected:
  duv::IoUnit io_;
  exec::ThreadFarm farm_{2};

  FlowConfig small_config() {
    FlowConfig config;
    config.sample_templates = 20;
    config.sample_sims = 20;
    config.opt_directions = 4;
    config.opt_sims_per_point = 30;
    config.opt_max_iterations = 2;
    config.harvest_sims = 50;
    config.seed = 77;
    return config;
  }

  const tgen::TestTemplate* crc_smoke(const std::vector<tgen::TestTemplate>& suite) {
    for (const auto& t : suite) {
      if (t.name() == "io_crc_smoke") return &t;
    }
    return nullptr;
  }
};

TEST_F(MultiTargetTest, SharesSamplingAcrossTargets) {
  const auto family = io_.crc_family();
  const std::vector<neighbors::ApproximatedTarget> targets{
      neighbors::ApproximatedTarget({family[2]},
                                    {{family[0], 0.5}, {family[2], 2.0}}),
      neighbors::ApproximatedTarget({family[3]},
                                    {{family[1], 0.5}, {family[3], 2.0}}),
      neighbors::ApproximatedTarget({family[4]},
                                    {{family[2], 0.5}, {family[4], 2.0}}),
  };
  const auto suite = io_.suite();
  const auto* seed = crc_smoke(suite);
  ASSERT_NE(seed, nullptr);
  const auto result =
      run_multi_target(io_, farm_, small_config(), targets, *seed);

  ASSERT_EQ(result.per_target.size(), 3u);
  // One shared sampling phase: 20 x 20 sims, attributed once.
  EXPECT_EQ(result.sampling.simulations, 400u);
  EXPECT_EQ(result.per_target[0].sampling_phase.sims, 400u);
  EXPECT_EQ(result.per_target[1].sampling_phase.sims, 0u);
  EXPECT_EQ(result.per_target[2].sampling_phase.sims, 0u);
  EXPECT_EQ(result.sims_saved, 2u * 400u);
  // Each target optimized and harvested.
  for (const auto& flow : result.per_target) {
    EXPECT_GT(flow.optimization_phase.sims, 0u);
    EXPECT_EQ(flow.harvest_phase.sims, 50u);
    EXPECT_FALSE(flow.best_template.empty());
  }
}

TEST_F(MultiTargetTest, PerTargetBestSampleDiffers) {
  const auto family = io_.crc_family();
  const std::vector<neighbors::ApproximatedTarget> targets{
      neighbors::ApproximatedTarget({family[0]}, {{family[0], 1.0}}),
      neighbors::ApproximatedTarget({family[2]}, {{family[2], 1.0}}),
  };
  const auto suite = io_.suite();
  const auto* seed = crc_smoke(suite);
  ASSERT_NE(seed, nullptr);
  const auto result =
      run_multi_target(io_, farm_, small_config(), targets, *seed);
  // Each target's sampling view re-scored its own best index over the
  // SAME stats.
  for (std::size_t t = 0; t < targets.size(); ++t) {
    EXPECT_EQ(result.per_target[t].sampling.best_index,
              best_sample_for(result.sampling, targets[t]));
    EXPECT_EQ(result.per_target[t].sampling.samples.size(),
              result.sampling.samples.size());
  }
}

TEST_F(MultiTargetTest, EmptyTargetsThrows) {
  const auto suite = io_.suite();
  const auto* seed = crc_smoke(suite);
  ASSERT_NE(seed, nullptr);
  const std::vector<neighbors::ApproximatedTarget> none;
  EXPECT_THROW(
      (void)run_multi_target(io_, farm_, small_config(), none, *seed),
      ConfigError);
}

TEST(BestSampleFor, PicksArgmaxForTarget) {
  RandomSampleResult sampling;
  for (int i = 0; i < 3; ++i) {
    Sample sample;
    sample.stats = coverage::SimStats(2);
    coverage::CoverageVector vec(2);
    if (i == 1) vec.hit(coverage::EventId{0});
    if (i == 2) vec.hit(coverage::EventId{1});
    sample.stats.record(vec);
    sampling.samples.push_back(std::move(sample));
  }
  const neighbors::ApproximatedTarget t0({coverage::EventId{0}},
                                         {{coverage::EventId{0}, 1.0}});
  const neighbors::ApproximatedTarget t1({coverage::EventId{1}},
                                         {{coverage::EventId{1}, 1.0}});
  EXPECT_EQ(best_sample_for(sampling, t0), 1u);
  EXPECT_EQ(best_sample_for(sampling, t1), 2u);
}

}  // namespace
}  // namespace ascdg::cdg
