#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/check.hpp"
#include "util/norms.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mmd {
namespace {

TEST(Prng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto x = a();
    EXPECT_EQ(x, b());
    // Different seeds should diverge almost immediately.
    if (i == 0) {
      EXPECT_NE(x, c());
    }
  }
}

TEST(Prng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Prng, UniformMeanIsCentered) {
  Rng rng(7);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.uniform());
  EXPECT_NEAR(st.mean(), 0.5, 0.01);
  EXPECT_NEAR(st.variance(), 1.0 / 12.0, 0.01);
}

TEST(Prng, NextBelowBounds) {
  Rng rng(5);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) ++hits[static_cast<std::size_t>(rng.next_below(7))];
  for (int h : hits) EXPECT_GT(h, 700);  // roughly uniform
}

TEST(Prng, NextBelowRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Prng, UniformIntInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, ExponentialMean) {
  Rng rng(11);
  RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.exponential(3.0));
  EXPECT_NEAR(st.mean(), 3.0, 0.1);
}

TEST(Prng, LogUniformRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.log_uniform(1.0, 1000.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 1000.0);
  }
}

TEST(Norms, BasicIdentities) {
  const std::vector<double> f{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm1(f), 7.0);
  EXPECT_DOUBLE_EQ(norm_inf(f), 4.0);
  EXPECT_NEAR(norm_p(f, 2.0), 5.0, 1e-12);
}

TEST(Norms, EmptyAndZero) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(norm1(empty), 0.0);
  EXPECT_DOUBLE_EQ(norm_inf(empty), 0.0);
  EXPECT_DOUBLE_EQ(norm_p(empty, 2.0), 0.0);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_DOUBLE_EQ(norm_p(zero, 2.0), 0.0);
}

TEST(Norms, PNormInterpolatesBetween1AndInf) {
  const std::vector<double> f{1.0, 2.0, 3.0, 4.0};
  // ||f||_p is decreasing in p, between ||f||_inf and ||f||_1.
  double prev = norm1(f);
  for (double p : {1.5, 2.0, 3.0, 8.0}) {
    const double np = norm_p(f, p);
    EXPECT_LT(np, prev + 1e-12);
    EXPECT_GE(np, norm_inf(f) - 1e-12);
    prev = np;
  }
}

TEST(Norms, OverflowSafeForHugeValues) {
  const std::vector<double> f{1e200, 1e200};
  const double np = norm_p(f, 2.0);
  EXPECT_TRUE(std::isfinite(np));
  EXPECT_NEAR(np / 1e200, std::sqrt(2.0), 1e-9);
}

TEST(Norms, HolderConjugate) {
  EXPECT_DOUBLE_EQ(holder_conjugate(2.0), 2.0);
  EXPECT_NEAR(holder_conjugate(1.5), 3.0, 1e-12);
  EXPECT_THROW(holder_conjugate(1.0), std::invalid_argument);
}

TEST(Stats, RunningStatsMoments) {
  RunningStats st;
  for (double x : {1.0, 2.0, 3.0, 4.0}) st.add(x);
  EXPECT_EQ(st.count(), 4u);
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_NEAR(st.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 4.0);
}

TEST(Stats, Percentile) {
  const std::vector<double> data{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(data, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(data, 0.5), 3.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Stats, LinearFitExact) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};  // y = 1 + 2x
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(Stats, PowerFitRecoversExponent) {
  std::vector<double> x, y;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    x.push_back(v);
    y.push_back(3.0 * std::pow(v, -0.5));
  }
  const auto fit = fit_power(x, y);
  EXPECT_NEAR(fit.exponent, -0.5, 1e-9);
  EXPECT_NEAR(fit.coefficient, 3.0, 1e-9);
}

TEST(Stats, GeometricRange) {
  const auto r = geometric_range(2, 64, 2);
  const std::vector<int> expect{2, 4, 8, 16, 32, 64};
  EXPECT_EQ(r, expect);
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(MMD_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(MMD_REQUIRE(true, "fine"));
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(Table::num(3), "3");
  EXPECT_EQ(Table::num(2.5, 2), "2.50");
}

TEST(Table, RejectsArityMismatch) {
  Table t("t", {"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_NO_THROW(t.add_row({"1", "2"}));
}

}  // namespace
}  // namespace mmd
