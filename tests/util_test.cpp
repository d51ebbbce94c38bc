#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/parsed.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace prdrb {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::array<int, 8> seen{};
  for (int i = 0; i < 4000; ++i) ++seen[rng.next_below(8)];
  for (int c : seen) EXPECT_GT(c, 300);  // roughly uniform
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(17);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, WeightedSelectionFollowsWeights) {
  Rng rng(19);
  const std::vector<double> w{1.0, 3.0};
  int ones = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_weighted(w) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(Rng, WeightedAllZeroFallsBackToUniform) {
  Rng rng(21);
  const std::vector<double> w{0.0, 0.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.next_weighted(w), 3u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  // Child and parent should diverge immediately.
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Table, PrintsHeaderAndRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"33"});  // short row padded
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  EXPECT_NE(out.find("33"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvFormat) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.23456, 3), "1.23");
  EXPECT_EQ(Table::num(2.0, 4), "2");
}

TEST(Parsed, EditDistanceAndNearestName) {
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("drb", "drb"), 0u);
  const std::vector<std::string_view> names{"uniform", "tornado"};
  EXPECT_EQ(nearest_name("unifrom", names), "uniform");
  EXPECT_EQ(nearest_name("tornadp", names), "tornado");
  EXPECT_EQ(nearest_name("xyzzy-long-typo", names), "")
      << "wild typos must not produce absurd suggestions";
}

TEST(Parsed, ErrorCarriesDiagnosticAndThrows) {
  ParseError err;
  err.input = "pr-dbr";
  err.kind = "policy";
  err.message = "unknown policy";
  err.suggestion = "pr-drb";
  EXPECT_EQ(err.what(), "unknown policy 'pr-dbr' (did you mean 'pr-drb'?)");
  Parsed<int> bad{err};
  EXPECT_FALSE(bad.ok());
  EXPECT_THROW(bad.value_or_throw(), std::invalid_argument);
  Parsed<int> good{7};
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or_throw(), 7);
}

}  // namespace
}  // namespace prdrb
