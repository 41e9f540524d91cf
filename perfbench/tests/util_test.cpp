// Tests of the benchmark's own helpers: percentile selection, the result
// digest, span self time and the result line.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "util.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Percentile, NearestRank) {
  const auto xs = one_to(100);
  EXPECT_EQ(percentile(xs, 50), 50.0);
  EXPECT_EQ(percentile(xs, 99), 99.0);
  EXPECT_EQ(percentile(xs, 100), 100.0);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
  // Order of the input does not matter.
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50), 2.0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(0, 50), 0u);
}

TEST(Percentile, SupportedLeavesTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(1000), 99.0);
  EXPECT_EQ(supported_percentile(999), 95.0);
  EXPECT_EQ(supported_percentile(200), 95.0);
  EXPECT_EQ(supported_percentile(100), 90.0);
  EXPECT_EQ(supported_percentile(40), 75.0);
  EXPECT_EQ(supported_percentile(20), 50.0);
  EXPECT_EQ(supported_percentile(19), 0.0);
  for (std::size_t n = 1; n <= 3000; ++n) {
    const double p = supported_percentile(n);
    if (p > 0) {
      EXPECT_GE(samples_beyond(n, p), 10u) << "n=" << n << " p=" << p;
    }
  }
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Digest, StableValues) {
  // FNV-1a-64 reference values: empty input is the offset basis, and
  // "a" is the published test vector.
  EXPECT_EQ(Digest{}.value(), 14695981039346656037ULL);
  Digest a;
  a.bytes("a", 1);
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(a.hex(), "af63dc4c8601ec8c");
  // A fixed mixed sequence pins the whole encoding (u64 little endian,
  // doubles by bit pattern, strings length-prefixed).
  Digest d;
  d.u64(42);
  d.f64(98.90625);
  d.str("aluss");
  EXPECT_EQ(d.hex(), "d453b802f15f4a26");
}

TEST(Digest, SensitiveToEveryBit) {
  Digest a;
  Digest b;
  a.f64(0.1);
  b.f64(std::nextafter(0.1, 1.0));
  EXPECT_NE(a.value(), b.value());
  Digest c;
  Digest d;
  c.str("ab");
  c.str("c");
  d.str("a");
  d.str("bc");
  EXPECT_NE(c.value(), d.value());
}

TEST(Spans, SelfTimeSubtractsChildren) {
  // parent [0,100] with children [10,30] and [20,50] (overlapping) and
  // [90,120] (clipped to the parent): covered 40 + 10 = 50 us.
  const std::vector<Span> spans = {
      {"parent", 1, 0, 7, 0.0, 100.0},
      {"child", 2, 1, 7, 10.0, 30.0},
      {"child", 3, 1, 7, 20.0, 50.0},
      {"late", 4, 1, 7, 90.0, 120.0},
  };
  for (const auto& [name, s] : self_seconds(spans)) {
    if (name == "parent") EXPECT_DOUBLE_EQ(s, 50e-6);
    if (name == "child") EXPECT_DOUBLE_EQ(s, 50e-6);
    if (name == "late") EXPECT_DOUBLE_EQ(s, 30e-6);
  }
}

TEST(Spans, ParentsFollowNesting) {
  Tracer t;
  {
    const ScopedSpan outer(&t, "outer", 3);
    const ScopedSpan inner(&t, "inner", 3);
  }
  const ScopedSpan next(&t, "next");
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 3u);
  EXPECT_EQ(spans[2].parent, 0u);
}

TEST(ResultLine, Shape) {
  EXPECT_EQ(result_json(true, 3, 0, {{"p50_ms", 0.5, "ms"}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"p50_ms\": {\"value\": 0.5, \"unit\": \"ms\"}}}");
}

}  // namespace
}  // namespace perfbench
