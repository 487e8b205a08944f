// Tests of the benchmark's own arithmetic and input generation.
//
//   cmake -S perfbench -B build-perfbench
//   cmake --build build-perfbench --target perfbench_tests
//   ctest --test-dir build-perfbench
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "report.hpp"
#include "serve_stream.hpp"
#include "stats.hpp"

namespace pb = perfbench;

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3, 6, 8, 7, 10, 9};
  EXPECT_DOUBLE_EQ(pb::percentile(v, 50), 5);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 90), 9);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 99), 10);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(pb::percentile({}, 50), 0);
}

TEST(Percentile, Median) {
  EXPECT_DOUBLE_EQ(pb::median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(pb::median({4, 1, 3, 2}), 2.5);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(pb::samples_beyond(100, 90), 10u);
  EXPECT_EQ(pb::samples_beyond(99, 90), 9u);  // rank ceil(89.1) = 90
  EXPECT_EQ(pb::samples_beyond(1000, 99), 10u);
  EXPECT_EQ(pb::samples_beyond(1000, 99.9), 1u);
  EXPECT_EQ(pb::samples_beyond(0, 50), 0u);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  const std::vector<double> ladder = {50, 90, 99, 99.9};
  EXPECT_DOUBLE_EQ(pb::tail_percentile(19, ladder), -1);  // p50 leaves 9
  EXPECT_DOUBLE_EQ(pb::tail_percentile(20, ladder), 50);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(99, ladder), 50);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(100, ladder), 90);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(999, ladder), 90);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(1000, ladder), 99);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(10000, ladder), 99.9);
}

TEST(Spread, MatchesPythonExclusiveQuartiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const pb::Spread s = pb::spread({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_EQ(s.n, 10u);
  EXPECT_DOUBLE_EQ(s.q1, 2.75);
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.q3, 8.25);
  EXPECT_DOUBLE_EQ(s.iqr_frac(), 1.0);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
  const pb::Spread t = pb::spread({4, 1, 2});
  EXPECT_DOUBLE_EQ(t.q1, 1.0);
  EXPECT_DOUBLE_EQ(t.q3, 4.0);
  const pb::Spread one = pb::spread({7});
  EXPECT_DOUBLE_EQ(one.q1, 7);
  EXPECT_DOUBLE_EQ(one.q3, 7);
}

TEST(LayerSumGap, Arithmetic) {
  EXPECT_DOUBLE_EQ(pb::layer_sum_gap_frac({0.25, 0.5, 0.25}, 1.0), 0.0);
  EXPECT_NEAR(pb::layer_sum_gap_frac({0.5, 0.45}, 1.0), 0.05, 1e-12);
  EXPECT_NEAR(pb::layer_sum_gap_frac({0.6, 0.6}, 1.0), 0.2, 1e-12);  // over
  EXPECT_NEAR(pb::layer_sum_gap_frac({30, 40}, 80), 0.125, 1e-12);
  EXPECT_DOUBLE_EQ(pb::layer_sum_gap_frac({1.0}, 0.0), 0.0);
}

TEST(JsonScan, FieldsOfAFlatSummary) {
  const std::string s =
      "{\"delivered\":613386,\"drop_loss\":0,\"topology\":\"campus\","
      "\"trace_hash\":\"f9a8b12e362926a3\",\"zones\":5000}";
  EXPECT_EQ(pb::json_uint(s, "delivered"), 613386u);
  EXPECT_EQ(pb::json_uint(s, "drop_loss"), 0u);
  EXPECT_EQ(pb::json_uint(s, "zones"), 5000u);
  EXPECT_EQ(pb::json_field(s, "trace_hash"), "f9a8b12e362926a3");
  EXPECT_EQ(pb::json_field(s, "topology"), "campus");
  EXPECT_EQ(pb::json_field(s, "missing"), "");
  EXPECT_EQ(pb::json_uint(s, "missing"), 0u);
}

TEST(JsonScan, HistogramCountSkipsBucketCounts) {
  const std::string m =
      "{\"counters\":{},\"histograms\":{\"a\":{\"buckets\":[{\"count\":"
      "3,\"le\":1}],\"count\":3},\"minix.ipc.latency\":{\"buckets\":[{"
      "\"count\":7,\"le\":1},{\"count\":2,\"le\":2}],\"count\":9,"
      "\"max\":2}},\"schema_version\":1}";
  EXPECT_EQ(pb::histogram_count(m, "minix.ipc.latency"), 9u);
  EXPECT_EQ(pb::histogram_count(m, "a"), 3u);
  EXPECT_EQ(pb::histogram_count(m, "absent"), 0u);
}

TEST(ServeStream, SameSeedSameRequestsAndPlan) {
  pb::ServeStream a(42, 0, 9), b(42, 0, 9);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.next_hit(), b.next_hit());
    if (i % 20 == 0) {
      const pb::ServeCell ma = a.next_miss(), mb = b.next_miss();
      EXPECT_EQ(ma.body, mb.body);
      EXPECT_EQ(ma.key_hex, mb.key_hex);
    }
  }
  const auto pa = pb::primed_cells(42), pc = pb::primed_cells(42);
  ASSERT_EQ(pa.size(), pc.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i].body, pc[i].body);
}

TEST(ServeStream, SeedsChangeTheStream) {
  pb::ServeStream a(1, 0, 9), b(2, 0, 9);
  int same_hits = 0;
  for (int i = 0; i < 100; ++i) same_hits += a.next_hit() == b.next_hit();
  EXPECT_LT(same_hits, 50);
  EXPECT_NE(a.next_miss().key_hex, b.next_miss().key_hex);
  EXPECT_NE(pb::primed_cells(1)[0].key_hex, pb::primed_cells(2)[0].key_hex);
}

TEST(ServeStream, MissesAreNewAndCoverEveryKindAndPlatform) {
  std::set<std::string> keys;
  for (const auto& c : pb::primed_cells(7)) keys.insert(c.key_hex);
  EXPECT_EQ(keys.size(), 9u);
  for (int conn = 0; conn < 2; ++conn) {
    pb::ServeStream s(7, conn, 9);
    std::set<std::string> block;
    for (int i = 0; i < 27; ++i) {
      const pb::ServeCell c = s.next_miss();
      EXPECT_TRUE(keys.insert(c.key_hex).second) << "repeated key " << c.body;
      block.insert(c.kind + "/" + mkbas::core::platform_name(c.request.platform));
      if (i % 9 == 8) {
        EXPECT_EQ(block.size(), 9u);  // each block covers all nine pairs
        block.clear();
      }
    }
  }
}

TEST(ServeStream, HitsStayInThePrimedSet) {
  pb::ServeStream s(3, 1, 9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::size_t h = s.next_hit();
    ASSERT_LT(h, 9u);
    seen.insert(h);
  }
  EXPECT_EQ(seen.size(), 9u);
}
