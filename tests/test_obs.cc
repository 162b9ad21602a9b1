// Observability layer: registry semantics (counters, gauges, histograms,
// spans), shard merging and exporter determinism.
//
// The load-bearing property is determinism: a registry built from the same
// values must export the same bytes no matter how the writes were sharded
// across workers -- that is what lets `--metrics-out` promise byte-equal
// files for any --jobs count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/export.h"
#include "obs/metrics.h"
#include "util/golden.h"
#include "util/time.h"

namespace ixp::obs {
namespace {

// ---------------------------------------------------------------------------
// Metric primitives

TEST(Metrics, CounterAddAndSet) {
  Registry reg;
  Counter* c = reg.counter("afixp_test_total");
  c->add();
  c->add(41);
  EXPECT_EQ(c->value(), 42u);
  // Scrape-style mirroring: set() is idempotent under re-publication.
  c->set(100);
  c->set(100);
  EXPECT_EQ(c->value(), 100u);
  // The same (name, labels) pair returns the same handle.
  EXPECT_EQ(reg.counter("afixp_test_total"), c);
  EXPECT_NE(reg.counter("afixp_test_total", "k=\"v\""), c);
  EXPECT_EQ(reg.counter_value("afixp_test_total"), 100u);
  EXPECT_EQ(reg.counter_value("afixp_absent_total"), 0u);  // reads never create
}

TEST(Metrics, GaugeHoldsLatestValue) {
  Registry reg;
  Gauge* g = reg.gauge("afixp_test_links");
  g->set(3.0);
  g->set(7.5);
  EXPECT_DOUBLE_EQ(g->value(), 7.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("afixp_test_links"), 7.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("afixp_absent"), 0.0);
}

TEST(Metrics, HistogramBucketsAndNanPolicy) {
  Registry reg;
  Histogram* h = reg.histogram("afixp_test_ms", {5, 10, 20});
  ASSERT_EQ(h->counts().size(), 4u);  // 3 bounds + implicit +Inf
  h->observe(1.0);    // <= 5
  h->observe(5.0);    // boundary lands in its own bucket (le semantics)
  h->observe(7.0);    // <= 10
  h->observe(100.0);  // +Inf
  h->observe(std::nan(""));  // missing TSLP round: not a sample
  EXPECT_EQ(h->counts()[0], 2u);
  EXPECT_EQ(h->counts()[1], 1u);
  EXPECT_EQ(h->counts()[2], 0u);
  EXPECT_EQ(h->counts()[3], 1u);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 113.0);
  // Re-registration keeps the original bounds.
  Histogram* again = reg.histogram("afixp_test_ms", {1, 2, 3});
  EXPECT_EQ(again, h);
  EXPECT_EQ(again->bounds(), (std::vector<double>{5, 10, 20}));
}

TEST(Metrics, SpanAggregatesSimulatedTime) {
  Registry reg;
  Span* s = reg.span("afixp_test_simtime");
  s->record(kMinute * 5);
  s->record(kMinute * 10, 3);
  EXPECT_EQ(s->count(), 4u);
  EXPECT_EQ(s->total(), kMinute * 15);
}

TEST(Metrics, ScopedSpanUsesCallerClockAndDisarmsOnNull) {
  Registry reg;
  TimePoint now{};
  const auto clock = [&now] { return now; };
  {
    ScopedSpan span(reg.span("afixp_scope_simtime"), clock);
    now = now + kMinute * 7;
  }
  EXPECT_EQ(reg.spans().at(MetricId{"afixp_scope_simtime", ""}).count(), 1u);
  EXPECT_EQ(reg.spans().at(MetricId{"afixp_scope_simtime", ""}).total(), kMinute * 7);
  {
    ScopedSpan span(static_cast<Span*>(nullptr), clock);  // disabled path
    now = now + kMinute;
  }
  EXPECT_EQ(reg.spans().at(MetricId{"afixp_scope_simtime", ""}).count(), 1u);
}

// ---------------------------------------------------------------------------
// Merging

Registry make_shard(std::uint64_t probes, double rtt_sample) {
  Registry r;
  r.counter("afixp_probes_total")->set(probes);
  r.gauge("afixp_links")->set(static_cast<double>(probes) / 10.0);
  r.histogram("afixp_rtt_ms", {5, 10, 20})->observe(rtt_sample);
  r.span("afixp_seg_simtime")->record(kMinute * 30);
  return r;
}

TEST(Metrics, MergeSumsCountersHistogramsAndSpans) {
  Registry total;
  total.merge_from(make_shard(10, 3.0));
  total.merge_from(make_shard(32, 15.0));
  EXPECT_EQ(total.counter_value("afixp_probes_total"), 42u);
  EXPECT_DOUBLE_EQ(total.gauge_value("afixp_links"), 3.2);  // gauges: last wins
  const Histogram& h = total.histograms().at(MetricId{"afixp_rtt_ms", ""});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 18.0);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  const Span& s = total.spans().at(MetricId{"afixp_seg_simtime", ""});
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.total(), kMinute * 60);
}

TEST(Metrics, LabelledMergePrefixesVpAndKeepsExistingLabels) {
  Registry shard;
  shard.counter("afixp_relearns_total", "cause=\"stale\"")->set(4);
  Registry total;
  total.merge_from(shard, "VP3");
  EXPECT_EQ(total.counter_value("afixp_relearns_total", "vp=\"VP3\",cause=\"stale\""), 4u);
  EXPECT_EQ(total.counter_value("afixp_relearns_total", "cause=\"stale\""), 0u);
}

// ---------------------------------------------------------------------------
// Exporters

TEST(Export, ShardSplitNeverChangesTheBytes) {
  // One writer doing all the work vs. the same work split across two
  // shards merged in order: identical registries, identical bytes.
  Registry whole;
  whole.merge_from(make_shard(10, 3.0));
  whole.merge_from(make_shard(32, 15.0));

  Registry split_a = make_shard(10, 3.0);
  Registry split_b = make_shard(32, 15.0);
  Registry merged;
  merged.merge_from(split_a);
  merged.merge_from(split_b);

  std::ostringstream j1, j2, p1, p2;
  write_json(j1, whole);
  write_json(j2, merged);
  write_prometheus(p1, whole);
  write_prometheus(p2, merged);
  EXPECT_EQ(j1.str(), j2.str());
  EXPECT_EQ(p1.str(), p2.str());
}

TEST(Export, JsonShape) {
  Registry reg;
  reg.counter("afixp_b_total")->set(2);
  reg.counter("afixp_a_total", "k=\"v\"")->set(1);
  std::ostringstream out;
  write_json(out, reg);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"schema\": \"afixp-obs/1\""), std::string::npos);
  // Sorted by (name, labels): a_total before b_total.
  EXPECT_LT(s.find("afixp_a_total"), s.find("afixp_b_total"));
  EXPECT_NE(s.find("\"labels\": \"k=\\\"v\\\"\""), std::string::npos);
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"gauges\": []"), std::string::npos);
  EXPECT_NE(s.find("\"histograms\": []"), std::string::npos);
  EXPECT_NE(s.find("\"spans\": []"), std::string::npos);
}

TEST(Export, JsonEscapesControlCharactersInLabels) {
  // A label holding a newline or a tab must come out as \n / \t escapes:
  // raw control bytes inside a JSON string make the whole file invalid.
  Registry reg;
  reg.counter("afixp_c_total", "k=\"a\nb\tc\x01\"")->set(1);
  std::ostringstream out;
  write_json(out, reg);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"labels\": \"k=\\\"a\\nb\\tc\\u0001\\\"\""), std::string::npos) << s;
  EXPECT_EQ(s.find('\t'), std::string::npos);
  EXPECT_EQ(s.find('\x01'), std::string::npos);
}

TEST(Export, PrometheusHistogramIsCumulativeWithInfBucket) {
  Registry reg;
  Histogram* h = reg.histogram("afixp_rtt_ms", {5, 10});
  h->observe(1);
  h->observe(7);
  h->observe(100);
  std::ostringstream out;
  write_prometheus(out, reg);
  const std::string s = out.str();
  EXPECT_NE(s.find("# TYPE afixp_rtt_ms histogram"), std::string::npos);
  EXPECT_NE(s.find("afixp_rtt_ms_bucket{le=\"5\"} 1\n"), std::string::npos);
  EXPECT_NE(s.find("afixp_rtt_ms_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(s.find("afixp_rtt_ms_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(s.find("afixp_rtt_ms_sum 108\n"), std::string::npos);
  EXPECT_NE(s.find("afixp_rtt_ms_count 3\n"), std::string::npos);
}

TEST(Export, PrometheusSpansBecomeCounterPairs) {
  Registry reg;
  reg.span("afixp_window_simtime")->record(kMinute * 90);
  std::ostringstream out;
  write_prometheus(out, reg);
  const std::string s = out.str();
  EXPECT_NE(s.find("# TYPE afixp_window_simtime_count counter"), std::string::npos);
  EXPECT_NE(s.find("afixp_window_simtime_count 1\n"), std::string::npos);
  EXPECT_NE(s.find("afixp_window_simtime_simtime_seconds_total 5400\n"), std::string::npos);
}

TEST(Export, FileDispatchOnSuffix) {
  Registry reg;
  reg.counter("afixp_x_total")->set(1);
  const std::string dir = ::testing::TempDir();
  const std::string json_path = dir + "obs_test.json";
  const std::string prom_path = dir + "obs_test.prom";
  ASSERT_TRUE(write_to_file(json_path, reg));
  ASSERT_TRUE(write_to_file(prom_path, reg));
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  EXPECT_NE(slurp(json_path).find("\"schema\": \"afixp-obs/1\""), std::string::npos);
  EXPECT_NE(slurp(prom_path).find("# TYPE afixp_x_total counter"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
}

TEST(Export, HistogramBoundsRoundTripThroughGoldenRecords) {
  // The golden harness is how detector fixtures are pinned; histogram
  // bucket boundaries must survive a save/load cycle exactly so a future
  // re-bucketing shows up as a golden diff, not a silent drift.
  Registry reg;
  Histogram* h = reg.histogram("afixp_rtt_ms", {5, 10, 20, 50, 100, 200, 500, 1000});
  for (const double v : {3.0, 8.0, 42.0, 950.0}) h->observe(v);

  GoldenRecord rec;
  rec.set("bounds", h->bounds(), 0.0);
  rec.set("counts",
          std::vector<double>(h->counts().begin(), h->counts().end()), 0.0);
  const std::string path = ::testing::TempDir() + "obs_bounds.golden";
  ASSERT_TRUE(rec.save(path));
  const auto loaded = GoldenRecord::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(GoldenRecord::diff(*loaded, rec).empty());
  ASSERT_NE(loaded->find("bounds"), nullptr);
  EXPECT_EQ(loaded->find("bounds")->values, h->bounds());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ixp::obs
