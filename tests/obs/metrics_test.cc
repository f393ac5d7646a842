#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"

namespace astream::obs {
namespace {

// --- Histogram bucket math ---------------------------------------------

TEST(HistogramBuckets, NonPositiveValuesLandInBucketZero) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-1), 0);
  EXPECT_EQ(Histogram::BucketIndex(INT64_MIN), 0);
}

TEST(HistogramBuckets, PowerOfTwoBoundaries) {
  // Bucket b covers [2^(b-1), 2^b): each power of two starts a new bucket.
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
}

TEST(HistogramBuckets, BoundsRoundTrip) {
  for (int b = 1; b < Histogram::kNumBuckets - 1; ++b) {
    const int64_t lo = Histogram::BucketLowerBound(b);
    const int64_t hi = Histogram::BucketUpperBound(b);
    EXPECT_EQ(Histogram::BucketIndex(lo), b) << "bucket " << b;
    EXPECT_EQ(Histogram::BucketIndex(hi - 1), b) << "bucket " << b;
    EXPECT_EQ(hi, 2 * lo) << "bucket " << b;
  }
}

TEST(HistogramBuckets, OverflowBucketCatchesHugeValues) {
  const int last = Histogram::kNumBuckets - 1;
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), last);
  EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(last)), last);
  EXPECT_EQ(Histogram::BucketUpperBound(last), INT64_MAX);
}

// --- Histogram recording + percentiles ---------------------------------

TEST(Histogram, CountSumMinMax) {
  Histogram h;
  h.Record(5);
  h.Record(100);
  h.Record(1);
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.sum, 106);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 100);
  EXPECT_DOUBLE_EQ(s.mean(), 106.0 / 3.0);
}

TEST(Histogram, CountedRecordEqualsRepeatedRecords) {
  Histogram counted;
  Histogram repeated;
  const std::pair<int64_t, int64_t> observations[] = {
      {7, 5}, {0, 3}, {1000, 1}, {3, 64}, {-2, 2}};
  for (const auto& [value, count] : observations) {
    counted.Record(value, count);
    for (int64_t i = 0; i < count; ++i) repeated.Record(value);
  }
  const auto c = counted.TakeSnapshot();
  const auto r = repeated.TakeSnapshot();
  EXPECT_EQ(c.count, 75);
  EXPECT_EQ(c.sum, 7 * 5 + 1000 + 3 * 64 - 4);
  EXPECT_EQ(c.min, -2);
  EXPECT_EQ(c.max, 1000);
  EXPECT_EQ(c.buckets[Histogram::BucketIndex(3)], 64);
  EXPECT_EQ(c.buckets[0], 5);  // 0 and -2 clamp into bucket 0
  EXPECT_EQ(c.count, r.count);
  EXPECT_EQ(c.sum, r.sum);
  EXPECT_EQ(c.min, r.min);
  EXPECT_EQ(c.max, r.max);
  EXPECT_EQ(c.buckets, r.buckets);
  EXPECT_DOUBLE_EQ(c.Percentile(50), r.Percentile(50));
}

TEST(Histogram, EmptySnapshotIsZero) {
  Histogram h;
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
}

TEST(Histogram, SingleValuePercentilesAreExact) {
  // min == max clamps every percentile to the one observed value even
  // though the bucket spans [64, 128).
  Histogram h;
  h.Record(77);
  const auto s = h.TakeSnapshot();
  EXPECT_DOUBLE_EQ(s.Percentile(0), 77.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 77.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 77.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 77.0);
}

TEST(Histogram, PercentilesAreMonotoneAndBucketAccurate) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  const auto s = h.TakeSnapshot();
  double prev = 0;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    const double v = s.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 1000.0);
    prev = v;
  }
  // Log-bucketed: the answer is exact only to within its power-of-two
  // bucket. p50's true value 500 lands in [256, 512).
  EXPECT_GE(s.Percentile(50), 256.0);
  EXPECT_LT(s.Percentile(50), 512.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 1000.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
}

TEST(Histogram, InterpolationInsideOneBucket) {
  // 11 values spread across bucket [64, 128): ranks interpolate linearly
  // between the bucket's edges, clamped to [min, max].
  Histogram h;
  for (int i = 0; i <= 10; ++i) h.Record(64 + i);
  const auto s = h.TakeSnapshot();
  EXPECT_DOUBLE_EQ(s.Percentile(0), 64.0);
  const double p50 = s.Percentile(50);
  EXPECT_GT(p50, 64.0);
  EXPECT_LE(p50, 74.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 74.0);
}

TEST(Histogram, OverflowBucketInterpolatesTowardMax) {
  Histogram h;
  const int64_t huge = int64_t{1} << 50;  // beyond the last finite boundary
  h.Record(huge);
  h.Record(huge + 10);
  const auto s = h.TakeSnapshot();
  EXPECT_GE(s.Percentile(99), static_cast<double>(huge));
  EXPECT_LE(s.Percentile(99), static_cast<double>(huge + 10));
}

TEST(Histogram, ConcurrentRecordsAreAllCounted) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) h.Record(i % 1000);
    });
  }
  for (auto& t : threads) t.join();
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  int64_t bucket_total = 0;
  for (int64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

// --- Registry ----------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("x");
  Counter* c2 = reg.GetCounter("x");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(reg.GetCounter("y"), c1);
  c1->Add(3);
  EXPECT_EQ(reg.TakeSnapshot().counters.at("x"), 3);
}

TEST(MetricsRegistry, DisabledRegistryHandsOutNoSeries) {
  MetricsRegistry reg(/*enabled=*/false);
  EXPECT_FALSE(reg.enabled());
  EXPECT_EQ(reg.SeriesFor(1), nullptr);
  EXPECT_TRUE(reg.TakeSnapshot().queries.empty());
  // Named metrics still exist (callers guard with their own enabled bit).
  EXPECT_NE(reg.GetCounter("z"), nullptr);
}

TEST(MetricsRegistry, PerQuerySeriesSnapshot) {
  MetricsRegistry reg;
  QuerySeries* s = reg.SeriesFor(7);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(reg.SeriesFor(7), s);
  s->records_emitted.Add(5);
  s->late_drops.Add();
  s->event_latency_ms.Record(12);
  const auto snap = reg.TakeSnapshot();
  ASSERT_EQ(snap.queries.count(7), 1u);
  EXPECT_EQ(snap.queries.at(7).records_emitted, 5);
  EXPECT_EQ(snap.queries.at(7).late_drops, 1);
  EXPECT_EQ(snap.queries.at(7).event_latency_ms.count, 1);
}

TEST(SeriesCache, CachesAndRespectsDisabled) {
  MetricsRegistry on;
  SeriesCache cache(&on);
  QuerySeries* s = cache.For(3);
  EXPECT_NE(s, nullptr);
  EXPECT_EQ(cache.For(3), s);

  MetricsRegistry off(/*enabled=*/false);
  cache.Reset(&off);
  EXPECT_EQ(cache.For(3), nullptr);

  cache.Reset(nullptr);
  EXPECT_EQ(cache.For(3), nullptr);
}

// --- TraceSink ---------------------------------------------------------

TEST(TraceSink, RecordsOrderedEventsWithMonotonicTimestamps) {
  TraceSink sink;
  sink.Record(TraceEventKind::kSubmit, 1);
  sink.Record(TraceEventKind::kDeployAck, 1, 42);
  sink.Record(TraceEventKind::kChangelogFlush, -1, 5);
  const auto events = sink.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kSubmit);
  EXPECT_EQ(events[0].query, 1);
  EXPECT_EQ(events[1].detail, 42);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[1].ts_us, events[2].ts_us);
}

TEST(TraceSink, JsonLinesFormat) {
  TraceSink sink;
  sink.Record(TraceEventKind::kSubmit, 9, 0);
  const std::string json = sink.ToJsonLines();
  EXPECT_NE(json.find("\"event\":\"submit\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"query\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts_us\":"), std::string::npos) << json;
  EXPECT_EQ(json.back(), '\n');
}

TEST(TraceSink, DisabledSinkDropsEverything) {
  TraceSink sink(/*enabled=*/false);
  sink.Record(TraceEventKind::kSubmit, 1);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.ToJsonLines().empty());
}

TEST(TraceSink, BoundedCapacityCountsDrops) {
  TraceSink sink(/*enabled=*/true, /*capacity=*/2);
  sink.Record(TraceEventKind::kSubmit, 1);
  sink.Record(TraceEventKind::kSubmit, 2);
  sink.Record(TraceEventKind::kSubmit, 3);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 1);
}

// --- Export ------------------------------------------------------------

TEST(Export, TextAndJsonCarryAllSections) {
  MetricsRegistry reg;
  reg.GetCounter("job.push_accepted")->Add(10);
  reg.GetGauge("session.active_queries")->Set(2);
  reg.GetHistogram("job.deploy_latency_ms")->Record(8);
  reg.SeriesFor(1)->records_emitted.Add(4);
  const auto snap = reg.TakeSnapshot();

  const std::string text = ExportText(snap);
  EXPECT_NE(text.find("job.push_accepted"), std::string::npos) << text;
  EXPECT_NE(text.find("session.active_queries"), std::string::npos);
  EXPECT_NE(text.find("p95"), std::string::npos);

  const std::string json = ExportJson(snap);
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"job.push_accepted\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queries\""), std::string::npos);
}

}  // namespace
}  // namespace astream::obs
