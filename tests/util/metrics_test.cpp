#include "s3/util/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

namespace s3::util {
namespace {

TEST(Counter, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsAllLand) {
  Counter c;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), 40000u);
}

TEST(Timer, RecordAndMean) {
  Timer t;
  EXPECT_DOUBLE_EQ(t.mean_ns(), 0.0);  // no division by zero on empty
  t.record_ns(100);
  t.record_ns(300);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_EQ(t.total_ns(), 400u);
  EXPECT_DOUBLE_EQ(t.mean_ns(), 200.0);
  t.reset();
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.total_ns(), 0u);
}

TEST(Timer, ScopedTimerRecordsOneSample) {
  Timer t;
  { ScopedTimer scope(&t); }
  EXPECT_EQ(t.count(), 1u);
}

TEST(Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  // Saturates in the last bucket instead of indexing out of range.
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);
}

TEST(Histogram, RecordAggregates) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.record(0);
  h.record(3);
  h.record(9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 12u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_EQ(h.bucket(0), 1u);  // value 0
  EXPECT_EQ(h.bucket(2), 1u);  // value 3
  EXPECT_EQ(h.bucket(4), 1u);  // value 9
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, PercentileEmptyIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
}

TEST(Histogram, PercentileSingleValueClampsToMax) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(42);
  // Every rank lands in 42's sub-bucket and the estimate is clamped to
  // the recorded maximum, so all percentiles are exact here.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 42.0);
}

TEST(Histogram, PercentileUniformWithinSubBucketResolution) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v);
  // kSub log-linear sub-buckets bound relative error to ~1/kSub.
  const double tol = 1.5 / static_cast<double>(Histogram::kSub);
  EXPECT_NEAR(h.percentile(50.0), 50000.0, 50000.0 * tol);
  EXPECT_NEAR(h.percentile(95.0), 95000.0, 95000.0 * tol);
  EXPECT_NEAR(h.percentile(99.0), 99000.0, 99000.0 * tol);
  EXPECT_LE(h.percentile(100.0), 100000.0);
}

TEST(Histogram, PercentileIsMonotoneInP) {
  Histogram h;
  for (std::uint64_t v = 0; v < 5000; v += 7) h.record(v * v % 4096);
  double prev = -1.0;
  for (double p = 0.0; p <= 100.0; p += 2.5) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
  EXPECT_LE(prev, static_cast<double>(h.max()));
}

TEST(Histogram, SnapshotCarriesPercentiles) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("p.lat");
  for (std::uint64_t v = 1; v <= 1000; ++v) h->record(v);
  const std::vector<MetricSample> s = reg.snapshot();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_NEAR(s[0].p50, 500.0, 500.0 * 0.1);
  EXPECT_NEAR(s[0].p95, 950.0, 950.0 * 0.1);
  EXPECT_NEAR(s[0].p99, 990.0, 990.0 * 0.1);
  EXPECT_LE(s[0].p50, s[0].p95);
  EXPECT_LE(s[0].p95, s[0].p99);
}

TEST(Registry, SameNameSamePointer) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x.events");
  Counter* b = reg.counter("x.events");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.counter("x.other"), a);
}

TEST(Registry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x.thing");
  EXPECT_THROW(reg.timer("x.thing"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x.thing"), std::invalid_argument);
}

TEST(Registry, SnapshotSortedByName) {
  MetricsRegistry reg;
  reg.counter("z.last")->add(1);
  reg.timer("a.first")->record_ns(5);
  reg.histogram("m.middle")->record(7);
  const std::vector<MetricSample> s = reg.snapshot();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].name, "a.first");
  EXPECT_EQ(s[0].kind, MetricKind::kTimer);
  EXPECT_EQ(s[1].name, "m.middle");
  EXPECT_EQ(s[1].kind, MetricKind::kHistogram);
  EXPECT_EQ(s[1].max, 7u);
  EXPECT_EQ(s[2].name, "z.last");
  EXPECT_EQ(s[2].count, 1u);
}

TEST(Registry, ResetZeroesButKeepsPointers) {
  MetricsRegistry reg;
  Counter* c = reg.counter("r.count");
  c->add(9);
  reg.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.counter("r.count"), c);
}

TEST(Registry, DumpRendersOneLinePerMetric) {
  MetricsRegistry reg;
  reg.counter("d.count")->add(3);
  reg.histogram("d.sizes")->record(4);
  std::ostringstream out;
  reg.dump(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("d.count"), std::string::npos);
  EXPECT_NE(text.find("d.sizes"), std::string::npos);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
}

TEST(Registry, GlobalBusIsSingleInstance) {
  EXPECT_EQ(&metrics(), &metrics());
}

}  // namespace
}  // namespace s3::util
