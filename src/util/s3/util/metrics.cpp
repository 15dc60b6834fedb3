#include "s3/util/metrics.h"

#include <algorithm>
#include <ostream>

#include "s3/util/error.h"

namespace s3::util {

double Histogram::percentile(double p) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = (p / 100.0) * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    for (std::size_t s = 0; s < kSub; ++s) {
      const std::uint64_t c = fine_[b * kSub + s].load(std::memory_order_relaxed);
      if (c > 0 && static_cast<double>(cum + c) >= target) {
        // Sub-bucket value range [lo, hi): interpolate by how far into
        // this cell's population the target rank sits.
        double lo = 0.0, hi = 1.0;
        if (b > 0) {
          const std::uint64_t base = std::uint64_t{1} << (b - 1);
          const std::uint64_t step = base / kSub > 0 ? base / kSub : 1;
          lo = static_cast<double>(base + s * step);
          const double bucket_hi = static_cast<double>(base) * 2.0;
          hi = std::min(lo + static_cast<double>(step), bucket_hi);
        }
        const double frac =
            std::max(0.0, target - static_cast<double>(cum)) /
            static_cast<double>(c);
        const double v = lo + frac * (hi - lo);
        return std::min(v, static_cast<double>(max()));
      }
      cum += c;
    }
  }
  return static_cast<double>(max());
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               MetricKind kind) {
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    S3_REQUIRE(it->second.kind == kind,
               "metrics: name already registered with a different kind: " +
                   std::string(name));
    return it->second;
  }
  Entry e;
  e.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kTimer:
      e.timer = std::make_unique<Timer>();
      break;
    case MetricKind::kHistogram:
      e.histogram = std::make_unique<Histogram>();
      break;
  }
  return entries_.emplace(std::string(name), std::move(e)).first->second;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(mu_);
  return entry(name, MetricKind::kCounter).counter.get();
}

Timer* MetricsRegistry::timer(std::string_view name) {
  MutexLock lock(mu_);
  return entry(name, MetricKind::kTimer).timer.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  MutexLock lock(mu_);
  return entry(name, MetricKind::kHistogram).histogram.get();
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {  // std::map: already sorted
    MetricSample s;
    s.name = name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.count = e.counter->value();
        break;
      case MetricKind::kTimer:
        s.count = e.timer->count();
        s.total = e.timer->total_ns();
        s.mean = e.timer->mean_ns();
        break;
      case MetricKind::kHistogram:
        s.count = e.histogram->count();
        s.total = e.histogram->sum();
        s.mean = e.histogram->mean();
        s.max = e.histogram->max();
        s.p50 = e.histogram->percentile(50.0);
        s.p95 = e.histogram->percentile(95.0);
        s.p99 = e.histogram->percentile(99.0);
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::dump(std::ostream& out) const {
  for (const MetricSample& s : snapshot()) {
    out << s.name;
    switch (s.kind) {
      case MetricKind::kCounter:
        out << " counter " << s.count;
        break;
      case MetricKind::kTimer:
        out << " timer count=" << s.count << " total_ns=" << s.total
            << " mean_ns=" << s.mean;
        break;
      case MetricKind::kHistogram:
        out << " histogram count=" << s.count << " sum=" << s.total
            << " mean=" << s.mean << " max=" << s.max << " p50=" << s.p50
            << " p95=" << s.p95 << " p99=" << s.p99;
        break;
    }
    out << "\n";
  }
}

void MetricsRegistry::reset() {
  MutexLock lock(mu_);
  for (auto& [name, e] : entries_) {
    switch (e.kind) {
      case MetricKind::kCounter:
        e.counter->reset();
        break;
      case MetricKind::kTimer:
        e.timer->reset();
        break;
      case MetricKind::kHistogram:
        e.histogram->reset();
        break;
    }
  }
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace s3::util
