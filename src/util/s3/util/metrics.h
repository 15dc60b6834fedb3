// Lightweight instrumentation bus.
//
// The runtime layers (sim engines, core policies, social model) report
// what they actually did — batches dispatched, cliques extracted, θ
// lookups served — through process-global counters, timers and
// histograms. Instruments are cheap enough for hot paths (relaxed
// atomics, cache-line padded) and are never unregistered, so call
// sites cache the pointer once:
//
//   static util::Counter* const evals =
//       util::metrics().counter("social.theta_evals");
//   evals->add();
//
// Counter values and histogram shapes are deterministic for a seeded
// run regardless of thread count (shards only ever *add*); timer
// durations are wall-clock and therefore not, but their call counts
// are. Metrics are pull-only: snapshot() returns them, dump() prints
// that snapshot as text.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "s3/util/thread_annotations.h"

namespace s3::util {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Accumulated wall-clock duration + call count.
class Timer {
 public:
  void record_ns(std::uint64_t ns) noexcept {
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double mean_ns() const noexcept {
    const std::uint64_t n = count();
    return n > 0 ? static_cast<double>(total_ns()) / static_cast<double>(n)
                 : 0.0;
  }
  void reset() noexcept {
    total_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// RAII timing of a scope into a Timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer) noexcept
      : timer_(timer), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    timer_->record_ns(static_cast<std::uint64_t>(ns));
  }

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Log2-bucketed distribution of non-negative integer samples (batch
/// sizes, clique sizes, latencies in ns, ...). Bucket i counts samples
/// whose bit width is i, i.e. bucket 0 holds value 0, bucket i holds
/// [2^(i-1), 2^i).
///
/// Internally each major (log2) bucket is split into kSub log-linear
/// sub-buckets of equal width, bounding the relative quantile error to
/// ~1/kSub regardless of magnitude; percentile() interpolates within
/// the sub-bucket the requested rank falls in. The public bucket
/// granularity (`bucket_of`, `bucket`) stays log2.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 41;  // values up to 2^40 - 1
  static constexpr std::size_t kSub = 16;      // sub-buckets per bucket

  void record(std::uint64_t v) noexcept {
    const std::size_t b = bucket_of(v);
    fine_[b * kSub + sub_of(v, b)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Racy max is fine: the loop converges and the final value is the
    // true maximum of all recorded samples.
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }
  std::uint64_t bucket(std::size_t i) const {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < kSub; ++s) {
      n += fine_[i * kSub + s].load(std::memory_order_relaxed);
    }
    return n;
  }

  /// Estimated value at percentile p (0..100), linearly interpolated
  /// within the sub-bucket the rank lands in and clamped to max().
  /// Concurrent writers make the walk a momentary snapshot, same as
  /// count()/mean(). Returns 0 on an empty histogram.
  double percentile(double p) const noexcept;

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    std::size_t b = 0;
    while (v > 0 && b + 1 < kBuckets) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  void reset() noexcept {
    for (auto& b : fine_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  // Sub-bucket of v within major bucket b. Bucket b >= 1 spans
  // [2^(b-1), 2^b); each sub-bucket covers width/kSub of it (at least
  // 1, so narrow low buckets just use their first `width` cells).
  // Values saturated into the last major bucket clamp to its last cell.
  static std::size_t sub_of(std::uint64_t v, std::size_t b) noexcept {
    if (b == 0) return 0;
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    const std::uint64_t step = lo / kSub > 0 ? lo / kSub : 1;
    const std::uint64_t s = (v - lo) / step;
    return s < kSub ? static_cast<std::size_t>(s) : kSub - 1;
  }

  alignas(64) std::atomic<std::uint64_t> fine_[kBuckets * kSub]{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> max_{0};
};

enum class MetricKind : std::uint8_t { kCounter, kTimer, kHistogram };

/// One metric's state at snapshot time. For counters only `count` is
/// meaningful; timers use (count, total=ns, mean=ns/call); histograms
/// use (count, total=sum, mean, max, p50/p95/p99).
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  double mean = 0.0;
  std::uint64_t max = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class MetricsRegistry {
 public:
  /// Returns the instrument registered under `name`, creating it on
  /// first use. Pointers remain valid for the registry's lifetime;
  /// registering the same name with a different kind throws.
  Counter* counter(std::string_view name) S3_EXCLUDES(mu_);
  Timer* timer(std::string_view name) S3_EXCLUDES(mu_);
  Histogram* histogram(std::string_view name) S3_EXCLUDES(mu_);

  /// All instruments, sorted by name (deterministic output order).
  std::vector<MetricSample> snapshot() const S3_EXCLUDES(mu_);

  /// Writes the snapshot as text lines, one metric per line: its name,
  /// kind and the fields that kind uses.
  void dump(std::ostream& out) const S3_EXCLUDES(mu_);

  /// Zeroes every instrument (pointers stay valid). Tests use this to
  /// isolate per-run counter assertions.
  void reset() S3_EXCLUDES(mu_);

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Timer> timer;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, MetricKind kind) S3_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_ S3_GUARDED_BY(mu_);
};

/// The process-global instrumentation bus.
MetricsRegistry& metrics();

}  // namespace s3::util
