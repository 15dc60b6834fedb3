// In-memory span recorder for the traced run.
//
// A span is one call into a layer's public entry point: name, start,
// end, the span that caused it (parent, same thread), the request it
// belongs to (a dispatch batch or a serve session; children inherit
// their parent's) and the recording thread. Each thread appends to its
// own buffer, so recording takes no lock after a thread's first span.
// Spans stay in memory until write_csv() at exit.
//
// Recording is off unless enabled: a ScopedSpan then costs one relaxed
// load, which is why the decorators can stay in place in untraced runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< static string
  std::int64_t start_ns = 0;   ///< steady clock, relative to the recorder epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same thread's spans; -1 = root
  std::uint64_t request = 0;
  std::uint32_t thread = 0;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// One thread's spans in start order.
struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< stack of unfinished span indices
};

class SpanRecorder {
 public:
  /// The process-wide recorder.
  static SpanRecorder& instance();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the recorder was created.
  std::int64_t now_ns() const noexcept;

  /// The calling thread's buffer, registered on first use.
  ThreadSpans& local();

  /// Every thread's spans. Only while no thread records.
  const std::vector<std::unique_ptr<ThreadSpans>>& threads() const {
    return threads_;
  }

  /// Writes "thread,index,parent,name,request,start_ns,end_ns" lines.
  bool write_csv(const std::string& path) const;

 private:
  SpanRecorder();

  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = 0;
  std::mutex mu_;  // guards threads_ growth
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// Records one span over its scope when the recorder is enabled.
/// `request` 0 inherits the enclosing span's request id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* buf_ = nullptr;
  std::int32_t index_ = -1;
};

// ---- Span arithmetic over a finished recording ---------------------

/// Per-name totals over every thread.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< sum of durations
  double self_s = 0.0;   ///< sum of durations minus direct children's
};

SpanTotals totals(const SpanRecorder& rec, const std::string& name);

/// Durations (ns) of every span named `name`.
std::vector<std::int64_t> durations_ns(const SpanRecorder& rec,
                                       const std::string& name);

}  // namespace perfbench
