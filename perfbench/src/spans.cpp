#include "spans.h"

#include <chrono>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool named(const Span& s, const std::string& name) {
  return std::strcmp(s.name, name.c_str()) == 0;
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_ns_(steady_ns()) {}

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

std::int64_t SpanRecorder::now_ns() const noexcept {
  return steady_ns() - epoch_ns_;
}

ThreadSpans& SpanRecorder::local() {
  // Buffers are owned by the recorder and never freed, so the cached
  // pointer stays valid after its thread exits.
  thread_local ThreadSpans* buf = nullptr;
  if (buf == nullptr) {
    const std::lock_guard<std::mutex> hold(mu_);
    threads_.push_back(std::make_unique<ThreadSpans>());
    buf = threads_.back().get();
    buf->thread = static_cast<std::uint32_t>(threads_.size() - 1);
    buf->spans.reserve(1 << 16);
  }
  return *buf;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "thread,index,parent,name,request,start_ns,end_ns\n";
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      out << s.thread << ',' << i << ',' << s.parent << ',' << s.name << ','
          << s.request << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out.flush());
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  SpanRecorder& rec = SpanRecorder::instance();
  if (!rec.enabled()) return;
  buf_ = &rec.local();
  Span s;
  s.name = name;
  s.thread = buf_->thread;
  if (!buf_->open.empty()) {
    s.parent = buf_->open.back();
    if (request == 0) request = buf_->spans[static_cast<std::size_t>(s.parent)].request;
  }
  s.request = request;
  index_ = static_cast<std::int32_t>(buf_->spans.size());
  buf_->open.push_back(index_);
  s.start_ns = rec.now_ns();
  buf_->spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr) return;
  buf_->spans[static_cast<std::size_t>(index_)].end_ns =
      SpanRecorder::instance().now_ns();
  buf_->open.pop_back();
}

SpanTotals totals(const SpanRecorder& rec, const std::string& name) {
  SpanTotals out;
  std::vector<std::int64_t> child_ns;
  for (const auto& t : rec.threads()) {
    child_ns.assign(t->spans.size(), 0);
    for (const Span& s : t->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.duration_ns();
      }
    }
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      if (!named(s, name)) continue;
      ++out.count;
      out.total_s += static_cast<double>(s.duration_ns()) * 1e-9;
      out.self_s +=
          static_cast<double>(s.duration_ns() - child_ns[i]) * 1e-9;
    }
  }
  return out;
}

std::vector<std::int64_t> durations_ns(const SpanRecorder& rec,
                                       const std::string& name) {
  std::vector<std::int64_t> out;
  for (const auto& t : rec.threads()) {
    for (const Span& s : t->spans) {
      if (named(s, name)) out.push_back(s.duration_ns());
    }
  }
  return out;
}

}  // namespace perfbench
