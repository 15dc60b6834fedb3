#include "probes.h"

#include <chrono>

#include "spans.h"

namespace perfbench {

std::vector<std::int64_t>* LatencyProbe::new_log() {
  const std::lock_guard<std::mutex> hold(mu_);
  logs_.push_back(std::make_unique<std::vector<std::int64_t>>());
  logs_.back()->reserve(4096);
  return logs_.back().get();
}

std::vector<std::int64_t> LatencyProbe::latencies_ns() const {
  const std::lock_guard<std::mutex> hold(mu_);
  std::vector<std::int64_t> out;
  for (const auto& log : logs_) out.insert(out.end(), log->begin(), log->end());
  return out;
}

ProbedSelector::ProbedSelector(std::unique_ptr<s3::sim::ApSelector> inner,
                               LatencyProbe* probe)
    : inner_(std::move(inner)), probe_(probe), log_(probe->new_log()) {}

s3::ApId ProbedSelector::select_one(const s3::sim::Arrival& arrival,
                                    const s3::sim::ApLoadTracker& loads) {
  return inner_->select_one(arrival, loads);
}

s3::sim::BatchResult ProbedSelector::place_batch(
    const s3::sim::BatchRequest& request, const s3::sim::ApLoadTracker& loads) {
  const std::uint64_t id =
      request.arrivals.empty() ? 0 : request.arrivals.front().session_index + 1;
  const auto t0 = std::chrono::steady_clock::now();
  s3::sim::BatchResult result;
  {
    const ScopedSpan span("core.place_batch", id);
    result = inner_->place_batch(request, loads);
  }
  log_->push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
  return result;
}

void ProbedSelector::on_associate(const s3::sim::Arrival& arrival,
                                  s3::ApId ap) {
  const ScopedSpan span("core.hooks", arrival.session_index + 1);
  inner_->on_associate(arrival, ap);
}

void ProbedSelector::on_disconnect(std::size_t session_index, s3::UserId user,
                                   s3::ApId ap, s3::util::SimTime when) {
  const ScopedSpan span("core.hooks", session_index + 1);
  inner_->on_disconnect(session_index, user, ap, when);
}

std::unique_ptr<s3::sim::ApSelector> ProbedSelector::clone() const {
  const ScopedSpan span("core.clone");
  std::unique_ptr<s3::sim::ApSelector> copy = inner_->clone();
  if (copy == nullptr) return nullptr;
  return std::make_unique<ProbedSelector>(std::move(copy), probe_);
}

void ProbedTheta::theta_row(s3::UserId u, std::span<const s3::UserId> vs,
                            std::span<double> out) const {
  const ScopedSpan span("social.theta_row");
  inner_->theta_row(u, vs, out);
}

}  // namespace perfbench
