// Decorators that time calls into the policy and social layers from
// outside the program.
//
// ProbedFactory wraps any SelectorFactory; every ApSelector it creates
// (and every clone of one) logs the latency of each place_batch call —
// the placement latency of the replay workloads — and, when the span
// recorder is on, records core.place_batch / core.hooks / core.clone
// spans. ProbedTheta wraps a ThetaProvider and records
// social.theta_row spans. Both forward every virtual of the wrapped
// interface: a selector decorator without clone() would silently turn
// off the replication layer's snapshot catch-up, and one without
// state_digest() would break replica convergence checks.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "s3/sim/selector.h"
#include "s3/social/social_index.h"

namespace perfbench {

/// Collects place_batch latencies from every selector of one factory.
/// Each selector instance owns one log and is driven by one thread at
/// a time, so logging takes no lock; read only after the run.
class LatencyProbe {
 public:
  /// A new per-instance log (thread-safe).
  std::vector<std::int64_t>* new_log();

  /// Every logged latency in ns, in log-creation order.
  std::vector<std::int64_t> latencies_ns() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<std::int64_t>>> logs_;
};

class ProbedSelector final : public s3::sim::ApSelector {
 public:
  ProbedSelector(std::unique_ptr<s3::sim::ApSelector> inner,
                 LatencyProbe* probe);

  std::string_view name() const override { return inner_->name(); }
  s3::ApId select_one(const s3::sim::Arrival& arrival,
                      const s3::sim::ApLoadTracker& loads) override;
  s3::sim::BatchResult place_batch(const s3::sim::BatchRequest& request,
                                   const s3::sim::ApLoadTracker& loads) override;
  void on_associate(const s3::sim::Arrival& arrival, s3::ApId ap) override;
  void on_disconnect(std::size_t session_index, s3::UserId user, s3::ApId ap,
                     s3::util::SimTime when) override;
  bool uses_social_model() const override {
    return inner_->uses_social_model();
  }
  std::uint64_t state_digest() const override {
    return inner_->state_digest();
  }
  std::unique_ptr<s3::sim::ApSelector> clone() const override;

 private:
  std::unique_ptr<s3::sim::ApSelector> inner_;
  LatencyProbe* probe_;
  std::vector<std::int64_t>* log_;
};

class ProbedFactory final : public s3::sim::SelectorFactory {
 public:
  /// `probe` must outlive the factory and every selector it creates.
  ProbedFactory(std::unique_ptr<s3::sim::SelectorFactory> inner,
                LatencyProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<s3::sim::ApSelector> create(
      s3::ControllerId domain) const override {
    return std::make_unique<ProbedSelector>(inner_->create(domain), probe_);
  }

 private:
  std::unique_ptr<s3::sim::SelectorFactory> inner_;
  LatencyProbe* probe_;
};

class ProbedTheta final : public s3::social::ThetaProvider {
 public:
  /// `inner` must outlive the decorator.
  explicit ProbedTheta(const s3::social::ThetaProvider* inner)
      : inner_(inner) {}

  double theta(s3::UserId u, s3::UserId v) const override {
    return inner_->theta(u, v);
  }
  void theta_row(s3::UserId u, std::span<const s3::UserId> vs,
                 std::span<double> out) const override;
  std::uint64_t read_epoch() const noexcept override {
    return inner_->read_epoch();
  }
  bool emits_theta_deltas() const noexcept override {
    return inner_->emits_theta_deltas();
  }
  s3::social::ThetaDeltaPoll poll_theta_deltas(
      std::uint64_t cursor,
      std::vector<s3::social::ThetaDelta>& out) const override {
    return inner_->poll_theta_deltas(cursor, out);
  }
  std::size_t num_users() const override { return inner_->num_users(); }

 private:
  const s3::social::ThetaProvider* inner_;
};

}  // namespace perfbench
