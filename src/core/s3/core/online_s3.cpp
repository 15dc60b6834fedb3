#include "s3/core/online_s3.h"

namespace s3::core {

OnlineS3Selector::OnlineS3Selector(const wlan::Network* net,
                                   const social::SocialIndexModel* base,
                                   OnlineS3Config config)
    : model_(base),
      presence_(config.co_leave_window, config.min_encounter_overlap),
      inner_(net, &model_, config.s3) {}

std::uint64_t OnlineS3Selector::state_digest() const {
  std::uint64_t h = model_.state_digest();
  const std::uint64_t v = presence_.state_digest();
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return h;
}

}  // namespace s3::core
