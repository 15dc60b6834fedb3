#include "inputs.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr char kStreamMagic[8] = {'p', 'b', 's', 't', 'r', 'm', '0', '1'};

template <typename T>
void put(std::ofstream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(std::ifstream& in, const std::string& path) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw std::runtime_error("truncated stream file " + path);
  return v;
}

}  // namespace

s3::trace::GeneratorConfig generator_config(const std::string& scale,
                                            std::uint64_t seed) {
  s3::trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_days = kTrainDays + kTestDays;
  if (scale == "full") {  // bench_common.h "full"
    cfg.num_users = 12374;
    cfg.layout.num_buildings = 22;
    cfg.layout.aps_per_building = 15;
    cfg.rate_scale = 0.35;
  } else if (scale == "small") {  // bench_common.h "small"
    cfg.num_users = 2400;
    cfg.layout.num_buildings = 8;
    cfg.layout.aps_per_building = 12;
  } else if (scale == "tiny") {
    cfg.num_users = 300;
    cfg.layout.num_buildings = 4;
    cfg.layout.aps_per_building = 6;
  } else {
    throw std::invalid_argument("unknown scale: " + scale);
  }
  return cfg;
}

ServeStreams build_serve_streams(const s3::wlan::Network& net,
                                 const s3::trace::Trace& test,
                                 unsigned workers) {
  struct Timed {
    std::int64_t when;
    StreamEvent ev;
  };
  std::vector<std::vector<Timed>> by_domain(net.num_controllers());
  for (std::size_t i = 0; i < test.size(); ++i) {
    const s3::trace::SessionRecord& s = test.session(i);
    auto& d = by_domain[net.controller_of_building(s.building)];
    const auto idx = static_cast<std::uint32_t>(i);
    d.push_back({s.connect.seconds(), {idx, 0}});
    d.push_back({s.disconnect.seconds(), {idx, 1}});
  }

  std::vector<std::size_t> order(by_domain.size());
  for (std::size_t d = 0; d < order.size(); ++d) order[d] = d;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return by_domain[a].size() > by_domain[b].size();
  });
  std::vector<std::vector<Timed>> merged(workers);
  for (const std::size_t d : order) {
    std::size_t w = 0;
    for (std::size_t k = 1; k < workers; ++k) {
      if (merged[k].size() < merged[w].size()) w = k;
    }
    merged[w].insert(merged[w].end(), by_domain[d].begin(), by_domain[d].end());
  }

  ServeStreams out;
  out.events.resize(workers);
  for (unsigned w = 0; w < workers; ++w) {
    std::sort(merged[w].begin(), merged[w].end(),
              [](const Timed& a, const Timed& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.ev.depart != b.ev.depart) return a.ev.depart > b.ev.depart;
                return a.ev.session < b.ev.session;
              });
    out.events[w].reserve(merged[w].size());
    for (const Timed& t : merged[w]) out.events[w].push_back(t.ev);
  }
  return out;
}

bool write_streams(const std::string& path, const ServeStreams& streams) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(kStreamMagic, sizeof kStreamMagic);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(streams.events.size()));
  for (const auto& events : streams.events) {
    put<std::uint64_t>(out, events.size());
    for (const StreamEvent& e : events) {
      put(out, e.session);
      put(out, e.depart);
    }
  }
  return static_cast<bool>(out.flush());
}

ServeStreams read_streams(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open stream file " + path);
  char magic[sizeof kStreamMagic] = {};
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kStreamMagic, sizeof magic) != 0) {
    throw std::runtime_error("not a serve stream file: " + path);
  }
  const auto workers = get<std::uint32_t>(in, path);
  if (workers == 0 || workers > 64) {
    throw std::runtime_error("bad worker count in " + path);
  }
  ServeStreams streams;
  streams.events.resize(workers);
  for (auto& events : streams.events) {
    const auto n = get<std::uint64_t>(in, path);
    if (n > (std::uint64_t{1} << 32)) {
      throw std::runtime_error("bad event count in " + path);
    }
    events.resize(n);
    for (StreamEvent& e : events) {
      e.session = get<std::uint32_t>(in, path);
      e.depart = get<std::uint8_t>(in, path);
      if (e.depart > 1) throw std::runtime_error("bad event kind in " + path);
    }
  }
  return streams;
}

}  // namespace perfbench
