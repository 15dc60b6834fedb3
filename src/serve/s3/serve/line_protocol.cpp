#include "s3/serve/line_protocol.h"

#include <array>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "s3/util/metrics.h"

namespace s3::serve {

namespace {

/// The `place <id> reject <why>` token for a rejection.
const char* wire_name(PlaceRejection why) {
  switch (why) {
    case PlaceRejection::kDuplicateId:
      return "duplicate-id";
    case PlaceRejection::kUnknownUser:
      return "unknown-user";
    case PlaceRejection::kNoCandidate:
    case PlaceRejection::kNone:
      break;
  }
  return "no-candidate";
}

util::Counter* malformed_lines_counter() {
  static util::Counter* const counter =
      util::metrics().counter("serve.malformed_lines");
  return counter;
}

/// True iff anything beyond whitespace is left on the line — a valid
/// request followed by stray tokens is rejected rather than silently
/// truncated (a shifted field list usually means a client bug).
bool has_trailing_garbage(std::istringstream& fields) {
  std::string extra;
  return static_cast<bool>(fields >> extra);
}

}  // namespace

void SyncWriter::write_line(std::string_view line) {
  util::MutexLock lock(mu_);
  *out_ << line << '\n';
}

bool run_line_protocol(ServePipeline& pipeline, std::istream& in,
                       std::ostream& out) {
  SyncWriter writer(out);
  bool clean = true;
  std::string line;
  std::ostringstream response;
  const auto respond = [&] {
    writer.write_line(response.str());
    response.str({});
  };
  const auto reject = [&](std::string_view err_class,
                          std::string_view detail) {
    response << "err " << err_class << ' ' << detail;
    respond();
    malformed_lines_counter()->add(1);
    clean = false;
  };
  // istream::getline keeps at most kMaxLineBytes bytes and sets failbit
  // when a line runs past them. Its sentry flushes in.tie() before each
  // read (std::cout for std::cin), so a client waiting on a reply gets
  // it before the driver blocks on the next request.
  std::array<char, kMaxLineBytes + 1> buf{};
  for (;;) {
    in.getline(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0 || in.bad()) break;  // end of input or a failed stream
    if (in.fail()) {
      in.clear();
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      reject("line-too-long", std::string_view(buf.data(), kEchoBytes));
      continue;
    }
    // gcount counts the newline unless the line ended the input.
    line.assign(buf.data(), in.eof() ? got : got - 1);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string verb;
    fields >> verb;
    if (verb == "arrive") {
      PlaceRequest req;
      std::int64_t t = 0;
      fields >> req.id >> req.user >> req.building >> req.pos.x >>
          req.pos.y >> t >> req.demand_mbps;
      if (fields.fail()) {
        reject("malformed-arrive", line);
        continue;
      }
      if (has_trailing_garbage(fields)) {
        reject("trailing-garbage", line);
        continue;
      }
      if (req.building >= pipeline.network().num_buildings() ||
          req.user == kInvalidUser || req.demand_mbps < 0.0) {
        reject("out-of-range", line);
        continue;
      }
      req.when = util::SimTime::from_seconds(t);
      const PlaceResult r = pipeline.place(req);
      if (r.placed) {
        response << "place " << req.id << ' ' << r.ap;
      } else {
        response << "place " << req.id << " reject " << wire_name(r.rejection);
      }
      respond();
    } else if (verb == "depart") {
      std::uint64_t id = 0;
      std::int64_t t = 0;
      fields >> id >> t;
      if (fields.fail()) {
        reject("malformed-depart", line);
        continue;
      }
      if (has_trailing_garbage(fields)) {
        reject("trailing-garbage", line);
        continue;
      }
      if (pipeline.depart(id, util::SimTime::from_seconds(t))) {
        response << "gone " << id;
      } else {
        response << "gone " << id << " unknown";
      }
      respond();
    } else if (verb == "stats") {
      if (has_trailing_garbage(fields)) {
        reject("trailing-garbage", line);
        continue;
      }
      const ServeStats s = pipeline.stats();
      response << "stats placements=" << s.placements
               << " departures=" << s.departures
               << " active=" << pipeline.active_sessions()
               << " fallback=" << s.fallback_placements
               << " overloads=" << s.forced_overloads << " rejected="
               << (s.rejected_no_candidate + s.rejected_unknown_user +
                   s.rejected_duplicate_id)
               << " updated_pairs=" << pipeline.model().updated_pairs();
      respond();
    } else if (verb == "social") {
      if (has_trailing_garbage(fields)) {
        reject("trailing-garbage", line);
        continue;
      }
      const SocialSnapshot s = pipeline.social_snapshot();
      char cohesion[32];
      std::snprintf(cohesion, sizeof(cohesion), "%.6f", s.cohesion);
      response << "social users=" << s.users << " cliques=" << s.cliques
               << " singletons=" << s.singletons << " largest=" << s.largest
               << " cohesion=" << cohesion << " exact=" << (s.exact ? 1 : 0)
               << " incremental=" << (s.incremental ? 1 : 0)
               << " cover_version=" << s.cover_version
               << " deltas=" << s.deltas_applied
               << " solved=" << s.components_solved
               << " reseeds=" << s.reseeds;
      respond();
    } else {
      reject("unknown-verb", verb);
    }
  }
  return clean;
}

}  // namespace s3::serve
