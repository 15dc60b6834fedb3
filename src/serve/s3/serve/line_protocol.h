// Text line protocol for driving a ServePipeline over a stream —
// what `s3lb serve` speaks on stdin/stdout, and what the end-to-end
// test replays from a file.
//
// Requests, one per line (blank lines and `#` comments ignored):
//
//   arrive <id> <user> <building> <x> <y> <t_seconds> <demand_mbps>
//   depart <id> <t_seconds>
//   stats
//   social
//
// Responses, one line per request, in order:
//
//   place <id> <ap>            arrival placed on <ap>
//   place <id> reject <why>    arrival rejected (no-candidate,
//                              unknown-user, duplicate-id)
//   gone <id>                  departure applied
//   gone <id> unknown          id was not an active session
//   stats placements=<n> departures=<n> active=<n> fallback=<n>
//         overloads=<n> rejected=<n> updated_pairs=<n>   (one line)
//   social users=<n> cliques=<n> singletons=<n> largest=<n>
//          cohesion=<x.xxxxxx> exact=<0|1> incremental=<0|1>
//          cover_version=<n> deltas=<n> solved=<n> reused=<n>
//          reseeds=<n>                                   (one line)
//
// `social` serves ServePipeline::social_snapshot(): the maintained
// clique cover of the live θ-graph plus the cohesion score (θ mass of
// clique pairs currently sharing an AP). The first query seeds the
// maintained graph from the trained model; every query re-applies θ
// for each live pair (`deltas` counts those applications) and
// re-solves only dirty components (incremental=1 after the first).
//
// Malformed lines get a structured reply and processing continues:
//
//   err malformed-arrive <line>    arrive with missing/non-numeric fields
//   err malformed-depart <line>    depart with missing/non-numeric fields
//   err trailing-garbage <line>    valid request + extra tokens
//   err out-of-range <line>        arrive naming a building the network
//                                  lacks, the reserved user id
//                                  4294967295 (kInvalidUser) or a
//                                  negative demand
//   err unknown-verb <verb>        first token is not a request verb
//   err line-too-long <prefix>     line longer than kMaxLineBytes; the
//                                  reply echoes its first kEchoBytes
//
// A line is read into a buffer of at most kMaxLineBytes; the rest of an
// over-long line is skipped up to the next newline without being
// stored, so no input grows the driver's memory past that bound.
//
// The machine-readable class is always the second token, so scripted
// clients can branch on it without parsing free text. Every err line
// also bumps the `serve.malformed_lines` counter on the metrics bus
// (`s3lb serve --metrics` dumps it). The driver returns false iff any
// line was malformed, so batch callers can fail loudly while
// interactive callers keep their session.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string_view>

#include "s3/serve/serve_pipeline.h"
#include "s3/util/thread_annotations.h"

namespace s3::serve {

/// Longest request line the driver reads, newline excluded.
inline constexpr std::size_t kMaxLineBytes = 4096;
/// Bytes of an over-long line its err reply echoes.
inline constexpr std::size_t kEchoBytes = 64;

/// Whole-line serializer for a shared response stream. Concurrent
/// responders (one driver per client of the same pipeline) write
/// through one SyncWriter so lines never interleave mid-line; each
/// write_line is one critical section, newline included.
class SyncWriter {
 public:
  /// `out` must outlive the writer.
  explicit SyncWriter(std::ostream& out) : out_(&out) {}

  /// Writes `line` plus a newline atomically with respect to other
  /// write_line calls.
  void write_line(std::string_view line) S3_EXCLUDES(mu_);

 private:
  util::Mutex mu_;
  std::ostream* out_ S3_PT_GUARDED_BY(mu_);
};

/// Feeds every line of `in` to `pipeline`, writing one response line
/// per request to `out`. Sequential (single caller thread); the
/// pipeline itself may concurrently serve other threads, and the
/// responses go through a SyncWriter so a second driver on the same
/// ostream stays line-atomic.
bool run_line_protocol(ServePipeline& pipeline, std::istream& in,
                       std::ostream& out);

}  // namespace s3::serve
