// SocialIndexModel persistence.
//
// A controller trains over weeks of logs; the learned state must
// survive restarts and be shippable between controllers. Two formats
// share one versioned entry point:
//
//   * kTextV1   — line-oriented text (header, typing block, type
//                 matrix, one line per pair), diffable and hand-
//                 editable; the original format.
//   * kBinaryV1 — little-endian packed records behind an 8-byte magic;
//                 ~3× smaller and an order of magnitude faster to load
//                 for million-pair models.
//
// Pairs are always written in canonical (a, b) order, so the bytes of
// a saved model depend only on its contents — never on hash-table
// capacity or insertion history.
//
// save_model/load_model(path, ModelFormat) is the API; load defaults
// to kAuto, which sniffs the magic instead of trusting the file name.
// The older write_model/read_model stream functions remain as the
// text-format implementation (and for in-memory round trips).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "s3/social/social_index.h"

namespace s3::social {

/// On-disk representations a model can be stored in.
enum class ModelFormat {
  kAuto,      ///< load: sniff the magic; save: invalid
  kTextV1,    ///< "# s3lb social model v1" line format
  kBinaryV1,  ///< "s3lbmdl\x01" packed little-endian format
};

/// Parses "text" / "binary" / "auto" (CLI flag vocabulary).
std::optional<ModelFormat> parse_model_format(const std::string& name);

struct ModelReadResult {
  std::optional<SocialIndexModel> model;
  std::string error;  ///< set when model is nullopt
};

/// Writes the model in `format` (kAuto is invalid here); returns false
/// on stream failure.
bool save_model(const std::string& path, const SocialIndexModel& model,
                ModelFormat format = ModelFormat::kTextV1);

/// Reads a model. kAuto sniffs the leading magic bytes; a concrete
/// format rejects files of the other format with a named error.
ModelReadResult load_model(const std::string& path,
                           ModelFormat format = ModelFormat::kAuto);

// ---- Stream-level text format (v1) -----------------------------------

/// Writes the text format; returns false on stream failure.
bool write_model(std::ostream& os, const SocialIndexModel& model);
bool write_model_file(const std::string& path, const SocialIndexModel& model);

/// Parses a model written by write_model. Validates counts, matrix
/// symmetry and id ranges; pair rows must be strictly ascending, and a
/// malformed row yields a row-numbered error. Declared counts never
/// size more than the bytes left in `is` can hold, so hostile input
/// returns an error rather than throwing or hanging.
ModelReadResult read_model(std::istream& is);
ModelReadResult read_model_file(const std::string& path);

// ---- Stream-level binary format (v1) ---------------------------------

bool write_model_binary(std::ostream& os, const SocialIndexModel& model);
/// The binary counterpart of read_model, with the same row checks and
/// count bounds.
ModelReadResult read_model_binary(std::istream& is);

}  // namespace s3::social
