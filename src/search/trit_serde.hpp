// Shared snapshot convention for TCAM row payloads: u64 row count, then
// one length-prefixed byte vector of trits per row. Every TCAM-backed
// engine payload (TcamLshEngine's "tcam-lsh-v1", TwoStageNnIndex's
// "two-stage-v1"/"two-stage-v2" coarse block) uses exactly this shape, so
// the encode/decode - including the trit range validation - lives in one
// place and cannot drift between writers and readers. The one reader of a
// whole "tcam-lsh-v1" block lives here too: TcamLshEngine restores its
// payload through it, and TwoStageNnIndex the coarse stage of a legacy
// "two-stage-v1" blob, which is that same block.
#pragma once

#include "cam/tcam.hpp"
#include "encoding/normalize.hpp"
#include "serve/io.hpp"
#include "sig/model.hpp"

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mcam::search::detail {

/// Writes every programmed row of `tcam` (tombstones included - validity
/// is serialized separately) as trit bytes.
inline void write_tcam_rows(serve::io::Writer& out, const cam::TcamArray& tcam) {
  out.u64(tcam.num_rows());
  for (std::size_t r = 0; r < tcam.num_rows(); ++r) {
    const std::vector<cam::Trit> word = tcam.row_trits(r);
    std::vector<std::uint8_t> trits(word.size());
    for (std::size_t c = 0; c < word.size(); ++c) {
      trits[c] = static_cast<std::uint8_t>(word[c]);
    }
    out.vec_u8(trits);
  }
}

/// Reads rows written by write_tcam_rows back into a fresh `tcam`
/// (replaying add_row reconstructs programming noise bit-identically).
/// Every row must be exactly `expected_cols` trits wide - the signature
/// width the engine was built with - so a width mismatch (or any add_row
/// rejection, e.g. a corrupted count overflowing a bounded array) fails
/// at load time as serve::io::SnapshotError instead of surfacing as
/// per-query std::invalid_argument at serve time. Returns the number of
/// rows restored.
inline std::size_t read_tcam_rows(serve::io::Reader& in, cam::TcamArray& tcam,
                                  std::size_t expected_cols) {
  const std::size_t num_rows = in.checked_count(in.u64(), 8);
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::vector<std::uint8_t> trits = in.vec_u8();
    serve::io::require_payload(trits.size() == expected_cols,
                               "tcam row width disagrees with the signature width");
    std::vector<cam::Trit> word;
    word.reserve(trits.size());
    for (std::uint8_t t : trits) {
      serve::io::require_payload(t <= static_cast<std::uint8_t>(cam::Trit::kDontCare),
                                 "trit out of range");
      word.push_back(static_cast<cam::Trit>(t));
    }
    try {
      tcam.add_row(word);
    } catch (const std::exception& error) {
      throw serve::io::SnapshotError{std::string{"inconsistent snapshot payload: "} +
                                     error.what()};
    }
  }
  return num_rows;
}

/// A calibrated "tcam-lsh-v1" block, as read_tcam_lsh restores it.
struct TcamLshState {
  encoding::FeatureScaler scaler;
  std::unique_ptr<cam::TcamArray> tcam;  ///< Rows replayed, tombstones re-gated.
  std::vector<int> labels;               ///< One per stored row.
};

/// Reads one "tcam-lsh-v1" block: tag, calibrated byte, then z-score
/// scaler state, plane dimensions, planes, TCAM rows, validity latches and
/// per-row labels. Replays the rows into a TcamArray built from `config`
/// and, once the whole block has parsed, installs the planes into `model`
/// with zero thresholds (the layout predates thresholds), so a refused
/// block leaves `model` as it was. Returns nullopt for an uncalibrated
/// block. Throws serve::io::SnapshotError when the plane width disagrees
/// with the scaler, the bit count with `model`, the planes are malformed or
/// non-finite, or the row, label and validity counts disagree.
inline std::optional<TcamLshState> read_tcam_lsh(serve::io::Reader& in,
                                                 sig::SignatureModel& model,
                                                 const cam::TcamArrayConfig& config) {
  serve::io::expect_tag(in, "tcam-lsh-v1");
  if (in.u8() == 0) return std::nullopt;
  std::vector<float> offsets = in.vec_f32();
  std::vector<float> scales = in.vec_f32();
  TcamLshState state{
      encoding::FeatureScaler::from_state(std::move(offsets), std::move(scales)), nullptr, {}};
  const std::uint64_t features = in.u64();
  const std::uint64_t bits = in.u64();
  serve::io::require_payload(features == state.scaler.num_features(),
                             "LSH plane width disagrees with the scaler");
  if (bits != model.num_bits()) {
    throw serve::io::SnapshotError{"LSH width mismatch: snapshot has " +
                                   std::to_string(bits) + " bits, engine expects " +
                                   std::to_string(model.num_bits())};
  }
  std::vector<float> planes = in.vec_f32();
  state.tcam = std::make_unique<cam::TcamArray>(config);
  const std::size_t num_rows = read_tcam_rows(in, *state.tcam, model.num_bits());
  const std::vector<std::uint8_t> valid = in.vec_u8();
  state.labels = in.vec_i32();
  serve::io::require_payload(valid.size() == num_rows && state.labels.size() == num_rows,
                             "tcam row/label/valid counts disagree");
  for (std::size_t r = 0; r < valid.size(); ++r) {
    if (!valid[r]) state.tcam->invalidate_row(r);
  }
  try {
    model.install_state(features, std::move(planes), std::vector<float>(model.num_bits(), 0.0f));
  } catch (const std::invalid_argument& error) {
    throw serve::io::SnapshotError{std::string{"bad LSH plane state: "} + error.what()};
  }
  return state;
}

}  // namespace mcam::search::detail
