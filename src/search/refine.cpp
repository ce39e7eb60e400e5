#include "search/refine.hpp"

#include "energy/model.hpp"
#include "obs/trace.hpp"
#include "search/trit_serde.hpp"
#include "serve/io.hpp"
#include "sig/multiprobe.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mcam::search {

TwoStageNnIndex::TwoStageNnIndex(std::unique_ptr<sig::SignatureModel> model,
                                 cam::TcamArrayConfig coarse_config,
                                 std::unique_ptr<NnIndex> fine, TwoStageConfig config)
    : model_(std::move(model)),
      coarse_config_(coarse_config),
      fine_(std::move(fine)),
      config_(config) {
  if (!model_) throw std::invalid_argument{"TwoStageNnIndex: null signature model"};
  if (!fine_) throw std::invalid_argument{"TwoStageNnIndex: null fine stage"};
  if (config_.candidate_factor == 0) {
    throw std::invalid_argument{"TwoStageNnIndex: zero candidate_factor"};
  }
  if (coarse_config_.max_rows != 0) {
    // The add contract depends on the coarse add never failing after the
    // fine stage accepted a batch: a bounded coarse TCAM could throw
    // mid-batch and leave the stages permanently desynchronized (fine
    // rows the coarse stage can never nominate). Capacity lives in the
    // fine stage / shard layer; the coarse TCAM is the cheap index over
    // it.
    throw std::invalid_argument{
        "TwoStageNnIndex: the coarse TCAM must be unbounded (max_rows = 0)"};
  }
  config_.probes = std::max<std::size_t>(config_.probes, 1);
}

const cam::TcamArray& TwoStageNnIndex::coarse_tcam() const {
  if (!tcam_) throw std::logic_error{"TwoStageNnIndex::coarse_tcam before calibration"};
  return *tcam_;
}

cam::TcamArray& TwoStageNnIndex::coarse_tcam() {
  if (!tcam_) throw std::logic_error{"TwoStageNnIndex::coarse_tcam before calibration"};
  return *tcam_;
}

void TwoStageNnIndex::ensure_coarse(std::span<const std::vector<float>> rows) {
  if (tcam_) return;  // Fit-once; later calls are no-ops.
  if (rows.empty()) throw std::invalid_argument{"TwoStageNnIndex::calibrate: no rows"};
  // Signatures approximate distances only for centered data, so the model
  // sees z-scored features - the same preprocessing the legacy TCAM-LSH
  // coarse stage applied, which keeps `random` bit-compatible with it.
  scaler_ = encoding::FeatureScaler::fit_z_score(rows);
  model_->fit(scaler_->transform_all(rows));
  tcam_ = std::make_unique<cam::TcamArray>(coarse_config_);
}

void TwoStageNnIndex::add(std::span<const std::vector<float>> rows,
                          std::span<const int> labels) {
  add_rows(rows, labels, {});
}

void TwoStageNnIndex::add_tagged(std::span<const std::vector<float>> rows,
                                 std::span<const int> labels,
                                 std::span<const std::vector<std::uint8_t>> bands) {
  if (config_.tag_bits == 0) {
    throw std::invalid_argument{
        "TwoStageNnIndex::add_tagged: pipeline has no tag band (tag_bits = 0)"};
  }
  if (bands.size() != rows.size()) {
    throw std::invalid_argument{"TwoStageNnIndex::add_tagged: one band bitmap per row"};
  }
  for (const auto& band : bands) {
    if (band.size() != config_.tag_bits) {
      throw std::invalid_argument{"TwoStageNnIndex::add_tagged: band bitmap must be " +
                                  std::to_string(config_.tag_bits) + " bits wide"};
    }
  }
  add_rows(rows, labels, bands);
}

void TwoStageNnIndex::add_rows(std::span<const std::vector<float>> rows,
                               std::span<const int> labels,
                               std::span<const std::vector<std::uint8_t>> bands) {
  // Ordering keeps the stages' id spaces in lockstep through every
  // failure: validate the batch shape, calibrate the coarse side (pure
  // fitting - no rows stored, and rolled back below if this batch ends
  // up rejected), encode the whole batch (a width mismatch against
  // fitted encoders throws here, before EITHER stage stored anything),
  // commit the fine stage (its capacity errors leave the coarse TCAM
  // unprogrammed), and only then program the coarse rows - which cannot
  // fail, because the TCAM is unbounded (enforced by the constructor)
  // and the signatures already encoded.
  if (rows.size() != labels.size() || rows.empty()) {
    throw std::invalid_argument{"TwoStageNnIndex::add: bad training set"};
  }
  const bool calibrating = tcam_ == nullptr;
  ensure_coarse(rows);
  try {
    std::vector<std::vector<cam::Trit>> words;
    words.reserve(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::vector<std::uint8_t> bits = model_->encode_bits(scaler_->transform(rows[r]));
      std::vector<cam::Trit> word;
      word.reserve(coarse_word_bits());
      for (std::uint8_t b : bits) word.push_back(b ? cam::Trit::kOne : cam::Trit::kZero);
      // Band cells are definite bits, never don't-care: an untagged row
      // stores all zeros, so it can never satisfy a band filter.
      for (std::size_t t = 0; t < config_.tag_bits; ++t) {
        const bool set = !bands.empty() && bands[r][t] != 0;
        word.push_back(set ? cam::Trit::kOne : cam::Trit::kZero);
      }
      words.push_back(std::move(word));
    }
    fine_->add(rows, labels);
    for (const auto& word : words) tcam_->add_row(word);
  } catch (...) {
    if (calibrating) {
      // The rejected batch must not leave encoders trained on rows that
      // were never stored (fit-once would pin them forever).
      tcam_.reset();
      scaler_.reset();
      model_->reset();
    }
    throw;
  }
}

void TwoStageNnIndex::calibrate(std::span<const std::vector<float>> rows) {
  fine_->calibrate(rows);
  ensure_coarse(rows);
}

void TwoStageNnIndex::clear() {
  fine_->clear();
  tcam_.reset();
  scaler_.reset();
  model_->reset();
}

bool TwoStageNnIndex::erase(std::size_t id) {
  const bool fine_erased = fine_->erase(id);
  const bool coarse_erased = tcam_ && id < tcam_->num_rows()
                                 ? tcam_->invalidate_row(id)
                                 : false;
  if (fine_erased != coarse_erased) {
    // Unreachable when all mutations route through this index; a drifted
    // id space would silently serve rows one stage considers dead.
    throw std::logic_error{"TwoStageNnIndex: stages disagree on erase(" +
                           std::to_string(id) + ")"};
  }
  return fine_erased;
}

std::pair<std::vector<double>, std::size_t> TwoStageNnIndex::coarse_sweep(
    std::span<const float> query) const {
  // Sweep the coarse TCAM once per probe signature and keep each row's
  // best (minimum-conductance) match. The tag band - if any - is swept as
  // kDontCare on every probe: both search lines low, zero contribution,
  // so the ranking is by pure signature distance regardless of the rows'
  // stored bitmaps (band *eligibility* is a separate mask, not a ranking
  // term).
  obs::Trace* trace = obs::current_trace();
  obs::TraceSpan encode_span(trace, "encode");
  const std::vector<float> scaled = scaler_->transform(query);
  // One projection pass serves both roles: sig::signature_bits(margins)
  // is the query signature (the same rule encode_bits applied to the
  // stored rows), and the margins order the multi-probe flips.
  const std::vector<float> margins = model_->project(scaled);
  const std::vector<std::uint8_t> query_bits = sig::signature_bits(margins);
  std::vector<cam::Trit> word(coarse_word_bits(), cam::Trit::kDontCare);
  for (std::size_t b = 0; b < query_bits.size(); ++b) {
    word[b] = query_bits[b] ? cam::Trit::kOne : cam::Trit::kZero;
  }
  encode_span.note("bits", static_cast<double>(query_bits.size()));
  encode_span.close();

  obs::TraceSpan sweep_span(trace, "coarse-sweep");
  std::vector<double> best = tcam_->search_conductances(std::span<const cam::Trit>{word});
  sweep_span.note("rows", static_cast<double>(best.size()));
  sweep_span.close();

  obs::TraceSpan probe_span(trace, "multi-probe");
  std::size_t probes_used = 1;
  if (config_.probes > 1) {
    const std::vector<std::vector<std::size_t>> flip_sets =
        sig::MultiProbe::sequence(margins, config_.probes);
    for (std::size_t p = 1; p < flip_sets.size(); ++p) {
      std::vector<cam::Trit> probe_word = word;
      for (std::size_t bit : flip_sets[p]) {
        probe_word[bit] =
            probe_word[bit] == cam::Trit::kOne ? cam::Trit::kZero : cam::Trit::kOne;
      }
      const std::vector<double> swept =
          tcam_->search_conductances(std::span<const cam::Trit>{probe_word});
      for (std::size_t r = 0; r < best.size(); ++r) best[r] = std::min(best[r], swept[r]);
      ++probes_used;
    }
  }
  probe_span.note("probes", static_cast<double>(probes_used));
  probe_span.close();
  return {std::move(best), probes_used};
}

QueryResult TwoStageNnIndex::query_one(std::span<const float> query, std::size_t k) const {
  if (fine_->size() == 0) throw std::logic_error{"TwoStageNnIndex::query_one before add"};
  const std::size_t kk = std::min(std::max<std::size_t>(k, 1), fine_->size());
  if (config_.exhaustive_fallback) {
    // Oracle path: the fine backend alone, verbatim (result and
    // telemetry), so callers can A/B the pipeline against ground truth.
    QueryResult result = fine_->query_one(query, kk);
    result.telemetry.fine_candidates = result.telemetry.candidates;
    return result;
  }
  // Every live row is eligible and none needs verifying, so at least one
  // row is nominated and a result always comes back.
  return nominate_and_rerank(query, kk, tcam_->valid_mask(), tcam_->num_valid(), {}).value();
}

std::optional<QueryResult> TwoStageNnIndex::nominate_and_rerank(
    std::span<const float> query, std::size_t kk, std::span<const std::uint8_t> eligible,
    std::size_t eligible_count, const std::function<bool(std::size_t)>& verify) const {
  // Stage 1: best-of-probes coarse match, then nominate the
  // candidate_factor * k most-matching eligible rows.
  obs::Trace* trace = obs::current_trace();
  const std::size_t live = tcam_->num_valid();
  const std::size_t want = std::min(nomination_budget(kk), eligible_count);
  const auto [best, probes_used] = coarse_sweep(query);
  obs::TraceSpan nominate_span(trace, "nominate");
  // Rank one past the cut so the nomination margin - the conductance gap
  // between the last nominated row and the best excluded one, the
  // adaptive-candidate_factor signal - falls out of the same sweep.
  const std::vector<std::size_t> ranked = cam::rank_by_sensing(
      best, eligible, coarse_config_.sensing, coarse_config_.matchline,
      tcam_->word_length(), coarse_config_.sense_clock_period,
      std::min(want + 1, eligible_count));
  double coarse_margin = 0.0;
  if (ranked.size() > want && want > 0) {
    coarse_margin = std::max(0.0, best[ranked[want]] - best[ranked[want - 1]]);
  }
  // A filtered read's band is a Bloom-style presence map, so a nominated
  // row may carry the required bits via colliding tags; the caller's exact
  // predicate check prunes those before any fine matchline is charged.
  std::vector<std::size_t> ids;
  ids.reserve(std::min(want, ranked.size()));
  for (std::size_t i = 0; i < std::min(want, ranked.size()); ++i) {
    if (!verify || verify(ranked[i])) ids.push_back(ranked[i]);
  }
  nominate_span.note("nominated", static_cast<double>(ids.size()));
  nominate_span.note("coarse_margin", coarse_margin);
  nominate_span.close();
  if (ids.empty()) return std::nullopt;

  // Stage 2: precise rerank of the candidates only.
  obs::TraceSpan fine_span(trace, "fine-rerank");
  QueryResult result = fine_->query_subset(query, ids, kk);
  fine_span.tag(result.telemetry.kernel);
  fine_span.note("candidates", static_cast<double>(result.telemetry.candidates));
  fine_span.close();

  obs::TraceSpan merge_span(trace, "merge");
  result.telemetry.coarse_candidates = live * probes_used;
  result.telemetry.fine_candidates = result.telemetry.candidates;
  result.telemetry.candidates =
      result.telemetry.coarse_candidates + result.telemetry.fine_candidates;
  result.telemetry.sense_events += ids.size();
  result.telemetry.energy_j +=
      static_cast<double>(probes_used) *
      energy::ArrayEnergyModel{energy::ArrayParams{}}.tcam_search_energy(
          live, tcam_->word_length());
  result.telemetry.banks_searched += 1;
  result.telemetry.coarse_margin = coarse_margin;
  result.telemetry.probes_used = probes_used;
  result.telemetry.filtered_out = live - eligible_count;
  merge_span.note("coarse_candidates", static_cast<double>(result.telemetry.coarse_candidates));
  merge_span.note("fine_candidates", static_cast<double>(result.telemetry.fine_candidates));
  merge_span.note("candidates", static_cast<double>(result.telemetry.candidates));
  merge_span.note("energy_j", result.telemetry.energy_j);
  merge_span.note("probes", static_cast<double>(probes_used));
  return result;
}

QueryResult TwoStageNnIndex::query_subset(std::span<const float> query,
                                          std::span<const std::size_t> ids,
                                          std::size_t k) const {
  // The caller fixed the candidate set, so there is nothing to nominate:
  // the fine backend's ranking over `ids` is exactly what query_one
  // converges to at a full candidate budget.
  QueryResult result = fine_->query_subset(query, ids, k);
  result.telemetry.fine_candidates = result.telemetry.candidates;
  return result;
}

std::optional<QueryResult> TwoStageNnIndex::query_filtered(
    std::span<const float> query, std::size_t k,
    std::span<const std::uint8_t> required_band,
    const std::function<bool(std::size_t)>& verify) const {
  if (config_.tag_bits == 0) {
    throw std::invalid_argument{
        "TwoStageNnIndex::query_filtered: pipeline has no tag band (tag_bits = 0)"};
  }
  if (required_band.size() != config_.tag_bits) {
    throw std::invalid_argument{"TwoStageNnIndex::query_filtered: band must be " +
                                std::to_string(config_.tag_bits) + " bits wide"};
  }
  if (fine_->size() == 0) {
    throw std::logic_error{"TwoStageNnIndex::query_filtered before add"};
  }
  if (config_.exhaustive_fallback) {
    throw std::logic_error{
        "TwoStageNnIndex::query_filtered: exhaustive fallback bypasses the coarse "
        "stage - use query_subset with the predicate's candidate list"};
  }

  // Band gate: exact kOne trits at the required slots, kDontCare across
  // the signature and the unconstrained band cells. A row missing any
  // required bit mismatches in-array and is never nominated.
  obs::Trace* trace = obs::current_trace();
  obs::TraceSpan band_span(trace, "band-filter");
  std::vector<cam::Trit> band_query(coarse_word_bits(), cam::Trit::kDontCare);
  for (std::size_t b = 0; b < config_.tag_bits; ++b) {
    if (required_band[b] != 0) {
      band_query[model_->num_bits() + b] = cam::Trit::kOne;
    }
  }
  const std::vector<std::uint8_t> band_match =
      tcam_->ternary_match_mask(std::span<const cam::Trit>{band_query});
  const std::span<const std::uint8_t> valid = tcam_->valid_mask();
  std::vector<std::uint8_t> eligible(band_match.size(), 0);
  std::size_t eligible_count = 0;
  for (std::size_t r = 0; r < band_match.size(); ++r) {
    eligible[r] = static_cast<std::uint8_t>(valid[r] != 0 && band_match[r] != 0);
    eligible_count += eligible[r];
  }
  const std::size_t live = tcam_->num_valid();
  band_span.note("eligible", static_cast<double>(eligible_count));
  band_span.note("filtered_out", static_cast<double>(live - eligible_count));
  band_span.close();
  if (eligible_count == 0) return std::nullopt;

  const std::size_t kk = std::min(std::max<std::size_t>(k, 1), fine_->size());
  return nominate_and_rerank(query, kk, eligible, eligible_count, verify);
}

std::string TwoStageNnIndex::name() const {
  std::string coarse = "two-stage " + model_->key() + "-sig (" +
                       std::to_string(model_->num_bits()) + "b";
  if (config_.probes > 1) coarse += ", " + std::to_string(config_.probes) + "p";
  if (config_.tag_bits > 0) coarse += ", " + std::to_string(config_.tag_bits) + "t";
  return coarse + ") -> " + fine_->name();
}

void TwoStageNnIndex::save_state(serve::io::Writer& out) const {
  // A band-less pipeline writes the exact "two-stage-v2" bytes it always
  // did, so pre-band snapshots and new band-less snapshots stay mutually
  // readable; only a pipeline actually built with a tag band needs the
  // "two-stage-v3" layout (one extra u64, wider TCAM rows).
  out.str(config_.tag_bits > 0 ? "two-stage-v3" : "two-stage-v2");
  out.u64(config_.candidate_factor);
  out.u8(config_.exhaustive_fallback ? 1 : 0);
  out.u64(config_.probes);
  if (config_.tag_bits > 0) out.u64(config_.tag_bits);
  out.str(model_->key());
  out.u8(tcam_ ? 1 : 0);
  if (tcam_) {
    out.vec_f32(scaler_->offsets());
    out.vec_f32(scaler_->scales());
    out.u64(model_->num_features());
    out.u64(model_->num_bits());
    out.vec_f32(model_->planes());
    out.vec_f32(model_->thresholds());
    detail::write_tcam_rows(out, *tcam_);
    out.vec_u8(tcam_->valid_mask());
  }
  fine_->save_state(out);
}

void TwoStageNnIndex::load_coarse(serve::io::Reader& in) {
  // The v2 and v3 layouts share this reader: scaler state, model
  // dimensions, planes, thresholds, TCAM rows (v3's band cells included),
  // validity mask.
  std::vector<float> offsets = in.vec_f32();
  std::vector<float> scales = in.vec_f32();
  scaler_ = encoding::FeatureScaler::from_state(std::move(offsets), std::move(scales));
  const std::uint64_t model_features = in.u64();
  const std::uint64_t model_bits = in.u64();
  serve::io::require_payload(model_features == scaler_->num_features(),
                             "signature-model width disagrees with the scaler");
  if (model_bits != model_->num_bits()) {
    throw serve::io::SnapshotError{"coarse signature width mismatch: snapshot has " +
                                   std::to_string(model_bits) + " bits, engine expects " +
                                   std::to_string(model_->num_bits())};
  }
  std::vector<float> planes = in.vec_f32();
  std::vector<float> thresholds = in.vec_f32();
  try {
    model_->install_state(model_features, std::move(planes), std::move(thresholds));
  } catch (const std::invalid_argument& error) {
    throw serve::io::SnapshotError{std::string{"bad signature-model state: "} +
                                   error.what()};
  }
  tcam_ = std::make_unique<cam::TcamArray>(coarse_config_);
  const std::size_t num_rows = detail::read_tcam_rows(in, *tcam_, coarse_word_bits());
  const std::vector<std::uint8_t> valid = in.vec_u8();
  serve::io::require_payload(valid.size() == num_rows,
                             "two-stage coarse valid count disagrees");
  for (std::size_t r = 0; r < valid.size(); ++r) {
    if (!valid[r]) tcam_->invalidate_row(r);
  }
}

void TwoStageNnIndex::load_legacy_coarse(serve::io::Reader& in) {
  // Pre-signature-model payload (snapshot format v2): the coarse stage
  // was a TcamLshEngine, so its state is that engine's "tcam-lsh-v1" block,
  // read by the engine's own reader. It restores as a `random` model with
  // zero thresholds; the per-row labels are dropped.
  if (model_->key() != "random") {
    throw serve::io::SnapshotError{
        "legacy two-stage payload encodes random-hyperplane signatures, but this "
        "engine was built with sig=" +
        model_->key()};
  }
  if (config_.probes != 1) {
    throw serve::io::SnapshotError{
        "legacy two-stage payload predates multi-probe, but this engine was built "
        "with probes=" +
        std::to_string(config_.probes)};
  }
  std::optional<detail::TcamLshState> state =
      detail::read_tcam_lsh(in, *model_, coarse_config_);
  if (!state) return;  // Uncalibrated coarse stage.
  scaler_ = std::move(state->scaler);
  tcam_ = std::move(state->tcam);
}

void TwoStageNnIndex::load_state(serve::io::Reader& in) {
  const std::string tag = in.str();
  if (tag != "two-stage-v1" && tag != "two-stage-v2" && tag != "two-stage-v3") {
    throw serve::io::SnapshotError{"engine payload tag mismatch: expected "
                                   "'two-stage-v1'..'two-stage-v3', found '" +
                                   tag + "'"};
  }
  if (tag != "two-stage-v3" && config_.tag_bits != 0) {
    throw serve::io::SnapshotError{
        "two-stage payload has no tag band, but this engine was built with tag_bits=" +
        std::to_string(config_.tag_bits)};
  }
  const std::uint64_t factor = in.u64();
  const std::uint8_t exhaustive = in.u8();
  if (factor != config_.candidate_factor ||
      (exhaustive != 0) != config_.exhaustive_fallback) {
    throw serve::io::SnapshotError{
        "two-stage config mismatch: snapshot has candidate_factor=" +
        std::to_string(factor) + " exhaustive=" + std::to_string(exhaustive) +
        ", engine has candidate_factor=" + std::to_string(config_.candidate_factor) +
        " exhaustive=" + std::to_string(config_.exhaustive_fallback ? 1 : 0)};
  }
  // Drop any existing coarse state before restoring (load_state contract).
  tcam_.reset();
  scaler_.reset();
  model_->reset();
  if (tag == "two-stage-v1") {
    load_legacy_coarse(in);
    fine_->load_state(in);
    serve::io::require_payload(tcam_ != nullptr || fine_->size() == 0,
                               "populated fine stage without a coarse stage");
    return;
  }
  const std::uint64_t probes = in.u64();
  if (probes != config_.probes) {
    throw serve::io::SnapshotError{
        "two-stage config mismatch: snapshot has probes=" + std::to_string(probes) +
        ", engine has probes=" + std::to_string(config_.probes)};
  }
  if (tag == "two-stage-v3") {
    const std::uint64_t band = in.u64();
    if (band != config_.tag_bits) {
      throw serve::io::SnapshotError{
          "two-stage config mismatch: snapshot has tag_bits=" + std::to_string(band) +
          ", engine has tag_bits=" + std::to_string(config_.tag_bits)};
    }
  }
  const std::string model_key = in.str();
  if (model_key != model_->key()) {
    throw serve::io::SnapshotError{"signature model mismatch: snapshot has '" +
                                   model_key + "', engine was built with '" +
                                   model_->key() + "'"};
  }
  if (in.u8() != 0) load_coarse(in);
  fine_->load_state(in);
  // A blob claiming no coarse calibration while the fine stage holds rows
  // would crash the first query (null TCAM); fail at load time instead.
  serve::io::require_payload(tcam_ != nullptr || fine_->size() == 0,
                             "populated fine stage without a coarse stage");
}

std::unique_ptr<NnIndex> make_two_stage(std::unique_ptr<sig::SignatureModel> model,
                                        cam::TcamArrayConfig coarse_config,
                                        std::unique_ptr<NnIndex> fine,
                                        TwoStageConfig config) {
  return std::make_unique<TwoStageNnIndex>(std::move(model), coarse_config,
                                           std::move(fine), config);
}

}  // namespace mcam::search
