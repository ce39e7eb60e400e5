#include "replay.hpp"

#include "workload.hpp"

#include "cam/tcam.hpp"
#include "search/engine.hpp"
#include "search/refine.hpp"

#include <algorithm>
#include <vector>

namespace e2e {

namespace {

using mcam::search::QueryResult;

/// Runs `call`, adds its wall time in seconds to `seconds`, returns its result.
template <typename Call>
auto timed(double& seconds, Call&& call) {
  const Clock::time_point start = Clock::now();
  auto result = call();
  seconds = seconds_since(start);
  return result;
}

void add_telemetry(const mcam::search::QueryTelemetry& telemetry, Samples& layers) {
  layers.add("search.coarse_candidates", static_cast<double>(telemetry.coarse_candidates));
  layers.add("search.fine_candidates", static_cast<double>(telemetry.fine_candidates));
  layers.add("search.probes_used", static_cast<double>(telemetry.probes_used));
  layers.add("search.banks_searched", static_cast<double>(telemetry.banks_searched));
  layers.add("search.sense_events", static_cast<double>(telemetry.sense_events));
}

/// The coarse stage of a two-stage engine, step by step: z-score and
/// encode the query, sweep the TCAM once with the tag band masked,
/// nominate, rerank. The engine swept `probes` times, so the sweep counts
/// that often in the returned child seconds and in the simulated cells.
double replay_two_stage(const mcam::search::TwoStageNnIndex& engine,
                        const mcam::encoding::FeatureScaler& scaler,
                        std::span<const float> query, std::size_t budget,
                        std::size_t probes, Samples& layers) {
  const mcam::cam::TcamArray& tcam = engine.coarse_tcam();
  double encode_s = 0.0;
  const std::vector<std::uint8_t> bits = timed(encode_s, [&] {
    return engine.signature_model().encode_bits(scaler.transform(query));
  });
  std::vector<mcam::cam::Trit> word(tcam.word_length(), mcam::cam::Trit::kDontCare);
  for (std::size_t b = 0; b < bits.size(); ++b) {
    word[b] = bits[b] ? mcam::cam::Trit::kOne : mcam::cam::Trit::kZero;
  }
  double sweep_s = 0.0;
  const std::vector<double> conductances = timed(sweep_s, [&] {
    return tcam.search_conductances(std::span<const mcam::cam::Trit>{word});
  });
  double nominate_s = 0.0;
  const std::vector<std::size_t> ids = timed(nominate_s, [&] {
    return mcam::search::top_k_ascending(conductances, std::min(budget, conductances.size()));
  });
  double rerank_s = 0.0;
  (void)timed(rerank_s, [&] { return engine.fine().query_subset(query, ids, kTopK); });

  const double cells = static_cast<double>(tcam.num_rows() * tcam.word_length());
  layers.add_time("sig.encode", encode_s);
  layers.add_time("cam.tcam_sweep", sweep_s);
  layers.add("cam.cells", cells * static_cast<double>(probes));
  layers.add_time("cam.cell", sweep_s / cells);
  layers.add_time("search.nominate", nominate_s);
  layers.add_time("distance.rerank", rerank_s);
  layers.add_time("distance.candidate", rerank_s / static_cast<double>(ids.size()));
  return encode_s + sweep_s * static_cast<double>(probes) + nominate_s + rerank_s;
}

}  // namespace

bool replay_collection_read(const mcam::store::Collection& collection,
                            const mcam::encoding::FeatureScaler& scaler,
                            std::span<const float> query,
                            const mcam::store::Predicate& predicate, Samples& layers) {
  using mcam::store::FilterPath;
  double store_s = 0.0;
  const mcam::store::CollectionQueryResult served =
      timed(store_s, [&] { return collection.query(query, kTopK, predicate); });

  const mcam::search::NnIndex& engine = collection.engine();
  const auto* two_stage = dynamic_cast<const mcam::search::TwoStageNnIndex*>(&engine);
  const mcam::store::MetadataStore& metadata = collection.metadata();
  const std::vector<std::size_t> matching =
      predicate.empty() ? std::vector<std::size_t>{} : metadata.matching_ids(predicate);
  double search_s = 0.0;
  QueryResult direct;
  if (served.path == FilterPath::kBand) {
    const auto band = metadata.band_query(predicate, two_stage->tag_bits());
    const auto verify = [&](std::size_t id) { return metadata.matches(id, predicate); };
    direct = timed(search_s, [&] {
      return *two_stage->query_filtered(query, kTopK, *band, verify);
    });
  } else if (served.path == FilterPath::kPostFilter) {
    direct = timed(search_s, [&] { return engine.query_subset(query, matching, kTopK); });
  } else {
    direct = timed(search_s, [&] { return engine.query_one(query, kTopK); });
  }

  double children_s = 0.0;
  if (two_stage != nullptr && served.path != FilterPath::kPostFilter) {
    const std::size_t eligible = predicate.empty() ? engine.size() : matching.size();
    const std::size_t k = std::min(kTopK, engine.size());
    children_s = replay_two_stage(*two_stage, scaler, query,
                                  std::min(k * two_stage->config().candidate_factor, eligible),
                                  served.result.telemetry.probes_used, layers);
  } else if (two_stage != nullptr) {
    double rerank_s = 0.0;
    (void)timed(rerank_s, [&] { return two_stage->fine().query_subset(query, matching, kTopK); });
    layers.add_time("distance.rerank", rerank_s);
    layers.add_time("distance.candidate", rerank_s / static_cast<double>(matching.size()));
    children_s = rerank_s;
  } else {
    // A software engine's query is its rerank: one scan over every live row.
    layers.add_time("distance.rerank", search_s);
    layers.add_time("distance.candidate", search_s / static_cast<double>(engine.size()));
    children_s = search_s;
  }

  layers.add_time("store.query", store_s);
  layers.add_time("store.route_self", store_s - search_s);
  layers.add_time("search.query", search_s);
  layers.add_time("search.self", search_s - children_s);
  layers.add("recon.store", search_s / store_s);
  layers.add("recon.search", children_s / search_s);
  layers.add("store.band", served.path == FilterPath::kBand ? 1.0 : 0.0);
  layers.add("store.post", served.path == FilterPath::kPostFilter ? 1.0 : 0.0);
  if (served.path != FilterPath::kNone) layers.add("store.selectivity", served.selectivity);
  add_telemetry(served.result.telemetry, layers);
  return same_answer(direct, served.result);
}

void replay_sharded_read(const mcam::search::ShardedNnIndex& index,
                         std::span<const float> query, Samples& layers) {
  double search_s = 0.0;
  const QueryResult served = timed(search_s, [&] { return index.query_one(query, kTopK); });

  double banks_s = 0.0;
  double quantize_s = 0.0;
  double sweep_s = 0.0;
  double cells = 0.0;
  for (std::size_t b = 0; b < index.num_banks(); ++b) {
    const mcam::search::NnIndex& bank = index.bank(b);
    if (bank.size() == 0) continue;
    double bank_s = 0.0;
    (void)timed(bank_s, [&] { return bank.query_one(query, std::min(kTopK, bank.size())); });
    banks_s += bank_s;
    layers.add_time("search.bank_query", bank_s);
    const auto* mcam = dynamic_cast<const mcam::search::McamNnEngine*>(&bank);
    if (mcam == nullptr) continue;
    double q_s = 0.0;
    const std::vector<std::uint16_t> levels =
        timed(q_s, [&] { return mcam->quantizer().quantize(query); });
    double s_s = 0.0;
    (void)timed(s_s, [&] { return mcam->array().search_conductances(levels); });
    quantize_s += q_s;
    sweep_s += s_s;
    cells += static_cast<double>(mcam->array().num_rows() * mcam->array().word_length());
  }

  layers.add_time("search.query", search_s);
  layers.add_time("search.self", search_s - banks_s);
  layers.add_time("search.merge", search_s - banks_s);
  layers.add_time("encoding.quantize", quantize_s);
  layers.add_time("cam.mcam_sweep", sweep_s);
  layers.add("cam.cells", cells);
  layers.add_time("cam.cell", sweep_s / cells);
  layers.add_time("bank.self", banks_s - quantize_s - sweep_s);
  layers.add("recon.search", banks_s / search_s);
  layers.add("recon.bank", (quantize_s + sweep_s) / banks_s);
  add_telemetry(served.telemetry, layers);
}

}  // namespace e2e
