// String-keyed registry of NnIndex backends.
//
// Replaces the old `experiments::Method` enum switch: engines are created
// by name ("mcam3", "tcam-lsh", "euclidean", ...) from one config struct,
// so new backends register without touching a central switch and serving
// configs can name their engine in plain text. Built-in names:
//
//   mcam3, mcam2       - FeFET MCAM at the paper's two design points
//   mcam               - FeFET MCAM at `config.mcam_bits`
//   tcam-lsh           - TCAM storing LSH signatures (Hamming search)
//   cosine, euclidean,
//   manhattan, linf    - FP32 software linear scan over that metric
//   sharded-<name>     - any of the above tiled across capacity-bounded
//                        banks of `config.bank_rows` rows, asked in turn
//                        and merged hierarchically into one top-k
//                        (search/sharded.hpp)
//   refine             - two-stage pipeline (search/refine.hpp): a coarse
//                        signature TCAM of `coarse_bits` bits - signatures
//                        from the `sig_model` key of the signature-model
//                        registry (sig/model.hpp: random | trained | itq),
//                        swept `probes` times per query (multi-probe) -
//                        nominating candidate_factor * k candidates,
//                        reranked by the `fine_spec` backend (any of the
//                        above, monolithic or sharded)
//
// `create` also accepts spec strings - "name:key=value,..." - so serving
// and bench configs can select engine geometry without code changes:
//
//   create("mcam:bits=2,bank_rows=64")  ==  mcam_bits=2, bank_rows=64
//   create("refine:coarse_bits=64,candidate_factor=8,fine=sharded-mcam:bits=2")
//
// Unknown keys throw std::invalid_argument listing the known keys. The
// `fine=` key consumes the rest of the spec (nested fine specs carry
// their own commas), so it must come last.
//
// The registry is process-global; `register_engine` accepts additional
// builders. A measured conductance table needs none: it is a
// `cam::McamArrayConfig::lut` on a plain `McamNnEngine`.
#pragma once

#include "cam/array.hpp"
#include "cam/tcam.hpp"
#include "search/index.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mcam::search {

/// One config for every built-in backend; builders read what they need.
struct EngineConfig {
  std::size_t num_features = 0;    ///< Word length; sizes the LSH default.
  unsigned mcam_bits = 3;          ///< MCAM cell precision for the "mcam" key.
  std::size_t lsh_bits = 0;        ///< TCAM signature length; 0 = num_features.
  double vth_sigma = 0.0;          ///< Per-FeFET programming noise [V].
  double drift_sigma = 0.0;        ///< Injected retention drift [V]: extra per-
                                   ///< FeFET Vth noise applied on top of
                                   ///< vth_sigma when rows are programmed, so
                                   ///< the health scrubber's drift detection
                                   ///< (obs/health) is testable end to end.
                                   ///< An operational knob, deliberately not
                                   ///< persisted by snapshots: restore replays
                                   ///< the row writes, which reprograms the
                                   ///< cells and cures the drift.
  cam::SensingMode sensing = cam::SensingMode::kIdealSum;  ///< Ranking fidelity.
  double sense_clock_period = 0.0; ///< Sense clock [s] for kMatchlineTiming.
  double clip_percentile = 0.0;    ///< Quantizer outlier clipping.
  std::uint64_t seed = 7;          ///< Seed for LSH planes / programming noise.
  std::size_t bank_rows = 0;       ///< CAM bank capacity: rows per bank for the
                                   ///< sharded-* keys (0 = the 64-row default)
                                   ///< and the physical `max_rows` bound of the
                                   ///< monolithic CAM arrays (0 = unbounded).
  std::size_t coarse_bits = 0;     ///< "refine": coarse TCAM-LSH signature bits
                                   ///< (0 = lsh_bits, then num_features).
  std::size_t candidate_factor = 0;  ///< "refine": coarse candidates nominated per
                                     ///< requested k (0 = the default of 4).
  bool refine_exhaustive = false;  ///< "refine": bypass the coarse stage; answers
                                   ///< are bit-identical to the fine backend alone.
  std::string fine_spec;           ///< "refine": factory spec of the fine (rerank)
                                   ///< stage; may itself be a full spec string.
  std::string sig_model;           ///< "refine": coarse signature model registry key
                                   ///< (sig::SignatureModelFactory - "random",
                                   ///< "trained", "itq"; empty = "random").
  std::size_t probes = 0;          ///< "refine": coarse multi-probe sweeps per query
                                   ///< (0 = the single-probe default of 1).
  std::size_t tag_bits = 0;        ///< "refine": coarse TCAM cells reserved for the
                                   ///< metadata tag band (search/refine.hpp;
                                   ///< 0 = no band).
  std::string filter_policy;       ///< Filtered-query routing for the store layer
                                   ///< (store/collection.hpp): "band" forces the
                                   ///< TCAM-pushed tag band; "post", "auto" and
                                   ///< empty post-filter through query_subset.
                                   ///< Ignored by the engines themselves.
  std::string rerank;              ///< Software-engine rerank precision: "fp32" or
                                   ///< empty for the exact FP32 kernels, "int8" for
                                   ///< the symmetric int8 ordering with exact FP32
                                   ///< rescoring of the final top-k
                                   ///< (search/knn.hpp). Ignored by CAM engines.

  bool operator==(const EngineConfig&) const = default;
};

/// A parsed "name:key=value,..." engine spec.
struct EngineSpec {
  std::string name;     ///< Registry key (the part before ':').
  EngineConfig config;  ///< `base` with the spec's overrides applied.
};

/// Parses an engine spec string into the registry key and an EngineConfig.
/// Known keys: bits (mcam_bits), bank_rows, lsh_bits,
/// num_features, vth_sigma, drift_sigma (injected post-programming
/// retention drift for health-scrub testing), clip_percentile,
/// sense_clock_period, seed,
/// sensing (= "ideal" | "timing"), coarse_bits, candidate_factor,
/// exhaustive (0|1, refine_exhaustive), sig (sig_model; validated against
/// the signature-model registry when the refine engine is built), probes,
/// tag_bits (metadata tag band width), filter (= "band" | "post" |
/// "auto", filter_policy), rerank (= "fp32" | "int8", software engines'
/// rerank precision), and fine (fine_spec; consumes the rest of the
/// spec, so it must come last). shard_workers=<unsigned> and
/// trace_sample=<unsigned> are parsed and ignored, so specs written when
/// banks ran on their own threads, or when a spec carried the serving
/// layers' trace sampling (now serve::QueryServiceConfig /
/// store::ManagerConfig::trace_sample), still load. Unknown keys,
/// malformed or empty values,
/// unsigned values that do not fit their field, non-finite or negative
/// double values, and duplicate keys throw std::invalid_argument naming
/// the offending spec string and listing the known keys.
[[nodiscard]] EngineSpec parse_engine_spec(const std::string& spec,
                                           const EngineConfig& base = EngineConfig{});

/// Process-global name -> builder registry.
class EngineFactory {
 public:
  using Builder = std::function<std::unique_ptr<NnIndex>(const EngineConfig&)>;

  /// The global registry, with the built-in backends pre-registered.
  [[nodiscard]] static EngineFactory& instance();

  /// Registers (or replaces) a builder under `name`.
  void register_engine(std::string name, Builder builder);

  /// Builds the backend registered under `name`; throws
  /// std::invalid_argument (listing the known names) when absent. A name
  /// containing ':' is treated as a "name:key=value,..." spec string whose
  /// overrides are applied on top of `config` (see parse_engine_spec).
  [[nodiscard]] std::unique_ptr<NnIndex> create(const std::string& name,
                                                const EngineConfig& config) const;

  /// True when `name` is registered.
  [[nodiscard]] bool contains(const std::string& name) const;

  /// Sorted names of every registered backend.
  [[nodiscard]] std::vector<std::string> registered_names() const;

 private:
  EngineFactory();

  std::map<std::string, Builder> builders_;
};

/// Convenience for the common path: `EngineFactory::instance().create(...)`.
[[nodiscard]] std::unique_ptr<NnIndex> make_index(const std::string& name,
                                                  const EngineConfig& config = EngineConfig{});

}  // namespace mcam::search
