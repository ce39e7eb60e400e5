#include "search/factory.hpp"

#include "energy/model.hpp"
#include "search/engine.hpp"
#include "search/refine.hpp"
#include "search/sharded.hpp"
#include "sig/model.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

namespace mcam::search {

namespace {

cam::McamArrayConfig mcam_array_config(unsigned bits, const EngineConfig& config) {
  cam::McamArrayConfig array;
  array.level_map = fefet::LevelMap{bits};
  array.sensing = config.sensing;
  array.sense_clock_period = config.sense_clock_period;
  array.vth_sigma = config.vth_sigma;
  array.drift_sigma = config.drift_sigma;
  array.seed = config.seed;
  // bank_rows doubles as the physical matchline bound of one array: a
  // monolithic engine built with it refuses to outgrow the bank, which is
  // exactly what the sharded-* keys tile around.
  array.max_rows = config.bank_rows;
  return array;
}

EngineFactory::Builder mcam_builder(unsigned bits) {
  return [bits](const EngineConfig& config) -> std::unique_ptr<NnIndex> {
    return std::make_unique<McamNnEngine>(mcam_array_config(bits, config),
                                          config.clip_percentile);
  };
}

EngineFactory::Builder software_builder(std::string metric) {
  return [metric = std::move(metric)](const EngineConfig& config) -> std::unique_ptr<NnIndex> {
    return std::make_unique<SoftwareNnEngine>(metric, config.rerank);
  };
}

/// MCAM bits resolved for a base key ("mcam3" -> 3, "mcam" -> config).
unsigned mcam_bits_for(const std::string& base, const EngineConfig& config) {
  if (base == "mcam3") return 3;
  if (base == "mcam2") return 2;
  return config.mcam_bits;
}

/// Compaction reprogram-energy model for a sharded wrapper around `base`:
/// the MCAM pulse-programming model for mcam banks, the TCAM saturation
/// writes for tcam-lsh (over the signature width), zero for software
/// backends (no physical array to rewrite).
std::function<double(std::size_t, std::size_t)> reprogram_model(
    const std::string& base, const EngineConfig& config) {
  if (base.rfind("mcam", 0) == 0) {
    const unsigned bits = mcam_bits_for(base, config);
    auto programmer = std::make_shared<fefet::PulseProgrammer>(
        fefet::LevelMap{bits}.programmable_vth_levels(), fefet::PreisachParams{},
        fefet::VthMap{});
    return [programmer](std::size_t rows, std::size_t cols) {
      return energy::ArrayEnergyModel{energy::ArrayParams{}}.mcam_program_energy(
          rows, cols, *programmer);
    };
  }
  if (base == "tcam-lsh") {
    const std::size_t signature_bits =
        config.lsh_bits > 0 ? config.lsh_bits : config.num_features;
    return [signature_bits](std::size_t rows, std::size_t /*cols*/) {
      return energy::ArrayEnergyModel{energy::ArrayParams{}}.tcam_program_energy(
          rows, signature_bits, fefet::PulseScheme{});
    };
  }
  return [](std::size_t, std::size_t) { return 0.0; };
}

/// Builder for "sharded-<base>": wraps the base builder in a
/// ShardedNnIndex whose banks inherit the full EngineConfig (including the
/// bank_rows capacity bound on their arrays).
EngineFactory::Builder sharded_builder(std::string base) {
  return [base = std::move(base)](const EngineConfig& config) -> std::unique_ptr<NnIndex> {
    ShardedConfig shard;
    shard.bank_rows = config.bank_rows > 0 ? config.bank_rows : ShardedConfig{}.bank_rows;
    shard.reprogram_energy = reprogram_model(base, config);
    EngineConfig bank_config = config;
    bank_config.bank_rows = shard.bank_rows;
    return make_sharded(
        [base, bank_config] { return EngineFactory::instance().create(base, bank_config); },
        shard);
  };
}

/// Throws the spec-parse error with the offending spec string and the
/// known-key list appended, so a bad serving config is diagnosable from
/// the error alone.
[[noreturn]] void throw_spec_error(const std::string& detail, const std::string& spec) {
  throw std::invalid_argument{
      "parse_engine_spec: " + detail + " in spec '" + spec +
      "' (known keys: bank_rows, bits, candidate_factor, clip_percentile, coarse_bits, "
      "drift_sigma, exhaustive, filter, fine, lsh_bits, num_features, probes, rerank, "
      "seed, sense_clock_period, sensing, shard_workers, sig, tag_bits, trace_sample, "
      "vth_sigma)"};
}

/// Full-consumption numeric parses into `field`; anything trailing is
/// malformed. An unsigned value must start with a digit (stoull would skip
/// leading space and wrap a '-') and fit the field's type; every double
/// key is a physical magnitude, so it must be finite and >= 0.
template <typename Field>
void parse_unsigned(Field& field, const std::string& key, const std::string& value,
                    const std::string& spec) {
  std::size_t used = 0;
  std::uint64_t parsed = 0;
  try {
    parsed = std::stoull(value, &used);
  } catch (const std::exception&) {
    throw_spec_error("bad value '" + value + "' for key '" + key + "'", spec);
  }
  if (used != value.size() || std::isdigit(static_cast<unsigned char>(value.front())) == 0) {
    throw_spec_error("bad value '" + value + "' for key '" + key + "'", spec);
  }
  if (parsed > static_cast<std::uint64_t>(std::numeric_limits<Field>::max())) {
    throw_spec_error("out-of-range value '" + value + "' for key '" + key + "'", spec);
  }
  field = static_cast<Field>(parsed);
}

void parse_double(double& field, const std::string& key, const std::string& value,
                  const std::string& spec) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    throw_spec_error("bad value '" + value + "' for key '" + key + "'", spec);
  }
  if (used != value.size()) {
    throw_spec_error("bad value '" + value + "' for key '" + key + "'", spec);
  }
  if (!std::isfinite(parsed) || parsed < 0.0) {
    throw_spec_error("bad value '" + value + "' for key '" + key +
                         "' (must be finite and >= 0)",
                     spec);
  }
  field = parsed;
}

void apply_spec_override(EngineConfig& config, const std::string& key,
                         const std::string& value, const std::string& spec) {
  if (key == "bits") {
    parse_unsigned(config.mcam_bits, key, value, spec);
  } else if (key == "bank_rows") {
    parse_unsigned(config.bank_rows, key, value, spec);
  } else if (key == "shard_workers" || key == "trace_sample") {
    // Retired: banks answer in turn on the calling thread, and the serving
    // layers take their trace sampling from their own configs. The value is
    // still checked, so a malformed legacy spec keeps failing.
    std::size_t ignored = 0;
    parse_unsigned(ignored, key, value, spec);
  } else if (key == "lsh_bits") {
    parse_unsigned(config.lsh_bits, key, value, spec);
  } else if (key == "num_features") {
    parse_unsigned(config.num_features, key, value, spec);
  } else if (key == "seed") {
    parse_unsigned(config.seed, key, value, spec);
  } else if (key == "vth_sigma") {
    parse_double(config.vth_sigma, key, value, spec);
  } else if (key == "drift_sigma") {
    parse_double(config.drift_sigma, key, value, spec);
  } else if (key == "clip_percentile") {
    parse_double(config.clip_percentile, key, value, spec);
  } else if (key == "sense_clock_period") {
    parse_double(config.sense_clock_period, key, value, spec);
  } else if (key == "coarse_bits") {
    parse_unsigned(config.coarse_bits, key, value, spec);
  } else if (key == "candidate_factor") {
    parse_unsigned(config.candidate_factor, key, value, spec);
  } else if (key == "exhaustive") {
    parse_unsigned(config.refine_exhaustive, key, value, spec);
  } else if (key == "probes") {
    parse_unsigned(config.probes, key, value, spec);
  } else if (key == "sig") {
    // Validated against the signature-model registry when the refine
    // engine is built (the registry is open, so parse time is too early).
    config.sig_model = value;
  } else if (key == "tag_bits") {
    parse_unsigned(config.tag_bits, key, value, spec);
  } else if (key == "filter") {
    if (value != "band" && value != "post" && value != "auto") {
      throw_spec_error("bad value '" + value + "' for key 'filter' (band|post|auto)",
                       spec);
    }
    config.filter_policy = value;
  } else if (key == "rerank") {
    if (value != "fp32" && value != "int8") {
      throw_spec_error("bad value '" + value + "' for key 'rerank' (fp32|int8)", spec);
    }
    config.rerank = value;
  } else if (key == "sensing") {
    if (value == "ideal") {
      config.sensing = cam::SensingMode::kIdealSum;
    } else if (value == "timing") {
      config.sensing = cam::SensingMode::kMatchlineTiming;
    } else {
      throw_spec_error("bad value '" + value + "' for key 'sensing' (ideal|timing)", spec);
    }
  } else {
    throw_spec_error("unknown key '" + key + "'", spec);
  }
}

}  // namespace

EngineSpec parse_engine_spec(const std::string& spec, const EngineConfig& base) {
  EngineSpec parsed;
  parsed.config = base;
  const std::size_t colon = spec.find(':');
  parsed.name = spec.substr(0, colon);
  if (parsed.name.empty()) throw_spec_error("empty engine name", spec);
  if (colon == std::string::npos) return parsed;
  std::size_t pos = colon + 1;
  std::set<std::string> seen;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (item.empty() || eq == std::string::npos || eq == 0) {
      throw_spec_error("malformed 'key=value' item '" + item + "'", spec);
    }
    const std::string key = item.substr(0, eq);
    if (key == "fine") {
      // The fine stage is itself a spec string whose own key=value items
      // carry commas, so `fine=` consumes the rest of the spec verbatim
      // (and therefore must be the last key of the outer spec).
      const std::string rest = spec.substr(pos + eq + 1);
      if (rest.empty()) throw_spec_error("empty value for key 'fine'", spec);
      parsed.config.fine_spec = rest;
      return parsed;
    }
    const std::string value = item.substr(eq + 1);
    // A silently ignored repeat or an empty value is almost always a typo
    // in a serving config; fail loudly instead of last-write-wins.
    if (value.empty()) {
      throw_spec_error("empty value for key '" + key + "'", spec);
    }
    if (!seen.insert(key).second) {
      throw_spec_error("duplicate key '" + key + "'", spec);
    }
    apply_spec_override(parsed.config, key, value, spec);
    pos = comma + 1;
  }
  return parsed;
}

EngineFactory::EngineFactory() {
  register_engine("mcam3", mcam_builder(3));
  register_engine("mcam2", mcam_builder(2));
  register_engine("mcam", [](const EngineConfig& config) -> std::unique_ptr<NnIndex> {
    return std::make_unique<McamNnEngine>(mcam_array_config(config.mcam_bits, config),
                                          config.clip_percentile);
  });
  register_engine("tcam-lsh", [](const EngineConfig& config) -> std::unique_ptr<NnIndex> {
    // Iso-capacity default: as many signature bits as the CAM word has
    // cells (= number of features), per the paper's comparison.
    const std::size_t bits = config.lsh_bits > 0 ? config.lsh_bits : config.num_features;
    if (bits == 0) {
      throw std::invalid_argument{
          "EngineFactory: tcam-lsh needs lsh_bits or num_features"};
    }
    cam::TcamArrayConfig array;
    array.sensing = config.sensing;
    array.sense_clock_period = config.sense_clock_period;
    array.vth_sigma = config.vth_sigma;
    array.drift_sigma = config.drift_sigma;
    array.seed = config.seed;
    array.max_rows = config.bank_rows;
    return std::make_unique<TcamLshEngine>(bits, config.seed, array);
  });
  for (const char* metric : {"cosine", "euclidean", "manhattan", "linf"}) {
    register_engine(metric, software_builder(metric));
  }
  // Every monolithic builtin gets a bank-tiled twin: sharded-<name> routes
  // adds into bank_rows-sized banks and merges per-bank top-k (see
  // search/sharded.hpp for the identity guarantees).
  for (const char* base : {"mcam3", "mcam2", "mcam", "tcam-lsh", "cosine", "euclidean",
                           "manhattan", "linf"}) {
    register_engine(std::string{"sharded-"} + base, sharded_builder(base));
  }
  // Two-stage pipeline: a coarse signature prefilter in front of any fine
  // backend named by fine_spec (see search/refine.hpp). The coarse TCAM is
  // deliberately unbounded and ideal-sensed: it is the candidate
  // nominator, not the precise ranking, and its add must never fail after
  // the fine stage accepted the batch. Signatures come from the sig_model
  // key of the signature-model registry (sig/model.hpp; default random).
  register_engine("refine", [](const EngineConfig& config) -> std::unique_ptr<NnIndex> {
    if (config.fine_spec.empty()) {
      throw std::invalid_argument{
          "EngineFactory: refine needs fine=<spec> (e.g. refine:coarse_bits=64,"
          "candidate_factor=8,fine=mcam3)"};
    }
    EngineConfig stage_config = config;
    stage_config.fine_spec.clear();  // A nested refine must name its own fine stage.
    std::unique_ptr<NnIndex> fine =
        EngineFactory::instance().create(config.fine_spec, stage_config);
    const std::size_t bits = config.coarse_bits > 0
                                 ? config.coarse_bits
                                 : (config.lsh_bits > 0 ? config.lsh_bits
                                                        : config.num_features);
    if (bits == 0) {
      throw std::invalid_argument{
          "EngineFactory: refine needs coarse_bits, lsh_bits, or num_features"};
    }
    sig::SignatureModelConfig model_config;
    model_config.num_bits = bits;
    model_config.seed = config.seed;
    // Unknown sig-model names throw here, listing the registered models.
    std::unique_ptr<sig::SignatureModel> model =
        sig::SignatureModelFactory::instance().create(
            config.sig_model.empty() ? "random" : config.sig_model, model_config);
    cam::TcamArrayConfig coarse_array;
    coarse_array.vth_sigma = config.vth_sigma;
    coarse_array.drift_sigma = config.drift_sigma;
    coarse_array.seed = config.seed;
    TwoStageConfig two_stage;
    two_stage.candidate_factor =
        config.candidate_factor > 0 ? config.candidate_factor : 4;
    two_stage.exhaustive_fallback = config.refine_exhaustive;
    two_stage.probes = config.probes > 0 ? config.probes : 1;
    two_stage.tag_bits = config.tag_bits;
    return std::make_unique<TwoStageNnIndex>(std::move(model), coarse_array,
                                             std::move(fine), two_stage);
  });
}

EngineFactory& EngineFactory::instance() {
  static EngineFactory factory;
  return factory;
}

void EngineFactory::register_engine(std::string name, Builder builder) {
  if (name.empty()) throw std::invalid_argument{"EngineFactory: empty name"};
  if (!builder) throw std::invalid_argument{"EngineFactory: null builder for " + name};
  builders_[std::move(name)] = std::move(builder);
}

std::unique_ptr<NnIndex> EngineFactory::create(const std::string& name,
                                               const EngineConfig& config) const {
  if (name.find(':') != std::string::npos) {
    const EngineSpec spec = parse_engine_spec(name, config);
    return create(spec.name, spec.config);
  }
  const auto it = builders_.find(name);
  if (it == builders_.end()) {
    std::string known;
    for (const auto& [key, builder] : builders_) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw std::invalid_argument{"EngineFactory: unknown engine '" + name +
                                "' (known: " + known + ")"};
  }
  return it->second(config);
}

bool EngineFactory::contains(const std::string& name) const {
  return builders_.find(name) != builders_.end();
}

std::vector<std::string> EngineFactory::registered_names() const {
  std::vector<std::string> names;
  names.reserve(builders_.size());
  for (const auto& [name, builder] : builders_) names.push_back(name);
  return names;
}

std::unique_ptr<NnIndex> make_index(const std::string& name, const EngineConfig& config) {
  return EngineFactory::instance().create(name, config);
}

}  // namespace mcam::search
