// google-benchmark microbenchmarks of the hot paths: array search,
// nomination, the filtered-read band gate and metadata matching, exact
// scoring, signature-model fits and projection, the refine build, the
// quantizer fit and the sharded MCAM build, LUT construction, quantization,
// LSH encoding, batched top-k queries and full few-shot episodes.
#include "cam/array.hpp"
#include "cam/kernels/kernels.hpp"
#include "cam/lut.hpp"
#include "cam/tcam.hpp"
#include "distance/kernels/kernels.hpp"
#include "encoding/quantizer.hpp"
#include "experiments/harness.hpp"
#include "search/batch.hpp"
#include "search/engine.hpp"
#include "search/factory.hpp"
#include "search/knn.hpp"
#include "sig/model.hpp"
#include "sig/products.hpp"
#include "store/metadata.hpp"
#include "util/linalg.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <string>

namespace {

using namespace mcam;

std::vector<std::vector<std::uint16_t>> random_rows(std::size_t rows, std::size_t cols,
                                                    std::uint16_t levels, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::vector<std::uint16_t>> out(rows, std::vector<std::uint16_t>(cols));
  for (auto& row : out) {
    for (auto& level : row) level = static_cast<std::uint16_t>(rng.index(levels));
  }
  return out;
}

// Each array sweep, exact-scoring and signature-model bench has a
// forced-scalar twin (suffix Scalar), and every run is labelled with the
// backend that ran, so one run shows both the kernel gain and what hosts
// without AVX-512 (sweeps) or AVX2 (scoring, signature products) pay. The
// guard pins the dispatch to the scalar reference for one run and restores
// it after.
class PinnedBackend {
 public:
  explicit PinnedBackend(bool scalar) : saved_(distance::kernels::force_scalar()) {
    distance::kernels::set_force_scalar(saved_ || scalar);
  }
  ~PinnedBackend() { distance::kernels::set_force_scalar(saved_); }
  PinnedBackend(const PinnedBackend&) = delete;
  PinnedBackend& operator=(const PinnedBackend&) = delete;

 private:
  bool saved_;
};

// MCAM sweep at the shape of one sharded-mcam3 bank in the end-to-end
// bench: 128 rows of 48 3-bit cells. Items are cells, so the reported
// time per item reads directly against the traced cam.ns_per_cell.
void run_mcam_sweep(benchmark::State& state, double vth_sigma, bool scalar) {
  const PinnedBackend backend{scalar};
  state.SetLabel(cam::kernels::active_ops().name);
  cam::McamArrayConfig config;
  config.vth_sigma = vth_sigma;
  cam::McamArray array{config};
  array.program(random_rows(128, 48, 8, 3));
  const auto query = random_rows(1, 48, 8, 4)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.search_conductances(query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(array.num_rows() * array.word_length()));
}

void BM_McamArraySearch(benchmark::State& state) { run_mcam_sweep(state, 0.0, false); }
BENCHMARK(BM_McamArraySearch);

void BM_McamArraySearchScalar(benchmark::State& state) { run_mcam_sweep(state, 0.0, true); }
BENCHMARK(BM_McamArraySearchScalar);

void BM_McamArraySearchWithVariation(benchmark::State& state) {
  run_mcam_sweep(state, 0.05, false);
}
BENCHMARK(BM_McamArraySearchWithVariation);

void BM_McamArraySearchWithVariationScalar(benchmark::State& state) {
  run_mcam_sweep(state, 0.05, true);
}
BENCHMARK(BM_McamArraySearchWithVariationScalar);

// TCAM sweep at the refine coarse stage's size: 4096 rows of 32-bit
// signatures. Nominal cells share the three per-trit conductance table
// entries; under vth_sigma every cell reads its own entry.
cam::TcamArray coarse_sized_tcam(double vth_sigma) {
  cam::TcamArrayConfig config;
  config.vth_sigma = vth_sigma;
  config.seed = 5;
  cam::TcamArray tcam{config};
  Rng rng{11};
  std::vector<std::uint8_t> word(32);
  for (int r = 0; r < 4096; ++r) {
    for (auto& b : word) b = rng.bernoulli(0.5) ? 1 : 0;
    tcam.add_row_bits(word);
  }
  return tcam;
}

void run_tcam_sweep(benchmark::State& state, const cam::TcamArray& tcam, bool scalar) {
  const PinnedBackend backend{scalar};
  state.SetLabel(cam::kernels::active_ops().name);
  Rng rng{12};
  std::vector<std::uint8_t> query(tcam.word_length());
  for (auto& b : query) b = rng.bernoulli(0.5) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcam.search_conductances(query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tcam.num_rows() * tcam.word_length()));
}

void BM_TcamSearch(benchmark::State& state) {
  run_tcam_sweep(state, coarse_sized_tcam(0.0), false);
}
BENCHMARK(BM_TcamSearch);

void BM_TcamSearchScalar(benchmark::State& state) {
  run_tcam_sweep(state, coarse_sized_tcam(0.0), true);
}
BENCHMARK(BM_TcamSearchScalar);

void BM_TcamSearchWithVariation(benchmark::State& state) {
  run_tcam_sweep(state, coarse_sized_tcam(0.05), false);
}
BENCHMARK(BM_TcamSearchWithVariation);

void BM_TcamSearchWithVariationScalar(benchmark::State& state) {
  run_tcam_sweep(state, coarse_sized_tcam(0.05), true);
}
BENCHMARK(BM_TcamSearchWithVariationScalar);

// Nomination: argsort_top_k over sweep outputs at k = 641, the refine
// coarse stage's budget, and k = 10, one e2e MCAM bank's top-k:
//  - tcam_4096_k641: the refine coarse stage's 4096 TCAM keys, about a
//    hundred distinct values, so a sampled cut and the counting sort;
//  - mcam_4096_k641: 4096 MCAM keys under Vth variation, all distinct,
//    so the counting sort hands over to the radix sort;
//  - sorted_4096_k641: the tcam_4096 key sets sorted ascending;
//  - mcam_bank_128_k10: one 128-row MCAM bank under variation, where the
//    group-minima cut runs.
// Each case cycles through 256 fresh sweeps. Over a 16-sweep cycle a
// branchy selection learns its inputs: it ranked a 128-key bank twice as
// fast as on fresh sweeps. Items are keys ranked.
using Sweeps = std::vector<std::vector<double>>;
constexpr int kNominateSweeps = 256;

void BM_Nominate(benchmark::State& state, const Sweeps& (*sweeps)(), std::size_t k) {
  const Sweeps& keys = sweeps();
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(argsort_top_k(keys[q], k));
    q = (q + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.front().size()));
}

const Sweeps& tcam_sweeps() {
  static const Sweeps sweeps = [] {
    const cam::TcamArray tcam = coarse_sized_tcam(0.0);
    Rng rng{13};
    Sweeps out;
    std::vector<std::uint8_t> query(tcam.word_length());
    for (int q = 0; q < kNominateSweeps; ++q) {
      for (auto& b : query) b = rng.bernoulli(0.5) ? 1 : 0;
      out.push_back(tcam.search_conductances(query));
    }
    return out;
  }();
  return sweeps;
}

const Sweeps& sorted_tcam_sweeps() {
  static const Sweeps sweeps = [] {
    Sweeps out = tcam_sweeps();
    for (auto& sweep : out) std::sort(sweep.begin(), sweep.end());
    return out;
  }();
  return sweeps;
}

Sweeps mcam_sweeps(std::size_t rows) {
  cam::McamArrayConfig config;
  config.vth_sigma = 0.05;
  cam::McamArray array{config};
  array.program(random_rows(rows, 48, 8, 3));
  Sweeps out;
  for (const auto& query : random_rows(kNominateSweeps, 48, 8, 14)) {
    out.push_back(array.search_conductances(query));
  }
  return out;
}

const Sweeps& mcam_4096_sweeps() {
  static const Sweeps sweeps = mcam_sweeps(4096);
  return sweeps;
}

const Sweeps& mcam_bank_sweeps() {
  static const Sweeps sweeps = mcam_sweeps(128);
  return sweeps;
}

BENCHMARK_CAPTURE(BM_Nominate, tcam_4096_k641, &tcam_sweeps, 641);
BENCHMARK_CAPTURE(BM_Nominate, mcam_4096_k641, &mcam_4096_sweeps, 641);
BENCHMARK_CAPTURE(BM_Nominate, sorted_4096_k641, &sorted_tcam_sweeps, 641);
BENCHMARK_CAPTURE(BM_Nominate, mcam_bank_128_k10, &mcam_bank_sweeps, 10);

// Filtered reads before any ranking. The tag-band gate at the refine
// coarse stage's shape with a 32-cell band: 4096 rows of 32 signature
// bits + 32 band bits, queried with one definite band column (a one-tag
// predicate). Items are rows gated.
void BM_BandGate(benchmark::State& state) {
  cam::TcamArray tcam{cam::TcamArrayConfig{}};
  Rng rng{15};
  std::vector<std::uint8_t> word(64);
  for (int r = 0; r < 4096; ++r) {
    for (std::size_t c = 0; c < word.size(); ++c) {
      word[c] = rng.bernoulli(c < 32 ? 0.5 : 0.1) ? 1 : 0;
    }
    tcam.add_row_bits(word);
  }
  std::vector<cam::Trit> query(64, cam::Trit::kDontCare);
  query[32 + rng.index(32)] = cam::Trit::kOne;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcam.ternary_match_mask(query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tcam.num_rows()));
}
BENCHMARK(BM_BandGate);

// The metadata side of a filtered read: a 4352-row store (the size a 20 s
// filtered-churn run ends at) tagged like that workload - each row carries
// "rare", "mid" and "common" with probability 0.02, 0.10 and 0.50, drawn
// from its id - with every 9th row of the upper (churned) half erased.
// Items are rows in the store.
store::MetadataStore churn_metadata() {
  constexpr std::size_t kRows = 4352;
  const std::array<const char*, 3> names{"rare", "mid", "common"};
  const std::array<double, 3> shares{0.02, 0.10, 0.50};
  store::MetadataStore meta;
  for (std::size_t id = 0; id < kRows; ++id) {
    std::vector<std::string> tags;
    for (std::size_t t = 0; t < names.size(); ++t) {
      if (Rng{(static_cast<std::uint64_t>(id) << 2) | t}.uniform() < shares[t]) {
        tags.emplace_back(names[t]);
      }
    }
    (void)meta.append(tags);
  }
  for (std::size_t id = kRows / 2; id < kRows; id += 9) (void)meta.mark_erased(id);
  return meta;
}

void BM_MatchingIds(benchmark::State& state, const char* tag) {
  const store::MetadataStore meta = churn_metadata();
  const store::Predicate predicate = store::Predicate::tag(tag);
  for (auto _ : state) {
    benchmark::DoNotOptimize(meta.matching_ids(predicate));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(meta.rows()));
}
BENCHMARK_CAPTURE(BM_MatchingIds, rare, "rare");
BENCHMARK_CAPTURE(BM_MatchingIds, common, "common");

// Exact scoring at the end-to-end shapes: the tenants-skewed full scan of
// a 1024 x 48 collection, the refine-tcam fine rerank of 640 unique
// nominees of a 4096 x 48 store, and the filtered-churn rerank of 417 of
// 4096 in ascending order, as a posting list delivers them; all euclidean
// at k = 10. A dense subset, 2048 of 4096, rounds out the id-set sizes.
// All of these OR their ids into block masks; 16 of 4096 (32 blocks per
// id) is past kMaskBlocksPerId (knn.cpp) and sorts its ids instead, so
// both sides of that threshold are timed. Items are rows scored, so the
// time per item reads against the traced distance.ns_per_candidate. 16
// queries rotate.
struct ExactStore {
  search::ExactNnIndex index{distance::MetricKind::kEuclidean};
  std::vector<std::vector<float>> queries;
  std::vector<std::vector<std::size_t>> nominees;  ///< Per query.
};

ExactStore exact_store(std::size_t rows, std::size_t nominees, bool ascending) {
  ExactStore store;
  Rng rng{21};
  std::vector<float> row(48);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& v : row) v = static_cast<float>(rng.normal());
    (void)store.index.add(row, 0);
  }
  store.queries.assign(16, std::vector<float>(48));
  for (auto& q : store.queries) {
    for (auto& v : q) v = static_cast<float>(rng.normal());
  }
  for (std::size_t q = 0; q < store.queries.size(); ++q) {
    std::vector<std::size_t> ids(rows);
    for (std::size_t id = 0; id < rows; ++id) ids[id] = id;
    for (std::size_t i = 0; i < nominees; ++i) std::swap(ids[i], ids[i + rng.index(rows - i)]);
    ids.resize(nominees);
    if (ascending) std::sort(ids.begin(), ids.end());
    store.nominees.push_back(std::move(ids));
  }
  return store;
}

void run_exact(benchmark::State& state, std::size_t rows, std::size_t nominees, bool scalar,
               bool ascending = false) {
  const ExactStore store = exact_store(rows, nominees, ascending);
  const PinnedBackend backend{scalar};
  state.SetLabel(store.index.kernel_name());
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nominees == 0 ? store.index.k_nearest(store.queries[q], 10)
                      : store.index.k_nearest_among(store.queries[q], store.nominees[q], 10));
    q = (q + 1) % store.queries.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nominees == 0 ? rows : nominees));
}

void BM_ExactScan(benchmark::State& state) { run_exact(state, 1024, 0, false); }
BENCHMARK(BM_ExactScan);

void BM_ExactScanScalar(benchmark::State& state) { run_exact(state, 1024, 0, true); }
BENCHMARK(BM_ExactScanScalar);

void BM_SubsetRerank(benchmark::State& state) { run_exact(state, 4096, 640, false); }
BENCHMARK(BM_SubsetRerank);

void BM_SubsetRerankScalar(benchmark::State& state) { run_exact(state, 4096, 640, true); }
BENCHMARK(BM_SubsetRerankScalar);

void BM_SubsetRerankAscending(benchmark::State& state) {
  run_exact(state, 4096, 417, false, true);
}
BENCHMARK(BM_SubsetRerankAscending);

void BM_SubsetRerankAscendingScalar(benchmark::State& state) {
  run_exact(state, 4096, 417, true, true);
}
BENCHMARK(BM_SubsetRerankAscendingScalar);

void BM_SubsetRerankDense(benchmark::State& state) { run_exact(state, 4096, 2048, false); }
BENCHMARK(BM_SubsetRerankDense);

void BM_SubsetRerankDenseScalar(benchmark::State& state) { run_exact(state, 4096, 2048, true); }
BENCHMARK(BM_SubsetRerankDenseScalar);

void BM_SubsetRerankSparse(benchmark::State& state) { run_exact(state, 4096, 16, false); }
BENCHMARK(BM_SubsetRerankSparse);

// The refine build's set-up: the signature model learns its planes from
// the calibration rows before a row can be stored. 4096 rows of 32 bits,
// as in the refine-tcam workload, at its 48 features and at 256. Items are
// calibration rows. Every product in the fits, and in the projection, runs
// on the dispatched sig::products backend.
std::vector<std::vector<float>> calibration_rows(std::size_t rows, std::size_t dims) {
  Rng rng{23};
  std::vector<std::vector<float>> out(rows, std::vector<float>(dims));
  for (auto& row : out) {
    const double shift = rng.normal(0.0, 2.0);
    for (auto& v : row) v = static_cast<float>(shift + rng.normal());
  }
  return out;
}

void run_signature_fit(benchmark::State& state, const char* model, bool scalar) {
  const PinnedBackend backend{scalar};
  state.SetLabel(sig::products::active_ops().name);
  const auto rows = calibration_rows(4096, static_cast<std::size_t>(state.range(0)));
  sig::SignatureModelConfig config;
  config.num_bits = 32;
  for (auto _ : state) {
    auto fitted = sig::SignatureModelFactory::instance().create(model, config);
    fitted->fit(rows);
    benchmark::DoNotOptimize(fitted->planes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}

void BM_SignatureFit(benchmark::State& state, const char* model) {
  run_signature_fit(state, model, false);
}
BENCHMARK_CAPTURE(BM_SignatureFit, itq, "itq")
    ->Arg(48)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SignatureFit, trained, "trained")
    ->Arg(48)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SignatureFitScalar(benchmark::State& state, const char* model) {
  run_signature_fit(state, model, true);
}
BENCHMARK_CAPTURE(BM_SignatureFitScalar, itq, "itq")
    ->Arg(48)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SignatureFitScalar, trained, "trained")
    ->Arg(48)->Arg(256)->Unit(benchmark::kMillisecond);

// One signature encode of a refine add or query: 32 bits over 48 features
// of a fitted itq model. 16 calibration rows rotate as queries.
void run_signature_project(benchmark::State& state, bool scalar) {
  const auto rows = calibration_rows(4096, 48);
  sig::SignatureModelConfig config;
  config.num_bits = 32;
  auto model = sig::SignatureModelFactory::instance().create("itq", config);
  model->fit(rows);
  const PinnedBackend backend{scalar};
  state.SetLabel(sig::products::active_ops().name);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->project(rows[q]));
    q = (q + 1) % 16;
  }
}

void BM_SignatureProject(benchmark::State& state) { run_signature_project(state, false); }
BENCHMARK(BM_SignatureProject);

void BM_SignatureProjectScalar(benchmark::State& state) { run_signature_project(state, true); }
BENCHMARK(BM_SignatureProjectScalar);

// The whole refine-tcam build, the layer-level view of its setup_s:
// calibrate (scaler and itq fit) and add 4096 rows of 48 features, each
// encoded to a 32-bit signature, programmed into the coarse TCAM and
// stored for the fine rerank.
void BM_RefineBuild(benchmark::State& state) {
  const auto rows = calibration_rows(4096, 48);
  const std::vector<int> labels(rows.size(), 0);
  search::EngineConfig config;
  config.num_features = 48;
  state.SetLabel(sig::products::active_ops().name);
  for (auto _ : state) {
    auto index = search::make_index(
        "refine:coarse_bits=32,sig=itq,candidate_factor=64,fine=euclidean", config);
    index->calibrate(rows);
    index->add(rows, labels);
    benchmark::DoNotOptimize(index->size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_RefineBuild)->Unit(benchmark::kMillisecond);

// The MCAM build's set-up: every bank of a sharded-mcam3 index fits its
// quantizer on the calibration rows, the mcam-variation workload's 2048
// rows of 48 features. The argument is the clip percentile: at 0 both
// bounds come from one pass over the rows, at 6 both are selected.
void BM_QuantizerFit(benchmark::State& state) {
  const auto rows = calibration_rows(2048, 48);
  const auto clip = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoding::UniformQuantizer::fit(rows, 3, clip));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_QuantizerFit)->Arg(0)->Arg(6)->Unit(benchmark::kMicrosecond);

// The whole mcam-variation build: calibrate, then add 2048 rows into
// sixteen 128-row banks of 3-bit cells under Vth variation.
void BM_ShardedMcamBuild(benchmark::State& state) {
  const auto rows = calibration_rows(2048, 48);
  const std::vector<int> labels(rows.size(), 0);
  search::EngineConfig config;
  config.num_features = 48;
  for (auto _ : state) {
    auto index = search::make_index("sharded-mcam3:bank_rows=128,vth_sigma=0.05", config);
    index->calibrate(rows);
    index->add(rows, labels);
    benchmark::DoNotOptimize(index->size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_ShardedMcamBuild)->Unit(benchmark::kMillisecond);

void BM_LutBuildNominal(benchmark::State& state) {
  const fefet::LevelMap map{static_cast<unsigned>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cam::ConductanceLut::nominal(map));
  }
}
BENCHMARK(BM_LutBuildNominal)->Arg(2)->Arg(3)->Arg(4);

void BM_Quantize64d(benchmark::State& state) {
  Rng rng{5};
  std::vector<std::vector<float>> rows(256, std::vector<float>(64));
  for (auto& row : rows) {
    for (auto& v : row) v = static_cast<float>(rng.normal());
  }
  const auto quantizer = encoding::UniformQuantizer::fit(rows, 3);
  const auto& query = rows[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantizer.quantize(query));
  }
}
BENCHMARK(BM_Quantize64d);

void BM_LshEncode(benchmark::State& state) {
  // The TCAM+LSH baseline's signature: the `random` model's encode_bits.
  const auto bits = static_cast<std::size_t>(state.range(0));
  sig::RandomSignatureModel lsh{{.num_bits = bits, .seed = 7}};
  Rng rng{9};
  std::vector<float> v(64);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  lsh.fit(std::vector<std::vector<float>>{v});
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh.encode_bits(v));
  }
}
BENCHMARK(BM_LshEncode)->Arg(64)->Arg(512);

void BM_BatchTopKQuery(benchmark::State& state) {
  // Batched top-5 queries through BatchExecutor; Arg = worker threads.
  const auto threads = static_cast<std::size_t>(state.range(0));
  Rng rng{13};
  std::vector<std::vector<float>> rows(256, std::vector<float>(64));
  std::vector<int> labels(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (auto& v : rows[r]) v = static_cast<float>(rng.normal());
    labels[r] = static_cast<int>(r % 8);
  }
  std::vector<std::vector<float>> batch(64, std::vector<float>(64));
  for (auto& q : batch) {
    for (auto& v : q) v = static_cast<float>(rng.normal());
  }
  search::McamNnEngine engine{};
  engine.add(rows, labels);
  search::BatchOptions options;
  options.num_threads = threads;
  options.min_shard_size = 1;
  const search::BatchExecutor executor{options};
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run(engine, batch, 5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_BatchTopKQuery)->Arg(1)->Arg(2)->Arg(4);

void BM_FewShotEpisode(benchmark::State& state) {
  experiments::FewShotOptions options;
  options.episodes = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiments::run_few_shot(
        data::TaskSpec{5, 1, 5}, experiments::Method::kMcam3, options,
        experiments::paper_engine_options()));
  }
}
BENCHMARK(BM_FewShotEpisode);

}  // namespace

BENCHMARK_MAIN();
