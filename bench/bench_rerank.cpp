// Rerank kernel micro-benchmark: the fine-stage scoring primitives timed
// across the four paths - the legacy per-row Metric functor, the scalar
// batch kernel, the dispatched SIMD kernel, and the int8-ordered +
// FP32-rescored path - on the two workloads the fine stage actually runs:
//
//   * full scan   - `k_nearest` over every live row (the exhaustive
//     refine fine stage / flat SoftwareNnEngine query), where the block
//     kernels stream whole slabs with zero waste;
//   * subset rerank - `k_nearest_among` over a coarse-stage candidate
//     list (512 random ids with duplicates), where per-call dedup and
//     selection overhead competes with the distance math.
//
// A second table times the two shapes the end-to-end bench serves: the
// `tenants-skewed` full scan (1024 rows x 48 features) and the
// `refine-tcam` fine rerank (640 unique ids of a 4096 x 48 store), in ns
// per scored row, next to the traced `distance.ns_per_candidate`.
//
// Asserts the tentpole invariants before printing any number:
//   * dispatched SIMD top-k is *bit-identical* to the scalar kernel on
//     both workloads (same ids, same distance bits - the backends share
//     one accumulation order);
//   * the int8 path keeps recall@10 == 1.0 against the exact FP32 answer
//     on this workload, and its final scores are FP32-exact;
//   * on hosts where a SIMD backend dispatched (AVX2/NEON - i.e.
//     kernels::active_ops() is not the scalar reference), the best kernel
//     path scores >= 4x faster than the legacy Metric-functor loop.
// The identity gates hold on all three stores; the speedup gate reads the
// 4096 x 64 table. Exits non-zero on any violation, so CI runs it as a
// smoke step; under MCAM_FORCE_SCALAR=1 the speedup gate is skipped
// (identity still runs).
#include "bench_common.hpp"

#include "distance/kernels/kernels.hpp"
#include "distance/metrics.hpp"
#include "search/knn.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string_view>
#include <vector>

namespace {

using mcam::search::ExactNnIndex;
using mcam::search::Neighbor;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRows = 4096;
constexpr std::size_t kFeatures = 64;
constexpr std::size_t kQueries = 32;
constexpr std::size_t kCandidates = 512;  // Coarse-stage nomination size.
constexpr std::size_t kTopK = 10;
constexpr int kRepeats = 3;  // Best-of to damp scheduler noise.

struct Workload {
  std::vector<std::vector<float>> queries;
  std::vector<std::vector<std::size_t>> candidates;  // Per query.
};

/// One row set under the three scoring paths, plus its queries.
struct Store {
  ExactNnIndex functor{mcam::distance::metric_by_name("euclidean")};
  ExactNnIndex kernel{mcam::distance::MetricKind::kEuclidean};
  ExactNnIndex int8{mcam::distance::MetricKind::kEuclidean, ExactNnIndex::RerankMode::kInt8};
  Workload load;
};

/// `rows` x `features` N(0, 2) rows and kQueries queries, each with
/// `candidates` random ids (with repeats unless `unique`).
Store make_store(mcam::Rng& rng, std::size_t rows, std::size_t features,
                 std::size_t candidates, bool unique) {
  Store store;
  std::vector<float> row(features);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& v : row) v = static_cast<float>(rng.normal(0.0, 2.0));
    const int label = static_cast<int>(r % 32);
    for (ExactNnIndex* index : {&store.functor, &store.kernel, &store.int8}) {
      (void)index->add(row, label);
    }
  }
  store.load.queries.assign(kQueries, std::vector<float>(features));
  for (auto& q : store.load.queries) {
    for (auto& v : q) v = static_cast<float>(rng.normal(0.0, 2.0));
  }
  store.load.candidates.assign(kQueries, {});
  for (auto& ids : store.load.candidates) {
    std::vector<std::uint8_t> taken(rows, 0);
    while (ids.size() < candidates) {
      const std::size_t id = rng.index(rows);
      if (unique && taken[id]++ != 0) continue;
      ids.push_back(id);
    }
  }
  return store;
}

/// Best-of-`kRepeats` wall time for running `rank` over every query.
template <typename RankFn>
double best_seconds(const Workload& load, const RankFn& rank) {
  double best = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t q = 0; q < load.queries.size(); ++q) {
      const std::vector<Neighbor> result = rank(load.queries[q], load.candidates[q]);
      if (result.size() != kTopK) {
        std::cerr << "FAIL: rerank returned " << result.size() << " neighbors, expected "
                  << kTopK << "\n";
        std::exit(1);
      }
    }
    best = std::min(best, std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

/// Fraction of `reference` ids present in `got` (order-insensitive).
double recall(const std::vector<Neighbor>& got, const std::vector<Neighbor>& reference) {
  std::size_t hits = 0;
  for (const Neighbor& ref : reference) {
    for (const Neighbor& n : got) {
      if (n.index == ref.index) {
        ++hits;
        break;
      }
    }
  }
  return reference.empty() ? 1.0 : static_cast<double>(hits) / static_cast<double>(reference.size());
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Identity gates for one (query, ranker) workload point: dispatched SIMD
/// bit-identical to forced scalar, int8 recall@k == 1.0 with FP32-exact
/// scores, functor agreement at full recall. Exits the process on failure.
template <typename RankFn>
void check_identity(const char* workload, std::size_t q, const RankFn& rank_functor,
                    const RankFn& rank_fp32, const RankFn& rank_int8) {
  namespace kernels = mcam::distance::kernels;
  kernels::set_force_scalar(true);
  const std::vector<Neighbor> scalar = rank_fp32(q);
  const std::vector<Neighbor> scalar_int8 = rank_int8(q);
  kernels::set_force_scalar(false);
  const std::vector<Neighbor> dispatched = rank_fp32(q);
  const std::vector<Neighbor> dispatched_int8 = rank_int8(q);
  const std::vector<Neighbor> functor = rank_functor(q);

  for (std::size_t n = 0; n < dispatched.size(); ++n) {
    if (dispatched[n].index != scalar[n].index ||
        !bits_equal(dispatched[n].distance, scalar[n].distance) ||
        dispatched_int8[n].index != scalar_int8[n].index ||
        !bits_equal(dispatched_int8[n].distance, scalar_int8[n].distance)) {
      std::cerr << "FAIL: " << workload << ": dispatched kernel diverged from the scalar "
                << "reference at query " << q << ", rank " << n << "\n";
      std::exit(1);
    }
    // int8 final scores are exact FP32 rescores of its nominated ids.
    if (dispatched_int8[n].index == dispatched[n].index &&
        !bits_equal(dispatched_int8[n].distance, dispatched[n].distance)) {
      std::cerr << "FAIL: " << workload << ": int8 path returned a non-FP32-exact score "
                << "at query " << q << "\n";
      std::exit(1);
    }
  }
  if (recall(dispatched_int8, dispatched) < 1.0 || recall(dispatched, functor) < 1.0) {
    std::cerr << "FAIL: " << workload << ": recall@" << kTopK << " dropped below 1.0 at query "
              << q << "\n";
    std::exit(1);
  }
}

/// A scoring path of the timing tables.
struct Path {
  std::string name;
  std::string kernel;
  ExactNnIndex Store::*index;
  bool forced_scalar;
};

/// Best-of seconds per path over every query of `store`, ranking with
/// `k_nearest` (`scan`) or `k_nearest_among`.
std::vector<double> time_paths(const std::vector<Path>& paths, const Store& store, bool scan) {
  namespace kernels = mcam::distance::kernels;
  std::vector<double> seconds;
  for (const Path& path : paths) {
    kernels::set_force_scalar(path.forced_scalar);
    const ExactNnIndex& index = store.*path.index;
    seconds.push_back(best_seconds(store.load, [&](const std::vector<float>& q,
                                                   const std::vector<std::size_t>& ids) {
      return scan ? index.k_nearest(q, kTopK) : index.k_nearest_among(q, ids, kTopK);
    }));
  }
  kernels::set_force_scalar(false);
  return seconds;
}

/// Identity gates over every query of `store` (full scan and/or subset).
void check_store(const char* name, const Store& store, bool scan, bool subset) {
  const auto scan_with = [&store](const ExactNnIndex& index) {
    return [&index, &store](std::size_t q) {
      return index.k_nearest(store.load.queries[q], kTopK);
    };
  };
  const auto subset_with = [&store](const ExactNnIndex& index) {
    return [&index, &store](std::size_t q) {
      return index.k_nearest_among(store.load.queries[q], store.load.candidates[q], kTopK);
    };
  };
  for (std::size_t q = 0; q < kQueries; ++q) {
    if (scan) {
      check_identity((std::string{name} + " full scan").c_str(), q, scan_with(store.functor),
                     scan_with(store.kernel), scan_with(store.int8));
    }
    if (subset) {
      check_identity((std::string{name} + " subset rerank").c_str(), q,
                     subset_with(store.functor), subset_with(store.kernel),
                     subset_with(store.int8));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcam;
  namespace kernels = distance::kernels;

  Rng rng{20260807};
  const Store main_store = make_store(rng, kRows, kFeatures, kCandidates, false);
  // The e2e shapes: tenants-skewed scans 1024 x 48 collections; the
  // refine-tcam fine stage reranks 640 unique nominees of 4096 x 48.
  constexpr std::size_t kTenantRows = 1024;
  constexpr std::size_t kRefineRows = 4096;
  constexpr std::size_t kRefineCandidates = 640;
  constexpr std::size_t kE2eFeatures = 48;
  const Store tenants = make_store(rng, kTenantRows, kE2eFeatures, 0, true);
  const Store refine = make_store(rng, kRefineRows, kE2eFeatures, kRefineCandidates, true);

  // --- Identity gates (before any timing) -----------------------------------
  const bool simd_dispatched = std::string_view{kernels::active_ops().name} != "scalar";
  check_store("4096x64", main_store, true, true);
  check_store("tenants-skewed", tenants, true, false);
  check_store("refine-tcam", refine, false, true);
  std::cout << "identity: SIMD == scalar (bit-exact), int8 recall@" << kTopK
            << " == 1.0, functor agreement OK (every workload)\n\n";

  // --- Timing ---------------------------------------------------------------
  const std::vector<Path> paths = {
      {"metric functor", "functor", &Store::functor, false},
      {"fp32 kernel (forced scalar)", "scalar", &Store::kernel, true},
      {"int8 rerank (forced scalar)", "scalar+int8", &Store::int8, true},
      {"fp32 kernel (dispatched)", kernels::active_ops().name, &Store::kernel, false},
      {"int8 rerank (dispatched)", main_store.int8.kernel_name(), &Store::int8, false},
  };

  const double scan_work = static_cast<double>(kQueries * kRows);
  const double subset_work = static_cast<double>(kQueries * kCandidates);
  const std::vector<double> scan_s = time_paths(paths, main_store, true);
  const std::vector<double> subset_s = time_paths(paths, main_store, false);

  TextTable table{"Fine-stage rerank throughput (" + std::to_string(kRows) + " rows x " +
                  std::to_string(kFeatures) + " features, k=" + std::to_string(kTopK) +
                  ", euclidean, best of " + std::to_string(kRepeats) + "; subset = " +
                  std::to_string(kCandidates) + " candidates/query)"};
  table.set_header({"path", "kernel", "full-scan rows/s", "speedup", "subset cand/s", "speedup"});
  for (std::size_t p = 0; p < paths.size(); ++p) {
    table.add_row({paths[p].name, paths[p].kernel,
                   format_si(scan_work / scan_s[p], "rows/s"),
                   format_double(scan_s[0] / scan_s[p], 2) + "x",
                   format_si(subset_work / subset_s[p], "cand/s"),
                   format_double(subset_s[0] / subset_s[p], 2) + "x"});
  }
  bench::emit(table, "bench_rerank");

  const double tenants_work = static_cast<double>(kQueries * kTenantRows);
  const double refine_work = static_cast<double>(kQueries * kRefineCandidates);
  const std::vector<double> tenants_s = time_paths(paths, tenants, true);
  const std::vector<double> refine_s = time_paths(paths, refine, false);
  TextTable e2e{"End-to-end shapes (" + std::to_string(kE2eFeatures) +
                " features, k=" + std::to_string(kTopK) + ", euclidean, best of " +
                std::to_string(kRepeats) + "): tenants-skewed full scan of " +
                std::to_string(kTenantRows) + " rows; refine-tcam rerank of " +
                std::to_string(kRefineCandidates) + " unique ids of " +
                std::to_string(kRefineRows) + " rows"};
  e2e.set_header({"path", "kernel", "scan ns/row", "scan us/query", "rerank ns/cand",
                  "rerank us/query"});
  for (std::size_t p = 0; p < paths.size(); ++p) {
    e2e.add_row({paths[p].name, paths[p].kernel,
                 format_double(1e9 * tenants_s[p] / tenants_work, 1),
                 format_double(1e6 * tenants_s[p] / kQueries, 1),
                 format_double(1e9 * refine_s[p] / refine_work, 1),
                 format_double(1e6 * refine_s[p] / kQueries, 1)});
  }
  bench::emit(e2e, "bench_rerank_e2e_shapes");

  double best_speedup = 0.0;
  for (std::size_t p = 3; p < paths.size(); ++p) {  // Dispatched paths only.
    best_speedup = std::max(best_speedup, scan_s[0] / scan_s[p]);
    best_speedup = std::max(best_speedup, subset_s[0] / subset_s[p]);
  }

  bench::BenchReport report{"rerank", argc, argv};
  report.note("rows", std::to_string(kRows));
  report.note("features", std::to_string(kFeatures));
  report.note("kernel", kernels::active_ops().name);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    report.metric("scan_" + paths[p].kernel, scan_work / scan_s[p], "rows/s");
    report.metric("subset_" + paths[p].kernel, subset_work / subset_s[p], "cand/s");
    report.metric("tenants_scan_" + paths[p].kernel, tenants_work / tenants_s[p], "rows/s");
    report.metric("refine_subset_" + paths[p].kernel, refine_work / refine_s[p], "cand/s");
  }
  report.metric("best_speedup_vs_functor", best_speedup, "x");
  report.write();

  if (simd_dispatched && best_speedup < 4.0) {
    std::cerr << "FAIL: best kernel path is only " << format_double(best_speedup, 2)
              << "x the functor loop (>= 4x required when SIMD dispatched)\n";
    return 1;
  }
  if (!simd_dispatched) {
    std::cout << "note: scalar-only host (or MCAM_FORCE_SCALAR=1) - speedup gate skipped\n";
  }
  return 0;
}
