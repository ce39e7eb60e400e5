// Recall / candidates-compared frontier of the two-stage pipeline, per
// coarse signature model.
//
// Sweeps `candidate_factor` for a signature-prefiltered rerank
// (search/refine.hpp) against the exhaustive fine backend - once per
// signature model (sig/model.hpp: random | trained | itq) - and prints,
// per point: recall@k vs the exhaustive ground truth, the mean fine-stage
// candidates actually reranked, and the wall-clock QPS. A multi-probe
// table shows recall recovered by sweeping neighboring signatures at a
// fixed candidate budget, and a final table reports the modeled energy
// frontier with the 3-bit MCAM as the fine stage. A dims table then times
// refine against the exhaustive scan at 4096 rows and 48, 256 and 768
// features, in rounds that pair each refine pass with a scan pass, and
// names the first point where refine at recall@10 >= 0.95 is at least 5%
// faster in 4 of 5 rounds (it only reports; nothing is asserted on it).
//
// The workload is clustered embeddings whose cluster centers live in a
// low-dimensional subspace of the feature space - the shape production
// embedding tables actually have - so data-dependent signatures have
// structure to exploit that random hyperplanes waste bits on.
//
// Smoke assertions (CI runs this binary in the Release and ASan+UBSan
// jobs; it exits non-zero on failure):
//  1. the exhaustive-fallback pipeline is bit-identical to the fine
//     backend alone on every query,
//  2. at the fixed seed some swept (model, candidate_factor) reaches
//     recall@10 >= 0.95 while reranking at least 5x fewer rows than the
//     exhaustive scan compares,
//  3. a trained or itq signature model reaches recall@10 >= 0.95 with
//     strictly fewer fine candidates than the random-hyperplane baseline
//     at the same coarse_bits (the data-dependent-signature win),
//  4. recall at the largest swept probe budget is not below the
//     single-probe baseline, and
//  5. itq training is bit-deterministic across two fits with the same
//     seed and calibration rows.
#include "bench_common.hpp"

#include "search/factory.hpp"
#include "search/refine.hpp"
#include "sig/model.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace {

/// Clustered embeddings with low intrinsic dimension: cluster centers are
/// drawn in an `intrinsic`-dimensional latent space and embedded into
/// `features` dimensions, plus isotropic noise. NN search over pure noise
/// has no structure for *any* prefilter to exploit; production retrieval
/// serves embeddings that concentrate near a low-dimensional manifold.
/// Row r belongs to cluster r % clusters; so does query q.
struct ClusteredSet {
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
  std::vector<std::vector<float>> queries;
};

ClusteredSet clustered_set(mcam::Rng& rng, std::size_t rows, std::size_t features,
                           std::size_t queries, std::size_t intrinsic, std::size_t clusters,
                           double noise_sigma) {
  std::vector<std::vector<float>> basis(intrinsic, std::vector<float>(features));
  for (auto& b : basis) {
    for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
  }
  std::vector<std::vector<float>> centers(clusters, std::vector<float>(features, 0.0f));
  for (auto& c : centers) {
    for (const auto& b : basis) {
      const auto weight = static_cast<float>(rng.normal(0.0, 1.0));
      for (std::size_t i = 0; i < features; ++i) c[i] += weight * b[i];
    }
  }
  const auto sample = [&](std::size_t cluster) {
    std::vector<float> v(features);
    for (std::size_t i = 0; i < features; ++i) {
      v[i] = centers[cluster][i] + static_cast<float>(rng.normal(0.0, noise_sigma));
    }
    return v;
  };
  ClusteredSet set;
  for (std::size_t r = 0; r < rows; ++r) {
    set.rows.push_back(sample(r % clusters));
    set.labels.push_back(static_cast<int>(r % clusters));
  }
  for (std::size_t q = 0; q < queries; ++q) set.queries.push_back(sample(q % clusters));
  return set;
}

/// Host time per query of one pass over `queries`, in microseconds.
double us_per_query(const mcam::search::NnIndex& index,
                    const std::vector<std::vector<float>>& queries, std::size_t k) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  for (const auto& query : queries) (void)index.query_one(query, k);
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count() /
         static_cast<double>(queries.size());
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcam;
  using Clock = std::chrono::steady_clock;

  constexpr std::size_t kRows = 2000;
  constexpr std::size_t kFeatures = 48;
  constexpr std::size_t kIntrinsicDim = 4;
  constexpr std::size_t kClusters = 32;
  constexpr std::size_t kQueries = 48;
  constexpr std::size_t kTopK = 10;
  constexpr std::size_t kCoarseBits = 32;
  constexpr double kNoiseSigma = 1.0;

  Rng rng{20210831};
  const ClusteredSet data =
      clustered_set(rng, kRows, kFeatures, kQueries, kIntrinsicDim, kClusters, kNoiseSigma);
  const std::vector<std::vector<float>>& rows = data.rows;
  const std::vector<int>& labels = data.labels;
  const std::vector<std::vector<float>>& queries = data.queries;

  search::EngineConfig config;
  config.num_features = kFeatures;

  // Exhaustive ground truth (the fine backend alone).
  const auto exhaustive = search::make_index("euclidean", config);
  exhaustive->add(rows, labels);
  std::vector<std::set<std::size_t>> truth(kQueries);
  double exhaustive_qps = 0.0;
  {
    const auto start = Clock::now();
    for (std::size_t q = 0; q < kQueries; ++q) {
      for (const auto& n : exhaustive->query_one(queries[q], kTopK).neighbors) {
        truth[q].insert(n.index);
      }
    }
    const double s = std::chrono::duration<double>(Clock::now() - start).count();
    exhaustive_qps = s > 0.0 ? static_cast<double>(kQueries) / s : 0.0;
  }

  // Smoke 1: the exhaustive fallback must be bit-identical to the fine
  // backend alone.
  {
    const auto fallback = search::make_index(
        "refine:coarse_bits=" + std::to_string(kCoarseBits) + ",exhaustive=1,fine=euclidean",
        config);
    fallback->add(rows, labels);
    for (std::size_t q = 0; q < kQueries; ++q) {
      const search::QueryResult ours = fallback->query_one(queries[q], kTopK);
      const search::QueryResult theirs = exhaustive->query_one(queries[q], kTopK);
      if (ours.label != theirs.label || ours.neighbors.size() != theirs.neighbors.size()) {
        std::cerr << "FAIL: exhaustive fallback diverged from the fine backend\n";
        return 1;
      }
      for (std::size_t n = 0; n < theirs.neighbors.size(); ++n) {
        if (ours.neighbors[n].index != theirs.neighbors[n].index ||
            ours.neighbors[n].distance != theirs.neighbors[n].distance) {
          std::cerr << "FAIL: exhaustive fallback diverged at rank " << n << "\n";
          return 1;
        }
      }
    }
  }

  // Smoke 4: itq training must be bit-deterministic for a fixed seed.
  {
    sig::SignatureModelConfig model_config;
    model_config.num_bits = kCoarseBits;
    model_config.seed = 7;
    auto first = sig::SignatureModelFactory::instance().create("itq", model_config);
    auto second = sig::SignatureModelFactory::instance().create("itq", model_config);
    first->fit(rows);
    second->fit(rows);
    if (first->planes() != second->planes() ||
        first->thresholds() != second->thresholds()) {
      std::cerr << "FAIL: itq training is nondeterministic across two runs with the "
                   "same seed\n";
      return 1;
    }
  }

  // Recall/candidates frontier, one sweep per signature model. The
  // per-model budget is the smallest mean fine-candidate count that
  // reaches recall@10 >= 0.95 (infinity when the sweep never gets there).
  const std::vector<std::string> models{"random", "trained", "itq"};
  std::vector<double> budget(models.size(), std::numeric_limits<double>::infinity());
  bool frontier_reached = false;
  TextTable table{"Two-stage recall@" + std::to_string(kTopK) +
                  " vs candidates compared (" + std::to_string(kRows) + " rows, " +
                  std::to_string(kCoarseBits) + "-bit signatures, fine = euclidean)"};
  table.set_header({"sig", "candidate_factor", "recall@10", "fine_candidates",
                    "vs_exhaustive", "sim_qps"});
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (const std::size_t factor :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{6}, std::size_t{8},
          std::size_t{12}, std::size_t{16}, std::size_t{24}, std::size_t{32},
          std::size_t{48}, std::size_t{64}}) {
      const auto index = search::make_index(
          "refine:coarse_bits=" + std::to_string(kCoarseBits) +
              ",candidate_factor=" + std::to_string(factor) + ",sig=" + models[m] +
              ",fine=euclidean",
          config);
      index->add(rows, labels);

      double recall_sum = 0.0;
      double fine_candidates_sum = 0.0;
      const auto start = Clock::now();
      for (std::size_t q = 0; q < kQueries; ++q) {
        const search::QueryResult result = index->query_one(queries[q], kTopK);
        std::size_t hits = 0;
        for (const auto& n : result.neighbors) hits += truth[q].count(n.index);
        recall_sum += static_cast<double>(hits) / static_cast<double>(kTopK);
        fine_candidates_sum += static_cast<double>(result.telemetry.fine_candidates);
      }
      const double s = std::chrono::duration<double>(Clock::now() - start).count();
      const double qps = s > 0.0 ? static_cast<double>(kQueries) / s : 0.0;
      const double recall = recall_sum / static_cast<double>(kQueries);
      const double fine_mean = fine_candidates_sum / static_cast<double>(kQueries);
      const double reduction = fine_mean > 0.0 ? static_cast<double>(kRows) / fine_mean : 0.0;
      if (recall >= 0.95) {
        budget[m] = std::min(budget[m], fine_mean);
        if (reduction >= 5.0) frontier_reached = true;
      }
      table.add_row({models[m], std::to_string(factor), format_double(recall, 3),
                     format_double(fine_mean, 1), format_double(reduction, 1) + "x fewer",
                     format_double(qps, 0)});
    }
  }
  table.add_row({"-", "exhaustive", "1.000", format_double(kRows, 1), "1.0x",
                 format_double(exhaustive_qps, 0)});
  std::cout << "note: sim_qps is this simulator's wall clock. The coarse stage is a "
               "gather-add over conductance table entries compiled when the TCAM rows "
               "were written (one array cycle per probe on hardware); at this size its "
               "sweep plus the nomination sort still cost more than the exhaustive "
               "SIMD scan. The hardware win is the candidates / energy column: only "
               "the nominated matchlines are charged in the precise stage.\n";
  bench::emit(table, "recall_qps");

  // Multi-probe: recover recall at a small candidate budget by sweeping
  // neighboring signatures (lowest-margin bit flips) instead of widening
  // the TCAM or the candidate set.
  double probe1_recall = 0.0;
  double probe_last_recall = 0.0;
  {
    TextTable probe_table{"Multi-probe recall@10 at candidate_factor=2 (" +
                          std::to_string(kCoarseBits) + "-bit trained signatures)"};
    probe_table.set_header({"probes", "recall@10", "probes_used", "coarse_candidates"});
    for (const std::size_t probes : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                     std::size_t{8}, std::size_t{16}}) {
      const auto index = search::make_index(
          "refine:coarse_bits=" + std::to_string(kCoarseBits) +
              ",candidate_factor=2,sig=trained,probes=" + std::to_string(probes) +
              ",fine=euclidean",
          config);
      index->add(rows, labels);
      double recall_sum = 0.0;
      std::size_t probes_used = 0;
      std::size_t coarse_candidates = 0;
      for (std::size_t q = 0; q < kQueries; ++q) {
        const search::QueryResult result = index->query_one(queries[q], kTopK);
        std::size_t hits = 0;
        for (const auto& n : result.neighbors) hits += truth[q].count(n.index);
        recall_sum += static_cast<double>(hits) / static_cast<double>(kTopK);
        probes_used = result.telemetry.probes_used;
        coarse_candidates = result.telemetry.coarse_candidates;
      }
      const double recall = recall_sum / static_cast<double>(kQueries);
      if (probes == 1) probe1_recall = recall;
      probe_last_recall = recall;  // Ends at the largest swept probe count.
      probe_table.add_row({std::to_string(probes), format_double(recall, 3),
                           std::to_string(probes_used),
                           std::to_string(coarse_candidates)});
    }
    bench::emit(probe_table, "recall_qps_multiprobe");
  }

  // Energy frontier with the paper's MCAM as the fine stage: a narrow
  // binary TCAM sweep + candidate-gated multi-bit matchlines vs charging
  // the whole MCAM per query. (Modeled energy, energy/model.hpp.)
  {
    constexpr std::size_t kEnergyRows = 512;
    constexpr std::size_t kEnergyBits = 16;
    std::vector<std::vector<float>> subset(rows.begin(),
                                           rows.begin() + kEnergyRows);
    std::vector<int> subset_labels(labels.begin(), labels.begin() + kEnergyRows);
    const auto mcam = search::make_index("mcam3", config);
    mcam->add(subset, subset_labels);
    TextTable energy{"Two-stage modeled search energy (fine = mcam3, " +
                     std::to_string(kEnergyRows) + " rows, " +
                     std::to_string(kEnergyBits) + "-bit prefilter)"};
    energy.set_header({"engine", "recall@10", "energy/query", "vs_exhaustive"});
    double exhaustive_energy = 0.0;
    std::vector<std::set<std::size_t>> mcam_truth(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
      const search::QueryResult result = mcam->query_one(queries[q], kTopK);
      exhaustive_energy += result.telemetry.energy_j;
      for (const auto& n : result.neighbors) mcam_truth[q].insert(n.index);
    }
    exhaustive_energy /= static_cast<double>(kQueries);
    energy.add_row({"mcam3 exhaustive", "1.000", format_si(exhaustive_energy, "J"),
                    "1.00x"});
    for (const std::size_t factor : {std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
      const auto two_stage = search::make_index(
          "refine:coarse_bits=" + std::to_string(kEnergyBits) +
              ",candidate_factor=" + std::to_string(factor) + ",fine=mcam3",
          config);
      two_stage->add(subset, subset_labels);
      double energy_sum = 0.0;
      double recall_sum = 0.0;
      for (std::size_t q = 0; q < kQueries; ++q) {
        const search::QueryResult result = two_stage->query_one(queries[q], kTopK);
        energy_sum += result.telemetry.energy_j;
        std::size_t hits = 0;
        for (const auto& n : result.neighbors) hits += mcam_truth[q].count(n.index);
        recall_sum += static_cast<double>(hits) / static_cast<double>(kTopK);
      }
      const double mean_energy = energy_sum / static_cast<double>(kQueries);
      energy.add_row({"refine factor=" + std::to_string(factor),
                      format_double(recall_sum / static_cast<double>(kQueries), 3),
                      format_si(mean_energy, "J"),
                      format_double(mean_energy / exhaustive_energy, 2) + "x"});
    }
    bench::emit(energy, "recall_qps_energy");
  }

  // Dims axis: the coarse stage pays per row for a 32-cell sweep and the
  // nomination, whatever the dimension, while the exact scan pays per row
  // for every feature. So refine can only win where a row's distance costs
  // far more than its sweep. An untimed pass records the answers; then
  // each of kDimsRounds rounds times one pass of every engine back to
  // back, in an order that rotates, and divides each refine pass by the
  // round's scan pass. Host speed drifts between rounds, not within one,
  // so a crossover needs refine at recall@10 >= 0.95 to be at least
  // kDimsMargin faster in kDimsWins of the rounds; one median would flip
  // on noise.
  std::string dims_crossover = "none";
  {
    constexpr std::size_t kDimsRows = 4096;
    constexpr std::size_t kDimsQueries = 64;
    constexpr std::size_t kDimsRounds = 5;
    constexpr std::size_t kDimsWins = 4;
    constexpr double kDimsMargin = 0.05;
    TextTable dims_table{"Refine vs exhaustive by dimension (" + std::to_string(kDimsRows) +
                         " rows, " + std::to_string(kDimsQueries) + " queries, sig=itq, " +
                         std::to_string(kCoarseBits) + "-bit signatures, fine = euclidean)"};
    dims_table.set_header({"dims", "engine", "recall@10", "host_us_per_query", "vs_exhaustive",
                           "rounds_won"});
    Rng dims_rng{20210901};
    const std::vector<std::size_t> factors{32, 64};
    for (const std::size_t dims : {std::size_t{48}, std::size_t{256}, std::size_t{768}}) {
      const ClusteredSet set = clustered_set(dims_rng, kDimsRows, dims, kDimsQueries,
                                             kIntrinsicDim, kClusters, kNoiseSigma);
      search::EngineConfig dims_config;
      dims_config.num_features = dims;
      // engines[0] is the scan, engines[1 + f] refine at factors[f].
      std::vector<std::unique_ptr<search::NnIndex>> engines;
      engines.push_back(search::make_index("euclidean", dims_config));
      for (const std::size_t factor : factors) {
        engines.push_back(search::make_index(
            "refine:coarse_bits=" + std::to_string(kCoarseBits) +
                ",candidate_factor=" + std::to_string(factor) + ",sig=itq,fine=euclidean",
            dims_config));
      }
      for (const auto& engine : engines) engine->add(set.rows, set.labels);
      std::vector<std::set<std::size_t>> dims_truth(kDimsQueries);
      std::vector<double> recall(engines.size(), 0.0);
      for (std::size_t q = 0; q < kDimsQueries; ++q) {
        for (const auto& n : engines[0]->query_one(set.queries[q], kTopK).neighbors) {
          dims_truth[q].insert(n.index);
        }
        for (std::size_t e = 1; e < engines.size(); ++e) {
          for (const auto& n : engines[e]->query_one(set.queries[q], kTopK).neighbors) {
            recall[e] += static_cast<double>(dims_truth[q].count(n.index)) /
                         static_cast<double>(kTopK * kDimsQueries);
          }
        }
      }
      std::vector<std::vector<double>> us(engines.size(), std::vector<double>(kDimsRounds));
      for (std::size_t round = 0; round < kDimsRounds; ++round) {
        for (std::size_t i = 0; i < engines.size(); ++i) {
          const std::size_t e = (round + i) % engines.size();
          us[e][round] = us_per_query(*engines[e], set.queries, kTopK);
        }
      }
      dims_table.add_row({std::to_string(dims), "exhaustive", "1.000",
                          format_double(median(us[0]), 1), "1.00x", "-"});
      for (std::size_t f = 0; f < factors.size(); ++f) {
        const std::vector<double>& refine_us = us[1 + f];
        std::vector<double> ratios(kDimsRounds);
        std::size_t wins = 0;
        for (std::size_t round = 0; round < kDimsRounds; ++round) {
          ratios[round] = refine_us[round] / us[0][round];
          if (ratios[round] <= 1.0 - kDimsMargin) ++wins;
        }
        if (dims_crossover == "none" && recall[1 + f] >= 0.95 && wins >= kDimsWins) {
          dims_crossover = std::to_string(kDimsRows) + " x " + std::to_string(dims) +
                           " (candidate_factor=" + std::to_string(factors[f]) + ")";
        }
        dims_table.add_row({std::to_string(dims), "refine f=" + std::to_string(factors[f]),
                            format_double(recall[1 + f], 3), format_double(median(refine_us), 1),
                            format_double(median(ratios), 2) + "x",
                            std::to_string(wins) + "/" + std::to_string(kDimsRounds)});
      }
    }
    bench::emit(dims_table, "recall_qps_dims");
    std::cout << "first (rows x dims) point where refine at recall@10 >= 0.95 is at least "
              << format_double(100.0 * kDimsMargin, 0) << "% faster than exhaustive in "
              << kDimsWins << " of " << kDimsRounds << " rounds: " << dims_crossover << "\n";
  }

  bench::BenchReport report{"recall_qps", argc, argv};
  report.note("rows", std::to_string(kRows));
  report.note("coarse_bits", std::to_string(kCoarseBits));
  report.note("dims_crossover", dims_crossover);
  report.metric("exhaustive_qps", exhaustive_qps, "1/s");
  for (std::size_t m = 0; m < models.size(); ++m) {
    report.metric("recall95_budget_" + models[m], budget[m], "fine candidates");
  }
  report.metric("multiprobe_recall_1", probe1_recall, "recall@10");
  report.metric("multiprobe_recall_max", probe_last_recall, "recall@10");
  report.write();

  if (!frontier_reached) {
    std::cerr << "FAIL: no swept (model, candidate_factor) reached recall@10 >= 0.95 "
                 "with >= 5x fewer fine-stage candidates than the exhaustive scan\n";
    return 1;
  }
  // Smoke 3: a data-dependent model must dominate the random baseline -
  // recall@10 >= 0.95 with strictly fewer fine candidates at the same
  // coarse_bits.
  const double learned_budget = std::min(budget[1], budget[2]);
  if (!(learned_budget < budget[0])) {
    std::cerr << "FAIL: neither trained nor itq reached recall@10 >= 0.95 with "
                 "strictly fewer fine candidates than random (random budget = "
              << budget[0] << ", best learned budget = " << learned_budget << ")\n";
    return 1;
  }
  if (probe_last_recall < probe1_recall) {
    std::cerr << "FAIL: recall at the largest probe budget fell below the "
                 "single-probe baseline ("
              << probe_last_recall << " < " << probe1_recall << ")\n";
    return 1;
  }
  std::cout << "recall/candidates frontier OK: >= 5x fewer precise compares at "
               "recall@10 >= 0.95, learned signatures dominate random ("
            << learned_budget << " vs " << budget[0]
            << " mean fine candidates), multi-probe recall "
            << format_double(probe1_recall, 3) << " -> "
            << format_double(probe_last_recall, 3) << "\n";
  return 0;
}
