// Filtered-search selectivity sweep: TCAM-pushed tag band vs brute-force
// post-filtering, and the `auto` policy, which post-filters every
// predicate.
//
// Builds tagged collections (store/collection.hpp) over clustered
// embeddings where every row carries tags at four selectivity tiers
// (~50% / ~12.5% / ~3% / ~1%) and, per tier, answers the same filtered
// top-10 queries three ways: through the tag band pushed into the coarse
// TCAM (exact kOne trits at the predicate's band slots, don't-care
// elsewhere), through `query_subset` over the exact matching ids, and
// through the `auto` policy. The first table reports matching rows,
// fine-stage candidates per path, the path `auto` took, and wall-clock
// QPS per path. Its collections nominate candidate_factor * k = 1280
// rows, more than the 960 stored, so every tier's matches fit the budget.
//
// A second, low-budget pass (candidate_factor = 2, a budget of 20 rows)
// reports, at every tier, the recall@10 of the forced band and of `auto`
// against a brute-force exact filtered top-10, and the path `auto` took.
// At the tiers with more matches than the budget the band nominates only
// part of them.
//
// Smoke assertions (CI runs this binary in the Release and ASan+UBSan
// jobs, and once with MCAM_FORCE_SCALAR=1; it exits non-zero on failure):
//  1. at every selectivity tier the band path answers bit-identically -
//     indices, labels, and distances - to the brute-force post-filter,
//  2. the band path never reranks more fine-stage candidates than the
//     post-filter path compares (equal recall@10 at no extra rerank work),
//  3. the band's filtered_out telemetry never exceeds the non-matching row
//     count (band eligibility over-approximates the predicate only through
//     Bloom slot collisions) and the exact verify prunes every collision
//     before the rerank (band fine candidates == matching rows),
//  4. at every tier (all fit the budget), `auto` post-filters and answers
//     bit-identically to the band,
//  5. in the low-budget pass, `auto` post-filters every tier with
//     recall@10 1.000 against the exact filtered top-10.
#include "bench_common.hpp"

#include "store/collection.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace {

/// Indices, labels and distances agree at every rank.
bool same_answer(const mcam::search::QueryResult& a, const mcam::search::QueryResult& b) {
  if (a.neighbors.size() != b.neighbors.size()) return false;
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    if (a.neighbors[i].index != b.neighbors[i].index ||
        a.neighbors[i].label != b.neighbors[i].label ||
        a.neighbors[i].distance != b.neighbors[i].distance) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace mcam;
  using Clock = std::chrono::steady_clock;

  constexpr std::size_t kRows = 960;
  constexpr std::size_t kFeatures = 24;
  constexpr std::size_t kIntrinsicDim = 4;
  constexpr std::size_t kQueries = 24;
  constexpr std::size_t kTopK = 10;

  // Clustered workload (same shape as bench_recall_qps): centers in a
  // low-dimensional latent subspace so the trained signatures have
  // structure to spend coarse bits on.
  Rng rng{20210907};
  std::vector<std::vector<float>> basis(kIntrinsicDim, std::vector<float>(kFeatures));
  for (auto& b : basis) {
    for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
  }
  const auto sample = [&](double noise) {
    std::vector<float> latent(kIntrinsicDim);
    for (auto& v : latent) v = static_cast<float>(rng.normal(0.0, 2.0));
    std::vector<float> row(kFeatures, 0.0f);
    for (std::size_t d = 0; d < kIntrinsicDim; ++d) {
      for (std::size_t f = 0; f < kFeatures; ++f) row[f] += latent[d] * basis[d][f];
    }
    for (auto& v : row) v += static_cast<float>(rng.normal(0.0, noise));
    return row;
  };

  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
  std::vector<std::vector<std::string>> tags;
  for (std::size_t r = 0; r < kRows; ++r) {
    rows.push_back(sample(1.0));
    labels.push_back(static_cast<int>(r % 8));
    std::vector<std::string> t{"shard=" + std::to_string(r % 2),
                               "class=" + std::to_string(r % 8),
                               "tenant=" + std::to_string(r % 32)};
    if (r < kRows / 100) t.emplace_back("rare");
    tags.push_back(std::move(t));
  }
  std::vector<std::vector<float>> queries;
  for (std::size_t q = 0; q < kQueries; ++q) queries.push_back(sample(1.0));

  search::EngineConfig config;
  config.num_features = kFeatures;
  const auto build = [&](const char* factor, const char* policy) {
    store::Collection collection{
        "bench",
        std::string{"refine:coarse_bits=32,tag_bits=48,candidate_factor="} + factor +
            ",sig=trained,filter=" + policy + ",fine=euclidean",
        config};
    collection.calibrate(rows);
    collection.add(rows, labels, tags);
    return collection;
  };
  const auto budget_of = [&](const store::Collection& collection) {
    return dynamic_cast<const search::TwoStageNnIndex&>(collection.engine())
        .nomination_budget(kTopK);
  };
  // candidate_factor * kTopK covers every live row, so the band path must
  // reproduce the post-filter ranking bit-exactly (see query_filtered's
  // contract in search/refine.hpp).
  const store::Collection banded = build("128", "band");
  const store::Collection routed = build("128", "auto");
  const std::size_t budget = budget_of(routed);

  const struct Tier {
    const char* label;
    const char* tag;
  } tiers[] = {{"~50%", "shard=1"},
               {"~12.5%", "class=3"},
               {"~3%", "tenant=7"},
               {"~1%", "rare"}};

  TextTable table{"Filtered top-" + std::to_string(kTopK) +
                  " : TCAM tag band vs post-filter vs auto (" + std::to_string(kRows) +
                  " rows, " + std::to_string(kQueries) + " queries, budget " +
                  std::to_string(budget) + ")"};
  table.set_header({"selectivity", "tag", "matching", "band_fine", "post_fine",
                    "band_qps", "post_qps", "auto_path", "auto_qps", "identical"});

  const auto timed = [&](const auto& answer) {
    using Answer = decltype(answer(queries[0]));
    std::vector<Answer> answers;
    answers.reserve(queries.size());
    const auto start = Clock::now();
    for (const auto& q : queries) answers.push_back(answer(q));
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return std::pair{std::move(answers),
                     std::to_string(static_cast<std::size_t>(queries.size() / seconds))};
  };

  bool ok = true;
  for (const Tier& tier : tiers) {
    const store::Predicate predicate = store::Predicate::tag(tier.tag);
    const std::vector<std::size_t> matching = banded.metadata().matching_ids(predicate);
    if (matching.empty()) {
      std::cerr << "[smoke] FAIL: no rows match " << tier.tag << "\n";
      return 1;
    }

    const auto [band_results, band_qps] =
        timed([&](const auto& q) { return banded.query(q, kTopK, predicate); });
    const auto [post_results, post_qps] = timed(
        [&](const auto& q) { return banded.engine().query_subset(q, matching, kTopK); });
    const auto [auto_results, auto_qps] =
        timed([&](const auto& q) { return routed.query(q, kTopK, predicate); });

    std::size_t band_fine = 0;
    std::size_t post_fine = 0;
    bool identical = true;
    bool auto_post = true;
    bool auto_identical = true;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const store::CollectionQueryResult& band = band_results[qi];
      const search::QueryResult& post = post_results[qi];
      if (band.path != store::FilterPath::kBand) {
        std::cerr << "[smoke] FAIL: " << tier.tag << " did not take the band path\n";
        return 1;
      }
      band_fine += band.result.telemetry.fine_candidates;
      post_fine += post.telemetry.candidates;
      identical = identical && same_answer(band.result, post);
      auto_post = auto_post && auto_results[qi].path == store::FilterPath::kPostFilter;
      auto_identical = auto_identical && same_answer(auto_results[qi].result, band.result);
      // Band eligibility is matching + Bloom slot collisions, so the
      // in-array exclusion count is at most the non-matching complement;
      // the verify callback must then prune the collisions exactly.
      if (band.result.telemetry.filtered_out > banded.size() - matching.size()) {
        std::cerr << "[smoke] FAIL: filtered_out=" << band.result.telemetry.filtered_out
                  << " exceeds the " << banded.size() - matching.size()
                  << " non-matching rows (" << tier.tag << ")\n";
        return 1;
      }
      if (band.result.telemetry.fine_candidates != matching.size()) {
        std::cerr << "[smoke] FAIL: band reranked "
                  << band.result.telemetry.fine_candidates << " candidates, verify "
                  << "should have pruned to " << matching.size() << " (" << tier.tag
                  << ")\n";
        return 1;
      }
    }
    if (!identical) {
      std::cerr << "[smoke] FAIL: band path diverged from post-filter at " << tier.tag
                << "\n";
      ok = false;
    }
    if (band_fine > post_fine) {
      std::cerr << "[smoke] FAIL: band reranked " << band_fine << " > post-filter "
                << post_fine << " fine candidates (" << tier.tag << ")\n";
      ok = false;
    }
    if (!auto_post || !auto_identical) {
      std::cerr << "[smoke] FAIL: auto "
                << (auto_post ? "diverged from the band" : "took the band") << " at "
                << matching.size() << " matches, budget " << budget << " (" << tier.tag
                << ")\n";
      ok = false;
    }
    table.add_row({tier.label, tier.tag, std::to_string(matching.size()),
                   std::to_string(band_fine / queries.size()),
                   std::to_string(post_fine / queries.size()), band_qps, post_qps,
                   auto_post ? "post" : "band", auto_qps, identical ? "yes" : "NO"});
  }
  bench::emit(table, "bench_filtered_search");

  // Low budget: the band can now miss matches, so measure what each path
  // returns against the exact filtered top-k, and check where auto goes.
  const store::Collection low_banded = build("2", "band");
  const store::Collection low_routed = build("2", "auto");
  const std::size_t low_budget = budget_of(low_routed);
  TextTable low{"Filtered top-" + std::to_string(kTopK) + " at a budget of " +
                std::to_string(low_budget) + " rows: recall@" + std::to_string(kTopK) +
                " vs the exact filtered top-" + std::to_string(kTopK)};
  low.set_header({"selectivity", "tag", "matching", "auto_path", "band_recall@10",
                  "auto_recall@10"});
  const auto recall = [](const search::QueryResult& got,
                          const std::vector<std::size_t>& truth) {
    std::size_t hits = 0;
    for (const auto& n : got.neighbors) {
      hits += std::find(truth.begin(), truth.end(), n.index) != truth.end();
    }
    return static_cast<double>(hits) / static_cast<double>(truth.size());
  };
  for (const Tier& tier : tiers) {
    const store::Predicate predicate = store::Predicate::tag(tier.tag);
    const std::vector<std::size_t> matching = low_routed.metadata().matching_ids(predicate);
    std::vector<std::size_t> nearest = matching;
    double band_recall = 0.0;
    double auto_recall = 0.0;
    std::size_t misrouted = 0;
    for (const auto& q : queries) {
      // Brute-force exact filtered top-k, in double precision.
      const auto distance = [&](std::size_t id) {
        double sum = 0.0;
        for (std::size_t f = 0; f < kFeatures; ++f) {
          const double d = static_cast<double>(rows[id][f]) - q[f];
          sum += d * d;
        }
        return sum;
      };
      const auto k = static_cast<std::ptrdiff_t>(std::min(kTopK, nearest.size()));
      std::partial_sort(nearest.begin(), nearest.begin() + k, nearest.end(),
                        [&](std::size_t a, std::size_t b) { return distance(a) < distance(b); });
      const std::vector<std::size_t> truth(nearest.begin(), nearest.begin() + k);
      band_recall += recall(low_banded.query(q, kTopK, predicate).result, truth);
      const store::CollectionQueryResult routed_answer = low_routed.query(q, kTopK, predicate);
      auto_recall += recall(routed_answer.result, truth);
      misrouted += routed_answer.path != store::FilterPath::kPostFilter;
    }
    const double n = static_cast<double>(queries.size());
    if (misrouted > 0 || auto_recall != n) {
      std::cerr << "[smoke] FAIL: auto took the band on " << misrouted
                << " queries and read recall@10 " << auto_recall / n << " for "
                << matching.size() << " matches at a budget of " << low_budget << " ("
                << tier.tag << ")\n";
      ok = false;
    }
    low.add_row({tier.label, tier.tag, std::to_string(matching.size()),
                 misrouted > 0 ? "band" : "post", format_double(band_recall / n),
                 format_double(auto_recall / n)});
  }
  bench::emit(low, "bench_filtered_search_low_budget");

  if (!ok) return 1;
  std::cout << "[smoke] band path bit-identical to post-filtering at every "
               "selectivity tier, with no extra fine-stage candidates; auto "
               "post-filters every tier at both budgets, with recall@10 1.000 at "
               "the low one\n";
  return 0;
}
