// Few-shot evaluation harness (paper Sec. IV-C, Figs. 7-9).
//
// Evaluates a distance-function implementation on N-way K-shot episodes:
// per episode, the support features program a fresh memory (a fresh CAM
// array instance - hardware variation is re-sampled per episode), then
// every query feature is classified by nearest-neighbor lookup. Accuracy
// aggregates over all queries of all episodes with a 95% CI.
#pragma once

#include "data/episode.hpp"
#include "mann/memory.hpp"
#include "search/engine.hpp"

#include <functional>
#include <memory>

namespace mcam::mann {

/// Builds a fresh NN index per episode (new array instance each time).
using IndexFactory = std::function<std::unique_ptr<search::NnIndex>()>;

/// Aggregated few-shot accuracy.
struct FewShotResult {
  double accuracy = 0.0;     ///< Fraction of queries classified correctly.
  double ci95 = 0.0;         ///< Normal-approximation 95% CI half-width.
  std::size_t episodes = 0;  ///< Episodes evaluated.
  std::size_t queries = 0;   ///< Total queries evaluated.
};

/// Runs `episodes` episodes of `task` over `sampler` with engines from
/// `factory`; `seed` fixes the episode stream (so different engines see
/// identical episodes when given the same seed).
[[nodiscard]] FewShotResult evaluate_few_shot(const data::EpisodeSampler& sampler,
                                              const data::TaskSpec& task,
                                              std::size_t episodes, const IndexFactory& factory,
                                              std::uint64_t seed,
                                              StoragePolicy policy = StoragePolicy::kAllShots);

}  // namespace mcam::mann
