#include "search/index.hpp"

#include "util/linalg.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_set>

namespace mcam::search {

int majority_label(std::span<const Neighbor> neighbors) {
  if (neighbors.empty()) {
    throw std::invalid_argument{"majority_label: no neighbors"};
  }
  // Votes and score sums per label, plus the first rank at which the label
  // appears so exact vote+score ties resolve to the nearer label.
  struct Tally {
    std::size_t votes = 0;
    double score_sum = 0.0;
    std::size_t first_rank = std::numeric_limits<std::size_t>::max();
  };
  std::map<int, Tally> tallies;
  for (std::size_t rank = 0; rank < neighbors.size(); ++rank) {
    Tally& tally = tallies[neighbors[rank].label];
    ++tally.votes;
    tally.score_sum += neighbors[rank].distance;
    if (rank < tally.first_rank) tally.first_rank = rank;
  }
  int best_label = neighbors.front().label;
  const Tally* best = nullptr;
  for (const auto& [label, tally] : tallies) {
    const bool wins = best == nullptr || tally.votes > best->votes ||
                      (tally.votes == best->votes &&
                       (tally.score_sum < best->score_sum ||
                        (tally.score_sum == best->score_sum &&
                         tally.first_rank < best->first_rank)));
    if (wins) {
      best_label = label;
      best = &tally;
    }
  }
  return best_label;
}

std::vector<std::size_t> top_k_ascending(std::span<const double> scores, std::size_t k) {
  if (scores.empty()) throw std::logic_error{"top_k_ascending: no scores"};
  return argsort_top_k(scores, std::max<std::size_t>(k, 1));
}

QueryResult make_query_result(std::span<const std::size_t> ranked,
                              std::span<const double> scores,
                              std::span<const int> labels) {
  QueryResult result;
  result.neighbors.reserve(ranked.size());
  for (std::size_t row : ranked) {
    result.neighbors.push_back(Neighbor{row, labels[row], scores[row]});
  }
  result.label = majority_label(result.neighbors);
  result.telemetry.candidates = labels.size();
  result.telemetry.sense_events = ranked.size();
  return result;
}

void NnIndex::calibrate(std::span<const std::vector<float>> /*rows*/) {
  // Backends without fitted encoders (e.g. the FP32 linear scan) have
  // nothing to calibrate.
}

bool NnIndex::erase(std::size_t /*id*/) {
  throw std::logic_error{name() + ": erase is not supported by this backend"};
}

void NnIndex::save_state(serve::io::Writer& /*out*/) const {
  throw std::logic_error{name() + ": snapshots are not supported by this backend"};
}

void NnIndex::load_state(serve::io::Reader& /*in*/) {
  throw std::logic_error{name() + ": snapshots are not supported by this backend"};
}

QueryResult NnIndex::query_subset(std::span<const float> query,
                                  std::span<const std::size_t> ids, std::size_t k) const {
  if (size() == 0) throw std::logic_error{name() + ": query_subset before add"};
  if (ids.empty()) throw std::invalid_argument{name() + ": query_subset with no candidates"};
  // Generic rerank: the backend's full native ranking (which is
  // prefix-consistent in k for every engine - the sort keys never depend
  // on k), filtered to the candidate set. Overrides may scan only the
  // candidates, but must reproduce exactly this ranking.
  const QueryResult full = query_one(query, size());
  const std::unordered_set<std::size_t> wanted(ids.begin(), ids.end());
  const std::size_t kk = std::max<std::size_t>(k, 1);
  QueryResult result;
  std::size_t live_candidates = 0;  // Tombstoned ids never appear in `full`.
  for (const Neighbor& neighbor : full.neighbors) {
    if (wanted.find(neighbor.index) == wanted.end()) continue;
    ++live_candidates;
    if (result.neighbors.size() < kk) result.neighbors.push_back(neighbor);
  }
  if (result.neighbors.empty()) {
    throw std::invalid_argument{name() + ": query_subset with no live candidates"};
  }
  result.label = majority_label(result.neighbors);
  result.telemetry = full.telemetry;
  result.telemetry.candidates = live_candidates;
  result.telemetry.sense_events = result.neighbors.size();
  // Only the candidate matchlines are precharged and sensed; the array
  // energy models are linear in rows, so charge the candidate fraction.
  if (full.telemetry.candidates > 0) {
    result.telemetry.energy_j = full.telemetry.energy_j *
                                (static_cast<double>(live_candidates) /
                                 static_cast<double>(full.telemetry.candidates));
  }
  return result;
}

std::vector<QueryResult> NnIndex::query(std::span<const std::vector<float>> batch,
                                        std::size_t k) const {
  std::vector<QueryResult> results;
  results.reserve(batch.size());
  for (const auto& q : batch) results.push_back(query_one(q, k));
  return results;
}

double NnIndex::accuracy(std::span<const std::vector<float>> queries,
                         std::span<const int> labels, std::size_t k) const {
  if (queries.size() != labels.size()) {
    throw std::invalid_argument{"NnIndex::accuracy: queries/labels mismatch"};
  }
  if (queries.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (query_one(queries[i], k).label == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(queries.size());
}

}  // namespace mcam::search
