// The k-bounded selection behind every ExactNnIndex ranking (knn.cpp).
// A private header: the index feeds it, and the tests check its lane mask
// against `offer` directly.
#pragma once

#include "distance/kernels/kernels.hpp"
#include "util/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace mcam::search::detail {

/// The best `k` candidates by (order_key of the rank value, id), kept in a
/// bounded max-heap, so a ranking over n candidates costs O(n log k).
/// Candidates must be offered in ascending id order; a candidate that ties
/// the current worst has the higher id and loses, so once the heap is full
/// one double compare against the worst value rejects almost every row and
/// no key is built for it.
class Selection {
 public:
  struct Entry {
    std::uint64_t key;  ///< order_key(value).
    std::size_t id;
    double value;  ///< The rank value that was offered.
  };

  /// `k` >= 1 winners at most.
  explicit Selection(std::size_t k) : k_(k) { heap_.reserve(k); }

  void offer(double value, std::size_t id) {
    // NaN on either side fails the compare and falls through to the key
    // test, which ranks NaN after +inf; so does every offer until k fill.
    if (value >= bound_) return;
    admit(value, id);
  }

  /// The lanes of a block's kBlockRows raw FP32 accumulators that may
  /// enter, bit l for lane l: every lane while the heap fills or while its
  /// worst value is NaN, and otherwise exactly the lanes with acc < worst,
  /// which are the ones `offer` admits (a tie has the higher id, and NaN
  /// ranks last). SSE2, baseline on x86-64, does it in one compare, which
  /// scored BM_ExactScan about 14% faster than the lane loop (GCC 12
  /// leaves the loop as eight scalar compares); other targets run the
  /// loop. Only for selections whose rank values are all floats, which
  /// makes the float bound exact.
  [[nodiscard]] unsigned admissible_lanes(const float* acc) const noexcept {
    static_assert(distance::kernels::kBlockRows == 8, "two 4-float halves per block");
    if (std::isnan(bound_)) return 0xFFu;
    const auto bound = static_cast<float>(bound_);
#if defined(__SSE2__)
    const __m128 b = _mm_set1_ps(bound);
    return static_cast<unsigned>(_mm_movemask_ps(_mm_cmplt_ps(_mm_loadu_ps(acc), b))) |
           static_cast<unsigned>(_mm_movemask_ps(_mm_cmplt_ps(_mm_loadu_ps(acc + 4), b)))
               << 4;
#else
    unsigned lanes = 0;
    for (std::size_t lane = 0; lane < distance::kernels::kBlockRows; ++lane) {
      lanes |= static_cast<unsigned>(acc[lane] < bound) << lane;
    }
    return lanes;
#endif
  }

  /// The winners, ascending by (key, id). Ends the selection.
  [[nodiscard]] std::span<const Entry> ranked() {
    std::sort(heap_.begin(), heap_.end(), before);
    return heap_;
  }

 private:
  static bool before(const Entry& a, const Entry& b) noexcept {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  }

  void admit(double value, std::size_t id) {
    const Entry entry{order_key(value), id, value};
    if (heap_.size() < k_) {
      // Filling: append, and build the heap once when k arrive (never,
      // when k covers every candidate; ranked() then just sorts).
      heap_.push_back(entry);
      if (heap_.size() < k_) return;
      std::make_heap(heap_.begin(), heap_.end(), before);
    } else {
      if (entry.key >= heap_.front().key) return;
      // Replace the worst: sift the entry down from the root.
      std::size_t hole = 0;
      for (std::size_t child = 1; child < k_; child = 2 * hole + 1) {
        if (child + 1 < k_ && before(heap_[child], heap_[child + 1])) ++child;
        if (!before(entry, heap_[child])) break;
        heap_[hole] = heap_[child];
        hole = child;
      }
      heap_[hole] = entry;
    }
    bound_ = heap_.front().value;
  }

  std::size_t k_;
  double bound_ = std::numeric_limits<double>::quiet_NaN();  ///< Worst kept value.
  std::vector<Entry> heap_;  ///< Once full, a max-heap on (key, id): worst in front.
};

}  // namespace mcam::search::detail
