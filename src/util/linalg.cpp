#include "util/linalg.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

namespace mcam {

float dot(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  float sum = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

float norm2(std::span<const float> a) noexcept { return std::sqrt(dot(a, a)); }

float squared_distance(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  float sum = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

void l2_normalize(std::span<float> a) noexcept {
  const float n = norm2(a);
  if (n <= 0.0f) return;
  for (float& x : a) x /= n;
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) noexcept {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

std::size_t argmin(std::span<const double> xs) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] < xs[best]) best = i;
  }
  return best;
}

namespace {

// A ranking is one gather and one sort. A cut at or above the k-th
// smallest key bounds what a branch-free pass gathers, and a stable sort
// of the gathered (key, id) pairs by key yields the ranking. Every cut
// and both sorts are exact, so each choice returns the same (key, index)
// prefix.

/// Keys read to place a sampled cut.
constexpr std::size_t kSampleSize = 256;
/// Most distinct keys the counting sort takes; more go to the radix sort.
constexpr std::size_t kMaxDistinct = 128;

constexpr int kDigitBits = 8;
constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kRadix - 1;

/// Ids of the keys at or below `cut`, in id order. Every id is written and
/// the cursor advances only on a keep, so the pass has no branch to
/// mispredict; `ids` holds keys.size() slots.
std::size_t gather_at_or_below(std::span<const std::uint64_t> keys, std::uint64_t cut,
                               std::size_t* ids) noexcept {
  std::size_t m = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ids[m] = i;
    m += keys[i] <= cut;
  }
  return m;
}

/// The largest of the minima of k contiguous groups. Each group holds a
/// key at or below it, so at least k keys are: this cut never rises.
std::uint64_t group_minima_cut(std::span<const std::uint64_t> keys, std::size_t k) noexcept {
  const std::size_t n = keys.size();
  std::uint64_t cut = 0;
  for (std::size_t g = 0; g < k; ++g) {
    std::uint64_t least = ~std::uint64_t{0};
    for (std::size_t i = g * n / k; i < (g + 1) * n / k; ++i) least = std::min(least, keys[i]);
    cut = std::max(cut, least);
  }
  return cut;
}

/// Gathers at least k ids below a cut read from a sample: the last key of
/// each of up to kSampleSize equal strata. The cut sits one and a half
/// standard deviations above the sample rank the k-th smallest key is
/// expected at (exactly that rank when the sample is every key). While
/// fewer than k keys fall at or below it, the cut rises by its margin plus
/// one rank, twice that the next time, and so on; past the sample's
/// largest key the last cut takes every key.
std::size_t gather_sampled(std::span<const std::uint64_t> keys, std::size_t k,
                           std::size_t* ids) {
  const std::size_t n = keys.size();
  const std::size_t s = std::min(n, kSampleSize);
  std::array<std::uint64_t, kSampleSize> sample{};
  for (std::size_t j = 0; j < s; ++j) sample[j] = keys[(j + 1) * n / s - 1];
  std::size_t rank = k - 1;
  std::size_t rise = 1;
  if (s < n) {
    const double expected =
        static_cast<double>(k) * static_cast<double>(s) / static_cast<double>(n);
    rise = static_cast<std::size_t>(1.5 * std::sqrt(expected)) + 1;
    rank = static_cast<std::size_t>(expected) + rise - 1;
  }
  for (std::size_t sorted_below = 0; rank < s; rank += rise, rise *= 2) {
    std::nth_element(sample.begin() + static_cast<std::ptrdiff_t>(sorted_below),
                     sample.begin() + static_cast<std::ptrdiff_t>(rank),
                     sample.begin() + static_cast<std::ptrdiff_t>(s));
    const std::size_t m = gather_at_or_below(keys, sample[rank], ids);
    if (m >= k) return m;
    sorted_below = rank + 1;
  }
  return gather_at_or_below(keys, ~std::uint64_t{0}, ids);
}

/// Stable counting sort of the gathered ids by key, when they hold at most
/// kMaxDistinct distinct keys: an open-addressing table counts each key
/// and tags each id with its key's index, the distinct keys are sorted,
/// and one scatter in id order places every id. Returns the first k, or
/// nothing when the keys are too many to count.
std::optional<std::vector<std::size_t>> counting_sort(std::span<const std::uint64_t> keys,
                                                      std::span<const std::size_t> ids,
                                                      std::size_t k) {
  constexpr int kSlotBits = 8;
  constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static_assert(kSlots >= 2 * kMaxDistinct && kMaxDistinct <= 255);
  constexpr std::uint8_t kEmpty = 0xFF;
  std::array<std::uint64_t, kSlots> slot_key{};
  std::array<std::uint8_t, kSlots> slot_of;
  slot_of.fill(kEmpty);
  std::array<std::pair<std::uint64_t, std::uint8_t>, kMaxDistinct> distinct{};
  std::array<std::size_t, kMaxDistinct> next{};
  std::vector<std::uint8_t> tag(ids.size());
  std::size_t d = 0;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const std::uint64_t key = keys[ids[j]];
    // Fibonacci hashing spreads keys that differ only in their low bits.
    std::size_t h = static_cast<std::size_t>((key * 0x9E37'79B9'7F4A'7C15) >> (64 - kSlotBits));
    while (slot_of[h] != kEmpty && slot_key[h] != key) h = (h + 1) & (kSlots - 1);
    if (slot_of[h] == kEmpty) {
      if (d == kMaxDistinct) return std::nullopt;
      slot_of[h] = static_cast<std::uint8_t>(d);
      slot_key[h] = key;
      distinct[d] = {key, static_cast<std::uint8_t>(d)};
      ++d;
    }
    tag[j] = slot_of[h];
    ++next[tag[j]];
  }
  std::sort(distinct.begin(), distinct.begin() + static_cast<std::ptrdiff_t>(d));
  std::size_t offset = 0;
  for (std::size_t r = 0; r < d; ++r) {
    offset += std::exchange(next[distinct[r].second], offset);
  }
  std::vector<std::size_t> out(ids.size());
  for (std::size_t j = 0; j < ids.size(); ++j) out[next[tag[j]]++] = ids[j];
  out.resize(k);
  return out;
}

std::size_t digit_of(std::uint64_t key, int shift) noexcept {
  return static_cast<std::size_t>((key >> shift) & kDigitMask);
}

using Histogram = std::array<std::size_t, kRadix>;

/// The bits on which `keys` differ.
std::uint64_t differing_bits(std::span<const std::uint64_t> keys) noexcept {
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (const std::uint64_t key : keys) {
    any |= key;
    all &= key;
  }
  return any ^ all;
}

/// Stable LSD radix sort of (keys, ids) by key, over the digits between
/// the lowest and highest bit where the keys differ; a digit every key
/// shares costs no scatter. All digit counts come from one pass over the
/// keys in their input order.
void radix_sort(std::vector<std::uint64_t>& keys, std::vector<std::size_t>& ids) {
  const std::uint64_t diff = differing_bits(keys);
  if (keys.size() < 2 || diff == 0) return;
  const int low = std::countr_zero(diff);
  const int passes = (63 - std::countl_zero(diff) - low) / kDigitBits + 1;
  std::vector<Histogram> slots(static_cast<std::size_t>(passes));
  for (const std::uint64_t key : keys) {
    for (int p = 0; p < passes; ++p) {
      ++slots[static_cast<std::size_t>(p)][digit_of(key, low + p * kDigitBits)];
    }
  }
  std::vector<std::uint64_t> keys_out(keys.size());
  std::vector<std::size_t> ids_out(ids.size());
  for (int p = 0; p < passes; ++p) {
    const int shift = low + p * kDigitBits;
    Histogram& slot = slots[static_cast<std::size_t>(p)];
    if (slot[digit_of(keys.front(), shift)] == keys.size()) continue;
    std::size_t offset = 0;
    for (std::size_t& s : slot) offset += std::exchange(s, offset);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::size_t to = slot[digit_of(keys[i], shift)]++;
      keys_out[to] = keys[i];
      ids_out[to] = ids[i];
    }
    keys.swap(keys_out);
    ids.swap(ids_out);
  }
}

/// The gathered ids ranked by (key, id), first k. They arrive in id order,
/// so a stable sort by key breaks ties to the lower id.
std::vector<std::size_t> sort_gathered(std::span<const std::uint64_t> keys,
                                       std::span<const std::size_t> ids, std::size_t k) {
  if (auto counted = counting_sort(keys, ids, k)) return *std::move(counted);
  std::vector<std::uint64_t> gathered_keys(ids.size());
  for (std::size_t j = 0; j < ids.size(); ++j) gathered_keys[j] = keys[ids[j]];
  std::vector<std::size_t> ranked(ids.begin(), ids.end());
  radix_sort(gathered_keys, ranked);
  ranked.resize(k);
  return ranked;
}

}  // namespace

std::vector<std::size_t> argsort_top_k(std::span<const std::uint64_t> keys, std::size_t k) {
  k = std::min(k, keys.size());
  if (k == 0) return {};
  const auto ids = std::make_unique_for_overwrite<std::size_t[]>(keys.size());
  // Group minima keep about k ln k keys; a sampled cut keeps k plus a
  // margin that grows with sqrt(k n), and pays for its sample. On MCAM and
  // TCAM sweep keys the minima cost half as much at n = 128, k <= 16; at
  // n = 4096 the two tie for k = 16-64 and the sample wins from k = 100.
  const std::size_t m = k <= keys.size() / k
                            ? gather_at_or_below(keys, group_minima_cut(keys, k), ids.get())
                            : gather_sampled(keys, k, ids.get());
  return sort_gathered(keys, {ids.get(), m}, k);
}

std::vector<std::size_t> argsort_top_k(std::span<const double> xs, std::size_t k) {
  std::vector<std::uint64_t> keys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) keys[i] = order_key(xs[i]);
  return argsort_top_k(keys, k);
}

std::size_t argmax(std::span<const double> xs) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] > xs[best]) best = i;
  }
  return best;
}

std::size_t argmax_f(std::span<const float> xs) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] > xs[best]) best = i;
  }
  return best;
}

}  // namespace mcam
