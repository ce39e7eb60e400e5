#include "util/linalg.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
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

// Path choice, measured on a 2.1 GHz x86-64 vCPU over TCAM sweep keys
// (4096 x 32 cells, Hamming-tied) and MCAM-with-variation keys, rotating
// 64 key sets per shape so the comparators see fresh branches. Below 256
// keys the comparator paths win (n = 128, k = 11: 1.9-2.1 vs 3.0-4.2 us).
// At 256 and above the radix path wins 2-5x for mid-sized k (n = 4096,
// k = 641: 42-44 vs 114-139 us). Heap selection still wins for the
// smallest k: it crosses the radix path at k = 16-24 up to n = 4096 and
// at k = 48-64 for n = 16384.
constexpr std::size_t kRadixMinKeys = 256;
constexpr std::size_t kRadixMinK = 24;
constexpr std::size_t kRadixKeysPerK = 256;

constexpr int kDigitBits = 8;
constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kRadix - 1;

std::vector<std::size_t> comparator_top_k(std::span<const std::uint64_t> keys, std::size_t k) {
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto less = [keys](std::size_t a, std::size_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return a < b;
  };
  const auto middle = order.begin() + static_cast<std::ptrdiff_t>(k);
  // Heap selection rejects most elements with one predictable compare, so
  // it wins while k is tiny next to n; past that, quickselect plus a sort
  // of the k survivors is cheaper. The comparator is a strict total order,
  // so both give the same prefix.
  constexpr std::size_t kHeapSelectRatio = 16;
  if (k < order.size() / kHeapSelectRatio) {
    std::partial_sort(order.begin(), middle, order.end(), less);
  } else {
    std::nth_element(order.begin(), middle, order.end(), less);
    std::sort(order.begin(), middle, less);
  }
  order.resize(k);
  return order;
}

using Histogram = std::array<std::size_t, kRadix>;

std::size_t digit_of(std::uint64_t key, int shift) noexcept {
  return static_cast<std::size_t>((key >> shift) & kDigitMask);
}

/// How many keys carry each digit at `shift`. Tied keys repeat one digit,
/// so four interleaved tables keep the increments from queueing on one
/// counter.
Histogram histogram(std::span<const std::uint64_t> keys, int shift) noexcept {
  std::array<Histogram, 4> part{};
  std::size_t i = 0;
  for (; i + 4 <= keys.size(); i += 4) {
    ++part[0][digit_of(keys[i], shift)];
    ++part[1][digit_of(keys[i + 1], shift)];
    ++part[2][digit_of(keys[i + 2], shift)];
    ++part[3][digit_of(keys[i + 3], shift)];
  }
  for (; i < keys.size(); ++i) ++part[0][digit_of(keys[i], shift)];
  for (std::size_t d = 0; d < kRadix; ++d) part[0][d] += part[1][d] + part[2][d] + part[3][d];
  return part[0];
}

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

/// Shift of the 8-bit digit whose top bit is the highest set bit of `diff`
/// (0 when no bit is set).
int top_digit_shift(std::uint64_t diff) noexcept {
  return std::max(63 - std::countl_zero(diff) - (kDigitBits - 1), 0);
}

/// The bucket holding the rank-th smallest key; lowers `rank` by the
/// count of the buckets before it.
std::size_t bucket_of_rank(const Histogram& count, std::size_t& rank) noexcept {
  std::size_t digit = 0;
  for (; rank >= count[digit]; ++digit) rank -= count[digit];
  return digit;
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

/// Radix-select the k-th smallest key, gathering on the way the ids below
/// it; sort those stably by key and append the ties at the cut. Each
/// select pass buckets the candidates on the top 8 bits where they still
/// differ: lower buckets are below the cut, the rank's bucket stays a
/// candidate, so digits the candidates share cost no pass. The gathers
/// are branch-free (every id is written, the cursor advances only on a
/// keep, so each buffer has a spare slot) and keep id order, so equal
/// keys meet the stable sort in id order.
std::vector<std::size_t> radix_top_k(std::span<const std::uint64_t> keys, std::size_t k) {
  std::vector<std::size_t> below(k + 1);
  std::size_t nb = 0;
  std::size_t rank = k - 1;
  // First pass, over every key. (All-equal keys take it too: one bucket,
  // every key a candidate.)
  const int first_shift = top_digit_shift(differing_bits(keys));
  const Histogram first_count = histogram(keys, first_shift);
  const std::size_t first_digit = bucket_of_rank(first_count, rank);
  std::vector<std::uint64_t> cand_keys(first_count[first_digit] + 1);
  std::vector<std::size_t> cand_ids(first_count[first_digit] + 1);
  std::size_t nc = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t d = digit_of(keys[i], first_shift);
    below[nb] = i;
    nb += d < first_digit;
    cand_keys[nc] = keys[i];
    cand_ids[nc] = i;
    nc += d == first_digit;
  }
  cand_keys.resize(nc);
  cand_ids.resize(nc);
  // Later passes, over the shrinking candidates, compacted in place (the
  // write cursor never passes the read cursor).
  for (std::uint64_t diff = differing_bits(cand_keys); diff != 0;
       diff = differing_bits(cand_keys)) {
    const int shift = top_digit_shift(diff);
    const Histogram count = histogram(cand_keys, shift);
    const std::size_t digit = bucket_of_rank(count, rank);
    nc = 0;
    for (std::size_t j = 0; j < cand_keys.size(); ++j) {
      const std::size_t d = digit_of(cand_keys[j], shift);
      below[nb] = cand_ids[j];
      nb += d < digit;
      cand_keys[nc] = cand_keys[j];
      cand_ids[nc] = cand_ids[j];
      nc += d == digit;
    }
    cand_keys.resize(nc);
    cand_ids.resize(nc);
  }
  below.resize(nb);
  std::vector<std::uint64_t> below_keys(nb);
  for (std::size_t j = 0; j < nb; ++j) below_keys[j] = keys[below[j]];
  radix_sort(below_keys, below);
  below.insert(below.end(), cand_ids.begin(),
               cand_ids.begin() + static_cast<std::ptrdiff_t>(k - nb));
  return below;
}

}  // namespace

std::vector<std::size_t> argsort_top_k(std::span<const std::uint64_t> keys, std::size_t k) {
  k = std::min(k, keys.size());
  if (k == 0) return {};
  const bool radix = keys.size() >= kRadixMinKeys &&
                     k >= std::max(kRadixMinK, keys.size() / kRadixKeysPerK);
  return radix ? radix_top_k(keys, k) : comparator_top_k(keys, k);
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
