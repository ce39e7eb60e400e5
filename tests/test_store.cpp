// The collection store (src/store/): metadata interning/TTL/soft-delete
// semantics, TCAM-pushed tag-band filtering bit-identical to brute-force
// post-filtering on every factory backend, the auto policy post-filtering
// every predicate exactly, collection snapshot round-trips (v4 store block), and
// the CollectionManager fleet - manifest save/load identity under
// interleaved add/erase/TTL-expiry, shared-pool admission control, and
// per-collection filtered-query stats.
#include "store/manager.hpp"

#include "search/factory.hpp"
#include "serve/snapshot.hpp"
#include "store/collection.hpp"
#include "store/metadata.hpp"
#include "store/predicate.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <semaphore>
#include <stdexcept>
#include <string>
#include <vector>

namespace mcam::store {
namespace {

struct Data {
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
  std::vector<std::vector<float>> queries;
};

Data make_data(std::size_t n, std::size_t dim, std::size_t num_queries,
               std::uint64_t seed) {
  Data data;
  Rng rng{seed};
  const auto sample = [&](int cls) {
    std::vector<float> v(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      v[i] = static_cast<float>(rng.normal(cls * 1.5 + (i % 3) * 0.3, 0.8));
    }
    return v;
  };
  for (std::size_t r = 0; r < n; ++r) {
    const int cls = static_cast<int>(r % 4);
    data.rows.push_back(sample(cls));
    data.labels.push_back(cls);
  }
  for (std::size_t q = 0; q < num_queries; ++q) {
    data.queries.push_back(sample(static_cast<int>(q % 4)));
  }
  return data;
}

void expect_identical(const search::QueryResult& got, const search::QueryResult& want,
                      const std::string& context) {
  EXPECT_EQ(got.label, want.label) << context;
  ASSERT_EQ(got.neighbors.size(), want.neighbors.size()) << context;
  for (std::size_t n = 0; n < got.neighbors.size(); ++n) {
    EXPECT_EQ(got.neighbors[n].index, want.neighbors[n].index) << context << " rank " << n;
    EXPECT_EQ(got.neighbors[n].distance, want.neighbors[n].distance)
        << context << " rank " << n;
  }
}

/// Per-row tags: every row carries "all" and its class tag; rows 0-3 also
/// carry "rare" (a ~8% predicate over 48 rows).
std::vector<std::vector<std::string>> make_tags(std::size_t n) {
  std::vector<std::vector<std::string>> tags(n);
  for (std::size_t r = 0; r < n; ++r) {
    tags[r] = {"all", "class=" + std::to_string(r % 4)};
    if (r < 4) tags[r].push_back("rare");
  }
  return tags;
}

std::string unique_dir(const std::string& stem) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("mcam_" + stem);
  std::filesystem::remove_all(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// MetadataStore unit semantics
// ---------------------------------------------------------------------------

TEST(MetadataStore, InterningPredicatesAndErase) {
  MetadataStore meta;
  const std::vector<std::string> ab = {"a", "b", "a"};  // Duplicate collapses.
  const std::vector<std::string> b = {"b"};
  EXPECT_EQ(meta.append(ab), 0u);
  EXPECT_EQ(meta.append(b), 1u);
  EXPECT_EQ(meta.append({}), 2u);
  EXPECT_EQ(meta.tag_count(), 2u);
  EXPECT_EQ(meta.row(0).tags.size(), 2u);

  EXPECT_TRUE(meta.matches(0, Predicate::tag("a").and_tag("b")));
  EXPECT_FALSE(meta.matches(1, Predicate::tag("a")));
  EXPECT_FALSE(meta.matches(2, Predicate::tag("a")));
  EXPECT_TRUE(meta.matches(2, Predicate{}));  // Empty matches every live row.
  EXPECT_FALSE(meta.matches(0, Predicate::tag("never-interned")));  // False, no throw.
  EXPECT_EQ(meta.matching_ids(Predicate::tag("b")),
            (std::vector<std::size_t>{0, 1}));

  // Erase contract mirror: false when repeated, out_of_range when unknown.
  EXPECT_TRUE(meta.mark_erased(1));
  EXPECT_FALSE(meta.mark_erased(1));
  EXPECT_THROW((void)meta.mark_erased(3), std::out_of_range);
  EXPECT_EQ(meta.live(), 2u);
  EXPECT_FALSE(meta.matches(1, Predicate::tag("b")));  // Erased rows never match.

  // Rollback hook: truncate drops trailing records but keeps the interner.
  meta.truncate(2);
  EXPECT_EQ(meta.rows(), 2u);
  EXPECT_EQ(meta.tag_count(), 2u);
  EXPECT_THROW(meta.truncate(5), std::invalid_argument);
}

TEST(MetadataStore, TtlAndBandQueries) {
  MetadataStore meta;
  const std::vector<std::string> t = {"t"};
  (void)meta.append(t, 0);    // Never expires.
  (void)meta.append(t, 5);
  (void)meta.append(t, 10);
  EXPECT_TRUE(meta.expired_ids(4).empty());
  EXPECT_EQ(meta.expired_ids(5), (std::vector<std::size_t>{1}));
  EXPECT_EQ(meta.expired_ids(99), (std::vector<std::size_t>{1, 2}));

  // Band mapping: a row's bitmap covers its tags' slots; a predicate over
  // a never-interned tag has no band query at all.
  const std::size_t width = 16;
  const auto bits = meta.band_bits(0, width);
  EXPECT_EQ(bits.size(), width);
  EXPECT_EQ(bits[band_slot(0, width)], 1);
  const auto query = meta.band_query(Predicate::tag("t"), width);
  ASSERT_TRUE(query.has_value());
  EXPECT_EQ(*query, bits);
  EXPECT_FALSE(meta.band_query(Predicate::tag("missing"), width).has_value());
  EXPECT_THROW((void)band_slot(0, 0), std::invalid_argument);
}

TEST(MetadataStore, SaveLoadRoundTripIsExact) {
  MetadataStore meta;
  const std::vector<std::string> xy = {"x", "y"};
  const std::vector<std::string> y = {"y"};
  (void)meta.append(xy, 7);
  (void)meta.append(y, 0);
  (void)meta.append({}, 3);
  (void)meta.mark_erased(1);

  serve::io::Writer out;
  meta.save(out);
  serve::io::Reader in(out.buffer());
  MetadataStore restored;
  restored.load(in);
  in.expect_end();

  EXPECT_EQ(restored.rows(), meta.rows());
  EXPECT_EQ(restored.live(), meta.live());
  EXPECT_EQ(restored.tag_count(), meta.tag_count());
  for (std::size_t id = 0; id < meta.rows(); ++id) {
    EXPECT_EQ(restored.row(id).tags, meta.row(id).tags) << id;
    EXPECT_EQ(restored.row(id).expires_at, meta.row(id).expires_at) << id;
    EXPECT_EQ(restored.row(id).erased, meta.row(id).erased) << id;
  }
  EXPECT_EQ(restored.find_tag("y"), meta.find_tag("y"));
}

/// Ascending per-row evaluation of `matches`: the oracle of matching_ids.
std::vector<std::size_t> reference_matching(const MetadataStore& meta,
                                            const Predicate& predicate) {
  std::vector<std::size_t> ids;
  for (std::size_t id = 0; id < meta.rows(); ++id) {
    if (meta.matches(id, predicate)) ids.push_back(id);
  }
  return ids;
}

TEST(MetadataStore, MatchingIdsMatchPerRowReference) {
  // matching_ids walks posting lists; the oracle evaluates every row. Random
  // histories of appends (repeated, empty and new tags), erases, truncates
  // and a save/load round trip must never make them disagree, and a loaded
  // store must answer exactly like the live one.
  Rng rng{31};
  const std::vector<std::string> names = {"a", "b", "c", "d", "e", "f", "g"};
  const auto random_names = [&](std::size_t known, std::size_t max_count) {
    std::vector<std::string> out;
    const std::size_t count = rng.index(max_count + 1);
    for (std::size_t i = 0; i < count; ++i) out.push_back(names[rng.index(known)]);
    return out;
  };
  const auto random_predicate = [&](std::size_t known) {
    Predicate predicate;
    predicate.all_of = random_names(known, 3);
    if (!predicate.empty() && rng.bernoulli(0.1)) predicate.all_of.back() = "never";
    return predicate;
  };
  const auto expect_matching = [&](const MetadataStore& meta, const Predicate& predicate,
                                   const std::string& context) {
    const std::vector<std::size_t> want = reference_matching(meta, predicate);
    EXPECT_EQ(meta.matching_ids(predicate), want) << context << " " << predicate.to_string();
    const auto tags = meta.resolve(predicate);
    if (tags) {
      EXPECT_EQ(meta.matching_ids(*tags), want) << context << " " << predicate.to_string();
      for (std::size_t id = 0; id < meta.rows(); ++id) {
        EXPECT_EQ(meta.matches(id, *tags), meta.matches(id, predicate)) << context << " " << id;
      }
    } else {
      EXPECT_TRUE(want.empty()) << context << " " << predicate.to_string();
    }
  };

  for (int trial = 0; trial < 24; ++trial) {
    const std::string context = "trial " + std::to_string(trial);
    MetadataStore meta;
    std::size_t known = 2;  // Appends draw from names[0, known); it grows.
    for (int step = 0; step < 80; ++step) {
      const double op = rng.uniform();
      if (op < 0.5 || meta.rows() == 0) {
        if (rng.bernoulli(0.1) && known < names.size()) ++known;
        (void)meta.append(random_names(known, 3), rng.index(3));
      } else if (op < 0.7) {
        (void)meta.mark_erased(rng.index(meta.rows()));
      } else if (op < 0.8) {
        meta.truncate(meta.rows() - rng.index(std::min<std::size_t>(meta.rows(), 4) + 1));
      } else {
        expect_matching(meta, random_predicate(names.size()), context);
      }
    }

    // Truncating the row that first interned a tag keeps the tag, with an
    // empty list, and a later row lands on the list at the reused id.
    const std::string fresh = "fresh" + std::to_string(trial);
    const std::vector<std::string> fresh_tags = {fresh, "a"};
    const std::size_t id = meta.append(fresh_tags);
    meta.truncate(id);
    EXPECT_TRUE(meta.find_tag(fresh).has_value()) << context;
    EXPECT_TRUE(meta.matching_ids(Predicate::tag(fresh)).empty()) << context;
    EXPECT_EQ(meta.append(fresh_tags), id) << context;
    EXPECT_EQ(meta.matching_ids(Predicate::tag(fresh)), (std::vector<std::size_t>{id}))
        << context;

    serve::io::Writer out;
    meta.save(out);
    serve::io::Reader in(out.buffer());
    MetadataStore loaded;
    loaded.load(in);
    in.expect_end();
    for (int more = 0; more <= 20; ++more) {
      for (int p = 0; p < 6; ++p) {
        const Predicate predicate = random_predicate(names.size());
        expect_matching(loaded, predicate, context + " loaded");
        EXPECT_EQ(loaded.matching_ids(predicate), meta.matching_ids(predicate))
            << context << " " << predicate.to_string();
      }
      const std::vector<std::string> tags = random_names(names.size(), 3);
      EXPECT_EQ(loaded.append(tags), meta.append(tags)) << context;
      if (more % 4 == 0) {
        const std::size_t victim = rng.index(meta.rows());
        EXPECT_EQ(loaded.mark_erased(victim), meta.mark_erased(victim)) << context;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Collection: TCAM-pushed filtering vs brute-force post-filtering
// ---------------------------------------------------------------------------

// The fine backends the band identity is pinned on - software metrics,
// the paper's MCAM, the Hamming TCAM, and a sharded tiling.
const std::vector<std::string> kFineBackends = {
    "euclidean",
    "cosine",
    "manhattan",
    "mcam3",
    "tcam-lsh",
    "sharded-mcam3:bank_rows=32",
};

TEST(CollectionFiltering, BandPathBitIdenticalToPostFilterOnEveryBackend) {
  const Data data = make_data(48, 8, 6, 611);
  const auto tags = make_tags(data.rows.size());
  search::EngineConfig base;
  base.num_features = 8;
  for (const std::string& fine : kFineBackends) {
    SCOPED_TRACE(fine);
    // candidate_factor = 64 >= row count: the coarse nomination covers
    // every eligible row, which is the documented bit-exactness regime.
    Collection collection{
        "c", "refine:coarse_bits=32,tag_bits=24,candidate_factor=64,filter=band,fine=" + fine,
        base};
    collection.add(data.rows, data.labels, tags);
    ASSERT_TRUE(collection.band_capable());

    for (const std::string& tag : {std::string("rare"), std::string("class=1")}) {
      const Predicate predicate = Predicate::tag(tag);
      const std::vector<std::size_t> matching =
          collection.metadata().matching_ids(predicate);
      ASSERT_FALSE(matching.empty());
      for (const auto& q : data.queries) {
        for (std::size_t k : {std::size_t{1}, std::size_t{5}}) {
          const CollectionQueryResult got = collection.query(q, k, predicate);
          EXPECT_EQ(got.path, FilterPath::kBand);
          const search::QueryResult want =
              collection.engine().query_subset(q, matching, k);
          expect_identical(got.result, want, tag + " k=" + std::to_string(k));
          // The band excluded every non-matching row in-array: at
          // tag_bits = 24 the six tags of make_tags land on distinct band
          // slots (the splitmix64 mapping is a frozen snapshot contract),
          // so there are no Bloom collisions and eligible == matching.
          EXPECT_EQ(got.result.telemetry.filtered_out,
                    data.rows.size() - matching.size())
              << tag;
          EXPECT_EQ(got.result.telemetry.fine_candidates, matching.size()) << tag;
        }
      }
    }
  }
}

TEST(CollectionFiltering, AutoPolicyPostFiltersWhateverTheBudgetOrSelectivity) {
  const Data data = make_data(48, 8, 3, 613);
  const auto tags = make_tags(data.rows.size());
  search::EngineConfig base;
  base.num_features = 8;
  const auto query = [&](const Collection& collection, std::size_t k, const char* tag) {
    return collection.query(data.queries[0], k, Predicate::tag(tag));
  };
  const auto refine = [](const std::string& factor) {
    return "refine:coarse_bits=32,tag_bits=24,candidate_factor=" + factor + ",fine=euclidean";
  };
  // "", "auto" and "post" are one policy; only "band" pushes into the band.
  EXPECT_EQ(parse_filter_policy(""), FilterPolicy::kPost);
  EXPECT_EQ(parse_filter_policy("auto"), FilterPolicy::kPost);
  EXPECT_EQ(parse_filter_policy("post"), FilterPolicy::kPost);
  EXPECT_EQ(parse_filter_policy("band"), FilterPolicy::kBand);
  EXPECT_THROW((void)parse_filter_policy("nonsense"), std::invalid_argument);

  // "rare" matches 4/48 (~8%), "class=1" 12/48 (25%), "all" every row.
  // With candidate_factor = 64 every predicate fits the budget of 64 * k.
  Collection roomy{"c", refine("64"), base};
  ASSERT_EQ(roomy.filter_policy(), FilterPolicy::kPost);
  roomy.add(data.rows, data.labels, tags);
  const CollectionQueryResult fits = query(roomy, 3, "rare");
  EXPECT_EQ(fits.path, FilterPath::kPostFilter);
  EXPECT_NEAR(fits.selectivity, 4.0 / 48.0, 1e-12);
  EXPECT_EQ(fits.result.telemetry.filtered_out, 44u);
  const auto rare = roomy.metadata().matching_ids(Predicate::tag("rare"));
  expect_identical(fits.result, roomy.engine().query_subset(data.queries[0], rare, 3),
                   "auto post");

  // candidate_factor = 1: a budget of max(k, 1) rows, which every
  // predicate outgrows at k <= 3. Auto still post-filters, at every
  // selectivity, and answers exactly.
  Collection tight{"c", refine("1"), base};
  tight.add(data.rows, data.labels, tags);
  for (const char* tag : {"rare", "class=1", "all"}) {
    const auto matching = tight.metadata().matching_ids(Predicate::tag(tag));
    for (std::size_t k : {std::size_t{0}, std::size_t{3}, std::size_t{4}}) {
      const std::string context = std::string{tag} + " k=" + std::to_string(k);
      const CollectionQueryResult got = query(tight, k, tag);
      EXPECT_EQ(got.path, FilterPath::kPostFilter) << context;
      EXPECT_EQ(got.result.telemetry.filtered_out, data.rows.size() - matching.size())
          << context;
      expect_identical(got.result, tight.engine().query_subset(data.queries[0], matching, k),
                       context);
    }
  }
  EXPECT_DOUBLE_EQ(query(tight, 3, "class=1").selectivity, 0.25);
  EXPECT_DOUBLE_EQ(query(tight, 3, "all").selectivity, 1.0);

  // A factor whose product with k overflows saturates, so the budget
  // covers every row; 2^63 * 2 would wrap to a budget of 0.
  Collection huge{"c", refine("9223372036854775808"), base};
  huge.add(data.rows, data.labels, tags);
  const auto& huge_two_stage =
      dynamic_cast<const search::TwoStageNnIndex&>(huge.engine());
  EXPECT_EQ(huge_two_stage.nomination_budget(2), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(query(huge, 2, "rare").path, FilterPath::kPostFilter);

  // An unfiltered query takes neither filter path.
  const CollectionQueryResult plain = roomy.query(data.queries[0], 3);
  EXPECT_EQ(plain.path, FilterPath::kNone);
  EXPECT_EQ(plain.result.telemetry.filtered_out, 0u);
  expect_identical(plain.result, roomy.engine().query_one(data.queries[0], 3),
                   "unfiltered");
}

TEST(CollectionFiltering, AutoPolicyMatchesBandWhereTheBudgetCoversEveryEligibleRow) {
  const Data data = make_data(48, 8, 4, 631);
  const auto tags = make_tags(data.rows.size());
  search::EngineConfig base;
  base.num_features = 8;
  for (const std::string& fine : kFineBackends) {
    SCOPED_TRACE(fine);
    const std::string spec = "refine:coarse_bits=32,tag_bits=24,candidate_factor=4,";
    Collection routed{"a", spec + "fine=" + fine, base};
    Collection banded{"b", spec + "filter=band,fine=" + fine, base};
    routed.add(data.rows, data.labels, tags);
    banded.add(data.rows, data.labels, tags);
    const auto& two_stage = dynamic_cast<const search::TwoStageNnIndex&>(routed.engine());

    std::size_t covered = 0;
    for (const std::string& tag : {std::string("rare"), std::string("class=1")}) {
      const Predicate predicate = Predicate::tag(tag);
      const std::vector<std::size_t> matching = routed.metadata().matching_ids(predicate);
      for (const auto& q : data.queries) {
        for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
          const std::string context = tag + " k=" + std::to_string(k);
          const CollectionQueryResult got = routed.query(q, k, predicate);
          const CollectionQueryResult band = banded.query(q, k, predicate);
          ASSERT_EQ(band.path, FilterPath::kBand) << context;
          const std::size_t eligible = banded.size() - band.result.telemetry.filtered_out;
          EXPECT_GE(eligible, matching.size()) << context;
          EXPECT_EQ(got.path, FilterPath::kPostFilter) << context;
          expect_identical(got.result, routed.engine().query_subset(q, matching, k),
                           context + " auto vs subset");
          if (eligible > two_stage.nomination_budget(k)) continue;
          ++covered;
          expect_identical(got.result, band.result, context + " auto vs band");
        }
      }
    }
    // "rare" fits every k; "class=1" fits at k = 3 and 5.
    EXPECT_EQ(covered, data.queries.size() * 5) << fine;
  }
}

TEST(CollectionFiltering, AutoPolicyIsExactWhenMoreRowsMatchThanTheBudget) {
  // A narrow predicate (30 of 240 rows, 12.5%) with more matches than the
  // budget of candidate_factor * k = 20: the band nominates only 20 of the
  // eligible rows by Hamming rank and misses true neighbors, while auto
  // answers the exact filtered top-10.
  const Data data = make_data(240, 8, 16, 643);
  std::vector<std::vector<std::string>> tags(data.rows.size());
  for (std::size_t r = 0; r < tags.size(); ++r) {
    if (r % 8 == 3) tags[r].push_back("pick");
  }
  search::EngineConfig base;
  base.num_features = 8;
  const std::string spec = "refine:coarse_bits=32,tag_bits=24,candidate_factor=2,";
  Collection routed{"a", spec + "fine=euclidean", base};
  Collection banded{"b", spec + "filter=band,fine=euclidean", base};
  routed.add(data.rows, data.labels, tags);
  banded.add(data.rows, data.labels, tags);
  const Predicate predicate = Predicate::tag("pick");
  const std::vector<std::size_t> matching = routed.metadata().matching_ids(predicate);
  ASSERT_EQ(matching.size(), 30u);
  constexpr std::size_t kTopK = 10;
  ASSERT_GT(matching.size(),
            dynamic_cast<const search::TwoStageNnIndex&>(routed.engine())
                .nomination_budget(kTopK));

  std::size_t band_misses = 0;
  for (std::size_t q = 0; q < data.queries.size(); ++q) {
    const std::string context = "query " + std::to_string(q);
    const std::vector<float>& query = data.queries[q];
    // Brute-force exact filtered top-10 ids, in double precision.
    std::vector<std::size_t> truth = matching;
    const auto distance = [&](std::size_t id) {
      double sum = 0.0;
      for (std::size_t f = 0; f < query.size(); ++f) {
        const double d = static_cast<double>(data.rows[id][f]) - query[f];
        sum += d * d;
      }
      return sum;
    };
    std::sort(truth.begin(), truth.end(),
              [&](std::size_t a, std::size_t b) { return distance(a) < distance(b); });
    truth.resize(kTopK);
    const auto ids_of = [](const search::QueryResult& result) {
      std::vector<std::size_t> ids;
      for (const auto& n : result.neighbors) ids.push_back(n.index);
      return ids;
    };

    const CollectionQueryResult got = routed.query(query, kTopK, predicate);
    EXPECT_EQ(got.path, FilterPath::kPostFilter) << context;
    EXPECT_EQ(ids_of(got.result), truth) << context;
    expect_identical(got.result, routed.engine().query_subset(query, matching, kTopK), context);
    band_misses += ids_of(banded.query(query, kTopK, predicate).result) != truth;
  }
  EXPECT_GT(band_misses, 0u);  // The forced band does lose neighbors here.
}

TEST(CollectionFiltering, AutoPolicyStaysExactUnderBloomCollisions) {
  // Six tags share two band slots, so the band's eligible rows run far
  // past the budget of candidate_factor * k = 6: forced through the band,
  // "rare" loses matches that the coarse sweep ranks below colliding rows.
  // Its four matches fit the budget, so auto post-filters and answers
  // exactly.
  const Data data = make_data(48, 8, 50, 641);
  const auto tags = make_tags(data.rows.size());
  search::EngineConfig base;
  base.num_features = 8;
  const std::string spec = "refine:coarse_bits=32,tag_bits=2,candidate_factor=2,";
  Collection routed{"a", spec + "fine=euclidean", base};
  Collection banded{"b", spec + "filter=band,fine=euclidean", base};
  ASSERT_EQ(banded.filter_policy(), FilterPolicy::kBand);
  routed.add(data.rows, data.labels, tags);
  banded.add(data.rows, data.labels, tags);
  const Predicate predicate = Predicate::tag("rare");
  const std::vector<std::size_t> matching = routed.metadata().matching_ids(predicate);
  ASSERT_EQ(matching.size(), 4u);

  std::size_t band_misses = 0;
  for (std::size_t q = 0; q < data.queries.size(); ++q) {
    const search::QueryResult exact =
        routed.engine().query_subset(data.queries[q], matching, 3);
    const CollectionQueryResult got = routed.query(data.queries[q], 3, predicate);
    EXPECT_EQ(got.path, FilterPath::kPostFilter) << "query " << q;
    expect_identical(got.result, exact, "query " + std::to_string(q));
    const CollectionQueryResult band = banded.query(data.queries[q], 3, predicate);
    band_misses += band.result.neighbors.size() != exact.neighbors.size() ||
                   !std::equal(band.result.neighbors.begin(), band.result.neighbors.end(),
                               exact.neighbors.begin(), [](const auto& a, const auto& b) {
                                 return a.index == b.index;
                               });
  }
  EXPECT_GT(band_misses, 0u);  // The collisions do cost the forced band.
}

TEST(CollectionFiltering, PostPolicyAndBandlessEnginesAlwaysPostFilter) {
  const Data data = make_data(32, 6, 2, 617);
  const auto tags = make_tags(data.rows.size());
  search::EngineConfig base;
  base.num_features = 6;

  // filter=post forces the subset path even on a band-capable engine.
  Collection forced{
      "p", "refine:coarse_bits=24,tag_bits=16,candidate_factor=64,filter=post,fine=euclidean",
      base};
  forced.add(data.rows, data.labels, tags);
  const CollectionQueryResult via_post = forced.query(data.queries[0], 4,
                                                      Predicate::tag("rare"));
  EXPECT_EQ(via_post.path, FilterPath::kPostFilter);
  EXPECT_EQ(via_post.result.telemetry.filtered_out, data.rows.size() - 4);

  // A band-less engine (plain software scan) serves filters via the
  // subset path with identical answers.
  Collection flat{"f", "euclidean", base};
  flat.add(data.rows, data.labels, tags);
  EXPECT_FALSE(flat.band_capable());
  const CollectionQueryResult via_flat = flat.query(data.queries[0], 4,
                                                    Predicate::tag("rare"));
  EXPECT_EQ(via_flat.path, FilterPath::kPostFilter);
  const auto matching = flat.metadata().matching_ids(Predicate::tag("rare"));
  expect_identical(via_flat.result,
                   flat.engine().query_subset(data.queries[0], matching, 4), "flat");

  EXPECT_THROW(Collection("x", "euclidean:filter=nonsense", base),
               std::invalid_argument);
}

TEST(CollectionFiltering, NoMatchingRowThrows) {
  const Data data = make_data(16, 6, 1, 619);
  const auto tags = make_tags(data.rows.size());
  search::EngineConfig base;
  base.num_features = 6;
  Collection collection{
      "c", "refine:coarse_bits=24,tag_bits=16,candidate_factor=64,fine=euclidean", base};
  collection.add(data.rows, data.labels, tags);

  // Never-interned tag and fully-erased tag both mean "no live match".
  EXPECT_THROW((void)collection.query(data.queries[0], 3, Predicate::tag("nope")),
               std::invalid_argument);
  for (std::size_t id = 0; id < 4; ++id) EXPECT_TRUE(collection.erase(id));
  EXPECT_THROW((void)collection.query(data.queries[0], 3, Predicate::tag("rare")),
               std::invalid_argument);
}

TEST(Collection, TtlExpiryEraseAndGeneration) {
  const Data data = make_data(20, 6, 2, 623);
  const auto tags = make_tags(data.rows.size());
  std::vector<std::uint64_t> expires(data.rows.size(), 0);
  for (std::size_t r = 0; r < 5; ++r) expires[r] = 10 + r;  // Ticks 10..14.
  search::EngineConfig base;
  base.num_features = 6;
  Collection collection{
      "c", "refine:coarse_bits=24,tag_bits=16,candidate_factor=64,fine=euclidean", base};
  EXPECT_EQ(collection.generation(), 0u);
  collection.add(data.rows, data.labels, tags, expires);
  EXPECT_EQ(collection.generation(), 1u);

  EXPECT_EQ(collection.expire(9), 0u);   // Nothing due yet.
  EXPECT_EQ(collection.expire(12), 3u);  // Rows 0,1,2.
  EXPECT_EQ(collection.size(), 17u);
  EXPECT_EQ(collection.expire(12), 0u);  // Idempotent at the same tick.
  const std::uint64_t generation = collection.generation();
  EXPECT_EQ(collection.expire(99), 2u);  // Rows 3,4.
  EXPECT_GT(collection.generation(), generation);

  // Expired rows are tombstoned everywhere: erase contract + queries.
  EXPECT_FALSE(collection.erase(0));
  EXPECT_THROW((void)collection.erase(999), std::out_of_range);
  const CollectionQueryResult result =
      collection.query(data.queries[0], 20, Predicate::tag("all"));
  for (const auto& neighbor : result.result.neighbors) {
    EXPECT_GE(neighbor.index, 5u);  // 0..4 expired.
  }
}

TEST(Collection, SnapshotRoundTripRestoresFilteredBehavior) {
  const Data data = make_data(40, 8, 4, 629);
  const auto tags = make_tags(data.rows.size());
  std::vector<std::uint64_t> expires(data.rows.size(), 0);
  expires[7] = 3;
  search::EngineConfig base;
  base.num_features = 8;
  Collection original{
      "prod",
      "refine:coarse_bits=32,tag_bits=24,candidate_factor=64,sig=trained,fine=mcam3",
      base};
  original.add(data.rows, data.labels, tags, expires);
  (void)original.erase(11);
  (void)original.expire(5);

  const std::vector<std::uint8_t> blob = original.snapshot();
  const serve::SnapshotInfo info = serve::inspect(blob);
  EXPECT_EQ(info.version, serve::kSnapshotVersion);
  EXPECT_TRUE(info.has_store);
  EXPECT_EQ(info.collection, "prod");
  EXPECT_EQ(info.metadata_rows, data.rows.size());
  EXPECT_EQ(info.metadata_tags, original.metadata().tag_count());
  EXPECT_EQ(info.config.tag_bits, 24u);

  const auto restored = Collection::restore(blob);
  EXPECT_EQ(restored->collection_name(), "prod");
  EXPECT_EQ(restored->generation(), original.generation());
  EXPECT_EQ(restored->size(), original.size());
  EXPECT_EQ(restored->metadata().tag_count(), original.metadata().tag_count());
  ASSERT_TRUE(restored->band_capable());

  for (const auto& q : data.queries) {
    expect_identical(restored->query(q, 5).result, original.query(q, 5).result,
                     "unfiltered");
    const CollectionQueryResult a = original.query(q, 5, Predicate::tag("rare"));
    const CollectionQueryResult b = restored->query(q, 5, Predicate::tag("rare"));
    EXPECT_EQ(a.path, b.path);
    expect_identical(b.result, a.result, "filtered");
  }

  // A plain engine snapshot is not a collection.
  auto flat = search::make_index("euclidean", base);
  flat->add(data.rows, data.labels);
  const std::vector<std::uint8_t> engine_blob = serve::save(*flat, "euclidean", base);
  EXPECT_THROW((void)Collection::restore(engine_blob), serve::io::SnapshotError);
}

TEST(Collection, RejectedTaggedAddKeepsIdsInStep) {
  // An empty tag rejects the whole batch. The rows staged before it must
  // roll back with it, or metadata ids run ahead of engine ids: a later
  // add would tag ids the engine never assigned, and the collection could
  // no longer be restored from its own snapshot.
  const Data data = make_data(12, 6, 1, 647);
  const std::vector<std::vector<std::string>> first = {{"a"}, {"b"}, {"a", "b"}, {"b"}};
  const std::vector<std::vector<std::string>> rejected = {{"a"}, {"b"}, {""}, {"b"}};
  const std::vector<std::vector<std::string>> later = {{"c"}, {"c"}, {"c", "a"}, {"c"}};
  const auto rows = [&](std::size_t at) { return std::span(data.rows).subspan(at, 4); };
  const auto labels = [&](std::size_t at) { return std::span(data.labels).subspan(at, 4); };
  const std::vector<std::size_t> later_ids = {4, 5, 6, 7};
  search::EngineConfig base;
  base.num_features = 6;
  const std::string refine = "refine:coarse_bits=16,tag_bits=8,fine=euclidean";

  for (const std::string& spec : {std::string{"euclidean"}, refine}) {
    Collection collection{"c", spec, base};
    EXPECT_EQ(collection.add(rows(0), labels(0), first), 0u) << spec;
    EXPECT_THROW((void)collection.add(rows(4), labels(4), rejected), std::invalid_argument)
        << spec;
    EXPECT_EQ(collection.metadata().rows(), 4u) << spec;
    EXPECT_EQ(collection.size(), 4u) << spec;
    EXPECT_EQ(collection.add(rows(4), labels(4), later), 4u) << spec;
    EXPECT_EQ(collection.metadata().matching_ids(Predicate::tag("c")), later_ids) << spec;
    const auto restored = Collection::restore(collection.snapshot());
    EXPECT_EQ(restored->size(), 8u) << spec;
    const CollectionQueryResult result =
        restored->query(data.queries[0], 4, Predicate::tag("c"));
    for (const auto& neighbor : result.result.neighbors) {
      EXPECT_GE(neighbor.index, 4u) << spec;
      EXPECT_LT(neighbor.index, 8u) << spec;
    }
  }

  CollectionManager manager;
  manager.create_collection("m", refine, base);
  EXPECT_EQ(manager.add("m", rows(0), labels(0), first), 0u);
  EXPECT_THROW((void)manager.add("m", rows(4), labels(4), rejected), std::invalid_argument);
  EXPECT_EQ(manager.add("m", rows(4), labels(4), later), 4u);
  const std::string dir = unique_dir("rejected_add");
  EXPECT_EQ(manager.save(dir), 1u);
  CollectionManager reloaded;
  EXPECT_EQ(reloaded.load(dir), 1u);
  EXPECT_EQ(reloaded.size("m"), 8u);
  std::filesystem::remove_all(dir);
}

TEST(Collection, LoadFileOnMissingPathThrowsNamingThePath) {
  // Index snapshots and collection snapshots share one whole-file reader;
  // a missing file must surface as a SnapshotError naming the path.
  const std::string path = ::testing::TempDir() + "mcam_store_missing.snap";
  std::filesystem::remove(path);
  const auto expect_names_path = [&](const char* what, const auto& load) {
    try {
      load();
      ADD_FAILURE() << what << " loaded a missing file";
    } catch (const serve::io::SnapshotError& error) {
      EXPECT_NE(std::string{error.what()}.find("'" + path + "'"), std::string::npos)
          << what << ": " << error.what();
    }
  };
  expect_names_path("serve::load_file", [&] { (void)serve::load_file(path); });
  expect_names_path("Collection::load_file", [&] { (void)Collection::load_file(path); });
}

// ---------------------------------------------------------------------------
// CollectionManager: fleet persistence, admission control, stats
// ---------------------------------------------------------------------------

TEST(CollectionManager, FleetManifestRoundTripUnderInterleavedMutations) {
  const Data data = make_data(48, 8, 4, 641);
  const auto tags = make_tags(data.rows.size());
  std::vector<std::uint64_t> expires(data.rows.size(), 0);
  for (std::size_t r = 8; r < 12; ++r) expires[r] = 4;
  search::EngineConfig base;
  base.num_features = 8;

  ManagerConfig config;
  config.workers = 2;
  CollectionManager manager{config};
  manager.create_collection(
      "alpha", "refine:coarse_bits=32,tag_bits=24,candidate_factor=64,fine=euclidean",
      base);
  manager.create_collection("beta", "sharded-mcam3:bank_rows=32", base);
  manager.create_collection("gamma", "euclidean", base);
  EXPECT_THROW(manager.create_collection("alpha", "euclidean", base),
               std::invalid_argument);
  EXPECT_EQ(manager.collection_names(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));

  // Interleaved history: tagged adds with TTLs, erases, a TTL sweep, and
  // more adds after the sweep.
  manager.add("alpha", data.rows, data.labels, tags, expires);
  manager.add("beta", std::span(data.rows).subspan(0, 32),
              std::span(data.labels).subspan(0, 32));
  manager.add("gamma", std::span(data.rows).subspan(0, 16),
              std::span(data.labels).subspan(0, 16));
  EXPECT_TRUE(manager.erase("alpha", 2));
  EXPECT_FALSE(manager.erase("alpha", 2));
  EXPECT_TRUE(manager.erase("beta", 5));
  EXPECT_EQ(manager.expire_all(4), 4u);  // alpha rows 8..11.
  manager.add("gamma", std::span(data.rows).subspan(16, 8),
              std::span(data.labels).subspan(16, 8));
  EXPECT_THROW((void)manager.erase("alpha", 400), std::out_of_range);

  const std::string dir = unique_dir("fleet");
  EXPECT_EQ(manager.save(dir), 3u);

  ManagerConfig reload_config;
  reload_config.workers = 2;
  CollectionManager reloaded{reload_config};
  EXPECT_EQ(reloaded.load(dir), 3u);
  EXPECT_EQ(reloaded.collection_names(), manager.collection_names());
  for (const std::string& name : manager.collection_names()) {
    EXPECT_EQ(reloaded.size(name), manager.size(name)) << name;
    EXPECT_EQ(reloaded.generation(name), manager.generation(name)) << name;
  }

  // Identity: every query - filtered through the band, filtered through
  // the post path, unfiltered on every backend - answers bit-identically.
  for (const auto& q : data.queries) {
    for (const std::string& name : manager.collection_names()) {
      const StoreResponse a = manager.query_one(name, q, 5);
      const StoreResponse b = reloaded.query_one(name, q, 5);
      ASSERT_EQ(a.status, serve::RequestStatus::kOk) << name;
      ASSERT_EQ(b.status, serve::RequestStatus::kOk) << name;
      expect_identical(b.result.result, a.result.result, name);
    }
    for (const std::string& tag : {std::string("rare"), std::string("all")}) {
      const StoreResponse a = manager.query_one("alpha", q, 5, Predicate::tag(tag));
      const StoreResponse b = reloaded.query_one("alpha", q, 5, Predicate::tag(tag));
      ASSERT_EQ(a.status, serve::RequestStatus::kOk);
      ASSERT_EQ(b.status, serve::RequestStatus::kOk);
      EXPECT_EQ(a.result.path, b.result.path) << tag;
      expect_identical(b.result.result, a.result.result, "filtered " + tag);
    }
  }

  // Mutations keep working after restore (the replayed engines accept
  // further adds identically).
  const std::size_t before = reloaded.size("gamma");
  manager.add("gamma", std::span(data.rows).subspan(24, 4),
              std::span(data.labels).subspan(24, 4));
  reloaded.add("gamma", std::span(data.rows).subspan(24, 4),
               std::span(data.labels).subspan(24, 4));
  EXPECT_EQ(reloaded.size("gamma"), before + 4);
  const StoreResponse a = manager.query_one("gamma", data.queries[0], 3);
  const StoreResponse b = reloaded.query_one("gamma", data.queries[0], 3);
  expect_identical(b.result.result, a.result.result, "post-restore add");

  // Loading into a manager that already has one of the names refuses.
  CollectionManager conflicted;
  conflicted.create_collection("alpha", "euclidean", base);
  EXPECT_THROW((void)conflicted.load(dir), std::invalid_argument);

  std::filesystem::remove_all(dir);
}

/// Holds every query of the engines built with it until open(): it pins a
/// manager's worker on one request for as long as a test needs (the
/// executor tests' Gate, one layer up).
class QueryGate {
 public:
  void enter() {
    started_.release();
    opened_.wait();
  }
  /// Blocks until a query has entered the gate.
  void wait_started() { started_.acquire(); }
  /// Idempotent.
  void open() {
    std::call_once(once_, [this] { open_.set_value(); });
  }

 private:
  std::counting_semaphore<1024> started_{0};
  std::promise<void> open_;
  std::shared_future<void> opened_{open_.get_future().share()};
  std::once_flag once_;
};

/// An mcam3 engine whose queries pass through a QueryGate.
class GatedIndex final : public search::NnIndex {
 public:
  GatedIndex(std::shared_ptr<QueryGate> gate, const search::EngineConfig& config)
      : gate_(std::move(gate)), inner_(search::make_index("mcam3", config)) {}
  void add(std::span<const std::vector<float>> rows, std::span<const int> labels) override {
    inner_->add(rows, labels);
  }
  void clear() override { inner_->clear(); }
  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  [[nodiscard]] search::QueryResult query_one(std::span<const float> query,
                                              std::size_t k) const override {
    gate_->enter();
    return inner_->query_one(query, k);
  }
  [[nodiscard]] std::string name() const override { return "gated " + inner_->name(); }

 private:
  std::shared_ptr<QueryGate> gate_;
  std::unique_ptr<search::NnIndex> inner_;
};

TEST(CollectionManager, AdmissionControlRejectsWithStatus) {
  const Data data = make_data(512, 16, 4, 653);
  const auto gate = std::make_shared<QueryGate>();
  search::EngineFactory::instance().register_engine(
      "test-gated-mcam3", [gate](const search::EngineConfig& engine_config) {
        return std::make_unique<GatedIndex>(gate, engine_config);
      });
  search::EngineConfig base;
  base.num_features = 16;
  ManagerConfig config;
  config.workers = 1;
  config.collection_queue_cap = 1;  // One in-flight request per tenant.
  CollectionManager manager{config};
  // Declared after the manager, so it opens the gate before the manager's
  // destructor drains the held request, whichever way the test ends.
  struct OpenOnExit {
    QueryGate& gate;
    ~OpenOnExit() { gate.open(); }
  } const opener{*gate};
  manager.create_collection("tenant", "test-gated-mcam3", base);
  manager.add("tenant", data.rows, data.labels);

  // The first request holds the one worker inside the engine, so each of
  // the other 63 meets a full in-flight cap whatever the thread timing,
  // and is refused at submit.
  std::vector<std::future<StoreResponse>> futures;
  futures.push_back(manager.submit("tenant", data.queries[0], 5));
  gate->wait_started();
  for (int i = 1; i < 64; ++i) {
    futures.push_back(manager.submit("tenant", data.queries[i % 4], 5));
  }
  std::size_t resolved_while_held = 0;
  for (const auto& f : futures) {
    resolved_while_held += f.wait_for(std::chrono::seconds{0}) == std::future_status::ready;
  }
  gate->open();
  EXPECT_EQ(resolved_while_held, 63u);
  const StoreResponse first = futures.front().get();
  ASSERT_EQ(first.status, serve::RequestStatus::kOk) << first.error;
  EXPECT_FALSE(first.result.result.neighbors.empty());
  for (std::size_t i = 1; i < futures.size(); ++i) {
    const StoreResponse response = futures[i].get();
    EXPECT_EQ(response.status, serve::RequestStatus::kRejected) << "request " << i;
    EXPECT_NE(response.error.find("collection_queue_cap 1"), std::string::npos)
        << "request " << i << ": " << response.error;
  }
  // Every outcome is reported, nothing is dropped.
  const serve::ServiceStats stats = manager.stats("tenant");
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected, 63u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.queue_depth_peak, 1u);

  // Unknown names throw at submit; dropped collections free the name and
  // late submits to them throw too.
  EXPECT_THROW((void)manager.submit("nobody", data.queries[0], 1),
               std::invalid_argument);
  EXPECT_TRUE(manager.drop_collection("tenant"));
  EXPECT_FALSE(manager.drop_collection("tenant"));
  EXPECT_FALSE(manager.contains("tenant"));
  EXPECT_THROW((void)manager.submit("tenant", data.queries[0], 1),
               std::invalid_argument);

  manager.stop();
}

TEST(CollectionManager, StatsAggregateFilteredQueries) {
  const Data data = make_data(48, 8, 4, 659);
  const auto tags = make_tags(data.rows.size());
  search::EngineConfig base;
  base.num_features = 8;
  ManagerConfig config;
  config.workers = 1;
  CollectionManager manager{config};
  const std::string spec = "refine:coarse_bits=32,tag_bits=24,candidate_factor=1,";
  manager.create_collection("docs", spec + "fine=euclidean", base);
  manager.create_collection("banded", spec + "filter=band,fine=euclidean", base);
  manager.add("docs", data.rows, data.labels, tags);
  manager.add("banded", data.rows, data.labels, tags);

  // docs: 3 post-filtered (rare twice, ~8%; all, 100%), 1 unfiltered.
  // banded: 2 through the tag band (rare).
  ASSERT_EQ(manager.query_one("docs", data.queries[0], 3, Predicate::tag("rare")).status,
            serve::RequestStatus::kOk);
  ASSERT_EQ(manager.query_one("docs", data.queries[1], 3, Predicate::tag("rare")).status,
            serve::RequestStatus::kOk);
  ASSERT_EQ(manager.query_one("docs", data.queries[2], 3, Predicate::tag("all")).status,
            serve::RequestStatus::kOk);
  ASSERT_EQ(manager.query_one("docs", data.queries[3], 3).status,
            serve::RequestStatus::kOk);
  for (std::size_t q = 0; q < 2; ++q) {
    ASSERT_EQ(
        manager.query_one("banded", data.queries[q], 3, Predicate::tag("rare")).status,
        serve::RequestStatus::kOk);
  }

  const serve::ServiceStats stats = manager.stats("docs");
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.filtered_queries, 3u);
  EXPECT_EQ(stats.band_queries, 0u);
  EXPECT_EQ(stats.post_filter_queries, 3u);
  const double expected_mean = (4.0 / 48.0 + 4.0 / 48.0 + 1.0) / 3.0;
  EXPECT_NEAR(stats.filter_selectivity_mean, expected_mean, 1e-12);
  EXPECT_GE(stats.latency_p95_ms, stats.latency_p50_ms);
  EXPECT_GT(stats.throughput_qps, 0.0);
  const serve::ServiceStats banded = manager.stats("banded");
  EXPECT_EQ(banded.filtered_queries, 2u);
  EXPECT_EQ(banded.band_queries, 2u);
  EXPECT_EQ(banded.post_filter_queries, 0u);
  EXPECT_NEAR(banded.filter_selectivity_mean, 4.0 / 48.0, 1e-12);
  EXPECT_THROW((void)manager.stats("nobody"), std::invalid_argument);

  // A failed query (unknown predicate tag -> invalid_argument inside the
  // worker) resolves kFailed with the message and counts as failed.
  const StoreResponse failed =
      manager.query_one("docs", data.queries[0], 3, Predicate::tag("nope"));
  EXPECT_EQ(failed.status, serve::RequestStatus::kFailed);
  EXPECT_FALSE(failed.error.empty());
  EXPECT_EQ(manager.stats("docs").failed, 1u);
}

}  // namespace
}  // namespace mcam::store
