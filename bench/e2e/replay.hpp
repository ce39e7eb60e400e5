// The traced replay: times one read's public call into each layer.
//
// The parent call is the real one; each child is the same work invoked
// separately through the layer's public API, so the children's sum can be
// checked against the parent (the remainder is the parent's unattributed
// self time). Times are filed in seconds and read back normalised.
#pragma once

#include "samples.hpp"

#include "encoding/normalize.hpp"
#include "search/index.hpp"
#include "search/sharded.hpp"
#include "store/collection.hpp"

#include <span>

namespace e2e {

/// `Collection::query` and, beneath it, the engine call on the path the
/// collection chose (query_one, query_filtered or query_subset) with the
/// two-stage stages (signature encode, TCAM sweep, nomination, fine
/// rerank) or the software scan. `scaler` is the z-score fit on the
/// collection's calibration rows - the one a two-stage engine applies
/// before encoding - so the child sweep sees the engine's signature bits
/// (a TCAM sweep's cost depends on which cells match). Returns false when
/// the engine call's answer differs from the collection's, i.e. the
/// replay would not be timing the work the collection did.
bool replay_collection_read(const mcam::store::Collection& collection,
                            const mcam::encoding::FeatureScaler& scaler,
                            std::span<const float> query,
                            const mcam::store::Predicate& predicate, Samples& layers);

/// `ShardedNnIndex::query_one` over MCAM banks and, beneath it, each
/// bank's query with its quantize and array sweep.
void replay_sharded_read(const mcam::search::ShardedNnIndex& index,
                         std::span<const float> query, Samples& layers);

}  // namespace e2e
