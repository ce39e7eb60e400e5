// Serving walkthrough: snapshot a calibrated sharded index, restore it
// warm, and sustain a mixed add/erase/query workload through the
// concurrent QueryService - the zero-to-serving path of the serve/
// subsystem.
//
// Exits non-zero on any divergence (restored index vs original, served
// result vs direct query), so CI runs it as a smoke step.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/serve_loop
#include "search/factory.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "store/collection.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

int main() {
  using namespace mcam;
  constexpr std::size_t kRows = 512;
  constexpr std::size_t kFeatures = 16;
  constexpr std::size_t kQueries = 32;
  constexpr std::size_t kTopK = 5;
  const std::string kSpec = "sharded-mcam3:bank_rows=64";

  Rng rng{2026};
  std::vector<std::vector<float>> rows(kRows, std::vector<float>(kFeatures));
  std::vector<int> labels(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (auto& v : rows[r]) v = static_cast<float>(rng.normal(r % 8, 1.0));
    labels[r] = static_cast<int>(r % 8);
  }
  std::vector<std::vector<float>> queries(kQueries, std::vector<float>(kFeatures));
  for (std::size_t q = 0; q < kQueries; ++q) {
    for (auto& v : queries[q]) v = static_cast<float>(rng.normal(q % 8, 1.0));
  }

  // 1. Build + program the index the slow way (calibrate encoders, write
  //    every CAM bank), with an erase wave so tombstones are in the image.
  search::EngineConfig config;
  config.num_features = kFeatures;
  config.vth_sigma = 0.03;
  const auto build_start = std::chrono::steady_clock::now();
  auto original = search::make_index(kSpec, config);
  original->add(rows, labels);
  for (std::size_t id = 5; id < kRows; id += 17) (void)original->erase(id);
  const std::chrono::duration<double, std::milli> build_ms =
      std::chrono::steady_clock::now() - build_start;

  // 2. Snapshot it, then restore warm - this is the server-restart path.
  const std::vector<std::uint8_t> blob = serve::save(*original, kSpec, config);
  const serve::SnapshotInfo info = serve::inspect(blob);
  const auto restore_start = std::chrono::steady_clock::now();
  auto restored = serve::load(blob);
  const std::chrono::duration<double, std::milli> restore_ms =
      std::chrono::steady_clock::now() - restore_start;
  std::printf(
      "Snapshot: %zu bytes (engine '%s', format v%u, crc 0x%08x)\n"
      "Cold build+program: %.1f ms   Warm restore: %.1f ms\n\n",
      blob.size(), info.engine.c_str(), info.version, info.checksum,
      build_ms.count(), restore_ms.count());

  // 3. Identity check: the restored index must answer every query
  //    bit-identically to the engine it was saved from.
  for (const auto& q : queries) {
    const search::QueryResult a = original->query_one(q, kTopK);
    const search::QueryResult b = restored->query_one(q, kTopK);
    if (a.label != b.label || a.neighbors.size() != b.neighbors.size()) {
      std::fprintf(stderr, "FAIL: restored index diverges from original\n");
      return 1;
    }
    for (std::size_t n = 0; n < a.neighbors.size(); ++n) {
      if (a.neighbors[n].index != b.neighbors[n].index ||
          a.neighbors[n].distance != b.neighbors[n].distance) {
        std::fprintf(stderr, "FAIL: restored neighbor list diverges\n");
        return 1;
      }
    }
  }
  std::printf("Restore identity: %zu queries bit-identical to the original\n\n", kQueries);

  // 4. Serve a mixed workload through the concurrent front end: client
  //    threads query while the main thread streams adds and erases.
  serve::QueryServiceConfig service_config;
  service_config.workers = 2;
  service_config.queue_capacity = 256;
  service_config.cache_capacity = 64;
  serve::QueryService service{*restored, service_config};

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      std::size_t i = 0;
      while (!stop.load()) {
        const auto& q = queries[(c * 7 + i++) % queries.size()];
        const serve::QueryResponse response = service.query_one(q, kTopK);
        if (response.status == serve::RequestStatus::kOk) {
          ok.fetch_add(1);
        } else if (response.status == serve::RequestStatus::kRejected) {
          rejected.fetch_add(1);
        } else {
          mismatches.fetch_add(1);  // kFailed / kShutdown mid-run is a bug.
        }
      }
    });
  }
  std::vector<std::vector<float>> fresh_row(1, std::vector<float>(kFeatures));
  std::vector<int> fresh_label(1);
  for (std::size_t m = 0; m < 64; ++m) {
    for (auto& v : fresh_row[0]) v = static_cast<float>(rng.normal(m % 8, 1.0));
    fresh_label[0] = static_cast<int>(m % 8);
    service.add(fresh_row, fresh_label);
    (void)service.erase(m);  // Tombstone an old row for each new one.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  service.stop();

  // 5. Post-workload sanity: a served result equals a direct query.
  const search::QueryResult direct = restored->query_one(queries[0], kTopK);
  serve::QueryService check{*restored, serve::QueryServiceConfig{}};
  const serve::QueryResponse served = check.query_one(queries[0], kTopK);
  if (served.status != serve::RequestStatus::kOk ||
      served.result.neighbors.size() != direct.neighbors.size() ||
      served.result.neighbors.front().index != direct.neighbors.front().index) {
    std::fprintf(stderr, "FAIL: served result diverges from direct query\n");
    return 1;
  }

  const serve::ServiceStats stats = service.stats();
  TextTable table{"QueryService under mixed add/erase/query workload"};
  table.set_header({"metric", "value"});
  char buf[64];
  table.add_row({"workers", std::to_string(stats.workers)});
  table.add_row({"accepted", std::to_string(stats.accepted)});
  table.add_row({"completed", std::to_string(stats.completed)});
  table.add_row({"rejected (backpressure)", std::to_string(stats.rejected)});
  table.add_row({"cache hits / lookups", std::to_string(stats.cache_hits) + " / " +
                                             std::to_string(stats.cache_lookups)});
  table.add_row({"cache invalidations", std::to_string(stats.invalidations)});
  std::snprintf(buf, sizeof(buf), "%.3f / %.3f / %.3f", stats.latency_p50_ms,
                stats.latency_p95_ms, stats.latency_p99_ms);
  table.add_row({"latency p50/p95/p99 [ms]", buf});
  std::snprintf(buf, sizeof(buf), "%.0f", stats.throughput_qps);
  table.add_row({"throughput [qps]", buf});
  table.add_row({"queue depth peak", std::to_string(stats.queue_depth_peak)});
  table.print(std::cout);

  if (mismatches.load() > 0) {
    std::fprintf(stderr, "FAIL: %zu requests failed mid-run\n", mismatches.load());
    return 1;
  }
  std::printf("\nServed %zu queries (%zu rejected under backpressure) with zero failures\n",
              ok.load(), rejected.load());

  // 6. Snapshot inspection: a filterable collection's v4 snapshot carries
  //    the full build recipe (including the two-stage signature fields)
  //    plus the collection name and metadata summary - all readable via
  //    serve::inspect without restoring an engine.
  store::Collection collection{
      "demo", "refine:coarse_bits=32,tag_bits=16,probes=2,sig=trained,fine=euclidean",
      config};
  std::vector<std::vector<std::string>> tags(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    tags[r] = {std::string("class=") + std::to_string(r % 8)};
  }
  collection.add(rows, labels, tags);
  const std::vector<std::uint8_t> collection_blob = collection.snapshot();
  const serve::SnapshotInfo store_info = serve::inspect(collection_blob);
  std::printf(
      "\nCollection snapshot (format v%u): engine '%s'\n"
      "  sig model '%s', probes %zu, tag band %zu bits, fine spec '%s'\n"
      "  store block: collection '%s', %llu metadata rows, %llu interned tags\n",
      store_info.version, store_info.engine.c_str(), store_info.config.sig_model.c_str(),
      store_info.config.probes, store_info.config.tag_bits,
      store_info.config.fine_spec.c_str(), store_info.collection.c_str(),
      static_cast<unsigned long long>(store_info.metadata_rows),
      static_cast<unsigned long long>(store_info.metadata_tags));
  if (!store_info.has_store || store_info.collection != "demo" ||
      store_info.metadata_rows != kRows || store_info.metadata_tags != 8 ||
      store_info.config.tag_bits != 16 || store_info.config.probes != 2 ||
      store_info.config.sig_model != "trained" ||
      store_info.config.fine_spec != "euclidean") {
    std::fprintf(stderr, "FAIL: inspect lost the collection/config summary\n");
    return 1;
  }
  return 0;
}
