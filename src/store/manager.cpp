#include "store/manager.hpp"

#include "serve/io.hpp"

#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>

namespace mcam::store {

namespace {

constexpr char kManifestMagic[8] = {'M', 'C', 'A', 'M', 'M', 'A', 'N', 'I'};
constexpr std::uint32_t kManifestVersion = 1;
constexpr const char* kManifestName = "MANIFEST";

}  // namespace

CollectionManager::Entry::Entry(const std::string& entry_name,
                                std::unique_ptr<Collection> entry_collection)
    : name(entry_name),
      collection(std::move(entry_collection)),
      tenant("mcam_store", {{"collection", entry_name}}, kLatencyWindow),
      rows_gauge(obs::registry().gauge("mcam_store_rows", {{"collection", entry_name}})) {}

CollectionManager::CollectionManager(ManagerConfig config)
    : config_(config),
      trace_sampler_(obs::effective_trace_sample(config.trace_sample)),
      executor_({.owner = "CollectionManager",
                 .workers = config.workers,
                 .queue_capacity = config.queue_capacity,
                 .tenant_cap = config.collection_queue_cap,
                 .admission_span = true},
                [this](Task& task) { return execute(task); }) {}

CollectionManager::~CollectionManager() { stop(); }

void CollectionManager::create_collection(const std::string& name,
                                          const std::string& spec,
                                          const search::EngineConfig& base) {
  // Build outside the registry lock (factory work can be heavy), then
  // insert-or-throw.
  register_entry(name, std::make_unique<Collection>(name, spec, base), "CollectionManager");
}

void CollectionManager::register_entry(const std::string& name,
                                       std::unique_ptr<Collection> collection,
                                       const char* context) {
  auto entry = std::make_shared<Entry>(name, std::move(collection));
  attach_health(*entry);
  std::unique_lock lock(registry_mutex_);
  const auto [it, inserted] = entries_.emplace(name, std::move(entry));
  if (!inserted) {
    throw std::invalid_argument{std::string(context) + ": collection '" + name +
                                "' already exists"};
  }
  // Only once registered: a refused duplicate must not touch the live
  // collection's gauge (same series). No other thread can reach the new
  // entry before the registry lock is released.
  update_rows_gauge(*it->second);
}

bool CollectionManager::drop_collection(const std::string& name) {
  std::shared_ptr<Entry> entry;
  {
    std::unique_lock lock(registry_mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) return false;
    entry = it->second;
    entries_.erase(it);
  }
  // Queued tasks still hold the entry; null the collection under the
  // exclusive lock so they resolve kShutdown instead of touching freed
  // engine state.
  {
    std::unique_lock lock(entry->mutex);
    entry->collection.reset();
    entry->rows_gauge.set(0.0);
  }
  // Stop the health workers only AFTER releasing the entry lock: their
  // callbacks take the shared side, so joining them under the exclusive
  // side would deadlock. (Nulling the collection first means any canary /
  // scrub still in flight observes the tombstone and bails.)
  if (entry->monitor) entry->monitor->stop();
  if (entry->canary) entry->canary->stop();
  // Retire every {collection=name}-labeled series (requests, latency,
  // energy, probes, kernels, rows, health) so a dropped tenant vanishes
  // from exports - and a later create with the same name restarts its
  // series from zero instead of double-reporting.
  obs::registry().remove_labeled("collection", name);
  return true;
}

void CollectionManager::attach_health(Entry& entry) const {
  Entry* raw = &entry;  // Members of the entry; stopped before it dies.
  const obs::Labels labels{{"collection", entry.name}};
  // Ground truth for one sampled query: the exact post-filter path -
  // query_subset over every id the collection ever assigned (tombstoned
  // ids are ignored by contract, so metadata().rows() is a safe, exact
  // bound). Bails out as stale once the generation moved past the
  // serving-time stamp, and as dropped-collection once the tombstone is
  // set.
  entry.canary = std::make_unique<obs::health::RecallCanary>(
      config_.canary,
      [raw](std::span<const float> query, std::size_t k, std::uint64_t generation)
          -> std::optional<std::vector<std::size_t>> {
        std::shared_lock lock(raw->mutex);
        if (!raw->collection || raw->collection->generation() != generation) {
          return std::nullopt;
        }
        return serve::exact_neighbor_ids(raw->collection->engine(), query, k,
                                         raw->collection->metadata().rows());
      },
      labels);
  entry.monitor = std::make_unique<obs::health::HealthMonitor>(
      config_.health,
      [raw] {
        std::shared_lock lock(raw->mutex);
        if (!raw->collection) return std::vector<obs::health::BankHealth>{};
        return obs::health::scrub_index(raw->collection->engine());
      },
      entry.canary.get(), labels);
}

void CollectionManager::update_rows_gauge(Entry& entry) {
  entry.rows_gauge.set(
      entry.collection ? static_cast<double>(entry.collection->size()) : 0.0);
}

std::vector<std::string> CollectionManager::collection_names() const {
  std::shared_lock lock(registry_mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;  // std::map iterates sorted.
}

bool CollectionManager::contains(const std::string& name) const {
  return find_entry(name) != nullptr;
}

std::size_t CollectionManager::collection_count() const {
  std::shared_lock lock(registry_mutex_);
  return entries_.size();
}

void CollectionManager::calibrate(const std::string& name,
                                  std::span<const std::vector<float>> rows) {
  const std::shared_ptr<Entry> entry = require_entry(name);
  std::unique_lock lock(entry->mutex);
  entry->collection->calibrate(rows);
}

std::size_t CollectionManager::add(const std::string& name,
                                   std::span<const std::vector<float>> rows,
                                   std::span<const int> labels) {
  return add(name, rows, labels, {}, {});
}

std::size_t CollectionManager::add(const std::string& name,
                                   std::span<const std::vector<float>> rows,
                                   std::span<const int> labels,
                                   std::span<const std::vector<std::string>> tags,
                                   std::span<const std::uint64_t> expires_at) {
  const std::shared_ptr<Entry> entry = require_entry(name);
  std::unique_lock lock(entry->mutex);
  const std::size_t first_id = entry->collection->add(rows, labels, tags, expires_at);
  update_rows_gauge(*entry);
  return first_id;
}

bool CollectionManager::erase(const std::string& name, std::size_t id) {
  const std::shared_ptr<Entry> entry = require_entry(name);
  std::unique_lock lock(entry->mutex);
  const bool erased = entry->collection->erase(id);
  update_rows_gauge(*entry);
  return erased;
}

std::size_t CollectionManager::expire(const std::string& name, std::uint64_t now) {
  const std::shared_ptr<Entry> entry = require_entry(name);
  std::unique_lock lock(entry->mutex);
  const std::size_t expired = entry->collection->expire(now);
  update_rows_gauge(*entry);
  return expired;
}

std::size_t CollectionManager::expire_all(std::uint64_t now) {
  std::size_t expired = 0;
  for (const std::string& name : collection_names()) {
    const std::shared_ptr<Entry> entry = find_entry(name);
    if (!entry) continue;  // Dropped between listing and lookup.
    std::unique_lock lock(entry->mutex);
    if (entry->collection) {
      expired += entry->collection->expire(now);
      update_rows_gauge(*entry);
    }
  }
  return expired;
}

std::size_t CollectionManager::size(const std::string& name) const {
  const std::shared_ptr<Entry> entry = require_entry(name);
  std::shared_lock lock(entry->mutex);
  return entry->collection->size();
}

std::uint64_t CollectionManager::generation(const std::string& name) const {
  const std::shared_ptr<Entry> entry = require_entry(name);
  std::shared_lock lock(entry->mutex);
  return entry->collection->generation();
}

std::future<StoreResponse> CollectionManager::submit(const std::string& name,
                                                     std::vector<float> query,
                                                     std::size_t k, Predicate predicate) {
  std::shared_ptr<Entry> entry = require_entry(name);
  serve::Tenant& tenant = entry->tenant;  // Kept alive by the task's entry.

  Task task;
  task.entry = std::move(entry);
  task.query = std::move(query);
  task.k = k;
  task.predicate = std::move(predicate);
  task.submitted = std::chrono::steady_clock::now();
  if (trace_sampler_.should_sample()) {
    task.trace = std::make_unique<obs::Trace>("store." + name);
  }
  std::future<StoreResponse> future = task.promise.get_future();
  executor_.submit(std::move(task), tenant);
  return future;
}

StoreResponse CollectionManager::query_one(const std::string& name,
                                           std::vector<float> query, std::size_t k,
                                           Predicate predicate) {
  return submit(name, std::move(query), k, std::move(predicate)).get();
}

StoreResponse CollectionManager::execute(Task& task) const {
  StoreResponse response;
  std::uint64_t generation = 0;
  {
    // The route span covers predicate routing (band vs post-filter) plus
    // the engine's own stage spans, which attach to the same trace via
    // the worker's thread-local context installed here.
    obs::ScopedTraceContext trace_context(task.trace.get());
    obs::TraceSpan route_span(task.trace.get(), "route");
    std::shared_lock lock(task.entry->mutex);
    if (!task.entry->collection) {
      response.status = serve::RequestStatus::kShutdown;
    } else {
      // Canary staleness stamp: read under the same shared lock the query
      // executes under, so the stamp and the served answer are coherent.
      generation = task.entry->collection->generation();
      try {
        response.result = task.entry->collection->query(task.query, task.k, task.predicate);
      } catch (const std::exception& error) {
        response.status = serve::RequestStatus::kFailed;
        response.error = error.what();
      }
    }
    if (response.status == serve::RequestStatus::kOk) {
      route_span.tag(response.result.path == FilterPath::kBand         ? "band"
                     : response.result.path == FilterPath::kPostFilter ? "post-filter"
                                                                       : "unfiltered");
      if (response.result.path != FilterPath::kNone) {
        route_span.note("selectivity", response.result.selectivity);
      }
      route_span.note("energy_j", response.result.result.telemetry.energy_j);
    }
  }
  // Recall-canary sampling: unfiltered completed queries only (filtered
  // answers are already exact on the post path and predicate-dependent on
  // the band path, so they would not measure coarse-stage quality). One
  // constant-false branch when sampling is off.
  const bool ok = response.status == serve::RequestStatus::kOk;
  if (ok && response.result.path == FilterPath::kNone && task.entry->canary) {
    serve::sample_canary(*task.entry->canary, task.query, task.k, response.result.result,
                         generation);
  }
  const serve::FilterOutcome filter{response.result.path == FilterPath::kBand,
                                    response.result.selectivity};
  task.entry->tenant.stats.on_complete(
      ok, task.submitted, ok ? &response.result.result.telemetry : nullptr,
      ok && response.result.path != FilterPath::kNone ? &filter : nullptr);
  return response;
}

obs::health::CanaryReport CollectionManager::canary_report(const std::string& name) const {
  return require_entry(name)->canary->report();
}

void CollectionManager::canary_drain(const std::string& name) {
  require_entry(name)->canary->drain();
}

obs::health::HealthReport CollectionManager::health_report(const std::string& name) const {
  return require_entry(name)->monitor->report();
}

std::vector<obs::health::BankHealth> CollectionManager::scrub_collection(
    const std::string& name) {
  return require_entry(name)->monitor->scrub_now();
}

std::size_t CollectionManager::inject_drift(const std::string& name, double sigma,
                                            std::uint64_t seed) {
  const std::shared_ptr<Entry> entry = require_entry(name);
  std::unique_lock lock(entry->mutex);
  if (!entry->collection) return 0;  // Dropped between lookup and lock.
  const std::size_t cells =
      obs::health::inject_drift(entry->collection->engine(), sigma, seed);
  // Drift changes match outcomes: stale-stamp every in-flight canary so
  // the recall estimate never mixes pre- and post-drift ground truth.
  entry->collection->note_device_mutation();
  return cells;
}

serve::ServiceStats CollectionManager::stats(const std::string& name) const {
  const std::shared_ptr<Entry> entry = require_entry(name);
  serve::ServiceStats stats;
  entry->tenant.stats.fill(stats);
  stats.workers = executor_.workers();
  stats.queue_depth = entry->tenant.in_flight.load();
  return stats;
}

std::size_t CollectionManager::save(const std::string& dir) const {
  std::filesystem::create_directories(dir);

  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::shared_lock lock(registry_mutex_);
    entries.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) entries.push_back(entry);
  }

  serve::io::Writer manifest;
  manifest.raw(std::span(reinterpret_cast<const std::uint8_t*>(kManifestMagic),
                         sizeof(kManifestMagic)));
  manifest.u32(kManifestVersion);
  manifest.u64(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string filename = "collection_" + std::to_string(i) + ".snap";
    const std::shared_ptr<Entry>& entry = entries[i];
    std::shared_lock lock(entry->mutex);
    if (!entry->collection) {
      throw std::invalid_argument{"CollectionManager::save: collection '" + entry->name +
                                  "' was dropped mid-save"};
    }
    entry->collection->save_file(dir + "/" + filename);
    manifest.str(entry->name);
    manifest.str(filename);
  }
  serve::io::write_file(dir + "/" + kManifestName, manifest.buffer());
  return entries.size();
}

std::size_t CollectionManager::load(const std::string& dir) {
  const std::vector<std::uint8_t> bytes = serve::io::read_file(dir + "/" + kManifestName);
  if (bytes.size() < sizeof(kManifestMagic) ||
      std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    throw serve::io::SnapshotError{"bad manifest magic in '" + dir + "'"};
  }
  serve::io::Reader in(
      std::span<const std::uint8_t>(bytes).subspan(sizeof(kManifestMagic)));
  const std::uint32_t version = in.u32();
  if (version != kManifestVersion) {
    throw serve::io::SnapshotError{"unknown manifest version " + std::to_string(version)};
  }
  const std::size_t count = in.checked_count(in.u64(), 16);
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string name = in.str();
    const std::string filename = in.str();
    serve::io::require_payload(!name.empty(), "empty collection name in manifest");
    serve::io::require_payload(!filename.empty(), "empty snapshot filename in manifest");
    serve::io::require_payload(filename.find('/') == std::string::npos &&
                                   filename.find("..") == std::string::npos,
                               "manifest filename escapes the snapshot directory");

    std::unique_ptr<Collection> collection = Collection::load_file(dir + "/" + filename);
    serve::io::require_payload(collection->collection_name() == name,
                               "manifest name disagrees with snapshot store block");

    register_entry(name, std::move(collection), "CollectionManager::load");
    ++loaded;
  }
  in.expect_end();
  return loaded;
}

std::shared_ptr<CollectionManager::Entry> CollectionManager::find_entry(
    const std::string& name) const {
  std::shared_lock lock(registry_mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<CollectionManager::Entry> CollectionManager::require_entry(
    const std::string& name) const {
  std::shared_ptr<Entry> entry = find_entry(name);
  if (!entry) {
    throw std::invalid_argument{"CollectionManager: no collection named '" + name + "'"};
  }
  return entry;
}

void CollectionManager::stop() { executor_.stop(); }

}  // namespace mcam::store
