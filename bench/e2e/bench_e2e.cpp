// End-to-end serving benchmark: one workload through the public serving
// fronts (store::CollectionManager / serve::QueryService), driven by one
// load-generator thread, with every answer it can check checked.
//
//   bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//
// The process pins itself, and so the fronts' worker threads, to one CPU,
// and normalises every host time by a reference kernel run beside it on
// that CPU (reference.hpp). Phases: the serving build, a warm-up pass over
// the recall set, then five rounds of a fixed number of ops sent one at a
// time, save/restore cycles and spare set-up builds, and last the scored
// recall pass. --trace 1 adds a sequential replay of the first ops against
// a standalone mirror, timing each public call into each layer.
//
// Prints every metric with its unit and sample count, writes them to
// <out>/<workload>-seed<n>-trace<t>.json, and ends stdout with one JSON
// line: {"correct", "attempted", "failed", "metrics"} - the end-to-end
// metrics, or with --trace 1 the per-layer ones. Exits 1 when a
// correctness gate fails and 64 on bad usage. A traced run whose children
// outgrew their parent is marked invalid in the result file (compare.py
// drops it) but still exits 0. README.md in this directory documents the
// workloads and metrics.
#include "loadgen.hpp"
#include "reference.hpp"
#include "samples.hpp"
#include "workload.hpp"

#include "obs/exporters.hpp"
#include "search/factory.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace e2e;

/// Fixed per-workload load. `ops_per_s` is about the rate a workload's ops
/// went out at on the sizing host, reference slices included, so that a
/// run's ops take about kLoadShare of --seconds there (README.md, "Sizing").
/// The count is fixed rather than the time, so that filtered-churn's
/// collection goes through the same states on a slow host as on a fast one.
struct Plan {
  const char* name;
  double ops_per_s;
  std::size_t replay_ops;  ///< Ops the traced run replays.
};

constexpr std::array<Plan, 4> kPlans{{
    {"refine-tcam", 140.0, 150},
    {"mcam-variation", 200.0, 100},
    {"tenants-skewed", 25000.0, 2000},
    {"filtered-churn", 200.0, 300},
}};

/// The ops, save/restore cycles and spare builds run in kRounds rounds, so
/// each metric samples the whole run.
constexpr std::size_t kRounds = 5;
constexpr double kLoadShare = 0.6;             ///< Of --seconds, on the sizing host.
constexpr double kSetupSeconds = 0.2;          ///< Spare builds per round: at least 1...
constexpr std::size_t kMaxSetupBuilds = 10;    ///< ...and more until this long, up to this many.
/// A timed step is followed by reference passes for this share of its
/// time (at least one slice), so that a long step's speed is not judged
/// from one millisecond of the host.
constexpr double kStepReferenceShare = 0.1;
constexpr double kMaxChildrenRatio = 1.1;      ///< Traced children vs parent, median.
constexpr std::size_t kRecallWindow = 32;      ///< Recall reads in flight.
constexpr std::size_t kOverheadRounds = 3;     ///< trace.overhead_frac passes per side...
constexpr double kOverheadPassMs = 200.0;      ///< ...each about this long...
constexpr std::size_t kOverheadBlock = 4;      ///< ...in blocks of this many reads.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out = "results/e2e";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "bench_e2e: " << problem
            << "\nusage: bench_e2e --workload <name> --seed <n> [--seconds <s>] "
               "[--trace 0|1] [--out <dir>]\nworkloads:";
  for (const Plan& plan : kPlans) std::cerr << " " << plan.name;
  std::cerr << "\n";
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out") {
        args.out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(args.seconds >= 1.0 && args.seconds <= 120.0)) usage("--seconds must be in [1, 120]");
  return args;
}

/// Shortest decimal that reads back as `value`; a non-finite value prints
/// as the largest double so the line stays JSON.
std::string number(double value) {
  if (!std::isfinite(value)) value = std::numeric_limits<double>::max();
  std::array<char, 64> buffer{};
  const auto end = std::to_chars(buffer.data(), buffer.data() + buffer.size(), value).ptr;
  return {buffer.data(), end};
}

std::string metrics_json(const std::vector<Metric>& metrics, bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::cout << "\n" << title << "\n";
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
}

/// Repeats `step` at least `min_times` times, and then until `seconds`
/// have passed or it ran `max_times` times.
template <typename Step>
void repeat(std::size_t min_times, double seconds, std::size_t max_times, Step&& step) {
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0; n < min_times || (seconds_since(start) < seconds && n < max_times);
       ++n) {
    step();
  }
}

/// Files the seconds `step` measured under `name`, between reference
/// slices.
template <typename Step>
void timed_step(HostClock& clock, Samples& samples, const std::string& name, Step&& step) {
  clock.tick();
  const double seconds = step();
  samples.add_time(name, seconds);
  clock.slice(kStepReferenceShare * seconds);
}

/// The fixed recall set through the serving front, kRecallWindow reads in
/// flight; the replies in recall-set order.
std::vector<Reply> serve_all(Workload& workload, const std::vector<Op>& ops) {
  std::vector<Reply> replies;
  for (std::size_t begin = 0; begin < ops.size(); begin += kRecallWindow) {
    std::vector<Pending> window;
    for (std::size_t i = begin; i < std::min(ops.size(), begin + kRecallWindow); ++i) {
      window.push_back(workload.submit(ops[i]));
    }
    for (Pending& pending : window) replies.push_back(pending.take());
  }
  return replies;
}

/// The recall pass, scored against exact Euclidean ground truth. The fleet
/// is read-only by now, so answers do not depend on the order the front
/// executes them in.
struct RecallPass {
  std::vector<Op> ops;
  std::vector<Reply> live;
  double recall = 0.0;
  double top1 = 0.0;
  std::size_t top1_scored = 0;  ///< Reads top-1 accuracy scores.
  double energy_pj = 0.0;
};

RecallPass recall_pass(Workload& workload, std::vector<std::string>& errors) {
  RecallPass pass;
  pass.ops = workload.recall_set();
  pass.live = serve_all(workload, pass.ops);
  for (std::size_t i = 0; i < pass.ops.size(); ++i) {
    const Reply& reply = pass.live[i];
    if (reply.status != mcam::serve::RequestStatus::kOk) {
      errors.push_back("recall read " + std::to_string(i) + " did not complete OK");
      continue;
    }
    const std::vector<std::size_t> truth = workload.truth(pass.ops[i]);
    const std::set<std::size_t> expected(truth.begin(), truth.end());
    std::size_t hits = 0;
    for (const auto& n : reply.result.neighbors) hits += expected.count(n.index);
    pass.recall += static_cast<double>(hits) / static_cast<double>(expected.size());
    if (const int cluster = workload.cluster_of(pass.ops[i]); cluster >= 0) {
      ++pass.top1_scored;
      pass.top1 += reply.result.label == cluster ? 1.0 : 0.0;
    }
    pass.energy_pj += reply.result.telemetry.energy_j * 1e12;
  }
  const auto n = static_cast<double>(pass.ops.size());
  pass.recall /= n;
  pass.top1 /= static_cast<double>(pass.top1_scored);
  pass.energy_pj /= n;
  return pass;
}

/// Bytes of the snapshot in `dir`.
double snapshot_bytes(const std::filesystem::path& dir) {
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

/// The fleet restored last must answer the recall set exactly as the live
/// one did.
void check_restored(Workload& workload, const RecallPass& recall,
                    std::vector<std::string>& errors) {
  for (std::size_t i = 0; i < recall.ops.size(); ++i) {
    if (recall.live[i].status == mcam::serve::RequestStatus::kOk &&
        !same_answer(workload.query_restored(recall.ops[i]).result, recall.live[i].result)) {
      errors.push_back("restored answer differs from the live one on recall read " +
                       std::to_string(i));
    }
  }
}

/// latency_ms: each op class's median time, weighed by its share of the
/// mix; the median read time for a read-only workload.
double latency_ms(const Workload& workload, const Samples& samples) {
  double sum = 0.0;
  double shares = 0.0;
  for (const OpClass& kind : workload.mix()) {
    sum += kind.share * samples.p50("op." + kind.name);
    shares += kind.share;
  }
  return sum / shares * 1e3;
}

/// 1 - untraced / traced time of the same mirror reads. Each block of
/// kOverheadBlock reads runs twice back to back: with one clock pair
/// around each call (the replay's shape) and with one around the whole
/// block, alternating which goes first. Adjacent blocks share the host's
/// speed, which changes every second or so and would otherwise swamp a
/// per-call cost of a few tens of nanoseconds.
double tracing_overhead(const Workload& workload, std::span<const Op> reads) {
  double traced = 0.0;
  double untraced = 0.0;
  std::size_t turn = 0;
  for (std::size_t round = 0; round < kOverheadRounds; ++round) {
    for (std::size_t begin = 0; begin < reads.size(); begin += kOverheadBlock, ++turn) {
      const std::span<const Op> block =
          reads.subspan(begin, std::min(kOverheadBlock, reads.size() - begin));
      const auto per_call = [&] {
        for (const Op& op : block) {
          const Clock::time_point start = Clock::now();
          (void)workload.mirror_answer(op);
          traced += seconds_since(start);
        }
      };
      const auto whole = [&] {
        const Clock::time_point start = Clock::now();
        for (const Op& op : block) (void)workload.mirror_answer(op);
        untraced += seconds_since(start);
      };
      if (turn % 2 == 0) {
        per_call();
        whole();
      } else {
        whole();
        per_call();
      }
    }
  }
  return 1.0 - untraced / traced;
}

/// The traced run's per-layer metrics: the replay of the first ops on the
/// mirror, plus what the load phases saw of the front. Every layer a
/// workload does not run reports 0 with 0 samples. Clears `valid` when the
/// traced children outgrow their parent.
std::vector<Metric> per_layer_metrics(Workload& workload, const Plan& plan, std::uint64_t seed,
                                      HostClock& clock, Samples& samples, double snapshot,
                                      const RecallPass& recall, bool& valid) {
  mcam::Rng op_rng{seed ^ 0x10adULL};
  std::vector<Op> replayed;
  for (std::size_t i = 0; i < plan.replay_ops; ++i) replayed.push_back(workload.draw_op(op_rng, i));
  clock.slice();
  workload.replay(replayed, samples, [&] { clock.tick(); });
  clock.slice();

  std::vector<Metric> out;
  const auto layer = [&](const std::string& name, const std::string& from, double value,
                         const std::string& unit) {
    out.push_back({name, value, unit, samples.count(from)});
  };
  // A time's median in `unit_s` seconds per unit (1e-3 for ms).
  const auto p50 = [&](const std::string& name, const std::string& from, const std::string& unit,
                       double unit_s) { layer(name, from, samples.p50(from) / unit_s, unit); };
  const auto mean = [&](const std::string& name, const std::string& from,
                        const std::string& unit) {
    layer(name, from, samples.mean(from), unit);
  };

  const std::string front = workload.service_front() ? "serve" : "store";
  const std::string parent = front == "serve" ? "search.query" : "store.query";
  p50("loadgen.read_p50_ms", "load.read", "ms", 1e-3);
  layer("loadgen.read_p99_ms", "load.read", samples.pct("load.read", 99.0) * 1e3, "ms");
  p50("loadgen.write_p50_ms", "load.write", "ms", 1e-3);
  for (const std::string name : {"store", "serve"}) {
    if (name == front) {
      layer(name + ".handoff_p50_us", "load.head",
            (samples.p50("load.head") - samples.p50(parent)) * 1e6, "us");
    } else {
      out.push_back({name + ".handoff_p50_us", 0.0, "us", 0});
    }
  }
  p50("persist.save_p50_ms", "save", "ms", 1e-3);
  p50("persist.restore_p50_ms", "restore", "ms", 1e-3);
  out.push_back({"persist.snapshot_bytes", snapshot, "B", 1});
  p50("store.query_p50_ms", "store.query", "ms", 1e-3);
  p50("store.route_self_p50_ms", "store.route_self", "ms", 1e-3);
  const double band = samples.mean("store.band");
  const double post = samples.mean("store.post");
  layer("store.band_frac", "store.band", band + post > 0.0 ? band / (band + post) : 0.0, "ratio");
  layer("store.post_frac", "store.post", band + post > 0.0 ? post / (band + post) : 0.0, "ratio");
  mean("store.selectivity_mean", "store.selectivity", "ratio");
  p50("store.add_p50_ms", "store.add", "ms", 1e-3);
  p50("store.erase_p50_ms", "store.erase", "ms", 1e-3);
  p50("store.expire_p50_ms", "store.expire", "ms", 1e-3);
  p50("search.query_p50_ms", "search.query", "ms", 1e-3);
  p50("search.self_p50_ms", "search.self", "ms", 1e-3);
  p50("search.nominate_p50_us", "search.nominate", "us", 1e-6);
  p50("search.bank_query_p50_us", "search.bank_query", "us", 1e-6);
  p50("search.merge_p50_us", "search.merge", "us", 1e-6);
  mean("search.coarse_candidates", "search.coarse_candidates", "count");
  mean("search.fine_candidates", "search.fine_candidates", "count");
  mean("search.probes_used", "search.probes_used", "count");
  mean("search.banks_searched", "search.banks_searched", "count");
  mean("search.sense_events", "search.sense_events", "count");
  p50("sig.encode_p50_us", "sig.encode", "us", 1e-6);
  p50("encoding.quantize_p50_us", "encoding.quantize", "us", 1e-6);
  p50("cam.tcam_sweep_p50_ms", "cam.tcam_sweep", "ms", 1e-3);
  p50("cam.mcam_sweep_p50_ms", "cam.mcam_sweep", "ms", 1e-3);
  mean("cam.cells_per_query", "cam.cells", "count");
  p50("cam.ns_per_cell", "cam.cell", "ns", 1e-9);
  out.push_back({"cam.energy_pj_per_query", recall.energy_pj, "pJ", recall.ops.size()});
  p50("distance.rerank_p50_us", "distance.rerank", "us", 1e-6);
  p50("distance.ns_per_candidate", "distance.candidate", "ns", 1e-9);

  std::vector<Op> reads;  // The replayed reads, about kOverheadPassMs worth.
  const double parent_ms = samples.p50(parent) * 1e3;
  for (const Op& op : replayed) {
    if (op.kind == OpKind::kRead && static_cast<double>(reads.size()) * parent_ms < kOverheadPassMs) {
      reads.push_back(op);
    }
  }
  out.push_back({"trace.overhead_frac", tracing_overhead(workload, reads), "ratio", reads.size()});

  std::printf("traced replay of %zu ops; unattributed self time (p50): store.route %.4f ms, "
              "search %.4f ms, bank %.4f ms\n",
              replayed.size(), samples.p50("store.route_self") * 1e3,
              samples.p50("search.self") * 1e3, samples.p50("bank.self") * 1e3);
  for (const char* recon : {"recon.store", "recon.search", "recon.bank"}) {
    if (samples.count(recon) == 0) continue;
    const double ratio = samples.p50(recon);
    std::printf("  children / parent, median over calls: %-13s %.3f\n", recon, ratio);
    if (ratio > kMaxChildrenRatio) {
      valid = false;
      std::printf("INVALID: %s children sum to %.3fx their parent (limit %.2fx)\n", recon, ratio,
                  kMaxChildrenRatio);
    }
  }
  return out;
}

/// The distance-kernel backend the software rerank dispatches to here.
std::string rerank_kernel() {
  mcam::search::EngineConfig config;
  config.num_features = 8;
  auto index = mcam::search::make_index("euclidean", config);
  const std::vector<std::vector<float>> rows(2, std::vector<float>(8, 1.0f));
  index->add(rows, std::vector<int>{0, 1});
  return index->query_one(rows[0], 1).telemetry.kernel;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

int run(const Args& args) {
  const Plan* plan = nullptr;
  for (const Plan& p : kPlans) {
    if (args.workload == p.name) plan = &p;
  }
  if (plan == nullptr) usage("unknown workload " + args.workload);
  // Before any front starts its workers, so that they inherit the CPU.
  const int cpu = pin_to_current_cpu();
  if (cpu < 0) std::cerr << "bench_e2e: could not pin to one CPU; host times will be noisier\n";
  HostClock clock;
  Samples samples{clock};
  std::unique_ptr<Workload> workload = make_workload(plan->name, args.seed);
  std::vector<std::string> errors;

  clock.slice();
  timed_step(clock, samples, "setup", [&] { return workload->build(true); });
  workload->build_mirror();
  (void)serve_all(*workload, workload->recall_set());  // Warm-up.

  const std::filesystem::path snapshot_dir =
      std::filesystem::path{args.out} /
      ("snapshot-" + std::string{plan->name} + "-" + std::to_string(getpid()));
  std::filesystem::remove_all(snapshot_dir);
  std::filesystem::create_directories(snapshot_dir);

  const auto round_ops = static_cast<std::size_t>(
      std::max(1.0, std::round(plan->ops_per_s * args.seconds * kLoadShare / kRounds)));
  mcam::Rng op_rng{args.seed ^ 0x10adULL};
  LoadGenerator generator{*workload, clock, samples, plan->replay_ops};
  for (std::size_t round = 0; round < kRounds; ++round) {
    clock.slice();
    generator.run(op_rng, round_ops);
    clock.slice();
    timed_step(clock, samples, "save", [&] { return workload->save(snapshot_dir.string()); });
    timed_step(clock, samples, "restore", [&] { return workload->restore(snapshot_dir.string()); });
    repeat(1, kSetupSeconds, kMaxSetupBuilds,
           [&] { timed_step(clock, samples, "setup", [&] { return workload->build(false); }); });
  }
  const double snapshot = snapshot_bytes(snapshot_dir);
  workload->verify_after_load();
  const RecallPass recall = recall_pass(*workload, errors);
  check_restored(*workload, recall, errors);
  std::filesystem::remove_all(snapshot_dir);

  const LoadStats& load = generator.stats();
  if (load.sent != load.ok + load.failed) {
    errors.push_back("op accounting: " + std::to_string(load.sent) + " sent, " +
                     std::to_string(load.ok) + " ok, " + std::to_string(load.failed) + " failed");
  }
  std::printf("%s seed=%llu: pinned to cpu %d, reference pass p50 %.3f us (nominal %.1f us); "
              "%zu builds; %zu rounds of %zu ops: %zu ok, %zu failed; %zu save/restore cycles\n",
              plan->name, static_cast<unsigned long long>(args.seed), cpu, clock.pass_p50_us(),
              kNominalPassUs, samples.count("setup"), kRounds, round_ops, load.ok, load.failed,
              samples.count("save"));

  const std::vector<Metric> end_to_end{
      {"setup_s", samples.p50("setup"), "s", samples.count("setup")},
      {"latency_ms", latency_ms(*workload, samples), "ms", load.ok},
      {"recall_at_10", recall.recall, "ratio", recall.ops.size()},
      {"top1_acc", recall.top1, "ratio", recall.top1_scored},
      {"rss_mb", peak_rss_mib(), "MiB", 1},
  };

  bool valid = true;
  const std::vector<Metric> per_layer =
      args.trace ? per_layer_metrics(*workload, *plan, args.seed, clock, samples, snapshot, recall,
                                     valid)
                 : std::vector<Metric>{};

  for (const std::string& failure : workload->failures()) errors.push_back(failure);
  const bool correct = errors.empty();
  for (const std::string& error : errors) std::printf("GATE FAILED: %s\n", error.c_str());
  print_table("end-to-end metrics (host times at nominal host speed)", end_to_end);
  if (args.trace) print_table("per-layer metrics (traced replay)", per_layer);

  std::vector<Metric> all = end_to_end;
  all.insert(all.end(), per_layer.begin(), per_layer.end());
  const std::filesystem::path result_path =
      std::filesystem::path{args.out} / (std::string{plan->name} + "-seed" +
                                         std::to_string(args.seed) + "-trace" +
                                         (args.trace ? "1" : "0") + ".json");
  std::ofstream result{result_path, std::ios::trunc};
  result << "{\"workload\": \"" << plan->name << "\", \"seed\": " << args.seed
         << ", \"seconds\": " << number(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"ops_per_round\": " << round_ops
         << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
         << ", \"cpu\": " << cpu << ", \"reference_pass_us\": " << number(clock.pass_p50_us())
         << ", \"compiler\": \"" << mcam::obs::detail::escape_json(__VERSION__)
         << "\", \"rerank_kernel\": \"" << rerank_kernel() << "\"}"
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"valid\": " << (valid ? "true" : "false") << ", \"attempted\": " << load.sent
         << ", \"failed\": " << load.failed << ", \"metrics\": " << metrics_json(all, true)
         << "}\n";
  if (!result.good()) std::cerr << "bench_e2e: could not write " << result_path << "\n";
  std::printf("[json] %s\n", result_path.string().c_str());

  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << load.sent
            << ", \"failed\": " << load.failed
            << ", \"metrics\": " << metrics_json(args.trace ? per_layer : end_to_end, false)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    std::filesystem::create_directories(args.out);
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "bench_e2e: " << error.what() << "\n";
    return 1;
  }
}
