// Shared helpers for the figure-regeneration benches.
//
// Every bench prints the rows/series of the paper artifact it reproduces
// and mirrors the table to results/<name>.csv for EXPERIMENTS.md. Benches
// that gate CI additionally publish their headline numbers through a
// BenchReport - machine-readable JSON a dashboard or regression tracker
// can ingest without scraping stdout.
#pragma once

#include "cam/kernels/kernels.hpp"
#include "obs/exporters.hpp"
#include "util/table.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace mcam::bench {

/// Ensures ./results exists and returns the CSV path for `name`.
inline std::string csv_path(const std::string& name) {
  const std::filesystem::path dir{"results"};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return (dir / (name + ".csv")).string();
}

/// Prints the table and writes its CSV; never throws out of a bench main.
inline void emit(const TextTable& table, const std::string& name) {
  table.print(std::cout);
  try {
    const std::string path = table.write_csv(csv_path(name));
    std::cout << "[csv] " << path << "\n\n";
  } catch (const std::exception& e) {
    std::cout << "[csv] skipped (" << e.what() << ")\n\n";
  }
}

/// Machine-readable bench telemetry: one `BENCH_<name>.json` file of
/// named metrics (value + unit), free-form notes, and host facts (cores,
/// compiler, arch, build type and the dispatched CAM backend), which
/// CI uploads as an artifact. Opt-in: enabled by a `--json` argv flag
/// (writes under ./results) or the MCAM_BENCH_JSON environment variable
/// (its value is the output directory). Disabled, every call is a no-op,
/// so benches record unconditionally.
class BenchReport {
 public:
  BenchReport(std::string name, int argc = 0, char** argv = nullptr)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view{argv[i]} == "--json") dir_ = "results";
    }
    const char* env = std::getenv("MCAM_BENCH_JSON");
    if (env != nullptr && *env != '\0') dir_ = env;
  }

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }

  /// Records one headline number, e.g. metric("qps", 1.2e5, "1/s").
  void metric(const std::string& metric_name, double value, const std::string& unit) {
    if (enabled()) metrics_.push_back({metric_name, value, unit});
  }

  /// Records one free-form key/value fact (config, dataset shape, ...).
  void note(const std::string& key, const std::string& value) {
    if (enabled()) notes_.emplace_back(key, value);
  }

  /// Writes <dir>/BENCH_<name>.json and logs the path. No-op when
  /// disabled; never throws out of a bench main.
  void write() {
    if (!enabled()) return;
    using obs::detail::escape_json;
    using obs::detail::format_number;
    std::string out = "{\"bench\":\"";
    out += escape_json(name_);
    out += "\",\"host\":{\"cores\":";
    out += std::to_string(std::thread::hardware_concurrency());
    out += ",\"compiler\":\"";
    out += escape_json(compiler());
    out += "\",\"arch\":\"";
    out += arch();
    out += "\",\"build\":\"";
    out += build_flags();
    // The CAM sweep backend that ran, so files from AVX-512 and other
    // hosts can be told apart.
    out += "\",\"cam_kernel\":\"";
    out += cam::kernels::active_ops().name;
    out += "\"},\"notes\":{";
    bool first = true;
    for (const auto& [key, value] : notes_) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += escape_json(key);
      out += "\":\"";
      out += escape_json(value);
      out += "\"";
    }
    out += "},\"metrics\":[";
    first = true;
    for (const Metric& metric : metrics_) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"";
      out += escape_json(metric.name);
      out += "\",\"value\":";
      out += format_number(metric.value);
      out += ",\"unit\":\"";
      out += escape_json(metric.unit);
      out += "\"}";
    }
    out += "]}\n";
    try {
      std::error_code ec;
      std::filesystem::create_directories(dir_, ec);
      const std::string path =
          (std::filesystem::path{dir_} / ("BENCH_" + name_ + ".json")).string();
      std::ofstream file{path, std::ios::trunc};
      file << out;
      if (file.good()) {
        std::cout << "[json] " << path << "\n";
      } else {
        std::cout << "[json] skipped (write failed: " << path << ")\n";
      }
    } catch (const std::exception& e) {
      std::cout << "[json] skipped (" << e.what() << ")\n";
    }
  }

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  static const char* compiler() {
#if defined(__VERSION__)
    return __VERSION__;
#else
    return "unknown";
#endif
  }

  static const char* arch() {
#if defined(__x86_64__) || defined(_M_X64)
    return "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
    return "aarch64";
#else
    return "unknown";
#endif
  }

  static const char* build_flags() {
#if defined(NDEBUG)
    return "release";
#else
    return "debug";
#endif
  }

  std::string name_;
  std::string dir_;  ///< Empty = disabled.
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

}  // namespace mcam::bench
