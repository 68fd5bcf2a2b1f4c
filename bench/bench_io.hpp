#pragma once

// Shared --json reporting for the bench suite: every bench emits one
// BENCH_<name>.json in the dcv-bench-v1 schema so scripts/bench_compare.py
// can diff any two snapshots (same bench, different commits) and gate on
// hot-path regressions:
//
//   {
//     "schema": "dcv-bench-v1",
//     "bench": "<name>",
//     "workload": {"devices": 1248, ...},            // params, repeatability
//     "metrics": {
//       "<metric>": {"unit": "ns", "better": "lower", "count": N,
//                    "mean": ..., "min": ..., "p10": ..., "p50": ...,
//                    "p90": ..., "p99": ..., "max": ...},
//       ...
//     },
//     "registry": {...} | null                        // obs snapshot
//   }
//
// "better" tells the comparator the regression direction: "lower" for
// latencies, "higher" for throughputs, "none" for informational values
// that must not gate.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"

namespace dcv::benchio {

inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

inline std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void workload(const std::string& key, double value) {
    workload_.emplace_back(key, format_number(value));
  }
  void workload(const std::string& key, const std::string& value) {
    workload_.emplace_back(key, "\"" + json_escape(value) + "\"");
  }

  /// Records a metric from raw samples; percentiles by nearest rank.
  void metric(const std::string& name, const std::string& unit,
              std::vector<double> samples,
              const std::string& better = "lower") {
    if (samples.empty()) return;
    std::sort(samples.begin(), samples.end());
    const auto rank = [&](double q) {
      const auto index = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(samples.size())));
      return samples[std::min(samples.size() - 1,
                              index == 0 ? 0 : index - 1)];
    };
    double sum = 0.0;
    for (const double s : samples) sum += s;
    Metric m{name, unit, better, samples.size(),
             sum / static_cast<double>(samples.size()),
             samples.front(), rank(0.10), rank(0.50), rank(0.90),
             rank(0.99), samples.back()};
    metrics_.push_back(std::move(m));
  }

  /// Single-observation convenience (count 1, all percentiles the value).
  void value(const std::string& name, const std::string& unit, double v,
             const std::string& better = "lower") {
    metric(name, unit, {v}, better);
  }

  /// Embeds a snapshot of the registry at write time.
  void attach_registry(const obs::MetricsRegistry* registry) {
    registry_ = registry;
  }

  /// Writable-registry variant: additionally refreshes the
  /// dcv_process_*_rss_bytes gauges right before the snapshot is taken, so
  /// the embedded registry carries the process footprint at report time.
  void attach_registry(obs::MetricsRegistry* registry) {
    registry_ = registry;
    mutable_registry_ = registry;
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"schema\":\"dcv-bench-v1\",\"bench\":\"" +
                      json_escape(name_) + "\",\"workload\":{";
    bool first = true;
    for (const auto& [key, value] : workload_) {
      if (!first) out += ',';
      first = false;
      out += "\"" + json_escape(key) + "\":" + value;
    }
    out += "},\"metrics\":{";
    first = true;
    const auto emit = [&](const Metric& m) {
      if (!first) out += ',';
      first = false;
      out += "\"" + json_escape(m.name) + "\":{\"unit\":\"" +
             json_escape(m.unit) + "\",\"better\":\"" + m.better +
             "\",\"count\":" + std::to_string(m.count) +
             ",\"mean\":" + format_number(m.mean) +
             ",\"min\":" + format_number(m.min) +
             ",\"p10\":" + format_number(m.p10) +
             ",\"p50\":" + format_number(m.p50) +
             ",\"p90\":" + format_number(m.p90) +
             ",\"p99\":" + format_number(m.p99) +
             ",\"max\":" + format_number(m.max) + "}";
    };
    for (const Metric& m : metrics_) emit(m);
    // Every report carries the process footprint at serialization time;
    // "none" keeps the comparator from gating on allocator noise.
    const obs::ProcessStats stats = obs::read_process_stats();
    const auto footprint = [](std::string name, double v) {
      return Metric{std::move(name), "bytes", "none", 1, v, v, v, v, v, v,
                    v};
    };
    emit(footprint("process_rss_bytes",
                   static_cast<double>(stats.rss_bytes)));
    emit(footprint("process_peak_rss_bytes",
                   static_cast<double>(stats.peak_rss_bytes)));
    out += "},\"registry\":";
    if (mutable_registry_ != nullptr) {
      obs::sample_process_gauges(*mutable_registry_);
    }
    out += registry_ != nullptr ? obs::write_json(*registry_) : "null";
    return out + "}";
  }

  /// Atomic write (tmp + rename); prints and returns false on failure.
  bool write(const std::string& path) const {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp);
      if (!out) {
        std::fprintf(stderr, "bench: cannot write %s\n", tmp.c_str());
        return false;
      }
      out << to_json();
      if (!out.good()) return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::fprintf(stderr, "bench: cannot rename %s\n", tmp.c_str());
      return false;
    }
    std::printf("bench: wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    std::string better;
    std::size_t count;
    double mean, min, p10, p50, p90, p99, max;
  };

  std::string name_;
  std::vector<std::pair<std::string, std::string>> workload_;
  std::vector<Metric> metrics_;
  const obs::MetricsRegistry* registry_ = nullptr;
  obs::MetricsRegistry* mutable_registry_ = nullptr;
};

/// Extracts "--json OUT" from argv (compacting argc/argv so benches that
/// forward the remaining args, e.g. to google-benchmark, never see it).
/// Returns the output path, or "" when the flag is absent.
inline std::string extract_json_flag(int& argc, char** argv) {
  std::string out;
  int write_index = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      out = argv[++i];
      continue;
    }
    argv[write_index++] = argv[i];
  }
  argc = write_index;
  return out;
}

}  // namespace dcv::benchio
