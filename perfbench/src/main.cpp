// dcv_perfbench: one benchmark for the whole system. Each invocation runs
// one workload and prints, as its last stdout line, one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run also records benchmark-side spans around every layer call, writes
// a Chrome/Perfetto trace plus a self-time table into --out-dir, and the
// metrics are the per-layer set. --self-test feeds every correctness
// check a known-wrong answer and fails unless each check rejects it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every workload with --trace 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_bytes", "bytes"},
    {"op_ms_p50", "ms"},
    {"ops_per_s", "1/s"},
};

/// Reported with --trace 1. A workload that does not exercise a layer
/// reports 0 for that layer's metrics (see the README's ledger table).
constexpr MetricSpec kPerLayer[] = {
    {"topology.build_s", "s"},
    {"topology.rss_bytes", "bytes"},
    {"routing.converge_s", "s"},
    {"routing.converge_rounds", "count"},
    {"routing.routes", "count"},
    {"routing.route_state_bytes", "bytes"},
    {"routing.path_table_bytes", "bytes"},
    {"routing.converge_rss_bytes", "bytes"},
    {"routing.fib_s", "s"},
    {"routing.fib_rules", "count"},
    {"routing.fib_rss_bytes", "bytes"},
    {"routing.reconverge_ms", "ms"},
    {"routing.reconverge_rounds", "count"},
    {"routing.changed_devices", "count"},
    {"rcdc.plan_s", "s"},
    {"rcdc.plan_rss_bytes", "bytes"},
    {"rcdc.contracts", "count"},
    {"rcdc.verify_s", "s"},
    {"rcdc.contracts_per_s", "1/s"},
    {"rcdc.report_s", "s"},
    {"rcdc.report_bytes", "bytes"},
    {"rcdc.cycle_ms", "ms"},
    {"rcdc.fetch_ms", "ms"},
    {"rcdc.verify_ms", "ms"},
    {"rcdc.devices_revalidated", "count"},
    {"rcdc.revalidate_share", "ratio"},
    {"rcdc.precheck_ms", "ms"},
    {"rcdc.precheck_devices_revalidated", "count"},
    {"gate.precheck_handler_ms", "ms"},
    {"gate.nsg_handler_ms", "ms"},
    {"gate.batch_size", "count"},
    {"obs.http_overhead_ms", "ms"},
    {"secguru.nsg_check_ms", "ms"},
    {"secguru.smt_fallbacks", "count"},
    {"dist.assign_bytes_per_device", "bytes"},
    {"dist.result_bytes_per_device", "bytes"},
    {"dist.contracts_checked", "count"},
    {"dist.shard_busy_s", "s"},
    {"dist.send_s", "s"},
    {"ledger.unattributed_rss_bytes", "bytes"},
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "dcv_perfbench: %s\n"
               "usage: dcv_perfbench --workload fabric-cold|monitor-churn|"
               "gate-mix|fleet-warm --seed N --seconds S --trace 0|1\n"
               "                     --out-dir DIR [--worker-bin PATH] "
               "[--self-test]\n",
               message.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        options.workload = value();
      } else if (flag == "--seed") {
        options.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value());
      } else if (flag == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (flag == "--self-test") {
        options.self_test = true;
      } else if (flag == "--worker-bin") {
        options.worker_bin = value();
      } else if (flag == "--out-dir") {
        options.out_dir = value();
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag);
    }
  }
  if (options.workload.empty()) usage_error("--workload is required");
  if (options.out_dir.empty()) usage_error("--out-dir is required");
  if (!(options.seconds > 0.0)) usage_error("--seconds must be positive");
  return options;
}

/// JSON number with every digit the double carries.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  return format("%.17g", value);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  std::filesystem::create_directories(options.out_dir);

  Tracer tracer(options.trace);
  Checks checks(options.self_test);
  RunOutput out;
  try {
    if (options.workload == "fabric-cold") {
      run_fabric_cold(options, tracer, checks, out);
    } else if (options.workload == "monitor-churn") {
      run_monitor_churn(options, tracer, checks, out);
    } else if (options.workload == "gate-mix") {
      run_gate_mix(options, tracer, checks, out);
    } else if (options.workload == "fleet-warm") {
      run_fleet_warm(options, tracer, checks, out);
    } else {
      usage_error("unknown workload " + options.workload);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dcv_perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }

  std::fprintf(stderr, "== %s seed %llu (%s) ==\n", options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? "traced" : "untraced");
  for (const auto& [name, value_unit] : out.named) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", name.c_str(),
                 value_unit.first, value_unit.second.c_str());
  }
  for (const std::string& note : out.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  for (const auto& [name, count] : checks.counts()) {
    std::fprintf(stderr, "  check %-40s x%llu\n", name.c_str(),
                 static_cast<unsigned long long>(count));
  }
  for (const std::string& failure : checks.failures()) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", failure.c_str());
  }

  if (options.trace) {
    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed);
    std::ofstream(stem + ".trace.json") << tracer.chrome_trace();
    const std::string table = tracer.self_time_table();
    std::ofstream(stem + ".selftime.txt") << table;
    std::fprintf(stderr, "\nself time per layer (trace: %s.trace.json)\n%s",
                 stem.c_str(), table.c_str());
  }

  if (options.self_test) {
    bool all_rejected = !checks.self_test_results().empty();
    for (const auto& [name, rejected] : checks.self_test_results()) {
      std::fprintf(stderr, "  self-test %-40s %s\n", name.c_str(),
                   rejected ? "rejected the wrong answer"
                            : "ACCEPTED THE WRONG ANSWER");
      all_rejected = all_rejected && rejected;
    }
    std::printf("{\"self_test\": %s, \"checks\": %zu, \"correct\": %s}\n",
                all_rejected ? "true" : "false",
                checks.self_test_results().size(),
                checks.ok() ? "true" : "false");
    return all_rejected && checks.ok() ? 0 : 1;
  }

  std::string metrics;
  const auto emit = [&](const MetricSpec& spec, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += format("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", spec.name,
                      number(value).c_str(), spec.unit);
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = out.layer.find(spec.name);
      emit(spec, it == out.layer.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = out.e2e.find(spec.name);
      if (it == out.e2e.end()) {
        std::fprintf(stderr, "dcv_perfbench: %s did not measure %s\n",
                     options.workload.c_str(), spec.name);
        return 1;
      }
      emit(spec, it->second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}
