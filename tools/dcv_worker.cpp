// dcv_worker — one validation worker of a distributed RCDC fleet.
//
// Connects to a coordinator (rcdc_validate --workers/--listen), loads the
// same topology file and plans every device's contracts from it, then
// serves shard assignments: fetch each assigned device's table through the
// local fib-source stack and fingerprint it. A table whose fingerprint
// matches the one the coordinator sent is reported as replayed (the
// coordinator holds its verdict); any other is checked against the local
// plan. The result (summary, fresh violations, per-device reports,
// serialized metrics registry) streams back. The hello carries the
// topology's epoch and digest, and a coordinator planning from a different
// topology refuses the worker. On connection loss it reconnects with
// exponential backoff; on kShutdown it exits 0.
#include <unistd.h>

#include <charconv>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "dist/transport.hpp"
#include "dist/worker.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/flaky_fib_source.hpp"
#include "rcdc/resilient_fib_source.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "routing/fib_synthesizer.hpp"
#include "routing/table_io.hpp"
#include "topology/topology_io.hpp"

namespace {

using namespace dcv;

void usage() {
  std::cerr <<
      "usage: dcv_worker --connect HOST:PORT --topology FILE [options]\n"
      "  --topology FILE      expected topology: contracts are planned\n"
      "                       from it, and it must be the coordinator's\n"
      "  --tables DIR         per-device routing tables (<name>.rt);\n"
      "                       default: simulate EBGP over recorded state\n"
      "  --source sim|synth   table source when --tables is absent:\n"
      "                       sim (EBGP simulation, default) or synth\n"
      "                       (O(1)-memory synthesized converged FIBs)\n"
      "  --verifier V         trie (default), smt, or linear\n"
      "  --worker-id NAME     identity in coordinator metrics (default\n"
      "                       w<pid>)\n"
      "  --fetch-latency-us N simulated per-device pull latency (the\n"
      "                       paper's 200-800 ms acquisition cost;\n"
      "                       default 0)\n"
      "  --time-scale X       scale factor on the simulated latency\n"
      "                       (default 1.0)\n"
      "  --reconnect-attempts N   consecutive failed connects before\n"
      "                       giving up (default 10)\n"
      "  --reconnect-backoff-ms N initial reconnect backoff, doubled per\n"
      "                       attempt, capped at 5 s (default 100)\n"
      "fault injection (per-attempt probabilities, worker-local):\n"
      "  --flaky-timeout R --flaky-transient R --flaky-truncate R\n"
      "  --flaky-corrupt R --flaky-unreachable R --flaky-seed N\n"
      "local telemetry dumps (written once, at exit):\n"
      "  --metrics-out FILE   dump this worker's metrics registry\n"
      "  --metrics-format F   prom (default) or json\n"
      "  --trace-out FILE     dump this worker's own span timeline as a\n"
      "                       Chrome/Perfetto trace (the coordinator merges\n"
      "                       the same spans fleet-wide)\n"
      "  --trace-capacity N   span ring capacity (default 4096)\n"
      "  --quiet              suppress per-connection log lines\n";
}

/// Atomic-enough file write: temp file in the same directory, then rename,
/// so a reader never sees a half-written dump.
bool write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "dcv_worker: cannot read " << path << "\n";
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// FIBs parsed from a directory of routing-table files (same format as
/// rcdc_validate --tables).
class FileFibSource final : public rcdc::FibSource {
 public:
  FileFibSource(std::string directory, const topo::Topology& topology)
      : directory_(std::move(directory)), topology_(&topology) {}

  [[nodiscard]] routing::ForwardingTable fetch(
      topo::DeviceId device) const override {
    const auto path = std::filesystem::path(directory_) /
                      (topology_->device(device).name + ".rt");
    return routing::to_forwarding_table(
        routing::parse_routing_table(slurp(path.string())), *topology_);
  }

 private:
  std::string directory_;
  const topo::Topology* topology_;
};

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::string connect_spec;
  std::string topology_path;
  std::string tables_dir;
  std::string source_name = "sim";
  std::string verifier_name = "trie";
  std::string worker_id;
  std::string metrics_out;
  std::string metrics_format = "prom";
  std::string trace_out;
  std::uint64_t trace_capacity = 4096;
  std::uint64_t fetch_latency_us = 0;
  double time_scale = 1.0;
  dist::ReconnectPolicy reconnect;
  rcdc::FlakyConfig flaky;
  bool use_flaky = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "dcv_worker: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto count_value = [&]() -> std::uint64_t {
      const auto text = value();
      std::uint64_t n = 0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), n);
      if (ec != std::errc{} || ptr != text.data() + text.size()) {
        std::cerr << "dcv_worker: " << flag
                  << " wants a non-negative integer, got '" << text << "'\n";
        std::exit(2);
      }
      return n;
    };
    const auto rate_value = [&] {
      use_flaky = true;
      const auto text = value();
      double rate = 0.0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), rate);
      if (ec != std::errc{} || ptr != text.data() + text.size() ||
          rate < 0.0 || rate > 1.0) {
        std::cerr << "dcv_worker: " << flag << " wants a rate in [0,1]\n";
        std::exit(2);
      }
      return rate;
    };
    if (flag == "--connect") {
      connect_spec = value();
    } else if (flag == "--topology") {
      topology_path = value();
    } else if (flag == "--tables") {
      tables_dir = value();
    } else if (flag == "--source") {
      source_name = value();
    } else if (flag == "--verifier") {
      verifier_name = value();
    } else if (flag == "--worker-id") {
      worker_id = value();
    } else if (flag == "--metrics-out") {
      metrics_out = value();
    } else if (flag == "--metrics-format") {
      metrics_format = value();
      if (metrics_format != "prom" && metrics_format != "json") {
        std::cerr << "dcv_worker: --metrics-format wants prom or json\n";
        return 2;
      }
    } else if (flag == "--trace-out") {
      trace_out = value();
    } else if (flag == "--trace-capacity") {
      trace_capacity = count_value();
      if (trace_capacity == 0) {
        std::cerr << "dcv_worker: --trace-capacity wants a positive count\n";
        return 2;
      }
    } else if (flag == "--fetch-latency-us") {
      fetch_latency_us = count_value();
    } else if (flag == "--time-scale") {
      const auto text = value();
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), time_scale);
      if (ec != std::errc{} || ptr != text.data() + text.size() ||
          time_scale < 0.0) {
        std::cerr << "dcv_worker: --time-scale wants a non-negative number\n";
        return 2;
      }
    } else if (flag == "--reconnect-attempts") {
      reconnect.max_attempts = static_cast<std::uint32_t>(count_value());
    } else if (flag == "--reconnect-backoff-ms") {
      reconnect.initial_backoff = std::chrono::milliseconds(count_value());
    } else if (flag == "--flaky-timeout") {
      flaky.timeout_rate = rate_value();
    } else if (flag == "--flaky-transient") {
      flaky.transient_rate = rate_value();
    } else if (flag == "--flaky-truncate") {
      flaky.truncate_rate = rate_value();
    } else if (flag == "--flaky-corrupt") {
      flaky.corrupt_rate = rate_value();
    } else if (flag == "--flaky-unreachable") {
      flaky.unreachable_rate = rate_value();
    } else if (flag == "--flaky-seed") {
      flaky.seed = count_value();
    } else if (flag == "--quiet") {
      quiet = true;
    } else if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "dcv_worker: unknown flag '" << flag << "'\n";
      usage();
      return 2;
    }
  }
  const auto colon = connect_spec.rfind(':');
  if (topology_path.empty() || connect_spec.empty() ||
      colon == std::string::npos) {
    usage();
    return 2;
  }
  const std::string host = connect_spec.substr(0, colon);
  std::uint16_t port = 0;
  {
    const std::string text = connect_spec.substr(colon + 1);
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), port);
    if (ec != std::errc{} || ptr != text.data() + text.size() || port == 0) {
      std::cerr << "dcv_worker: bad port in '" << connect_spec << "'\n";
      return 2;
    }
  }
  if (worker_id.empty()) {
    worker_id = "w" + std::to_string(::getpid());
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    const topo::Topology topology = topo::parse_topology(slurp(topology_path));
    const topo::MetadataService metadata(topology);
    obs::MetricsRegistry registry;
    std::unique_ptr<obs::TraceRing> trace;
    if (!trace_out.empty()) {
      trace = std::make_unique<obs::TraceRing>(
          static_cast<std::size_t>(trace_capacity));
      trace->attach_metrics(registry);
    }
    const auto dump_telemetry = [&] {
      if (!metrics_out.empty()) {
        const std::string body = metrics_format == "json"
                                     ? obs::write_json(registry)
                                     : obs::write_prometheus(registry);
        if (!write_file_atomic(metrics_out, body)) {
          std::cerr << "dcv_worker: cannot write " << metrics_out << "\n";
        }
      }
      if (trace != nullptr &&
          !write_file_atomic(trace_out, obs::write_chrome_trace(*trace))) {
        std::cerr << "dcv_worker: cannot write " << trace_out << "\n";
      }
    };

    std::unique_ptr<routing::BgpSimulator> simulator;
    std::unique_ptr<routing::FibSynthesizer> synthesizer;
    std::unique_ptr<rcdc::FibSource> fibs;
    if (!tables_dir.empty()) {
      fibs = std::make_unique<FileFibSource>(tables_dir, topology);
    } else if (source_name == "synth") {
      synthesizer = std::make_unique<routing::FibSynthesizer>(metadata);
      fibs = std::make_unique<rcdc::SynthesizedFibSource>(*synthesizer);
    } else if (source_name == "sim") {
      simulator = std::make_unique<routing::BgpSimulator>(topology);
      fibs = std::make_unique<rcdc::SimulatorFibSource>(*simulator);
    } else {
      std::cerr << "dcv_worker: --source wants sim or synth, got '"
                << source_name << "'\n";
      return 2;
    }
    std::unique_ptr<rcdc::FlakyFibSource> flaky_source;
    const rcdc::FibSource* active = fibs.get();
    if (use_flaky) {
      flaky_source = std::make_unique<rcdc::FlakyFibSource>(*active, flaky);
      active = flaky_source.get();
    }

    const rcdc::VerifierFactory factory =
        verifier_name == "smt"      ? rcdc::make_smt_verifier_factory(&registry)
        : verifier_name == "linear" ? rcdc::make_linear_verifier_factory(
                                          &registry)
                                    : rcdc::make_trie_verifier_factory(
                                          &registry);

    dist::WorkerSessionConfig session_config;
    session_config.id = worker_id;
    session_config.fetch_latency = std::chrono::microseconds(fetch_latency_us);
    session_config.time_scale = time_scale;
    session_config.metrics = &registry;
    session_config.trace = trace.get();
    dist::WorkerSession session(metadata, *active, factory, session_config);

    rcdc::SystemFetchClock clock;
    std::uint32_t failed_connects = 0;
    while (g_stop == 0) {
      auto transport =
          dist::connect_tcp(host, port, std::chrono::milliseconds(3000));
      if (transport == nullptr) {
        ++failed_connects;
        if (failed_connects >= reconnect.max_attempts) {
          std::cerr << "dcv_worker: " << worker_id << ": coordinator at "
                    << connect_spec << " unreachable after "
                    << failed_connects << " attempts\n";
          dump_telemetry();
          return 1;
        }
        clock.sleep_for(reconnect_backoff(reconnect, failed_connects + 1));
        continue;
      }
      failed_connects = 0;
      if (!quiet) {
        std::cerr << "dcv_worker: " << worker_id << ": connected to "
                  << connect_spec << "\n";
      }
      const std::uint64_t before = session.shards_validated();
      const dist::SessionEnd end = session.run(*transport);
      if (end == dist::SessionEnd::kShutdown) {
        if (!quiet) {
          std::cerr << "dcv_worker: " << worker_id << ": shutdown ("
                    << session.shards_validated() << " shards validated)\n";
        }
        dump_telemetry();
        return 0;
      }
      // Connection lost. A session that did real work earns a fresh
      // reconnect budget; a rejected/immediately-dropped one burns it.
      if (session.shards_validated() == before) ++failed_connects;
      if (failed_connects >= reconnect.max_attempts) {
        std::cerr << "dcv_worker: " << worker_id
                  << ": giving up after repeated connection losses\n";
        dump_telemetry();
        return 1;
      }
      clock.sleep_for(reconnect_backoff(reconnect, failed_connects + 1));
    }
    dump_telemetry();
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "dcv_worker: " << error.what() << "\n";
    return 1;
  }
}
