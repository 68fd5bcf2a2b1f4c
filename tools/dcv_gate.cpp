// dcv_gate — the standalone change-gate server: SecGuru NSG vetting and
// RCDC emulated prechecks as a service (§2.7 + §3.4).
//
// Reads a production topology, builds one warm precheck session (clone +
// cold converge + baseline validation, paid once) and an NSG FastEngine
// pool, then serves until SIGINT/SIGTERM (or --duration-sec):
//
//   POST /precheck   change plan in the dcv_precheck format
//   POST /nsg-check  ?vnet=NAME&space=CIDR&db=0|1, body = NSG table
//   GET  /gatez      gate counters; plus /metrics /healthz /readyz
//
// Exit 0 on clean shutdown.
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "gate/gate_service.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "topology/topology_io.hpp"

namespace {

using namespace dcv;

void usage() {
  std::cerr <<
      "usage: dcv_gate --topology FILE [options]\n"
      "  --port N             HTTP port (default 0 = ephemeral; the bound\n"
      "                       port is printed on startup)\n"
      "  --threads N          precheck validation threads (default 0 =\n"
      "                       hardware-aware)\n"
      "  --nsg-engines N      pooled FastEngines for /nsg-check (default 2)\n"
      "  --http-workers N     handler threads (default 4)\n"
      "  --http-queue N       admission queue bound; beyond it requests\n"
      "                       are answered 429 (default 32)\n"
      "  --max-connections N  open-connection cap (default 64)\n"
      "  --ready-saturation T /readyz fails above this queue saturation\n"
      "                       (default 0.9)\n"
      "  --duration-sec N     serve for N seconds then exit (default 0 =\n"
      "                       until SIGINT/SIGTERM)\n";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "dcv_gate: cannot read " << path << "\n";
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::string topology_path;
  std::uint16_t port = 0;
  unsigned threads = 0;
  std::size_t nsg_engines = 2;
  unsigned http_workers = 4;
  std::size_t http_queue = 32;
  std::size_t max_connections = 64;
  double ready_saturation = 0.9;
  std::uint64_t duration_sec = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "dcv_gate: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--topology") {
      topology_path = value();
    } else if (flag == "--port") {
      port = static_cast<std::uint16_t>(std::stoul(value()));
    } else if (flag == "--threads") {
      threads = static_cast<unsigned>(std::stoul(value()));
    } else if (flag == "--nsg-engines") {
      nsg_engines = std::stoull(value());
    } else if (flag == "--http-workers") {
      http_workers = static_cast<unsigned>(std::stoul(value()));
    } else if (flag == "--http-queue") {
      http_queue = std::stoull(value());
    } else if (flag == "--max-connections") {
      max_connections = std::stoull(value());
    } else if (flag == "--ready-saturation") {
      ready_saturation = std::stod(value());
    } else if (flag == "--duration-sec") {
      duration_sec = std::stoull(value());
    } else if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "dcv_gate: unknown flag '" << flag << "'\n";
      usage();
      return 2;
    }
  }
  if (topology_path.empty()) {
    usage();
    return 2;
  }

  try {
    const topo::Topology production =
        topo::parse_topology(slurp(topology_path));

    obs::MetricsRegistry registry;
    gate::GateConfig gate_config;
    gate_config.precheck_threads = threads;
    gate_config.nsg_engines = nsg_engines;
    gate_config.metrics = &registry;
    std::cerr << "dcv_gate: building warm precheck session ("
              << production.device_count() << " devices)...\n";
    gate::GateService service(production, gate_config);

    obs::TelemetryServerConfig server_config;
    server_config.port = port;
    server_config.worker_threads = http_workers;
    server_config.max_queued_requests = http_queue;
    server_config.max_connections = max_connections;
    server_config.http_metrics = &registry;
    server_config.mount = [&service](obs::HttpServer& http) {
      service.attach(http);
    };
    // Liveness is unconditional; readiness follows serving saturation.
    const obs::HealthProbe probe = service.wrap_probe(
        [] {
          return obs::HealthSnapshot{.alive = true, .ready = true};
        },
        ready_saturation);
    obs::TelemetryServer server(&registry, nullptr, probe, server_config);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::cout << "dcv_gate: serving /precheck /nsg-check /gatez /metrics "
                 "/healthz /readyz on port "
              << server.port() << "\n";
    std::cout.flush();

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(duration_sec);
    while (!g_stop && (duration_sec == 0 ||
                       std::chrono::steady_clock::now() < deadline)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.stop();
    std::cout << "dcv_gate: " << service.prechecks_served() << " prechecks, "
              << service.nsg_checks_served() << " nsg checks"
              << (g_stop ? " (stopped by signal)" : "") << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "dcv_gate: " << error.what() << "\n";
    return 1;
  }
}
