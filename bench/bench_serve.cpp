// Change-gate serving: what concurrency buys at the precheck front door.
//
// Three experiment rows, all over real loopback sockets against the
// production HttpServer:
//
//  1. Concurrency overlap (the CI gate). A handler that waits ~5 ms —
//     standing in for the emulator/device-IO wait that dominates a real
//     precheck — is served once by a deliberately serialized server
//     (1 worker, 1 connection slot: the pre-refactor accept loop) and once
//     by the concurrent server (8 workers), under the same 8-connection
//     closed-loop load. Because the handler *waits* rather than computes,
//     the speedup measures latency overlap, not CPU parallelism — the
//     claim holds on a 1-core CI box exactly like bench_dist's
//     sleeping-puller fleet. Gate: >= 3x throughput.
//
//  2. Differential serving (the correctness gate). A fixed mix of change
//     plans is answered (a) concurrently through the gate server and (b)
//     one at a time by a fresh gate without a server; response bodies
//     must be byte-identical. Gate: zero mismatches.
//
//  3. Open-loop Poisson storm. Mixed precheck/NSG traffic arrives with
//     exponential inter-arrival times at a swept rate against the full
//     GateService (warm session, engine pool); reports achieved
//     throughput, latency percentiles, and 429 sheds. Informational.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_io.hpp"
#include "gate/gate_service.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "topology/clos_builder.hpp"

namespace {

using namespace dcv;
using Clock = std::chrono::steady_clock;

/// One blocking HTTP request; returns the raw response ("" on error).
std::string http_request(std::uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(wire.size())) {
    ::close(fd);
    return "";
  }
  std::string raw;
  char buffer[8192];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return raw;
}

std::string post_wire(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

int status_of(const std::string& raw) {
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || raw.size() < 12) return 0;
  return std::atoi(raw.substr(9, 3).c_str());
}

std::string body_of(const std::string& raw) {
  const auto split = raw.find("\r\n\r\n");
  return split == std::string::npos ? "" : raw.substr(split + 4);
}

// --- Row 1: concurrency overlap -------------------------------------------

/// Serves `total` requests of a `wait_ms` handler with `connections`
/// closed-loop clients; returns requests/second.
double run_overlap(unsigned workers, std::size_t connection_slots,
                   int wait_ms, int connections, int total) {
  obs::HttpServerConfig config;
  config.worker_threads = workers;
  config.max_connections = connection_slots;
  config.max_queued_requests = 256;
  obs::HttpServer server(config);
  server.add_route("GET", "/wait", [wait_ms](const obs::HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    return obs::HttpResponse{.body = "ok\n"};
  });
  server.start();

  std::atomic<int> remaining{total};
  std::atomic<int> served{0};
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      while (remaining.fetch_sub(1) > 0) {
        if (status_of(http_request(server.port(),
                                   "GET /wait HTTP/1.1\r\n\r\n")) == 200) {
          ++served;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  server.stop();
  if (served.load() != total) {
    std::fprintf(stderr, "bench_serve: overlap row lost requests (%d/%d)\n",
                 served.load(), total);
    std::exit(1);
  }
  return static_cast<double>(total) / wall;
}

// --- Rows 2 + 3: the real gate --------------------------------------------

std::vector<std::string> make_plans() {
  return {
      "change renumber ToR1\nset-asn ToR1 64900\n",
      "change shut ToR1-A1\nshut-link ToR1 A1\n",
      "change renumber ToR3\nset-asn ToR3 64901\n",
      "change down ToR2-A2\ndown-link ToR2 A2\n",
      "change renumber ToR4\nset-asn ToR4 64902\n",
      "change no-op\n",
  };
}

constexpr const char* kNsgBody =
    "priority,name,source,src_ports,destination,dst_ports,protocol,access\n"
    "100,AllowVnetInBound,VirtualNetwork,Any,VirtualNetwork,Any,Any,Allow\n"
    "4096,DenyAllInBound,Any,Any,Any,Any,Any,Deny\n";
constexpr const char* kNsgTarget =
    "/nsg-check?vnet=customer&space=10.1.0.0/16&db=1";

struct StormStats {
  double achieved_rps = 0.0;
  double shed_429 = 0.0;
  std::vector<double> latency_us;
};

/// Open-loop: arrivals follow Exp(rate) regardless of completions.
StormStats run_storm(std::uint16_t port, double rate_rps, double seconds,
                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> interarrival(rate_rps);
  const auto plans = make_plans();

  std::mutex mutex;
  StormStats stats;
  std::atomic<int> ok{0};
  std::vector<std::thread> inflight;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto next = start;
  std::size_t sequence = 0;
  while (true) {
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(interarrival(rng)));
    if (next >= deadline) break;
    std::this_thread::sleep_until(next);
    const std::size_t i = sequence++;
    inflight.emplace_back([&, i] {
      // 70/30 precheck/NSG mix.
      const std::string wire =
          i % 10 < 7 ? post_wire("/precheck", plans[i % plans.size()])
                     : post_wire(kNsgTarget, kNsgBody);
      const auto sent = Clock::now();
      const std::string raw = http_request(port, wire);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - sent)
              .count();
      const int status = status_of(raw);
      const std::lock_guard lock(mutex);
      if (status == 200) {
        ++ok;
        stats.latency_us.push_back(us);
      } else if (status == 429) {
        stats.shed_429 += 1.0;
      }
    });
  }
  for (auto& request : inflight) request.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  stats.achieved_rps = ok.load() / wall;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    }
  }

  benchio::BenchReport report("bench_serve");
  constexpr int kWaitMs = 5;
  constexpr int kConnections = 8;
  constexpr int kOverlapRequests = 160;
  report.workload("connections", kConnections);
  report.workload("sim_handler_wait_ms", kWaitMs);
  report.workload("overlap_requests", kOverlapRequests);

  // Row 1: serialized (the pre-refactor shape) vs concurrent serving.
  const double serial_rps = run_overlap(/*workers=*/1,
                                        /*connection_slots=*/1, kWaitMs,
                                        kConnections, kOverlapRequests);
  const double concurrent_rps = run_overlap(/*workers=*/8,
                                            /*connection_slots=*/64, kWaitMs,
                                            kConnections, kOverlapRequests);
  const double speedup = concurrent_rps / serial_rps;
  std::printf("overlap @%d connections: serial %.0f req/s, concurrent "
              "%.0f req/s (%.1fx)\n",
              kConnections, serial_rps, concurrent_rps, speedup);
  report.value("overlap_serial_rps", "req/s", serial_rps, "none");
  report.value("overlap_concurrent_rps", "req/s", concurrent_rps, "higher");
  report.value("overlap_speedup_ratio", "x", speedup, "higher");

  // Rows 2 + 3 share one gate-backed server over Figure 3.
  const topo::Topology topology = topo::build_figure3();
  report.workload("devices", static_cast<double>(topology.device_count()));
  obs::MetricsRegistry registry;
  gate::GateConfig gate_config;
  gate_config.metrics = &registry;
  gate::GateService service(topology, gate_config);
  obs::HttpServerConfig http_config;
  http_config.worker_threads = 8;
  http_config.max_queued_requests = 64;
  http_config.metrics = &registry;
  obs::HttpServer server(http_config);
  service.attach(server);
  server.start();

  // Row 2: concurrent responses must be byte-identical to serialized ones.
  const auto plans = make_plans();
  std::vector<std::string> concurrent_bodies(plans.size());
  {
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      clients.emplace_back([&, i] {
        concurrent_bodies[i] = body_of(
            http_request(server.port(), post_wire("/precheck", plans[i])));
      });
    }
    for (auto& client : clients) client.join();
  }
  gate::GateService reference(topology);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    obs::HttpRequest request;
    request.method = "POST";
    request.target = "/precheck";
    request.body = plans[i];
    if (concurrent_bodies[i] != reference.handle_precheck(request).body) {
      ++mismatches;
      std::fprintf(stderr, "bench_serve: differential mismatch on plan %zu\n",
                   i);
    }
  }
  std::printf("differential: %zu plans concurrent==serialized, "
              "%zu mismatches\n",
              plans.size(), mismatches);
  report.value("differential_mismatches", "count",
               static_cast<double>(mismatches), "none");

  // Row 3: the Poisson storm rate sweep.
  for (const double rate : {40.0, 120.0}) {
    const StormStats stats =
        run_storm(server.port(), rate, /*seconds=*/1.5,
                  /*seed=*/static_cast<std::uint64_t>(rate));
    const std::string tag = "r" + std::to_string(static_cast<int>(rate));
    std::printf("storm %.0f req/s offered: %.0f served/s, %zu sampled, "
                "%.0f shed (429)\n",
                rate, stats.achieved_rps, stats.latency_us.size(),
                stats.shed_429);
    report.value("storm_" + tag + "_achieved_rps", "req/s",
                 stats.achieved_rps, "none");
    report.value("storm_" + tag + "_shed", "count", stats.shed_429, "none");
    if (!stats.latency_us.empty()) {
      report.metric("storm_" + tag + "_latency_us", "us", stats.latency_us,
                    "lower");
    }
  }
  std::printf("gate served %llu prechecks in %llu session calls, %llu nsg "
              "checks\n",
              static_cast<unsigned long long>(service.prechecks_served()),
              static_cast<unsigned long long>(service.precheck_batches()),
              static_cast<unsigned long long>(service.nsg_checks_served()));
  server.stop();

  report.attach_registry(&registry);
  if (!json_out.empty() && !report.write(json_out)) return 1;

  // The CI gates: concurrency must actually buy throughput, and must not
  // change a single answer.
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "bench_serve: FAIL concurrent/serial speedup %.2fx < 3x\n",
                 speedup);
    return 1;
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "bench_serve: FAIL %zu differential mismatches\n",
                 mismatches);
    return 1;
  }
  std::printf("gates ok: %.1fx >= 3x, 0 mismatches\n", speedup);
  return 0;
}
