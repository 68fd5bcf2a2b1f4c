// gate-mix: the change gate (GateService behind obs::HttpServer on
// loopback) over a ~550-device fabric, driven by four closed-loop clients
// — callers that each wait for their verdict before sending the next
// request — with a seeded mix of change plans (ASN renumbers, link shuts,
// link downs, the empty change) and NSG tables of 10 to 400 rules, half of
// which block the database-backup contracts. It reaches routing and rcdc
// through mutate-and-roll-back (PrecheckSession) rather than monitoring
// reads, and is the only workload that exercises secguru and the HTTP
// admission path.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "gate/gate_service.hpp"
#include "obs/http_server.hpp"
#include "rcdc/precheck.hpp"
#include "rcdc/precheck_io.hpp"
#include "secguru/engine.hpp"
#include "secguru/fast_engine.hpp"
#include "secguru/nsg.hpp"
#include "secguru/nsg_gate.hpp"
#include "topology/clos_builder.hpp"

namespace perfbench {
namespace {

using namespace dcv;

// 8 clusters x (48 ToRs + 16 leaves) + 32 spines + 4 regionals = 548
// devices, the monitor-churn fabric.
constexpr topo::ClosParams kFabric{.clusters = 8,
                                   .tors_per_cluster = 48,
                                   .leaves_per_cluster = 16,
                                   .spines_per_plane = 2,
                                   .regional_spines = 4};
constexpr int kSetups = 3;
constexpr int kClients = 4;
constexpr int kPlansPerKind = 3;
/// Rule counts of the distinct NSG tables; odd positions block backups.
constexpr int kNsgSizes[] = {10, 25, 50, 100, 150, 200, 300, 400};
constexpr const char* kVnetSpace = "10.1.0.0/16";
constexpr const char* kNsgTarget =
    "/nsg-check?vnet=customer&space=10.1.0.0/16&db=1";

struct Request {
  bool precheck = true;
  std::size_t index = 0;  // into the plan or NSG list
  std::string wire;
};

struct Answer {
  int status = 0;
  std::string first_line;
  double latency_ms = 0.0;
  /// Handler time reported by the traced server routes (ms), or -1.
  double handler_ms = -1.0;
};

/// One blocking HTTP/1.1 exchange over loopback; status 0 on socket error.
Answer http_exchange(std::uint16_t port, const std::string& wire) {
  Answer answer;
  const auto start = Clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return answer;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(wire.size())) {
    char buffer[8192];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      raw.append(buffer, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  answer.latency_ms = ms_between(start, Clock::now());
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || raw.size() < 12) return answer;
  answer.status = std::atoi(raw.substr(9, 3).c_str());
  const auto header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return answer;
  const std::string headers = raw.substr(0, header_end);
  const auto handler = headers.find("X-Handler-Ns: ");
  if (handler != std::string::npos) {
    answer.handler_ms = std::stod(headers.substr(handler + 14)) / 1e6;
  }
  const std::string body = raw.substr(header_end + 4);
  answer.first_line = body.substr(0, body.find('\n'));
  return answer;
}

std::string post(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::vector<std::string> make_plans(const topo::Topology& topology,
                                    std::mt19937_64& rng) {
  const auto tors = topology.devices_with_role(topo::DeviceRole::kTor);
  const auto& links = topology.links();
  const auto name = [&](topo::DeviceId id) { return topology.device(id).name; };
  std::vector<std::string> plans;
  for (int i = 0; i < kPlansPerKind; ++i) {
    // A fresh ASN, or one colliding with another ToR's.
    const topo::DeviceId tor = tors[rng() % tors.size()];
    const topo::Asn asn = i % 2 == 0
                              ? 64990 + static_cast<topo::Asn>(i)
                              : topology.device(tors[rng() % tors.size()]).asn;
    plans.push_back("change renumber " + name(tor) + "\nset-asn " + name(tor) +
                    " " + std::to_string(asn) + "\n");
  }
  for (const char* op : {"shut-link", "down-link"}) {
    for (int i = 0; i < kPlansPerKind; ++i) {
      const topo::Link& link = links[rng() % links.size()];
      plans.push_back(std::string("change ") + op + " " + name(link.a) + " " +
                      name(link.b) + "\n" + op + " " + name(link.a) + " " +
                      name(link.b) + "\n");
    }
  }
  plans.push_back("change no-op\n");
  return plans;
}

/// A tabular NSG of `size` rules: backup allows near the end, random rules
/// before them (some overlapping the backup traffic with Allow, which
/// fragments the undecided region), and — when `blocking` — one Deny that
/// cuts part of the backup control traffic.
std::string make_nsg(int size, bool blocking, std::mt19937_64& rng) {
  std::ostringstream nsg;
  nsg << "priority,name,source,src_ports,destination,dst_ports,protocol,"
         "access\n";
  const int random_rules = size - 3;
  const int block_at = blocking ? static_cast<int>(rng() % random_rules) : -1;
  const auto ports = [&] {
    const unsigned lo = 1 + static_cast<unsigned>(rng() % 4000);
    return std::to_string(lo) + "-" + std::to_string(lo + rng() % 2000);
  };
  int priority = 200;
  for (int i = 0; i < random_rules; ++i, priority += 2) {
    if (i == block_at) {
      nsg << priority << ",BlockSql" << i << ",168.63.129." << (rng() % 2) * 128
          << "/25,Any,10.1." << rng() % 256 << ".0/24,1433,Tcp,Deny\n";
      continue;
    }
    const std::string dst = "10.1." + std::to_string(rng() % 256) + ".0/24";
    if (rng() % 3 == 0) {
      nsg << priority << ",AllowMgmt" << i << ",Any," << ports() << "," << dst
          << ",Any,Tcp,Allow\n";
    } else {
      nsg << priority << ",Rule" << i << ",10." << 2 + rng() % 200 << "."
          << rng() % 256 << ".0/24," << ports() << "," << dst << ","
          << ports() << "," << (rng() % 2 ? "Udp" : "Tcp") << ","
          << (rng() % 2 ? "Allow" : "Deny") << "\n";
    }
  }
  nsg << "3000,AllowBackupControl,SqlManagement,Any," << kVnetSpace
      << ",1433-1434,Tcp,Allow\n";
  nsg << "3010,AllowBackupData," << kVnetSpace
      << ",Any,SqlManagement,443,Tcp,Allow\n";
  nsg << "4096,DenyAllInbound,Any,Any,Any,Any,Any,Deny\n";
  return nsg.str();
}

secguru::VirtualNetwork customer_vnet() {
  secguru::VirtualNetwork vnet;
  vnet.name = "customer";
  vnet.address_space = net::Prefix::parse(kVnetSpace);
  vnet.has_database_instance = true;
  vnet.nsg = secguru::Nsg("customer");
  return vnet;
}

/// The gate and its server; traced runs register timing routes that call
/// the same handlers inside a span and report their time in an
/// X-Handler-Ns header.
struct Gate {
  Gate(const topo::Topology& topology, Tracer& tracer)
      : service(topology),
        server(obs::HttpServerConfig{.worker_threads = 4,
                                     .max_queued_requests = 64}) {
    if (!tracer.enabled()) {
      service.attach(server);
    } else {
      const auto timed = [this, &tracer](auto handler, const char* name) {
        return [this, &tracer, handler, name](const obs::HttpRequest& request) {
          auto span = tracer.span("gate", name);
          const auto start = Clock::now();
          obs::HttpResponse response = (service.*handler)(request);
          response.extra_headers.emplace_back(
              "X-Handler-Ns",
              std::to_string(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 Clock::now() - start)
                                 .count()));
          return response;
        };
      };
      const gate::GateConfig defaults;
      server.add_route("POST", "/precheck",
                       timed(&gate::GateService::handle_precheck, "handle_precheck"),
                       defaults.precheck_body_bytes);
      server.add_route("POST", "/nsg-check",
                       timed(&gate::GateService::handle_nsg_check, "handle_nsg_check"),
                       defaults.nsg_body_bytes);
    }
    server.start();
  }

  gate::GateService service;
  obs::HttpServer server;
};

}  // namespace

void run_gate_mix(const Options& options, Tracer& tracer, Checks& checks,
                  RunOutput& out) {
  const topo::Topology topology = topo::build_clos(kFabric);
  std::mt19937_64 rng(options.seed);
  const std::vector<std::string> plans = make_plans(topology, rng);
  std::vector<std::string> nsgs;
  for (std::size_t i = 0; i < std::size(kNsgSizes); ++i) {
    nsgs.push_back(make_nsg(kNsgSizes[i], i % 2 == 1, rng));
  }

  // --- Set-up: gate build (warm session + engine pool) + server start.
  std::vector<double> setup_s;
  std::unique_ptr<Gate> gate;
  for (int i = 0; i < kSetups; ++i) {
    gate.reset();
    auto span = tracer.span("gate", "build_and_start");
    const auto t0 = Clock::now();
    gate = std::make_unique<Gate>(topology, tracer);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::uint16_t port = gate->server.port();

  std::vector<Request> round_template;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    round_template.push_back({true, i, post("/precheck", plans[i])});
  }
  for (std::size_t i = 0; i < nsgs.size(); ++i) {
    round_template.push_back({false, i, post(kNsgTarget, nsgs[i])});
  }
  const std::size_t round_size = round_template.size();

  // --- Closed loop: whole rounds of every distinct request, each round in
  // its own seeded order; a new round starts only while time remains.
  std::mutex mutex;
  std::vector<Request> schedule;
  std::size_t next = 0;
  bool stopped = false;
  const auto window_start = Clock::now();
  // Claims the next request (its schedule index and wire bytes), or
  // nothing once the current round is done and time is up.
  const auto claim = [&]() -> std::optional<std::pair<std::size_t, std::string>> {
    std::lock_guard lock(mutex);
    if (next % round_size == 0) {
      if (stopped || (next > 0 && seconds_between(window_start, Clock::now()) >=
                                      options.seconds)) {
        stopped = true;
        return std::nullopt;
      }
      std::vector<Request> round = round_template;
      std::shuffle(round.begin(), round.end(), rng);
      for (Request& r : round) schedule.push_back(std::move(r));
    }
    const std::size_t index = next++;
    return std::make_pair(index, schedule[index].wire);
  };
  std::vector<std::pair<std::size_t, Answer>> indexed;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        while (const auto request = claim()) {
          Answer answer;
          {
            auto span = tracer.span("obs", "http_request");
            answer = http_exchange(port, request->second);
          }
          std::lock_guard lock(mutex);
          indexed.emplace_back(request->first, std::move(answer));
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  const double window_s = seconds_between(window_start, Clock::now());

  std::vector<double> precheck_ms, nsg_ms, handler_precheck_ms, handler_nsg_ms,
      overhead_ms;
  std::map<std::size_t, std::set<std::string>> plan_decisions, nsg_decisions;
  std::size_t failed = 0;
  for (const auto& [index, answer] : indexed) {
    const Request& request = schedule[index];
    if (answer.status != 200) {
      ++failed;
      continue;
    }
    (request.precheck ? precheck_ms : nsg_ms).push_back(answer.latency_ms);
    (request.precheck ? plan_decisions : nsg_decisions)[request.index].insert(
        answer.first_line);
    if (answer.handler_ms >= 0.0) {
      (request.precheck ? handler_precheck_ms : handler_nsg_ms)
          .push_back(answer.handler_ms);
      overhead_ms.push_back(answer.latency_ms - answer.handler_ms);
    }
  }
  const double served = static_cast<double>(gate->service.prechecks_served());
  const double batches = static_cast<double>(gate->service.precheck_batches());
  gate->server.stop();
  const double peak_rss = static_cast<double>(peak_rss_bytes());

  // --- Checks against one-shot oracles, once per distinct input.
  {
    auto span = tracer.span("bench", "oracle_checks");
    const rcdc::PrecheckPipeline one_shot(topology);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const std::vector<rcdc::NetworkChange> changes =
          rcdc::parse_change_plan(plans[i], topology);
      bool approved = true;
      for (const rcdc::NetworkChange& change : changes) {
        approved = approved && one_shot.check(change).approved;
      }
      const std::string expected =
          std::string("decision: ") + (approved ? "approved" : "rejected");
      checks.expect<std::set<std::string>>(
          "gate-mix: precheck verdict == one-shot PrecheckPipeline",
          plan_decisions[i],
          [&](const std::set<std::string>& seen) {
            return seen == std::set<std::string>{expected};
          },
          [](std::set<std::string>& seen) {
            const bool was_approved = seen.count("decision: approved") > 0;
            seen = {was_approved ? "decision: rejected" : "decision: approved"};
          });
      if (i + 1 == plans.size()) {
        checks.expect<std::set<std::string>>(
            "gate-mix: the empty change is approved", plan_decisions[i],
            [](const std::set<std::string>& seen) {
              return seen == std::set<std::string>{"decision: approved"};
            },
            [](std::set<std::string>& seen) {
              seen = {"decision: rejected"};
            });
      }
    }
    secguru::Engine z3;
    const secguru::NsgGate exact(z3);
    for (std::size_t i = 0; i < nsgs.size(); ++i) {
      secguru::VirtualNetwork vnet = customer_vnet();
      const bool accepted =
          exact.try_update(vnet, secguru::parse_nsg(nsgs[i], "customer-proposed"))
              .accepted;
      const std::string expected =
          std::string("decision: ") + (accepted ? "accepted" : "rejected");
      checks.expect<std::set<std::string>>(
          "gate-mix: NSG decision == NsgGate over the Z3 Engine",
          nsg_decisions[i],
          [&](const std::set<std::string>& seen) {
            return seen == std::set<std::string>{expected};
          },
          [](std::set<std::string>& seen) {
            const bool was_accepted = seen.count("decision: accepted") > 0;
            seen = {was_accepted ? "decision: rejected" : "decision: accepted"};
          });
    }
  }

  // --- Direct layer timings (traced runs): the precheck session and the
  // NSG gate called without the server in between.
  auto& L = out.layer;
  if (tracer.enabled()) {
    rcdc::PrecheckSession session(topology);
    std::vector<double> session_ms, revalidated;
    for (const std::string& plan : plans) {
      const auto changes = rcdc::parse_change_plan(plan, topology);
      const std::uint64_t before = session.devices_revalidated();
      auto span = tracer.span("rcdc", "check_batch");
      const auto t0 = Clock::now();
      (void)session.check_batch(changes);
      session_ms.push_back(ms_between(t0, Clock::now()));
      revalidated.push_back(
          static_cast<double>(session.devices_revalidated() - before));
    }
    secguru::FastEngine fast;
    const secguru::NsgGate nsg_gate(fast);
    std::vector<double> nsg_check_ms;
    for (const std::string& text : nsgs) {
      secguru::VirtualNetwork vnet = customer_vnet();
      const secguru::Nsg proposed = secguru::parse_nsg(text, "customer-proposed");
      auto span = tracer.span("secguru", "nsg_try_update");
      const auto t0 = Clock::now();
      (void)nsg_gate.try_update(vnet, proposed);
      nsg_check_ms.push_back(ms_between(t0, Clock::now()));
    }
    L["rcdc.precheck_ms"] = median(session_ms);
    L["rcdc.precheck_devices_revalidated"] = mean(revalidated);
    L["gate.precheck_handler_ms"] = median(handler_precheck_ms);
    L["gate.nsg_handler_ms"] = median(handler_nsg_ms);
    L["gate.batch_size"] = batches > 0 ? served / batches : 0.0;
    L["obs.http_overhead_ms"] = median(overhead_ms);
    L["secguru.nsg_check_ms"] = median(nsg_check_ms);
    L["secguru.smt_fallbacks"] = static_cast<double>(fast.smt_fallbacks());
  }

  out.attempted = indexed.size();
  out.failed = failed;
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["peak_rss_bytes"] = peak_rss;
  // The operation timed end to end is the precheck: NSG checks answer in
  // ~1 ms, and a median over the mixture would sit in the gap between the
  // two modes (see the README).
  out.e2e["op_ms_p50"] = median(precheck_ms);
  out.e2e["ops_per_s"] =
      static_cast<double>(indexed.size() - failed) / window_s;

  out.named.push_back({"setup_s", {out.e2e["setup_s"], "s"}});
  out.named.push_back({"peak_rss_bytes", {out.e2e["peak_rss_bytes"], "bytes"}});
  out.named.push_back({"precheck_ms_p50", {median(precheck_ms), "ms"}});
  out.named.push_back({"precheck_ms_p90", {quantile(precheck_ms, 0.9), "ms"}});
  out.named.push_back({"nsg_ms_p50", {median(nsg_ms), "ms"}});
  out.named.push_back({"nsg_ms_p90", {quantile(nsg_ms, 0.9), "ms"}});
  out.named.push_back({"gate_rps", {out.e2e["ops_per_s"], "req/s"}});
  out.notes.push_back(format(
      "%zu devices, %zu distinct plans, %zu distinct NSGs, %zu requests "
      "(%zu precheck, %zu nsg) in %zu rounds, %zu failed, batch size %.2f",
      topology.device_count(), plans.size(), nsgs.size(), indexed.size(),
      precheck_ms.size(), nsg_ms.size(), indexed.size() / round_size, failed,
      batches > 0 ? served / batches : 0.0));
}

}  // namespace perfbench
