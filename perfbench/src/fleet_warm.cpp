// fleet-warm: an in-process dist::Coordinator with two real dcv_worker
// processes (--source sim, no simulated pull latency) over a ~1k-device,
// ToR-light fabric with a few seeded links down in the topology file,
// running repeated cycles over unchanged state. The only workload that
// measures dist: every warm cycle re-verifies every device and ships every
// device's full contract list, which a verdict cache or worker-local plan
// would cut without touching fabric-cold.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>

#include "common.hpp"
#include "dist/coordinator.hpp"
#include "dist/process.hpp"
#include "dist/transport.hpp"
#include "dist/wire.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/metadata.hpp"
#include "topology/topology_io.hpp"

namespace perfbench {
namespace {

using namespace dcv;
using namespace std::chrono_literals;

// 20 clusters x (10 ToRs + 40 leaves) + 40 spines + 4 regionals = 1044
// devices, 200 hosted prefixes.
constexpr topo::ClosParams kFabric{.clusters = 20,
                                   .tors_per_cluster = 10,
                                   .leaves_per_cluster = 40,
                                   .spines_per_plane = 1,
                                   .regional_spines = 4};
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kLinksDown = 3;
constexpr int kSetups = 3;

/// Bytes and send time per frame type, seen by the coordinator's side of
/// every worker channel. The coordinator is single-threaded.
struct WireCounters {
  std::map<dist::MsgType, std::uint64_t> sent_bytes;
  std::map<dist::MsgType, std::uint64_t> received_bytes;
  std::int64_t send_ns = 0;
};

class CountingTransport final : public dist::Transport {
 public:
  CountingTransport(std::unique_ptr<dist::Transport> inner,
                    WireCounters& counters)
      : inner_(std::move(inner)), counters_(&counters) {}

  [[nodiscard]] bool send(const dist::Frame& frame) override {
    const auto start = Clock::now();
    const bool ok = inner_->send(frame);
    counters_->send_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count();
    counters_->sent_bytes[frame.type] +=
        frame.payload.size() + dist::kFrameOverhead;
    return ok;
  }
  [[nodiscard]] std::optional<dist::Frame> poll() override {
    std::optional<dist::Frame> frame = inner_->poll();
    if (frame) {
      counters_->received_bytes[frame->type] +=
          frame->payload.size() + dist::kFrameOverhead;
    }
    return frame;
  }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  [[nodiscard]] std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<dist::Transport> inner_;
  WireCounters* counters_;
};

/// Coordinator plus its worker processes; the destructor drains and reaps
/// every worker it spawned.
struct Fleet {
  Fleet(const topo::MetadataService& metadata, const std::string& topology_file,
        const std::string& worker_bin, WireCounters* counters)
      : listener(0), coordinator(metadata, dist::CoordinatorConfig{}) {
    for (std::size_t i = 0; i < kWorkers; ++i) {
      if (processes.spawn({worker_bin, "--connect",
                           "127.0.0.1:" + std::to_string(listener.port()),
                           "--topology", topology_file, "--source", "sim",
                           "--worker-id", "w" + std::to_string(i),
                           "--quiet"}) < 0) {
        throw std::runtime_error("cannot spawn " + worker_bin);
      }
    }
    const auto deadline = Clock::now() + 60s;
    while (coordinator.live_workers() < kWorkers && Clock::now() < deadline) {
      if (auto transport = listener.accept(20ms)) {
        if (counters != nullptr) {
          coordinator.add_worker(std::make_unique<CountingTransport>(
              std::move(transport), *counters));
        } else {
          coordinator.add_worker(std::move(transport));
        }
      }
      coordinator.pump(kWorkers, 5ms);
    }
    if (coordinator.live_workers() < kWorkers) {
      throw std::runtime_error("dcv_worker processes did not all connect");
    }
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() {
    coordinator.shutdown_workers();
    for (int i = 0; i < 200 && processes.alive() > 0; ++i) {
      (void)processes.reap();
      ::usleep(10 * 1000);
    }
    processes.kill_all(SIGKILL);
    for (int i = 0; i < 200 && processes.alive() > 0; ++i) {
      (void)processes.reap();
      ::usleep(10 * 1000);
    }
  }

  dist::TcpListener listener;
  dist::WorkerFleet processes;
  dist::Coordinator coordinator;
};

void expect_full_coverage(Checks& checks, double coverage) {
  checks.expect<double>(
      "fleet-warm: every cycle covers every device", coverage,
      [](const double& c) { return c == 1.0; },
      [](double& c) { c -= 1.0 / 1024.0; });
}

/// Known-wrong answer for the violation-list checks: one violation
/// dropped (or a bogus one added to an empty list).
void drop_one(std::vector<rcdc::Violation>& violations) {
  if (violations.empty()) {
    violations.push_back(rcdc::Violation{});
  } else {
    violations.pop_back();
  }
}

}  // namespace

void run_fleet_warm(const Options& options, Tracer& tracer, Checks& checks,
                    RunOutput& out) {
  if (options.worker_bin.empty()) {
    throw std::runtime_error("fleet-warm needs --worker-bin");
  }
  dist::install_fleet_signal_handlers();

  // --- Inputs: the fabric with seeded links down, written as a topology
  // file that the coordinator and both workers parse.
  std::string topology_file;
  {
    topo::Topology built = topo::build_clos(kFabric);
    // ToR-leaf links only, so every seed takes down links of one kind and
    // the violation count (and with it result bytes) does not swing with
    // the seed.
    std::mt19937_64 rng(options.seed);
    std::vector<topo::LinkId> links;
    for (const topo::Link& link : built.links()) {
      if (built.device(link.a).role == topo::DeviceRole::kTor ||
          built.device(link.b).role == topo::DeviceRole::kTor) {
        links.push_back(link.id);
      }
    }
    std::shuffle(links.begin(), links.end(), rng);
    for (std::size_t i = 0; i < kLinksDown; ++i) {
      built.set_link_state(links[i], topo::LinkState::kDown);
    }
    topology_file = options.out_dir + "/fleet-warm-seed" +
                    std::to_string(options.seed) + ".topo";
    std::ofstream(topology_file) << topo::write_topology(built);
  }
  std::string text;
  {
    std::ifstream in(topology_file);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const topo::Topology topology = topo::parse_topology(text);
  const topo::MetadataService metadata(topology);
  const std::size_t devices = topology.device_count();

  // --- Set-up: spawn, admission, first cycle; several times.
  WireCounters counters;
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    auto span = tracer.span("dist", "spawn_admit_first_cycle");
    const auto t0 = Clock::now();
    fleet = std::make_unique<Fleet>(metadata, topology_file, options.worker_bin,
                                    tracer.enabled() ? &counters : nullptr);
    const dist::DistributedSummary first = fleet->coordinator.run_cycle();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    expect_full_coverage(checks, first.coverage());
  }

  // --- Timed warm cycles over unchanged state.
  std::vector<double> cycle_ms, assign_bytes, result_bytes, contracts, busy_s,
      send_s;
  // The first warm cycle's violations; every later cycle must match them.
  std::optional<std::vector<rcdc::Violation>> first_merged;
  std::size_t failed = 0;
  // Bytes of one frame type that crossed the wire between two snapshots.
  const auto delta = [](const std::map<dist::MsgType, std::uint64_t>& after,
                        const std::map<dist::MsgType, std::uint64_t>& earlier,
                        dist::MsgType type) {
    const auto at = [type](const std::map<dist::MsgType, std::uint64_t>& m) {
      const auto it = m.find(type);
      return it == m.end() ? std::uint64_t{0} : it->second;
    };
    return static_cast<double>(at(after) - at(earlier));
  };
  const auto window_start = Clock::now();
  do {
    const WireCounters before = counters;
    auto span = tracer.span("bench", "cycle");
    const auto t0 = Clock::now();
    dist::DistributedSummary summary;
    {
      auto run = tracer.span("dist", "run_cycle");
      summary = fleet->coordinator.run_cycle();
    }
    cycle_ms.push_back(ms_between(t0, Clock::now()));
    failed += summary.merged.devices_failed;
    assign_bytes.push_back(
        delta(counters.sent_bytes, before.sent_bytes, dist::MsgType::kAssign) /
        static_cast<double>(devices));
    result_bytes.push_back(delta(counters.received_bytes,
                                 before.received_bytes,
                                 dist::MsgType::kResult) /
                           static_cast<double>(devices));
    send_s.push_back(static_cast<double>(counters.send_ns - before.send_ns) /
                     1e9);
    contracts.push_back(static_cast<double>(summary.merged.contracts_checked));
    std::uint64_t busy_ns = 0;
    for (const dist::ShardOutcome& shard : summary.shards) {
      busy_ns += shard.elapsed_ns;
    }
    busy_s.push_back(static_cast<double>(busy_ns) / 1e9);
    expect_full_coverage(checks, summary.coverage());
    std::sort(summary.merged.violations.begin(),
              summary.merged.violations.end(), violation_less);
    if (!first_merged) {
      first_merged = std::move(summary.merged.violations);
    } else {
      checks.expect<std::vector<rcdc::Violation>>(
          "fleet-warm: every warm cycle reports the first cycle's violations",
          summary.merged.violations,
          [&](const std::vector<rcdc::Violation>& v) {
            return v == *first_merged;
          },
          drop_one);
    }
  } while (seconds_between(window_start, Clock::now()) < options.seconds);
  const double peak_rss = static_cast<double>(peak_rss_bytes());
  fleet.reset();

  // --- The fleet's merged violations against an in-process validator.
  {
    auto span = tracer.span("bench", "reference_check");
    const routing::BgpSimulator sim(topology);
    const rcdc::SimulatorFibSource source(sim);
    const rcdc::DatacenterValidator validator(
        metadata, source, rcdc::make_trie_verifier_factory());
    std::vector<rcdc::Violation> reference = validator.run(4).violations;
    std::sort(reference.begin(), reference.end(), violation_less);
    checks.expect<std::vector<rcdc::Violation>>(
        "fleet-warm: merged violations == in-process DatacenterValidator",
        *first_merged,
        [&](const std::vector<rcdc::Violation>& v) { return v == reference; },
        drop_one);
    out.notes.push_back(format("%zu devices, %zu links down, %zu violations, "
                               "%zu warm cycles",
                               devices, kLinksDown, reference.size(),
                               cycle_ms.size()));
  }

  out.attempted = devices * cycle_ms.size();
  out.failed = failed;
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["peak_rss_bytes"] = peak_rss;
  out.e2e["op_ms_p50"] = median(cycle_ms);
  out.e2e["ops_per_s"] = static_cast<double>(devices) / (mean(cycle_ms) / 1e3);

  auto& L = out.layer;
  L["dist.assign_bytes_per_device"] = median(assign_bytes);
  L["dist.result_bytes_per_device"] = median(result_bytes);
  L["dist.contracts_checked"] = median(contracts);
  L["dist.shard_busy_s"] = median(busy_s);
  L["dist.send_s"] = median(send_s);

  out.named.push_back({"setup_s", {out.e2e["setup_s"], "s"}});
  out.named.push_back({"peak_rss_bytes", {peak_rss, "bytes"}});
  out.named.push_back({"fleet_cycle_s", {median(cycle_ms) / 1e3, "s"}});
}

}  // namespace perfbench
