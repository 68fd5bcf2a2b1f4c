// Distributed scaling: devices/s of one validation cycle over a ~5k-device
// Clos fabric as real dcv_worker processes are added. The per-device cost
// is dominated by simulated table-acquisition latency (the paper's pull
// cost, slept in each worker), so throughput scales with the number of
// concurrently sleeping workers rather than with host cores — near-linear
// 1→4 on any machine, which is exactly the claim distribution makes: the
// fleet buys wall-clock, not CPU.
//
// The kill-one-of-N ablation row measures what a mid-cycle worker crash
// costs: with the default retry budget the cycle still completes at full
// coverage, the lost shards re-validated by survivors.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "dist/coordinator.hpp"
#include "dist/process.hpp"
#include "dist/transport.hpp"
#include "obs/metrics.hpp"
#include "topology/clos_builder.hpp"
#include "topology/metadata.hpp"
#include "topology/topology_io.hpp"

namespace {

using namespace dcv;
using namespace std::chrono_literals;

/// Locates the dcv_worker binary next to this bench (build/bench/../tools).
std::string find_worker_bin(const char* argv0) {
  if (const char* env = std::getenv("DCV_WORKER_BIN")) return env;
  const auto self = std::filesystem::path(argv0);
  const auto candidate =
      self.parent_path().parent_path() / "tools" / "dcv_worker";
  return candidate.string();
}

struct CycleStats {
  double wall_s = 0.0;
  double coverage = 0.0;
  std::size_t reassignments = 0;
  bool degraded = false;
};

/// Spawns `worker_count` real dcv_worker processes against a fresh
/// coordinator and runs one cycle. When `kill_delay_ms` is positive, one
/// worker is SIGKILLed that long after the cycle starts.
CycleStats run_fleet(const topo::MetadataService& metadata,
                     const std::string& topology_file,
                     const std::string& worker_bin, std::size_t worker_count,
                     std::uint64_t fetch_latency_us, long kill_delay_ms) {
  dist::TcpListener listener(0);
  obs::MetricsRegistry registry;
  dist::WorkerFleet fleet(&registry);
  for (std::size_t i = 0; i < worker_count; ++i) {
    fleet.spawn({worker_bin, "--connect",
                 "127.0.0.1:" + std::to_string(listener.port()), "--topology",
                 topology_file, "--source", "synth", "--fetch-latency-us",
                 std::to_string(fetch_latency_us), "--worker-id",
                 "b" + std::to_string(i), "--quiet"});
  }

  dist::CoordinatorConfig config;
  config.metrics = &registry;
  config.shards_per_worker = 4;
  config.lease = 10s;
  dist::Coordinator coordinator(metadata, config);
  const auto admit_deadline = std::chrono::steady_clock::now() + 60s;
  while (coordinator.live_workers() < worker_count &&
         std::chrono::steady_clock::now() < admit_deadline) {
    if (auto transport = listener.accept(50ms)) {
      coordinator.add_worker(std::move(transport));
    }
    coordinator.pump(worker_count, std::chrono::milliseconds(10));
  }
  if (coordinator.live_workers() < worker_count) {
    std::fprintf(stderr, "bench_dist: only %zu/%zu workers connected\n",
                 coordinator.live_workers(), worker_count);
    std::exit(1);
  }

  // The mid-cycle kill comes from a short-lived helper child so the
  // coordinator loop itself never has to juggle a timer. The delay must
  // land mid-cycle, so the caller sizes it from a measured clean-cycle wall
  // time.
  pid_t killer = -1;
  if (kill_delay_ms > 0) {
    const pid_t victim = fleet.pids().front();
    killer = ::fork();
    if (killer == 0) {
      ::usleep(static_cast<useconds_t>(kill_delay_ms) * 1000);
      ::kill(victim, SIGKILL);
      ::_exit(0);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  const dist::DistributedSummary summary = coordinator.run_cycle();
  const auto wall = std::chrono::steady_clock::now() - start;

  coordinator.shutdown_workers();
  for (int i = 0; i < 40 && fleet.alive() > 0; ++i) {
    (void)fleet.reap();
    ::usleep(25 * 1000);
  }
  fleet.kill_all(SIGKILL);
  (void)fleet.reap();
  if (killer > 0) ::waitpid(killer, nullptr, 0);

  CycleStats stats;
  stats.wall_s = std::chrono::duration<double>(wall).count();
  stats.coverage = summary.coverage();
  stats.reassignments = summary.reassignments;
  stats.degraded = summary.degraded();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_out = benchio::extract_json_flag(argc, argv);
  benchio::BenchReport report("bench_dist");

  std::uint64_t fetch_latency_us = 14000;
  std::string worker_bin = find_worker_bin(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--worker-bin" && i + 1 < argc) {
      worker_bin = argv[++i];
    } else if (flag == "--fetch-latency-us" && i + 1 < argc) {
      fetch_latency_us = std::stoull(argv[++i]);
    }
  }
  if (!std::filesystem::exists(worker_bin)) {
    std::fprintf(stderr,
                 "bench_dist: worker binary not found at %s "
                 "(build dcv_worker or set DCV_WORKER_BIN)\n",
                 worker_bin.c_str());
    return 1;
  }

  dist::install_fleet_signal_handlers();

  // ~5k devices: 100 clusters x (10 ToRs + 40 leaves) + 40 spines + 4 RH.
  // Deliberately ToR-light: FIB size tracks the hosted-prefix (= ToR)
  // count, so this shape keeps per-device CPU small enough that the
  // simulated pull latency — not validation compute — dominates the cycle,
  // and worker scaling measures concurrency even on a single-core host.
  const topo::ClosParams params{.clusters = 100,
                                .tors_per_cluster = 10,
                                .leaves_per_cluster = 40,
                                .spines_per_plane = 1,
                                .regional_spines = 4};
  const topo::Topology topology = topo::build_clos(params);
  const topo::MetadataService metadata(topology);

  const std::string topology_file =
      (std::filesystem::temp_directory_path() /
       ("bench_dist_topo_" + std::to_string(::getpid()) + ".topo"))
          .string();
  {
    std::ofstream out(topology_file);
    out << topo::write_topology(topology);
  }

  std::printf(
      "== distributed validation: devices/s vs worker count ==\n"
      "fabric: %zu devices; per-device pull latency %llu us simulated in\n"
      "each worker (sleep-bound, so scaling measures fleet concurrency,\n"
      "not host cores); tables synthesized O(1)-memory per worker\n\n",
      topology.device_count(),
      static_cast<unsigned long long>(fetch_latency_us));
  std::printf("  workers   wall (s)   devices/s   coverage   note\n");

  const double devices = static_cast<double>(topology.device_count());
  double devices_per_s_1 = 0.0;
  double devices_per_s_4 = 0.0;
  double wall_4_clean = 0.0;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const CycleStats stats = run_fleet(metadata, topology_file, worker_bin,
                                       workers, fetch_latency_us,
                                       /*kill_delay_ms=*/0);
    const double rate = devices / stats.wall_s;
    if (workers == 1) devices_per_s_1 = rate;
    if (workers == 4) {
      devices_per_s_4 = rate;
      wall_4_clean = stats.wall_s;
    }
    report.value("devices_per_s_workers_" + std::to_string(workers),
                 "devices/s", rate, "higher");
    std::printf("  %7zu %10.2f %11.0f %9.1f%%\n", workers, stats.wall_s, rate,
                100.0 * stats.coverage);
  }
  const double scaling = devices_per_s_4 / devices_per_s_1;
  report.value("scaling_ratio_4v1", "x", scaling, "higher");

  // Ablation: kill one of four mid-cycle. Coverage must hold at 100% via
  // reassignment (the default retry budget absorbs one loss). Landing the
  // kill at ~40% of the clean wall guarantees the victim is mid-shard —
  // past contract planning, well before the cycle drains.
  const long kill_delay_ms =
      std::max(1000L, static_cast<long>(wall_4_clean * 0.4 * 1000.0));
  const CycleStats crash = run_fleet(metadata, topology_file, worker_bin, 4,
                                     fetch_latency_us, kill_delay_ms);
  report.value("crash_recovery_coverage", "fraction", crash.coverage, "none");
  std::printf("  %7d %10.2f %11.0f %9.1f%%   one worker SIGKILLed (%zu "
              "reassignments)\n",
              4, crash.wall_s, devices / crash.wall_s, 100.0 * crash.coverage,
              crash.reassignments);

  std::printf("\nscaling 1 -> 4 workers: %.2fx\n", scaling);
  std::filesystem::remove(topology_file);

  if (!json_out.empty()) {
    report.workload("devices", devices);
    report.workload("fetch_latency_us",
                    static_cast<double>(fetch_latency_us));
    if (!report.write(json_out)) return 1;
  }
  return scaling >= 2.0 ? 0 : 1;
}
