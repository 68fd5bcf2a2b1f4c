// Route-simulation cost: the input-generation half of the system.
//
// After PR 4 made verification zero-rebuild, producing the FIBs became the
// dominant cost of every simulator-backed study. This bench pins the two
// claims of the worklist engine:
//
//   1. cold full convergence: worklist rounds over dirty frontiers with
//      borrowed/interned AS-paths vs the retained Jacobi reference
//      (whole-network copy per round, std::map RIBs, a vector allocation
//      per candidate) — gated at >= 3x;
//   2. warm reconvergence: after a single-link fault, reconverge() seeded
//      from the fault site vs cold-rerunning the *new* engine on the
//      mutated topology — gated at >= 8x. (The floor was 10x before the
//      compact route state landed: interning and arena rebuilds add a
//      fixed per-device cost that weighs on the millisecond-scale warm
//      path at this 304-device size, narrowing the measured ratio to
//      ~9.5-10.5x. bench_scale carries the memory claim that cost buys.)
//
// Both gates are medians of kPairs paired ratios. A pair runs the two arms
// back to back, so both see the same machine conditions, and the pairs are
// interleaved, so a slow spell on a shared box moves a few ratios rather
// than the whole estimate; the checked-in baseline is therefore
// machine-independent. Each ratio and time is recorded as a distribution
// (count, p10/p50/p90) in the dcv-bench-v1 JSON; absolute rates are
// reported ungated.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "obs/metrics.hpp"
#include "routing/bgp_reference.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

namespace {

using namespace dcv;

/// Interleaved pairs per gated ratio. Odd, so the median is one sample.
constexpr int kPairs = 9;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Nearest-rank p10/p50/p90, the same ranks BenchReport::metric records.
struct Spread {
  double p10, p50, p90;
};

Spread spread(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto rank = [&](double q) {
    const auto index = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::min(samples.size() - 1, index == 0 ? 0 : index - 1)];
  };
  return {rank(0.10), rank(0.50), rank(0.90)};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_out = benchio::extract_json_flag(argc, argv);
  benchio::BenchReport report("bench_bgp");

  const topo::ClosParams params{.clusters = 16,
                                .tors_per_cluster = 12,
                                .leaves_per_cluster = 6,
                                .spines_per_plane = 2,
                                .regional_spines = 4};
  topo::Topology topology = topo::build_clos(params);
  const std::size_t device_count = topology.device_count();
  const unsigned threads = 4;
  const routing::BgpSimOptions options{.threads = threads};

  std::printf(
      "== EBGP simulation: worklist engine vs Jacobi reference "
      "(%zu devices, %zu links, %u threads) ==\n\n",
      device_count, topology.link_count(), threads);

  // -- cold full convergence, paired runs ----------------------------------
  {  // warmup, untimed
    const routing::ReferenceBgpSimulator ref(topology);
    const routing::BgpSimulator sim(topology, nullptr, nullptr, options);
    if (sim.rounds() != ref.rounds()) {
      std::printf("FATAL: engines disagree on rounds (%d vs %d)\n",
                  sim.rounds(), ref.rounds());
      return 3;
    }
  }
  std::vector<double> reference_s;
  std::vector<double> worklist_s;
  std::vector<double> paired_cold;
  for (int pair = 0; pair < kPairs; ++pair) {
    auto start = std::chrono::steady_clock::now();
    const routing::ReferenceBgpSimulator ref(topology);
    const double run_ref = seconds_since(start);

    start = std::chrono::steady_clock::now();
    const routing::BgpSimulator sim(topology, nullptr, nullptr, options);
    const double run_sim = seconds_since(start);

    if (pair == 0) {
      // Full differential sweep once per bench run: the speedup only
      // counts if the engines agree everywhere.
      for (const topo::Device& device : topology.devices()) {
        if (sim.rib(device.id) != ref.rib(device.id)) {
          std::printf("FATAL: RIB mismatch at %s\n", device.name.c_str());
          return 3;
        }
      }
    }
    reference_s.push_back(run_ref);
    worklist_s.push_back(run_sim);
    paired_cold.push_back(run_ref / run_sim);
  }
  const Spread cold = spread(paired_cold);
  std::printf("cold full convergence (%d interleaved pairs, median):\n",
              kPairs);
  std::printf("  reference (Jacobi, map RIBs, copy-all rounds): %8.1f ms\n",
              1e3 * spread(reference_s).p50);
  std::printf("  worklist  (frontier, flat RIBs, %u threads) : %8.1f ms\n",
              threads, 1e3 * spread(worklist_s).p50);
  std::printf("  cold speedup: %.2fx [p10 %.2fx, p90 %.2fx] "
              "(acceptance floor 3x)\n\n",
              cold.p50, cold.p10, cold.p90);
  report.metric("cold_reference_s", "s", reference_s, "none");
  report.metric("cold_worklist_s", "s", worklist_s, "lower");
  report.metric("cold_speedup_ratio", "x", paired_cold, "higher");
  const double cold_speedup = cold.p50;

  // -- warm reconvergence after a single-link fault ------------------------
  // One persistent simulator absorbs a fault, reconverges from the fault
  // site, and is compared against cold-rerunning the same (new) engine on
  // the mutated topology. Repair between probes restores the healthy state
  // through the same delta path.
  obs::MetricsRegistry registry;
  topo::FaultInjector injector(topology, /*seed=*/17);
  routing::BgpSimulator warm(topology, &injector, &registry, options);

  std::vector<double> reconverge_s;
  std::vector<double> cold_rerun_s;
  std::vector<double> paired_warm;
  for (int probe = 0; probe < kPairs; ++probe) {
    injector.random_link_failures(1);

    auto start = std::chrono::steady_clock::now();
    warm.reconverge();
    const double run_warm = seconds_since(start);

    start = std::chrono::steady_clock::now();
    const routing::BgpSimulator cold_rerun(topology, &injector, nullptr,
                                           options);
    const double run_cold = seconds_since(start);

    for (const topo::Device& device : topology.devices()) {
      if (warm.rib(device.id) != cold_rerun.rib(device.id)) {
        std::printf("FATAL: warm/cold mismatch at %s\n",
                    device.name.c_str());
        return 3;
      }
    }
    reconverge_s.push_back(run_warm);
    cold_rerun_s.push_back(run_cold);
    paired_warm.push_back(run_cold / run_warm);

    injector.repair(0);
    warm.reconverge();
  }
  const Spread warm_ratio = spread(paired_warm);
  std::printf("warm reconvergence after one link fault (%d probes, "
              "median):\n",
              kPairs);
  std::printf("  cold rerun of worklist engine: %8.2f ms\n",
              1e3 * spread(cold_rerun_s).p50);
  std::printf("  warm reconverge() from fault : %8.2f ms\n",
              1e3 * spread(reconverge_s).p50);
  std::printf("  warm speedup: %.1fx [p10 %.1fx, p90 %.1fx] "
              "(acceptance floor 8x)\n\n",
              warm_ratio.p50, warm_ratio.p10, warm_ratio.p90);
  report.metric("warm_cold_rerun_s", "s", cold_rerun_s, "none");
  report.metric("warm_reconverge_s", "s", reconverge_s, "lower");
  report.metric("warm_speedup_ratio", "x", paired_warm, "higher");
  const double warm_speedup = warm_ratio.p50;

  report.workload("devices", static_cast<double>(device_count));
  report.workload("links", static_cast<double>(topology.link_count()));
  report.workload("threads", static_cast<double>(threads));

  const bool pass = cold_speedup >= 3.0 && warm_speedup >= 8.0;
  std::printf("acceptance: cold >= 3x %s, warm >= 8x %s\n",
              cold_speedup >= 3.0 ? "OK" : "FAIL",
              warm_speedup >= 8.0 ? "OK" : "FAIL");

  if (!json_out.empty()) {
    report.attach_registry(&registry);
    if (!report.write(json_out)) return 1;
  }
  return pass ? 0 : 2;
}
