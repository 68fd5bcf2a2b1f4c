// Live monitoring scenario (§2.6): runs the three-microservice RCDC
// pipeline of Figure 5 over a mid-size datacenter with injected production
// faults drawn from the §2.6.2 catalog, triages every alert, remediates in
// risk order, and repeats the cycle until the datacenter validates clean —
// a miniature of the Figure 6 burndown.
#include <iostream>

#include "rcdc/pipeline.hpp"
#include "rcdc/triage.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

int main() {
  using namespace dcv;

  const topo::ClosParams params{.clusters = 6,
                                .tors_per_cluster = 6,
                                .leaves_per_cluster = 4,
                                .spines_per_plane = 2,
                                .regional_spines = 4};
  topo::Topology topology = topo::build_clos(params);
  const topo::MetadataService metadata(topology);
  std::cout << "== RCDC live monitoring ==\n"
            << "datacenter: " << topology.device_count() << " devices, "
            << metadata.all_prefixes().size() << " hosted prefixes\n";

  // Inject the §2.6.2 fault mix: optical failures, forgotten admin-shuts,
  // and device software/policy bugs.
  topo::FaultInjector faults(topology, /*seed=*/2019);
  faults.random_link_failures(5);
  faults.random_bgp_shutdowns(3);
  faults.random_device_faults(1, topo::DeviceRole::kTor,
                              topo::DeviceFaultKind::kRibFibInconsistency);
  faults.random_device_faults(1, topo::DeviceRole::kLeaf,
                              topo::DeviceFaultKind::kLayer2InterfaceBug);
  faults.random_device_faults(1, topo::DeviceRole::kTor,
                              topo::DeviceFaultKind::kEcmpSingleNextHop);
  std::cout << "injected faults (ground truth):\n";
  for (const auto& record : faults.records()) {
    std::cout << "  " << record.to_string(topology) << "\n";
  }

  const rcdc::PipelineConfig config{
      .puller_workers = 8,
      .validator_workers = 4,
      .fetch_latency_min = std::chrono::microseconds(200'000),
      .fetch_latency_max = std::chrono::microseconds(800'000),
      .time_scale = 0.001,  // production latencies, compressed 1000x
      .seed = 7};
  const rcdc::TriageEngine triage(topology);

  for (int cycle = 1; cycle <= 8; ++cycle) {
    // Each cycle pulls fresh state: re-run routing over the current network.
    const routing::BgpSimulator sim(topology, &faults);
    const rcdc::SimulatorFibSource fibs(sim);
    rcdc::MonitoringPipeline pipeline(metadata, fibs,
                                      rcdc::make_trie_verifier_factory(),
                                      config);
    std::size_t printed = 0;
    pipeline.set_alert_sink([&](const rcdc::Violation& v,
                                const rcdc::RiskAssessment&) {
      if (printed++ >= 6) return;  // sample the alert stream
      const auto decision = triage.triage(v);
      std::cout << "  alert: " << topology.device(v.device).name << " "
                << (v.contract.kind == rcdc::ContractKind::kDefault
                        ? "default"
                        : v.contract.prefix.to_string())
                << " " << to_string(v.kind) << " [" << to_string(decision.risk)
                << "] -> " << to_string(decision.action) << "\n";
    });
    const auto stats = pipeline.run_cycle();
    std::cout << "cycle " << cycle << ": " << stats.devices << " devices, "
              << stats.violations << " violations (" << stats.alerts_high
              << " high / " << stats.alerts_low << " low), wall "
              << std::chrono::duration_cast<std::chrono::milliseconds>(
                     stats.wall)
                     .count()
              << " ms, mean simulated fetch "
              << std::chrono::duration_cast<std::chrono::milliseconds>(
                     stats.fetch_sim_total)
                         .count() /
                     static_cast<long>(stats.devices)
              << " ms\n";
    if (stats.violations == 0) {
      std::cout << "datacenter validates clean; monitoring continues.\n";
      break;
    }
    // Remediation: fix up to three faults per cycle (risk-agnostic FIFO
    // here; see bench_fig6_burndown for the risk-ordered policy).
    for (int fixed = 0; fixed < 3 && !faults.records().empty(); ++fixed) {
      std::cout << "  remediating: "
                << faults.records().front().to_string(topology) << "\n";
      faults.repair(0);
    }
  }
  return 0;
}
