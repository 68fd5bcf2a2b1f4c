// Random Clos fabrics and the production churn mix, shared by the BGP
// differential and checkpoint suites.
#pragma once

#include <random>

#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"
#include "topology/topology.hpp"

namespace dcv::routing {

inline topo::ClosParams random_params(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::uint32_t> clusters(1, 3);
  std::uniform_int_distribution<std::uint32_t> tors(1, 3);
  std::uniform_int_distribution<std::uint32_t> leaves(1, 3);
  std::uniform_int_distribution<std::uint32_t> spines(1, 2);
  std::uniform_int_distribution<std::uint32_t> regionals(2, 4);
  return topo::ClosParams{.clusters = clusters(rng),
                          .tors_per_cluster = tors(rng),
                          .leaves_per_cluster = leaves(rng),
                          .spines_per_plane = spines(rng),
                          .regional_spines = regionals(rng)};
}

/// One random mutation drawn from the production churn mix: link failures,
/// session shutdowns, device faults, ASN drift, and repairs of earlier
/// faults (FaultInjector::repair clears and re-applies the remaining set,
/// which stresses the reconverge diff with whole-topology state swings).
inline void churn_step(topo::Topology& topology,
                       topo::FaultInjector& injector, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> pick(0.0, 1.0);
  const double p = pick(rng);
  if (p < 0.30) {
    injector.random_link_failures(1);
  } else if (p < 0.50) {
    injector.random_bgp_shutdowns(1);
  } else if (p < 0.70) {
    static constexpr topo::DeviceFaultKind kKinds[] = {
        topo::DeviceFaultKind::kRibFibInconsistency,
        topo::DeviceFaultKind::kLayer2InterfaceBug,
        topo::DeviceFaultKind::kEcmpSingleNextHop,
        topo::DeviceFaultKind::kRejectDefaultRoute,
    };
    static constexpr topo::DeviceRole kRoles[] = {
        topo::DeviceRole::kTor, topo::DeviceRole::kLeaf,
        topo::DeviceRole::kSpine};
    std::uniform_int_distribution<std::size_t> kind_pick(0, 3);
    std::uniform_int_distribution<std::size_t> role_pick(0, 2);
    injector.random_device_faults(1, kRoles[role_pick(rng)],
                                  kKinds[kind_pick(rng)]);
  } else if (p < 0.85 && !injector.records().empty()) {
    std::uniform_int_distribution<std::size_t> record_pick(
        0, injector.records().size() - 1);
    injector.repair(record_pick(rng));
  } else {
    // ASN drift: the §2.6.2 migration misconfiguration — reassign a random
    // non-regional device's ASN within the private range.
    std::uniform_int_distribution<std::size_t> device_pick(
        0, topology.device_count() - 1);
    std::uniform_int_distribution<topo::Asn> asn_pick(64500, 65535);
    const topo::DeviceId d = static_cast<topo::DeviceId>(device_pick(rng));
    if (topology.device(d).role != topo::DeviceRole::kRegionalSpine) {
      topology.set_asn(d, asn_pick(rng));
    }
  }
}

}  // namespace dcv::routing
