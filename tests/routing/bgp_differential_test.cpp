// Differential pinning of the worklist engine (BgpSimulator) against the
// retained Jacobi reference (ReferenceBgpSimulator): across randomized
// small Clos topologies, fault sets, and link-state churn, warm-started
// reconvergence must produce byte-equal RIBs and FIBs to a cold reference
// run on the mutated topology — at thread count 1 and at thread count N.
//
// The BgpParallel suite at the bottom is additionally run under
// ThreadSanitizer in CI; keep its tests self-contained and thread-heavy.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>

#include "net/error.hpp"
#include "obs/metrics.hpp"
#include "rcdc/fib_source.hpp"
#include "routing/bgp_reference.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"
#include "bgp_churn.hpp"

namespace dcv::routing {
namespace {

using topo::ClosParams;
using topo::DeviceFaultKind;
using topo::DeviceId;
using topo::DeviceRole;
using topo::FaultInjector;
using topo::Topology;

/// Asserts warm engine state ≡ cold reference on every device.
void expect_equal(const BgpSimulator& sim, const ReferenceBgpSimulator& ref,
                  const Topology& topology, const char* context) {
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), ref.rib(device.id))
        << context << ": RIB mismatch at " << device.name;
    ASSERT_EQ(sim.fib(device.id), ref.fib(device.id))
        << context << ": FIB mismatch at " << device.name;
  }
}

class BgpDifferential : public testing::TestWithParam<unsigned> {};

// 27 random topologies x 20 churn steps per thread count = 540 mutated
// states per instantiation, 1080 across both — each state compared on
// every device's RIB and FIB against a cold reference run.
TEST_P(BgpDifferential, WarmReconvergeMatchesColdReferenceUnderChurn) {
  const unsigned threads = GetParam();
  std::mt19937_64 rng(0xD1FFu * (threads + 1));
  for (int topo_case = 0; topo_case < 27; ++topo_case) {
    Topology topology = topo::build_clos(random_params(rng));
    FaultInjector injector(topology, /*seed=*/rng());
    BgpSimulator sim(topology, &injector, nullptr,
                     BgpSimOptions{.threads = threads,
                                   .parallel_threshold = 8});
    {
      const ReferenceBgpSimulator cold_ref(topology, &injector);
      ASSERT_EQ(sim.rounds(), cold_ref.rounds());
      expect_equal(sim, cold_ref, topology, "cold");
    }
    for (int step = 0; step < 20; ++step) {
      churn_step(topology, injector, rng);
      sim.reconverge();
      const ReferenceBgpSimulator ref(topology, &injector);
      expect_equal(sim, ref, topology, "churn");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, BgpDifferential,
                         testing::Values(1u, 4u));

// The random fabrics above have 1-3 ToRs and leaves per cluster, so every
// RIB is small and ECMP sets are narrow. This shape has 12 ToRs and 6
// leaves per cluster and 2 prefixes per ToR (49 routes per RIB): every
// leaf has 12 ToR feeds, every ToR 6-way ECMP, and a flipped ToR uplink
// dirties only that ToR's prefixes — under an eighth of each neighbor RIB,
// so reconvergence reaches them by binary-search skips, not a linear walk.
class BgpWideFanIn : public testing::TestWithParam<unsigned> {};

TEST_P(BgpWideFanIn, SingleLinkChurnMatchesColdReference) {
  const unsigned threads = GetParam();
  Topology topology = topo::build_clos(ClosParams{.clusters = 2,
                                                  .tors_per_cluster = 12,
                                                  .leaves_per_cluster = 6,
                                                  .spines_per_plane = 2,
                                                  .regional_spines = 2,
                                                  .prefixes_per_tor = 2});
  FaultInjector injector(topology, /*seed=*/0xFA41u + threads);
  BgpSimulator sim(topology, &injector, nullptr,
                   BgpSimOptions{.threads = threads,
                                 .parallel_threshold = 8});
  {
    const ReferenceBgpSimulator cold_ref(topology, &injector);
    ASSERT_EQ(sim.rounds(), cold_ref.rounds());
    expect_equal(sim, cold_ref, topology, "cold");
  }
  const auto tors = topology.devices_with_role(DeviceRole::kTor);
  const std::size_t leaves_seen = topology.neighbors_with_role(
      tors.front(), DeviceRole::kLeaf).size();
  ASSERT_EQ(leaves_seen, 6u);
  EXPECT_EQ(sim.rib(tors.back()).size(), 2u * 2u * 12u + 1u);

  std::mt19937_64 rng(0x51DEu + threads);
  std::uniform_real_distribution<double> pick(0.0, 1.0);
  for (int step = 0; step < 24; ++step) {
    const double p = pick(rng);
    if (p < 0.45) {
      injector.random_link_failures(1);
    } else if (p < 0.70) {
      injector.random_bgp_shutdowns(1);
    } else if (!injector.records().empty()) {
      std::uniform_int_distribution<std::size_t> record_pick(
          0, injector.records().size() - 1);
      injector.repair(record_pick(rng));
    }
    sim.reconverge();
    const ReferenceBgpSimulator ref(topology, &injector);
    expect_equal(sim, ref, topology, "single-link churn");
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, BgpWideFanIn, testing::Values(1u, 4u));

// Two usable links between one ToR and one leaf are two sessions to the
// same neighbor: the leaf must appear once in every next-hop set, before
// and after one of the parallel links fails.
TEST(BgpNextHops, ParallelLinksToOneNeighborYieldOneHop) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 2,
                                                  .tors_per_cluster = 2,
                                                  .leaves_per_cluster = 2,
                                                  .spines_per_plane = 1,
                                                  .regional_spines = 2});
  const DeviceId tor = topology.devices_with_role(DeviceRole::kTor).front();
  const DeviceId leaf = topology.neighbors_with_role(tor, DeviceRole::kLeaf)
                            .front();
  const topo::LinkId first = *topology.find_link(tor, leaf);
  topology.add_link(tor, leaf);
  FaultInjector injector(topology, /*seed=*/5);
  BgpSimulator sim(topology, &injector);

  const auto check = [&](const char* context) {
    const ReferenceBgpSimulator ref(topology, &injector);
    expect_equal(sim, ref, topology, context);
    const Rib& rib = sim.rib(tor);
    ASSERT_FALSE(rib.empty()) << context;
    for (const RibEntry& entry : rib) {
      if (entry.connected) continue;
      const auto hops = rib.next_hops(entry);
      EXPECT_EQ(std::count(hops.begin(), hops.end(), leaf), 1)
          << context << ": " << entry.prefix;
      EXPECT_TRUE(std::is_sorted(hops.begin(), hops.end())) << context;
    }
  };
  check("both links up");
  injector.link_down(first);
  sim.reconverge();
  check("one parallel link down");
}

TEST(BgpReconverge, NoChangeIsZeroRounds) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 2,
                                                  .tors_per_cluster = 2,
                                                  .leaves_per_cluster = 2,
                                                  .spines_per_plane = 1,
                                                  .regional_spines = 2});
  BgpSimulator sim(topology);
  EXPECT_EQ(sim.reconverge(), 0);
}

TEST(BgpReconverge, HostedPrefixChangePropagatesAsDelta) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 2,
                                                  .tors_per_cluster = 2,
                                                  .leaves_per_cluster = 2,
                                                  .spines_per_plane = 1,
                                                  .regional_spines = 2});
  BgpSimulator sim(topology);
  const auto tors = topology.devices_with_role(DeviceRole::kTor);
  const auto extra = net::Prefix::parse("10.200.0.0/24");
  topology.add_hosted_prefix(tors.front(), extra);
  EXPECT_GT(sim.reconverge(), 0);
  const ReferenceBgpSimulator ref(topology);
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), ref.rib(device.id)) << device.name;
  }
  EXPECT_TRUE(sim.rib(tors.front()).contains(extra));
}

TEST(BgpReconverge, TopologyGrowthFallsBackToColdRun) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 2,
                                                  .tors_per_cluster = 2,
                                                  .leaves_per_cluster = 2,
                                                  .spines_per_plane = 1,
                                                  .regional_spines = 2});
  BgpSimulator sim(topology);
  // A new device+link changes the expected shape: not representable as a
  // delta seed, so reconverge must rebuild from cold — and still be right.
  const auto spines = topology.devices_with_role(DeviceRole::kSpine);
  const DeviceId extra = topology.add_device(
      "extra-regional", DeviceRole::kRegionalSpine, 63099);
  topology.add_link(extra, spines.front());
  EXPECT_GT(sim.reconverge(), 0);
  const ReferenceBgpSimulator ref(topology);
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), ref.rib(device.id)) << device.name;
  }
}

// Regression for the historical convergence check that ignored
// origin_datacenter: entries differing only in origin must compare unequal,
// so an origin flip re-triggers propagation and regional-spine hairpin
// suppression never acts on a stale origin.
TEST(RibEntryEquality, OriginDatacenterIsPartOfEquality) {
  const auto prefix = net::Prefix::parse("10.0.0.0/24");
  const std::vector<topo::Asn> asns{64500, 63000};
  const PathId path = global_path_table().intern(asns);
  const std::vector<DeviceId> hops{3};
  Rib a;
  a.append(prefix, path, hops, /*connected=*/false, /*origin=*/0);
  Rib same;
  same.append(prefix, path, hops, /*connected=*/false, /*origin=*/0);
  Rib flipped;
  flipped.append(prefix, path, hops, /*connected=*/false, /*origin=*/1);
  EXPECT_TRUE(Rib::entry_equal(a, a.entries()[0], same, same.entries()[0]));
  EXPECT_FALSE(
      Rib::entry_equal(a, a.entries()[0], flipped, flipped.entries()[0]));
  EXPECT_EQ(a, same);
  EXPECT_NE(a, flipped);
}

TEST(RibLookup, FindAtContains) {
  const auto p1 = net::Prefix::parse("10.0.0.0/24");
  const auto p2 = net::Prefix::parse("10.0.1.0/24");
  Rib rib;
  rib.append(p2, kEmptyPathId, {}, /*connected=*/false, /*origin=*/0);
  rib.append(p1, kEmptyPathId, {}, /*connected=*/false, /*origin=*/0);
  rib.sort_by_prefix();
  ASSERT_EQ(rib.size(), 2u);
  EXPECT_EQ(rib.begin()->prefix, std::min(p1, p2));  // canonical order
  EXPECT_TRUE(rib.contains(p1));
  EXPECT_EQ(rib.at(p2).prefix, p2);
  EXPECT_EQ(rib.find(net::Prefix::parse("10.9.9.0/24")), nullptr);
  EXPECT_THROW(static_cast<void>(rib.at(net::Prefix::default_route())),
               InvalidArgument);
}

// The acceptance criterion for SimulatorFibSource: repeated fetches serve
// the cached materialization; a reconverge rebuilds only the devices whose
// RIB actually changed.
TEST(FibCache, FetchesServeCachedTablesAcrossCycles) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 3,
                                                  .tors_per_cluster = 3,
                                                  .leaves_per_cluster = 3,
                                                  .spines_per_plane = 2,
                                                  .regional_spines = 4});
  FaultInjector injector(topology, /*seed=*/9);
  obs::MetricsRegistry registry;
  BgpSimulator sim(topology, &injector, &registry);
  const rcdc::SimulatorFibSource source(sim);

  const auto& rebuilds =
      registry.counter("dcv_bgp_fib_rebuilds_total", "");
  const auto& hits = registry.counter("dcv_bgp_fib_cache_hits_total", "");
  const std::size_t n = topology.device_count();

  // Two full pipeline cycles: every table is built exactly once.
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (DeviceId d = 0; d < n; ++d) (void)source.fetch(d);
  }
  EXPECT_EQ(rebuilds.value(), n);
  EXPECT_EQ(hits.value(), n);

  // One link fault + warm reconverge: only affected devices rebuild.
  injector.random_link_failures(1);
  EXPECT_GT(sim.reconverge(), 0);
  for (DeviceId d = 0; d < n; ++d) (void)source.fetch(d);
  const std::uint64_t after_fault = rebuilds.value();
  EXPECT_GT(after_fault, n);       // something was invalidated
  EXPECT_LT(after_fault, 2 * n);   // but nowhere near the whole fleet

  // A FIB-programming fault flips a device's table without touching RIBs:
  // exactly that one device rebuilds.
  const auto tors = topology.devices_with_role(DeviceRole::kTor);
  injector.device_fault(tors.front(),
                        DeviceFaultKind::kEcmpSingleNextHop);
  EXPECT_EQ(sim.reconverge(), 0);  // no routing change
  for (DeviceId d = 0; d < n; ++d) (void)source.fetch(d);
  EXPECT_EQ(rebuilds.value(), after_fault + 1);
}

// What the simulator keeps between runs outside its route state is
// reported, and route_state_bytes() still counts the RIBs alone.
TEST(BgpMetrics, ScratchBytesGaugeIsSetAfterColdRun) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 2,
                                                  .tors_per_cluster = 3,
                                                  .leaves_per_cluster = 2,
                                                  .spines_per_plane = 1,
                                                  .regional_spines = 2});
  obs::MetricsRegistry registry;
  const BgpSimulator sim(topology, nullptr, &registry,
                         BgpSimOptions{.threads = 2});
  const double scratch =
      registry.gauge("dcv_bgp_scratch_bytes", "").value();
  EXPECT_GT(scratch, 0.0);
  std::size_t ribs = topology.device_count() * sizeof(Rib);
  for (const topo::Device& device : topology.devices()) {
    ribs += sim.rib(device.id).memory_bytes();
  }
  EXPECT_EQ(sim.route_state_bytes(), ribs);
}

// ---------------------------------------------------------------------------
// BgpParallel.* — exercised under ThreadSanitizer in CI.

TEST(BgpParallel, DeterministicAcrossThreadCounts) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 4,
                                                  .tors_per_cluster = 4,
                                                  .leaves_per_cluster = 4,
                                                  .spines_per_plane = 2,
                                                  .regional_spines = 4});
  const BgpSimulator serial(topology, nullptr, nullptr,
                            BgpSimOptions{.threads = 1});
  const BgpSimulator parallel(topology, nullptr, nullptr,
                              BgpSimOptions{.threads = 8,
                                            .parallel_threshold = 1});
  ASSERT_EQ(serial.rounds(), parallel.rounds());
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(serial.rib(device.id), parallel.rib(device.id)) << device.name;
  }
}

TEST(BgpParallel, ReconvergeChurnWithConcurrentFibFetches) {
  Topology topology = topo::build_clos(ClosParams{.clusters = 4,
                                                  .tors_per_cluster = 3,
                                                  .leaves_per_cluster = 3,
                                                  .spines_per_plane = 2,
                                                  .regional_spines = 4});
  FaultInjector injector(topology, /*seed=*/21);
  BgpSimulator sim(topology, &injector, nullptr,
                   BgpSimOptions{.threads = 4, .parallel_threshold = 1});
  std::mt19937_64 rng(21);
  for (int round = 0; round < 5; ++round) {
    churn_step(topology, injector, rng);
    sim.reconverge();
    // Converged state is immutable until the next reconverge: hammer the
    // striped FIB cache from several threads at once.
    std::vector<std::thread> fetchers;
    for (int t = 0; t < 4; ++t) {
      fetchers.emplace_back([&sim, &topology, t] {
        for (std::size_t d = 0; d < topology.device_count(); ++d) {
          const auto& fib =
              sim.fib(static_cast<DeviceId>((d + t) %
                                            topology.device_count()));
          ASSERT_GE(fib.rules().size(), 0u);
        }
      });
    }
    for (std::thread& f : fetchers) f.join();
  }
  const ReferenceBgpSimulator ref(topology, &injector);
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), ref.rib(device.id)) << device.name;
  }
}

}  // namespace
}  // namespace dcv::routing
