// BgpSimulator::checkpoint()/rollback(): a trial change converged inside a
// checkpoint and rolled back must leave every RIB and every FIB exactly as
// it was, on the random fabrics and churn mix of the differential suite, at
// one and at four threads. Later warm reconvergence must still agree with a
// cold ReferenceBgpSimulator, and a shape change inside a checkpoint (the
// cold fallback) must roll back too.
//
// The suite also runs under ThreadSanitizer in CI (concurrent fib() reads
// after rollback); keep its tests self-contained.
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "bgp_churn.hpp"
#include "net/error.hpp"
#include "routing/bgp_reference.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

namespace dcv::routing {
namespace {

using topo::DeviceId;
using topo::FaultInjector;
using topo::Topology;

/// Every device's RIB and programmed FIB, copied out of a simulator.
struct State {
  std::vector<Rib> ribs;
  std::vector<ForwardingTable> fibs;
};

/// Copies the state without materializing any FIB the simulator has not
/// cached yet (the FIB is programmed from the copied RIB instead), so
/// rollback sees both cached and never-materialized slots.
State capture(const BgpSimulator& sim, const Topology& topology,
              const FaultInjector* faults) {
  State state;
  for (const topo::Device& device : topology.devices()) {
    state.ribs.push_back(sim.rib(device.id));
    state.fibs.push_back(program_fib(state.ribs.back(), faults, device.id));
  }
  return state;
}

void expect_state(const BgpSimulator& sim, const Topology& topology,
                  const State& expected, const char* context) {
  ASSERT_EQ(topology.device_count(), expected.ribs.size()) << context;
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), expected.ribs[device.id])
        << context << ": RIB differs at " << device.name;
    ASSERT_EQ(sim.fib(device.id), expected.fibs[device.id])
        << context << ": FIB differs at " << device.name;
  }
}

void expect_reference(const BgpSimulator& sim, const Topology& topology,
                      const FaultInjector* faults, const char* context) {
  const ReferenceBgpSimulator ref(topology, faults);
  for (const topo::Device& device : topology.devices()) {
    ASSERT_EQ(sim.rib(device.id), ref.rib(device.id))
        << context << ": RIB mismatch at " << device.name;
    ASSERT_EQ(sim.fib(device.id), ref.fib(device.id))
        << context << ": FIB mismatch at " << device.name;
  }
}

class BgpCheckpoint : public testing::TestWithParam<unsigned> {
 protected:
  BgpSimOptions options() const {
    return BgpSimOptions{.threads = GetParam(), .parallel_threshold = 4};
  }
};

// 16 random fabrics x 12 steps per thread count. Each step: checkpoint,
// 1-3 churn mutations, reconverge, read some trial FIBs, restore topology
// and faults, rollback, compare everything; then one persistent mutation
// whose warm reconvergence is checked against the cold reference.
TEST_P(BgpCheckpoint, RollbackRestoresEveryRibAndFibUnderChurn) {
  std::mt19937_64 rng(0xC4E0u * (GetParam() + 1));
  for (int topo_case = 0; topo_case < 16; ++topo_case) {
    Topology topology = topo::build_clos(random_params(rng));
    FaultInjector injector(topology, /*seed=*/rng());
    BgpSimulator sim(topology, &injector, nullptr, options());
    for (int step = 0; step < 12; ++step) {
      // Cache half the FIBs, so the log holds both cached and empty slots.
      for (std::size_t d = step % 2; d < topology.device_count(); d += 2) {
        (void)sim.fib(static_cast<DeviceId>(d));
      }
      const State before = capture(sim, topology, &injector);
      const Topology saved_topology = topology;
      const FaultInjector saved_faults = injector;
      (void)sim.take_changed_devices();

      sim.checkpoint();
      const int mutations = 1 + static_cast<int>(rng() % 3);
      for (int m = 0; m < mutations; ++m) churn_step(topology, injector, rng);
      sim.reconverge();
      const std::vector<DeviceId> trial = sim.take_changed_devices();
      for (const DeviceId d : trial) (void)sim.fib(d);  // trial tables cached
      EXPECT_EQ(sim.checkpoint_bytes() > 0, !trial.empty());

      topology = saved_topology;
      injector = saved_faults;
      sim.rollback();
      EXPECT_EQ(sim.checkpoint_bytes(), 0u);
      // Every device the trial touched is reported as restored.
      EXPECT_EQ(sim.take_changed_devices(), trial);
      expect_state(sim, topology, before, "after rollback");

      churn_step(topology, injector, rng);
      sim.reconverge();
      expect_reference(sim, topology, &injector, "after a later mutation");
    }
  }
}

TEST_P(BgpCheckpoint, ShapeChangeInsideACheckpointRollsBack) {
  Topology topology = topo::build_clos(topo::ClosParams{.clusters = 2,
                                                        .tors_per_cluster = 2,
                                                        .leaves_per_cluster = 2,
                                                        .spines_per_plane = 1,
                                                        .regional_spines = 2});
  FaultInjector injector(topology, /*seed=*/5);
  BgpSimulator sim(topology, &injector, nullptr, options());
  injector.random_link_failures(1);
  sim.reconverge();
  const State before = capture(sim, topology, &injector);
  const Topology saved = topology;

  sim.checkpoint();
  // An ASN change first, so the log holds entries the cold fallback drops.
  const auto tors = topology.devices_with_role(topo::DeviceRole::kTor);
  topology.set_asn(tors.front(), 64999);
  sim.reconverge();
  EXPECT_GT(sim.checkpoint_bytes(), 0u);
  const auto spines = topology.devices_with_role(topo::DeviceRole::kSpine);
  const DeviceId extra = topology.add_device(
      "extra-regional", topo::DeviceRole::kRegionalSpine, 63099);
  topology.add_link(extra, spines.front());
  EXPECT_GT(sim.reconverge(), 0);  // cold fallback
  EXPECT_TRUE(sim.rib(extra).contains(net::Prefix::default_route()));

  topology = saved;
  sim.rollback();
  const std::vector<DeviceId> restored = sim.take_changed_devices();
  EXPECT_EQ(restored.size(), topology.device_count());
  expect_state(sim, topology, before, "after a cold rollback");

  // Warm reconvergence works again from the restored state.
  topology.set_asn(tors.back(), 64998);
  EXPECT_GT(sim.reconverge(), 0);
  expect_reference(sim, topology, &injector, "after a later mutation");
}

TEST_P(BgpCheckpoint, ConcurrentFibReadsAfterRollback) {
  Topology topology = topo::build_clos(topo::ClosParams{.clusters = 3,
                                                        .tors_per_cluster = 3,
                                                        .leaves_per_cluster = 3,
                                                        .spines_per_plane = 2,
                                                        .regional_spines = 4});
  FaultInjector injector(topology, /*seed=*/31);
  BgpSimulator sim(topology, &injector, nullptr, options());
  const State before = capture(sim, topology, &injector);
  std::mt19937_64 rng(31);
  for (int round = 0; round < 4; ++round) {
    const Topology saved_topology = topology;
    const FaultInjector saved_faults = injector;
    sim.checkpoint();
    churn_step(topology, injector, rng);
    churn_step(topology, injector, rng);
    sim.reconverge();
    for (std::size_t d = 0; d < topology.device_count(); ++d) {
      (void)sim.fib(static_cast<DeviceId>(d));
    }
    topology = saved_topology;
    injector = saved_faults;
    sim.rollback();
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        for (std::size_t i = 0; i < topology.device_count(); ++i) {
          const auto d = static_cast<DeviceId>((i + t) % topology.device_count());
          EXPECT_EQ(sim.fib(d), before.fibs[d]);
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, BgpCheckpoint, testing::Values(1u, 4u));

TEST(BgpCheckpointMisuse, RollbackNeedsAnOpenCheckpointAndCheckpointsDoNotNest) {
  const Topology topology = topo::build_figure3();
  BgpSimulator sim(topology);
  EXPECT_THROW(sim.rollback(), InvalidArgument);
  sim.checkpoint();
  EXPECT_THROW(sim.checkpoint(), InvalidArgument);
  EXPECT_EQ(sim.checkpoint_bytes(), 0u);  // nothing changed yet
  sim.rollback();
  EXPECT_THROW(sim.rollback(), InvalidArgument);  // closed again
}

}  // namespace
}  // namespace dcv::routing
