// End-to-end distribution tests over real TCP on loopback: a coordinator
// thread and WorkerSession threads speak the actual wire protocol through
// real sockets, a scripted "crasher" thread dies mid-shard to prove
// same-cycle recovery, and WorkerFleet's fork/exec/reap path is exercised
// with real child processes, including a two-cycle run of real dcv_worker
// processes. Everything binds ephemeral ports; nothing
// sleeps longer than the protocol needs.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/coordinator.hpp"
#include "dist/process.hpp"
#include "dist/transport.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_merge.hpp"
#include "rcdc/contract_gen.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/topology_io.hpp"

namespace dcv::dist {
namespace {

using namespace std::chrono_literals;

class E2eProcessTest : public testing::Test {
 protected:
  E2eProcessTest()
      : topology_(topo::build_clos(topo::ClosParams{.clusters = 2,
                                                    .tors_per_cluster = 2,
                                                    .leaves_per_cluster = 2,
                                                    .spines_per_plane = 1,
                                                    .regional_spines = 2})),
        metadata_(topology_),
        simulator_(topology_),
        fibs_(simulator_) {}

  /// Starts a real worker thread: connect, serve until shutdown/loss.
  std::thread start_worker(std::uint16_t port, const std::string& id,
                           std::atomic<int>* shutdowns) {
    return std::thread([this, port, id, shutdowns] {
      WorkerSessionConfig config;
      config.id = id;
      WorkerSession session(metadata_, fibs_,
                            rcdc::make_trie_verifier_factory(), config);
      auto transport = connect_tcp("127.0.0.1", port, 3000ms);
      ASSERT_NE(transport, nullptr) << id << " could not connect";
      if (session.run(*transport) == SessionEnd::kShutdown &&
          shutdowns != nullptr) {
        shutdowns->fetch_add(1);
      }
    });
  }

  /// Accepts `count` connections into the coordinator.
  void accept_workers(Coordinator& coordinator, TcpListener& listener,
                      std::size_t count) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (coordinator.live_workers() < count &&
           std::chrono::steady_clock::now() < deadline) {
      if (auto transport = listener.accept(50ms)) {
        coordinator.add_worker(std::move(transport));
      }
      coordinator.pump(count, std::chrono::milliseconds(10));
    }
    ASSERT_EQ(coordinator.live_workers(), count);
  }

  topo::Topology topology_;
  topo::MetadataService metadata_;
  routing::BgpSimulator simulator_;
  rcdc::SimulatorFibSource fibs_;
};

TEST_F(E2eProcessTest, RealTcpCycleWithTwoWorkers) {
  TcpListener listener(0);
  CoordinatorConfig config;
  config.shards_per_worker = 2;
  Coordinator coordinator(metadata_, config);

  std::atomic<int> shutdowns{0};
  std::thread w0 = start_worker(listener.port(), "tcp-w0", &shutdowns);
  std::thread w1 = start_worker(listener.port(), "tcp-w1", &shutdowns);
  accept_workers(coordinator, listener, 2);

  const DistributedSummary summary = coordinator.run_cycle();
  EXPECT_DOUBLE_EQ(summary.coverage(), 1.0);
  EXPECT_FALSE(summary.degraded());
  EXPECT_EQ(summary.merged.devices_checked, topology_.device_count());
  EXPECT_TRUE(summary.merged.violations.empty());
  EXPECT_EQ(coordinator.verdicts().size(), topology_.device_count());

  coordinator.shutdown_workers();
  w0.join();
  w1.join();
  EXPECT_EQ(shutdowns.load(), 2);
}

TEST_F(E2eProcessTest, ThreeWorkerCycleMergesOneCausalTimeline) {
  TcpListener listener(0);
  obs::TraceRing trace(8192);
  CoordinatorConfig config;
  config.shards_per_worker = 2;
  config.trace = &trace;
  Coordinator coordinator(metadata_, config);

  std::atomic<int> shutdowns{0};
  std::thread w0 = start_worker(listener.port(), "trace-w0", &shutdowns);
  std::thread w1 = start_worker(listener.port(), "trace-w1", &shutdowns);
  std::thread w2 = start_worker(listener.port(), "trace-w2", &shutdowns);
  accept_workers(coordinator, listener, 3);

  const DistributedSummary summary = coordinator.run_cycle();
  EXPECT_DOUBLE_EQ(summary.coverage(), 1.0);

  coordinator.shutdown_workers();
  w0.join();
  w1.join();
  w2.join();

  // The acceptance invariant: one merged timeline with a named track per
  // process, where every worker span tree hangs under the assign span of
  // the shard that caused it, and — after offset rewrite + causal clamp —
  // no worker span starts before its assign span.
  const obs::MergedTrace merged = coordinator.merger().snapshot();
  ASSERT_GE(merged.tracks.size(), 3u);
  EXPECT_EQ(merged.tracks[0].process, "coordinator");
  EXPECT_EQ(merged.truncated, 0u);

  std::map<std::uint64_t, const obs::TraceEvent*> assigns;
  for (const obs::TraceEvent& event : merged.tracks[0].events) {
    if (event.name == "assign") assigns[event.id] = &event;
  }
  ASSERT_FALSE(assigns.empty());

  std::size_t fetch_or_validate = 0;
  for (std::size_t t = 1; t < merged.tracks.size(); ++t) {
    const obs::MergedTrack& track = merged.tracks[t];
    EXPECT_EQ(track.process.rfind("trace-w", 0), 0u) << track.process;
    ASSERT_FALSE(track.events.empty()) << track.process;
    std::map<std::uint64_t, const obs::TraceEvent*> by_id;
    for (const obs::TraceEvent& event : track.events) {
      by_id[event.id] = &event;
    }
    for (const obs::TraceEvent& event : track.events) {
      if (event.name == "shard") {
        const auto assign = assigns.find(event.parent);
        ASSERT_NE(assign, assigns.end())
            << track.process << ": shard span not under an assign span";
        EXPECT_GE(event.start.count(), assign->second->start.count())
            << track.process << ": shard span precedes its assign span";
      } else {
        ++fetch_or_validate;
        const auto parent = by_id.find(event.parent);
        ASSERT_NE(parent, by_id.end())
            << track.process << ": " << event.name << " parent unresolvable";
        EXPECT_EQ(parent->second->name, "shard");
        EXPECT_GE(event.start.count(), parent->second->start.count());
      }
    }
  }
  // Real shards fetch and validate, so the merged timeline carries leaf
  // work spans from multiple workers, not just shard roots.
  EXPECT_GT(fetch_or_validate, 0u);
}

TEST_F(E2eProcessTest, PeerCrashMidShardRecoversSameCycle) {
  TcpListener listener(0);
  CoordinatorConfig config;
  config.shards_per_worker = 2;
  config.lease = 2s;
  Coordinator coordinator(metadata_, config);

  // A "crasher" speaking the raw protocol: hello, wait for the first
  // assignment, then die (socket closes). The real worker next to it must
  // absorb the reassigned shard within the same cycle.
  std::thread crasher([&listener, this] {
    auto transport = connect_tcp("127.0.0.1", listener.port(), 3000ms);
    ASSERT_NE(transport, nullptr);
    HelloMsg hello;
    hello.worker_id = "crasher";
    hello.topology_epoch = topology_.epoch();
    hello.topology_digest = rcdc::expected_topology_digest(metadata_);
    ASSERT_TRUE(transport->send(encode(hello)));
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (const auto frame = transport->poll()) {
        if (frame->type == MsgType::kAssign) return;  // dies holding a shard
      }
      if (transport->closed()) return;
      std::this_thread::sleep_for(1ms);
    }
  });
  std::atomic<int> shutdowns{0};
  std::thread survivor = start_worker(listener.port(), "survivor", &shutdowns);
  accept_workers(coordinator, listener, 2);

  const DistributedSummary summary = coordinator.run_cycle();
  crasher.join();
  EXPECT_DOUBLE_EQ(summary.coverage(), 1.0) << "shard was not recovered";
  EXPECT_FALSE(summary.degraded());
  EXPECT_EQ(summary.workers_lost, 1u);
  EXPECT_GE(summary.reassignments, 1u);
  std::size_t recovered = 0;
  for (const ShardOutcome& shard : summary.shards) {
    if (shard.status == ShardStatus::kRecovered) {
      ++recovered;
      EXPECT_TRUE(shard.degraded_confidence);
    }
  }
  EXPECT_GE(recovered, 1u);

  coordinator.shutdown_workers();
  survivor.join();
  EXPECT_EQ(shutdowns.load(), 1);
}

// Two cycles over unchanged state with real dcv_worker processes: the
// workers plan from the topology file they load, the second cycle checks no
// contract, and both report what an in-process validator finds.
TEST_F(E2eProcessTest, RealWorkerProcessesReplayTheSecondCycle) {
  install_fleet_signal_handlers();
  topo::Topology topology = topology_;
  topology.set_link_state(*topology.find_link(topology.tors_in_cluster(0)[0],
                                              topology.leaves_in_cluster(0)[0]),
                          topo::LinkState::kDown);
  const std::string path = ::testing::TempDir() + "dcv_e2e_two_cycles.topo";
  std::ofstream(path) << topo::write_topology(topology);
  const topo::Topology loaded =
      topo::parse_topology(topo::write_topology(topology));
  const topo::MetadataService metadata(loaded);

  TcpListener listener(0);
  CoordinatorConfig config;
  config.shards_per_worker = 2;
  Coordinator coordinator(metadata, config);
  WorkerFleet fleet;
  for (const char* id : {"proc-w0", "proc-w1"}) {
    ASSERT_GT(fleet.spawn({DCV_WORKER_BIN, "--connect",
                           "127.0.0.1:" + std::to_string(listener.port()),
                           "--topology", path, "--source", "sim",
                           "--worker-id", id, "--quiet"}),
              0);
  }
  accept_workers(coordinator, listener, 2);

  const DistributedSummary cold = coordinator.run_cycle();
  const DistributedSummary warm = coordinator.run_cycle();
  coordinator.shutdown_workers();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (fleet.alive() > 0 && std::chrono::steady_clock::now() < deadline) {
    (void)fleet.reap();
    std::this_thread::sleep_for(10ms);
  }
  fleet.kill_all(SIGKILL);
  (void)fleet.reap();
  std::remove(path.c_str());

  EXPECT_DOUBLE_EQ(cold.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(warm.coverage(), 1.0);
  EXPECT_GT(cold.merged.contracts_checked, 0u);
  EXPECT_EQ(warm.merged.contracts_checked, 0u);
  ASSERT_FALSE(cold.merged.violations.empty());
  EXPECT_EQ(warm.merged.violations, cold.merged.violations);

  const routing::BgpSimulator simulator(loaded);
  const rcdc::SimulatorFibSource fibs(simulator);
  const rcdc::DatacenterValidator validator(
      metadata, fibs, rcdc::make_trie_verifier_factory());
  std::vector<rcdc::Violation> expected = validator.run(2).violations;
  std::vector<rcdc::Violation> actual = warm.merged.violations;
  const auto order = [](const rcdc::Violation& a, const rcdc::Violation& b) {
    if (a.device != b.device) return a.device < b.device;
    if (a.contract.prefix != b.contract.prefix) {
      return a.contract.prefix < b.contract.prefix;
    }
    return a.rule_prefix < b.rule_prefix;
  };
  std::sort(expected.begin(), expected.end(), order);
  std::sort(actual.begin(), actual.end(), order);
  EXPECT_EQ(actual, expected);
}

TEST_F(E2eProcessTest, WorkerFleetClassifiesExits) {
  install_fleet_signal_handlers();
  obs::MetricsRegistry registry;
  WorkerFleet fleet(&registry);

  const pid_t clean = fleet.spawn({"/bin/sh", "-c", "exit 0"});
  const pid_t error = fleet.spawn({"/bin/sh", "-c", "exit 3"});
  const pid_t sleeper = fleet.spawn({"/bin/sh", "-c", "sleep 30"});
  ASSERT_GT(clean, 0);
  ASSERT_GT(error, 0);
  ASSERT_GT(sleeper, 0);
  EXPECT_EQ(fleet.alive(), 3u);

  ASSERT_EQ(::kill(sleeper, SIGKILL), 0);

  std::vector<WorkerExit> exits;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (exits.size() < 3 && std::chrono::steady_clock::now() < deadline) {
    for (WorkerExit& exit : fleet.reap()) exits.push_back(std::move(exit));
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(exits.size(), 3u);
  EXPECT_EQ(fleet.alive(), 0u);  // reaped: no zombies left behind

  for (const WorkerExit& exit : exits) {
    if (exit.pid == clean) {
      EXPECT_EQ(exit.reason, "exit0");
      EXPECT_EQ(exit.code, 0);
    } else if (exit.pid == error) {
      EXPECT_EQ(exit.reason, "exit");
      EXPECT_EQ(exit.code, 3);
    } else if (exit.pid == sleeper) {
      EXPECT_EQ(exit.reason, "signal");
      EXPECT_EQ(exit.code, SIGKILL);
    } else {
      ADD_FAILURE() << "unknown pid " << exit.pid;
    }
  }
  EXPECT_EQ(registry
                .counter("dcv_dist_worker_exits_total", "",
                         {{"reason", "exit0"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter("dcv_dist_worker_exits_total", "",
                         {{"reason", "exit"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter("dcv_dist_worker_exits_total", "",
                         {{"reason", "signal"}})
                .value(),
            1u);
}

TEST(ReconnectBackoffTest, ScheduleIsExponentialAndCapped) {
  ReconnectPolicy policy;
  policy.initial_backoff = 100ms;
  policy.multiplier = 2.0;
  policy.max_backoff = 1s;
  EXPECT_EQ(reconnect_backoff(policy, 1), 0ns);  // first try is immediate
  EXPECT_EQ(reconnect_backoff(policy, 2), 100ms);
  EXPECT_EQ(reconnect_backoff(policy, 3), 200ms);
  EXPECT_EQ(reconnect_backoff(policy, 4), 400ms);
  EXPECT_EQ(reconnect_backoff(policy, 5), 800ms);
  EXPECT_EQ(reconnect_backoff(policy, 6), 1s);  // capped
  EXPECT_EQ(reconnect_backoff(policy, 20), 1s);
}

}  // namespace
}  // namespace dcv::dist
