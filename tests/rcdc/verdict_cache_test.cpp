// The fingerprint → skip → replay cache: fingerprint semantics, the
// VerdictCache contract itself, and the incremental monitoring cycles built
// on it (MonitoringPipeline skips devices whose table is unchanged and
// replays their cached verdicts).
#include "rcdc/verdict_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <random>

#include "rcdc/pipeline.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"

namespace dcv::rcdc {
namespace {

class IncrementalTest : public testing::Test {
 protected:
  IncrementalTest()
      : topology_(topo::build_clos(topo::ClosParams{.clusters = 3,
                                                    .tors_per_cluster = 3,
                                                    .leaves_per_cluster = 4,
                                                    .spines_per_plane = 1,
                                                    .regional_spines = 4})),
        metadata_(topology_) {}

  /// A pipeline over `fibs` with no simulated pull latency.
  static PipelineConfig config() {
    return PipelineConfig{.puller_workers = 2,
                          .validator_workers = 2,
                          .time_scale = 0.0};
  }

  /// One monitoring cycle's stats plus every violation it reported.
  struct Cycle {
    PipelineStats stats;
    std::vector<Violation> violations;
  };

  static Cycle run(MonitoringPipeline& pipeline) {
    Cycle cycle;
    std::mutex mutex;
    pipeline.set_alert_sink([&](const Violation& v, const RiskAssessment&) {
      const std::lock_guard lock(mutex);
      cycle.violations.push_back(v);
    });
    cycle.stats = pipeline.run_cycle();
    std::sort(cycle.violations.begin(), cycle.violations.end(), order);
    return cycle;
  }

  static bool order(const Violation& a, const Violation& b) {
    if (a.device != b.device) return a.device < b.device;
    if (a.contract.prefix != b.contract.prefix) {
      return a.contract.prefix < b.contract.prefix;
    }
    return a.rule_prefix < b.rule_prefix;
  }

  topo::Topology topology_;
  topo::MetadataService metadata_;
};

Violation violation_on(topo::DeviceId device) {
  Violation v;
  v.device = device;
  v.kind = ViolationKind::kUnreachableRange;
  return v;
}

TEST(VerdictCacheTest, StoredVerdictHitsOnlyItsFingerprint) {
  VerdictCache cache;
  EXPECT_TRUE(cache.adopt(/*plan_epoch=*/3, /*device_count=*/4));
  EXPECT_FALSE(cache.hit(1, 0xAB));
  EXPECT_EQ(cache.fingerprint(1), 0u);
  cache.store(1, 0xAB, {violation_on(1), violation_on(1)});
  EXPECT_TRUE(cache.hit(1, 0xAB));
  EXPECT_FALSE(cache.hit(1, 0xAC));
  EXPECT_FALSE(cache.hit(2, 0xAB));
  EXPECT_EQ(cache.fingerprint(1), 0xABu);
  EXPECT_EQ(cache.size(), 1u);
  const VerdictCache::Replay replay = cache.replay(1, /*degraded=*/false);
  ASSERT_EQ(replay.violations.size(), 2u);
  EXPECT_EQ(replay.violations[0].device, 1u);
  EXPECT_EQ(replay.violations_degraded, 0u);
  // The same epoch keeps every verdict.
  EXPECT_FALSE(cache.adopt(3, 4));
  EXPECT_TRUE(cache.hit(1, 0xAB));
}

TEST(VerdictCacheTest, EpochBumpClearsCache) {
  VerdictCache cache;
  cache.adopt(1, 3);
  for (topo::DeviceId d = 0; d < 3; ++d) {
    cache.store(d, 100 + d, {violation_on(d)});
  }
  ASSERT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.adopt(2, 3));
  EXPECT_EQ(cache.size(), 0u);
  for (topo::DeviceId d = 0; d < 3; ++d) {
    EXPECT_FALSE(cache.hit(d, 100 + d));
    EXPECT_TRUE(cache.replay(d, false).violations.empty());
  }
  // A device-count change under the same epoch resets as well.
  cache.store(0, 7, {});
  EXPECT_TRUE(cache.adopt(2, 5));
  EXPECT_FALSE(cache.hit(0, 7));
}

TEST(VerdictCacheTest, FingerprintZeroNeverHits) {
  VerdictCache cache;
  cache.adopt(1, 2);
  // A verdict stored without a fingerprint (non-incremental mode) is
  // reportable but never replayable.
  cache.store(0, 0, {violation_on(0)});
  EXPECT_FALSE(cache.hit(0, 0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.replay(0, false).violations.size(), 1u);
  // Nor does 0 hit an empty slot.
  EXPECT_FALSE(cache.hit(1, 0));
}

TEST(VerdictCacheTest, DegradedReplayCountsViolationsDegraded) {
  VerdictCache cache;
  cache.adopt(1, 2);
  cache.store(0, 9, {violation_on(0), violation_on(0), violation_on(0)});
  EXPECT_EQ(cache.replay(0, /*degraded=*/false).violations_degraded, 0u);
  const VerdictCache::Replay degraded = cache.replay(0, /*degraded=*/true);
  EXPECT_EQ(degraded.violations.size(), 3u);
  EXPECT_EQ(degraded.violations_degraded, 3u);
  cache.store(1, 10, {});
  EXPECT_EQ(cache.replay(1, true).violations_degraded, 0u);
}

TEST(VerdictCacheTest, OutOfRangeDevicesAreIgnored) {
  VerdictCache cache;
  cache.adopt(1, 2);
  cache.store(9, 5, {violation_on(9)});
  EXPECT_FALSE(cache.hit(9, 5));
  EXPECT_EQ(cache.fingerprint(9), 0u);
  EXPECT_TRUE(cache.replay(9, true).violations.empty());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Fingerprint, SensitiveToContent) {
  routing::ForwardingTable a;
  a.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                      .next_hops = {1, 2}});
  routing::ForwardingTable b = a;
  EXPECT_EQ(fingerprint(a), fingerprint(b));

  b.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                      .next_hops = {1}});
  EXPECT_NE(fingerprint(a), fingerprint(b));

  routing::ForwardingTable c;
  c.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                      .next_hops = {1, 2},
                      .connected = true});
  EXPECT_NE(fingerprint(a), fingerprint(c));

  EXPECT_NE(fingerprint(routing::ForwardingTable{}), 0u);
}

// The fingerprint is a *semantic* content hash: two equivalent tables whose
// rules or ECMP next-hop sets merely arrived in a different order must
// fingerprint identically (otherwise the verdict cache re-verifies unchanged
// devices), while any real content change must still be seen.
TEST(Fingerprint, InvariantUnderRuleAndHopPermutation) {
  const std::vector<routing::Rule> rules = {
      {.prefix = net::Prefix::parse("10.0.0.0/24"), .next_hops = {1, 2, 3}},
      {.prefix = net::Prefix::parse("10.0.1.0/24"), .next_hops = {4, 5}},
      {.prefix = net::Prefix::parse("10.0.0.0/16"), .next_hops = {6}},
      {.prefix = net::Prefix::parse("0.0.0.0/0"), .next_hops = {7, 8}},
      {.prefix = net::Prefix::parse("192.168.0.0/30"),
       .next_hops = {},
       .connected = true},
  };

  routing::ForwardingTable reference;
  for (const auto& rule : rules) reference.add(rule);
  const std::uint64_t expected = fingerprint(reference);

  std::mt19937_64 rng(2019);
  for (int trial = 0; trial < 32; ++trial) {
    auto shuffled = rules;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    routing::ForwardingTable permuted;
    for (auto& rule : shuffled) {
      std::shuffle(rule.next_hops.begin(), rule.next_hops.end(), rng);
      permuted.add(std::move(rule));
    }
    EXPECT_EQ(fingerprint(permuted), expected);
  }

  // Real changes still change the fingerprint: a hop swapped for another...
  routing::ForwardingTable changed_hop = reference;
  changed_hop.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                                .next_hops = {1, 2, 9}});
  EXPECT_NE(fingerprint(changed_hop), expected);
  // ...a hop dropped from the ECMP set...
  routing::ForwardingTable dropped_hop = reference;
  dropped_hop.add(routing::Rule{.prefix = net::Prefix::parse("10.0.1.0/24"),
                                .next_hops = {4}});
  EXPECT_NE(fingerprint(dropped_hop), expected);
  // ...and a hop moved between two rules' sets (totals preserved).
  routing::ForwardingTable moved_hop = reference;
  moved_hop.add(routing::Rule{.prefix = net::Prefix::parse("10.0.0.0/24"),
                              .next_hops = {1, 2}});
  moved_hop.add(routing::Rule{.prefix = net::Prefix::parse("10.0.1.0/24"),
                              .next_hops = {3, 4, 5}});
  EXPECT_NE(fingerprint(moved_hop), expected);
}

/// Serves the inner source's tables rebuilt with the rule insertion order
/// and every ECMP next-hop set freshly permuted on each fetch — the
/// "equivalent table, different arrival order" shape of real pulls.
class PermutingFibSource final : public FibSource {
 public:
  PermutingFibSource(const FibSource& inner, std::uint64_t seed)
      : inner_(&inner), seed_(seed) {}

  [[nodiscard]] routing::ForwardingTable fetch(
      topo::DeviceId device) const override {
    const routing::ForwardingTable original = inner_->fetch(device);
    std::mt19937_64 rng(seed_ ^ (0x9E3779B97F4A7C15ull * (device + 1)));
    auto rules = original.rules();
    std::shuffle(rules.begin(), rules.end(), rng);
    routing::ForwardingTable permuted;
    for (auto& rule : rules) {
      std::shuffle(rule.next_hops.begin(), rule.next_hops.end(), rng);
      permuted.add(std::move(rule));
    }
    return permuted;
  }

 private:
  const FibSource* inner_;
  std::uint64_t seed_;
};

TEST_F(IncrementalTest, FirstCycleValidatesEverything) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  MonitoringPipeline pipeline(metadata_, fibs, make_trie_verifier_factory(),
                              config());
  const Cycle cycle = run(pipeline);
  EXPECT_EQ(cycle.stats.devices, topology_.device_count());
  EXPECT_EQ(cycle.stats.devices_revalidated, cycle.stats.devices);
  EXPECT_TRUE(cycle.violations.empty());
}

// Acceptance for the fingerprint bugfix: a second cycle that pulls
// permuted-but-equivalent tables (shuffled rule arrival order, shuffled
// ECMP next-hop sets) must not re-validate a single device.
TEST_F(IncrementalTest, PermutedEquivalentFibIsNotRevalidated) {
  topo::FaultInjector faults(topology_);
  faults.random_link_failures(2);
  const routing::BgpSimulator sim(topology_, &faults);
  const SimulatorFibSource fibs(sim);
  // The pipeline fetches through a source whose behaviour a cycle can
  // change: plain tables first, then permuted ones.
  class SwitchingSource final : public FibSource {
   public:
    explicit SwitchingSource(const FibSource& inner) : active_(&inner) {}
    void use(const FibSource& source) { active_ = &source; }
    [[nodiscard]] routing::ForwardingTable fetch(
        topo::DeviceId device) const override {
      return active_->fetch(device);
    }

   private:
    const FibSource* active_;
  };
  SwitchingSource source(fibs);
  MonitoringPipeline pipeline(metadata_, source, make_trie_verifier_factory(),
                              config());
  const Cycle first = run(pipeline);
  ASSERT_EQ(first.stats.devices_revalidated, first.stats.devices);
  ASSERT_FALSE(first.violations.empty());

  for (const std::uint64_t seed : {7ull, 8ull}) {
    const PermutingFibSource permuted(fibs, seed);
    source.use(permuted);
    const Cycle cycle = run(pipeline);
    EXPECT_EQ(cycle.stats.devices_revalidated, 0u);
    EXPECT_EQ(cycle.stats.contracts_checked, 0u);
    EXPECT_EQ(cycle.violations, first.violations);
  }
}

TEST_F(IncrementalTest, UnchangedNetworkRevalidatesNothing) {
  const routing::BgpSimulator sim(topology_);
  const SimulatorFibSource fibs(sim);
  MonitoringPipeline pipeline(metadata_, fibs, make_trie_verifier_factory(),
                              config());
  (void)run(pipeline);
  const Cycle second = run(pipeline);
  EXPECT_EQ(second.stats.devices_revalidated, 0u);
  EXPECT_EQ(second.stats.devices_skipped, second.stats.devices);
  EXPECT_EQ(second.stats.contracts_checked, 0u);
  EXPECT_TRUE(second.violations.empty());
}

TEST_F(IncrementalTest, FaultRevalidatesOnlyAffectedDevices) {
  // The routing simulator's view follows the fault injector; the pipeline
  // pulls through it every cycle.
  topo::FaultInjector faults(topology_);
  routing::BgpSimulator sim(topology_, &faults);
  const SimulatorFibSource fibs(sim);
  MonitoringPipeline pipeline(metadata_, fibs, make_trie_verifier_factory(),
                              config());
  (void)run(pipeline);

  // One link down: routing changes ripple to a subset of devices only.
  faults.link_down(
      *topology_.find_link(topology_.tors_in_cluster(0)[0],
                           topology_.leaves_in_cluster(0)[0]));
  sim.reconverge();
  const Cycle incremental = run(pipeline);

  EXPECT_GT(incremental.stats.devices_revalidated, 0u);
  EXPECT_LT(incremental.stats.devices_revalidated, incremental.stats.devices);
  EXPECT_FALSE(incremental.violations.empty());

  // The merged picture matches a from-scratch full validation.
  const DatacenterValidator full(metadata_, fibs,
                                 make_trie_verifier_factory());
  auto expected = full.run(2).violations;
  std::sort(expected.begin(), expected.end(), order);
  EXPECT_EQ(expected, incremental.violations);
}

TEST_F(IncrementalTest, RepairConvergesBackToClean) {
  topo::FaultInjector faults(topology_);
  faults.random_link_failures(2);
  routing::BgpSimulator sim(topology_, &faults);
  const SimulatorFibSource fibs(sim);
  MonitoringPipeline pipeline(metadata_, fibs, make_trie_verifier_factory(),
                              config());
  EXPECT_FALSE(run(pipeline).violations.empty());
  faults.reset();
  sim.reconverge();
  EXPECT_TRUE(run(pipeline).violations.empty());
}

}  // namespace
}  // namespace dcv::rcdc
