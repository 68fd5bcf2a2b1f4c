// A warm PrecheckSession answers every check from the same baseline: a
// seeded sequence of plans gives the one-shot PrecheckPipeline's verdicts
// whether it runs forward or reversed through one session, and after every
// check (rejected, approved, refused or thrown) each emulated device's FIB
// fingerprints exactly like the baseline — rollback leaves nothing behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "rcdc/precheck.hpp"
#include "rcdc/precheck_io.hpp"
#include "rcdc/verdict_cache.hpp"
#include "topology/clos_builder.hpp"

namespace dcv::rcdc {
namespace {

/// One entry of the sequence: a change plus how the one-shot pipeline
/// treats it (throwing and shape-changing changes never reach the warm
/// emulator, so they have no one-shot verdict to match).
struct Probe {
  NetworkChange change;
  enum class Kind { kVerdict, kThrows, kShape } kind = Kind::kVerdict;
};

std::vector<Probe> make_probes(const topo::Topology& topology,
                               std::mt19937_64& rng) {
  const auto name = [&](topo::DeviceId id) { return topology.device(id).name; };
  const auto tors = topology.devices_with_role(topo::DeviceRole::kTor);
  const auto leaves = topology.devices_with_role(topo::DeviceRole::kLeaf);
  const auto& links = topology.links();
  std::vector<Probe> probes;
  const auto add_plan = [&](const std::string& text) {
    for (NetworkChange& change : parse_change_plan(text, topology)) {
      probes.push_back(Probe{std::move(change)});
    }
  };
  for (int i = 0; i < 16; ++i) {
    // A ToR or leaf renumbered to a fresh ASN, or onto another device's.
    const auto& pool = i % 4 == 3 ? leaves : tors;
    const topo::DeviceId device = pool[rng() % pool.size()];
    const topo::Asn asn = i % 2 == 0
                              ? 64900 + static_cast<topo::Asn>(i)
                              : topology.device(pool[rng() % pool.size()]).asn;
    add_plan("change renumber " + std::to_string(i) + "\nset-asn " +
             name(device) + " " + std::to_string(asn) + "\n");
  }
  for (const char* op : {"shut-link", "down-link"}) {
    for (int i = 0; i < 18; ++i) {
      const topo::Link& link = links[rng() % links.size()];
      add_plan(std::string("change ") + op + " " + std::to_string(i) + "\n" +
               op + " " + name(link.a) + " " + name(link.b) + "\n");
    }
  }
  for (int i = 0; i < 4; ++i) {
    // Two operations in one change: a renumber plus a shut elsewhere.
    const topo::Link& link = links[rng() % links.size()];
    add_plan("change combined " + std::to_string(i) + "\nset-asn " +
             name(tors[rng() % tors.size()]) + " 64990\nshut-link " +
             name(link.a) + " " + name(link.b) + "\n");
  }
  add_plan("change no-op\n");
  add_plan("change no-op again\n");
  const topo::LinkId victim = static_cast<topo::LinkId>(rng() % links.size());
  probes.push_back(Probe{
      NetworkChange{.description = "throws after a partial mutation",
                    .apply =
                        [victim](topo::Topology& emulated) {
                          emulated.set_bgp_state(
                              victim, topo::BgpSessionState::kAdminShutdown);
                          throw std::runtime_error("plan exploded");
                        }},
      Probe::Kind::kThrows});
  probes.push_back(Probe{
      NetworkChange{.description = "adds a device and a link",
                    .apply =
                        [leaf = leaves.front()](topo::Topology& emulated) {
                          const topo::DeviceId extra = emulated.add_device(
                              "intruder", topo::DeviceRole::kTor, 65001);
                          emulated.add_link(extra, leaf);
                        }},
      Probe::Kind::kShape});
  std::shuffle(probes.begin(), probes.end(), rng);
  return probes;
}

std::vector<std::uint64_t> fib_prints(const PrecheckSession& session,
                                      std::size_t devices) {
  std::vector<std::uint64_t> prints;
  for (std::size_t d = 0; d < devices; ++d) {
    prints.push_back(
        fingerprint(session.simulator().fib(static_cast<topo::DeviceId>(d))));
  }
  return prints;
}

TEST(PrecheckSessionOrder, ForwardAndReversedSequencesMatchTheOneShotPipeline) {
  topo::Topology production = topo::build_clos(
      topo::ClosParams{.clusters = 3,
                       .tors_per_cluster = 4,
                       .leaves_per_cluster = 3,
                       .spines_per_plane = 2,
                       .regional_spines = 2});
  // Pre-existing drift, so the baseline has violations to subtract.
  production.set_link_state(*production.find_link(
                                production.tors_in_cluster(0).front(),
                                production.leaves_in_cluster(0).front()),
                            topo::LinkState::kDown);
  std::mt19937_64 rng(0x0DE5u);
  const std::vector<Probe> probes = make_probes(production, rng);
  ASSERT_GE(probes.size(), 60u);

  const PrecheckPipeline one_shot(production);
  std::vector<PrecheckResult> expected(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (probes[i].kind == Probe::Kind::kThrows) {
      EXPECT_THROW((void)one_shot.check(probes[i].change), std::runtime_error);
    } else if (probes[i].kind == Probe::Kind::kVerdict) {
      expected[i] = one_shot.check(probes[i].change);
    }
  }
  const auto approvals = std::count_if(
      expected.begin(), expected.end(),
      [](const PrecheckResult& result) { return result.approved; });
  EXPECT_GT(approvals, 0);
  EXPECT_LT(static_cast<std::size_t>(approvals), probes.size());

  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reversed" : "forward");
    PrecheckSession session(production);
    ASSERT_GT(session.baseline_violations(), 0u);
    const std::vector<std::uint64_t> baseline =
        fib_prints(session, production.device_count());
    std::vector<std::size_t> order(probes.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (reversed) std::reverse(order.begin(), order.end());

    for (const std::size_t i : order) {
      const Probe& probe = probes[i];
      const PrecheckResult got = session.check(probe.change);
      SCOPED_TRACE(probe.change.description);
      switch (probe.kind) {
        case Probe::Kind::kThrows:
          EXPECT_FALSE(got.approved);
          EXPECT_NE(got.error.find("plan exploded"), std::string::npos);
          break;
        case Probe::Kind::kShape:
          EXPECT_FALSE(got.approved);
          EXPECT_NE(got.error.find("shape"), std::string::npos);
          break;
        case Probe::Kind::kVerdict: {
          const PrecheckResult& want = expected[i];
          EXPECT_TRUE(got.error.empty()) << got.error;
          EXPECT_EQ(got.approved, want.approved);
          EXPECT_EQ(got.baseline_violations, want.baseline_violations);
          EXPECT_EQ(got.post_change_violations, want.post_change_violations);
          ASSERT_EQ(got.introduced.size(), want.introduced.size());
          for (const Violation& violation : want.introduced) {
            EXPECT_NE(std::find(got.introduced.begin(), got.introduced.end(),
                                violation),
                      got.introduced.end());
          }
          break;
        }
      }
      ASSERT_EQ(fib_prints(session, production.device_count()), baseline);
    }
    EXPECT_EQ(session.checks_run(), probes.size());
    EXPECT_GT(session.devices_restored(), 0u);
    EXPECT_GT(session.max_checkpoint_bytes(), 0u);
  }
}

}  // namespace
}  // namespace dcv::rcdc
