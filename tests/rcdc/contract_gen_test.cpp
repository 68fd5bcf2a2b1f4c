#include "rcdc/contract_gen.hpp"

#include <gtest/gtest.h>

#include "topology/clos_builder.hpp"
#include "topology/topology_io.hpp"

namespace dcv::rcdc {
namespace {

using topo::DeviceId;

class Figure4Contracts : public testing::Test {
 protected:
  Figure4Contracts()
      : topology_(topo::build_figure3()),
        metadata_(topology_),
        generator_(metadata_) {}

  DeviceId id(const char* name) const { return *topology_.find_device(name); }

  std::vector<DeviceId> ids(std::initializer_list<const char*> names) const {
    std::vector<DeviceId> out;
    for (const char* name : names) out.push_back(id(name));
    std::sort(out.begin(), out.end());
    return out;
  }

  const Contract* find(const std::vector<Contract>& contracts,
                       const char* prefix) const {
    for (const Contract& c : contracts) {
      if (c.prefix == net::Prefix::parse(prefix)) return &c;
    }
    return nullptr;
  }

  topo::Topology topology_;
  topo::MetadataService metadata_;
  ContractGenerator generator_;
};

// Figure 4, left table: ToR1 contracts — default and every other prefix
// point at {A1, A2, A3, A4}.
TEST_F(Figure4Contracts, Tor1MatchesFigure4) {
  const auto contracts = generator_.for_device(id("ToR1"));
  // Default + Prefix_B, Prefix_C, Prefix_D (own Prefix_A excluded).
  ASSERT_EQ(contracts.size(), 4u);
  const auto leaves = ids({"A1", "A2", "A3", "A4"});

  const Contract* def = find(contracts, "0.0.0.0/0");
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->kind, ContractKind::kDefault);
  EXPECT_EQ(def->expected_next_hops, leaves);

  EXPECT_EQ(find(contracts, "10.0.0.0/24"), nullptr);  // own prefix
  for (const char* prefix : {"10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"}) {
    const Contract* c = find(contracts, prefix);
    ASSERT_NE(c, nullptr) << prefix;
    EXPECT_EQ(c->kind, ContractKind::kSpecific);
    EXPECT_EQ(c->expected_next_hops, leaves) << prefix;
    EXPECT_EQ(c->mode, MatchMode::kExactSet);
  }
}

// Figure 4, middle table: A1 contracts — default {D1}, Prefix_A {ToR1},
// Prefix_B {ToR2}, Prefix_C {D1}, Prefix_D {D1}.
TEST_F(Figure4Contracts, LeafA1MatchesFigure4) {
  const auto contracts = generator_.for_device(id("A1"));
  ASSERT_EQ(contracts.size(), 5u);
  EXPECT_EQ(find(contracts, "0.0.0.0/0")->expected_next_hops, ids({"D1"}));
  EXPECT_EQ(find(contracts, "10.0.0.0/24")->expected_next_hops,
            ids({"ToR1"}));
  EXPECT_EQ(find(contracts, "10.0.1.0/24")->expected_next_hops,
            ids({"ToR2"}));
  EXPECT_EQ(find(contracts, "10.0.2.0/24")->expected_next_hops, ids({"D1"}));
  EXPECT_EQ(find(contracts, "10.0.3.0/24")->expected_next_hops, ids({"D1"}));
}

// §2.4.2's example: A2 has a specific route for Prefix_C with next hop D2.
TEST_F(Figure4Contracts, LeafA2PointsAtD2ForPrefixC) {
  const auto contracts = generator_.for_device(id("A2"));
  EXPECT_EQ(find(contracts, "10.0.2.0/24")->expected_next_hops, ids({"D2"}));
}

// Figure 4, right table: D1 contracts — default {R1, R3}, Prefix_A/B {A1},
// Prefix_C/D {B1}.
TEST_F(Figure4Contracts, SpineD1MatchesFigure4) {
  const auto contracts = generator_.for_device(id("D1"));
  ASSERT_EQ(contracts.size(), 5u);
  EXPECT_EQ(find(contracts, "0.0.0.0/0")->expected_next_hops,
            ids({"R1", "R3"}));
  EXPECT_EQ(find(contracts, "10.0.0.0/24")->expected_next_hops, ids({"A1"}));
  EXPECT_EQ(find(contracts, "10.0.1.0/24")->expected_next_hops, ids({"A1"}));
  EXPECT_EQ(find(contracts, "10.0.2.0/24")->expected_next_hops, ids({"B1"}));
  EXPECT_EQ(find(contracts, "10.0.3.0/24")->expected_next_hops, ids({"B1"}));
}

TEST_F(Figure4Contracts, RegionalContractsAreCardinalityStyle) {
  const auto contracts = generator_.for_device(id("R1"));
  ASSERT_EQ(contracts.size(), 4u);  // one per prefix, no default
  for (const Contract& c : contracts) {
    EXPECT_EQ(c.kind, ContractKind::kSpecific);
    EXPECT_EQ(c.mode, MatchMode::kSubsetAtLeast);
    EXPECT_EQ(c.min_next_hops, 1u);
    EXPECT_EQ(c.expected_next_hops, ids({"D1", "D3"}));
  }
}

TEST_F(Figure4Contracts, RegionalContractsCanBeDisabled) {
  const ContractGenerator no_regional(
      metadata_, ContractGenOptions{.include_regional_spines = false});
  EXPECT_TRUE(no_regional.for_device(id("R1")).empty());
}

TEST_F(Figure4Contracts, GenerateAllCoversEveryDevice) {
  const auto all = generator_.generate_all();
  ASSERT_EQ(all.size(), topology_.device_count());
  for (const DeviceContracts& dc : all) {
    EXPECT_FALSE(dc.contracts.empty())
        << topology_.device(dc.device).name;
  }
}

TEST_F(Figure4Contracts, ContractsIgnoreLinkState) {
  // "We create contracts based on expected topology, and therefore will
  // ignore current state of the links when generating contracts."
  const auto before = generator_.for_device(id("ToR1"));
  topo::apply_figure3_failures(topology_);
  const auto after = generator_.for_device(id("ToR1"));
  EXPECT_EQ(before, after);
}

TEST(ContractGen, RegionScopedToOwnDatacenter) {
  const auto topology = topo::build_region(
      topo::ClosParams{.clusters = 2,
                       .tors_per_cluster = 2,
                       .leaves_per_cluster = 2,
                       .spines_per_plane = 1,
                       .regional_spines = 2},
      2);
  const topo::MetadataService metadata(topology);
  const ContractGenerator generator(metadata);
  // A DC0 ToR gets specific contracts only for DC0 prefixes (4 ToRs per DC,
  // minus its own prefix) plus the default contract.
  const auto tor = *topology.find_device("DC0-T0-0-0");
  const auto contracts = generator.for_device(tor);
  EXPECT_EQ(contracts.size(), 1u + 3u);
  // A regional spine serves both datacenters: contracts for all 8 prefixes.
  const auto regional = *topology.find_device("RH-0");
  EXPECT_EQ(generator.for_device(regional).size(), 8u);
}

// hops_satisfy takes a span; materialize literal hop sets for it.
bool satisfies(std::initializer_list<topo::DeviceId> hops, const Contract& c) {
  const std::vector<topo::DeviceId> actual(hops);
  return hops_satisfy(actual, c);
}

TEST(HopsSatisfy, ExactSet) {
  const Contract c{.kind = ContractKind::kSpecific,
                   .prefix = net::Prefix::parse("10.0.0.0/24"),
                   .expected_next_hops = {1, 2, 3},
                   .mode = MatchMode::kExactSet};
  EXPECT_TRUE(satisfies({1, 2, 3}, c));
  EXPECT_FALSE(satisfies({1, 2}, c));
  EXPECT_FALSE(satisfies({1, 2, 3, 4}, c));
  EXPECT_FALSE(satisfies({}, c));
}

TEST(HopsSatisfy, SubsetAtLeast) {
  const Contract c{.kind = ContractKind::kSpecific,
                   .prefix = net::Prefix::parse("10.0.0.0/24"),
                   .expected_next_hops = {1, 2, 3},
                   .mode = MatchMode::kSubsetAtLeast,
                   .min_next_hops = 2};
  EXPECT_TRUE(satisfies({1, 2}, c));
  EXPECT_TRUE(satisfies({1, 2, 3}, c));
  EXPECT_FALSE(satisfies({1}, c));          // below the bound
  EXPECT_FALSE(satisfies({1, 2, 4}, c));    // not a subset
  EXPECT_FALSE(satisfies({}, c));
}

}  // namespace
}  // namespace dcv::rcdc

namespace dcv::rcdc {
namespace {

// The digest workers send at the fleet handshake: equal for separately
// loaded copies of one topology, blind to link state and ASNs (which no
// contract reads), and changed by any fact the generator does read.
TEST(ExpectedTopologyDigest, NamesExactlyThePlannedFacts) {
  auto topology = topo::build_figure3();
  const auto digest_of = [](const topo::Topology& t) {
    return expected_topology_digest(topo::MetadataService(t));
  };
  const std::uint64_t base = digest_of(topology);
  EXPECT_EQ(digest_of(topo::parse_topology(topo::write_topology(topology))),
            base);

  topo::Topology state_drift = topology;
  topo::apply_figure3_failures(state_drift);
  state_drift.set_asn(*state_drift.find_device("ToR1"), topo::Asn{65099});
  EXPECT_EQ(digest_of(state_drift), base);

  topo::Topology extra_prefix = topology;
  extra_prefix.add_hosted_prefix(*extra_prefix.find_device("ToR1"),
                                 net::Prefix::parse("10.9.0.0/24"));
  EXPECT_NE(digest_of(extra_prefix), base);

  topo::Topology extra_link = topology;
  extra_link.add_link(*extra_link.find_device("ToR1"),
                      *extra_link.find_device("ToR2"));
  EXPECT_NE(digest_of(extra_link), base);
}

}  // namespace
}  // namespace dcv::rcdc
