// Change-plan parsing: parse-time name/link/ASN resolution (bad plans
// must fail here, never inside NetworkChange::apply against a shared warm
// emulator) and faithful application of the resolved operations.
#include "rcdc/precheck_io.hpp"

#include <gtest/gtest.h>

#include "net/error.hpp"
#include "topology/clos_builder.hpp"

namespace dcv::rcdc {
namespace {

class ChangePlanTest : public testing::Test {
 protected:
  ChangePlanTest() : topology_(topo::build_figure3()) {}

  topo::DeviceId id(const char* name) const {
    return *topology_.find_device(name);
  }

  topo::Topology topology_;
};

TEST_F(ChangePlanTest, ParsesChangesWithTheirOperations) {
  const auto changes = parse_change_plan(
      "# plan\n"
      "change renumber ToR1\n"
      "set-asn ToR1 64990\n"
      "\n"
      "change maintenance window\n"
      "shut-link ToR1 A1\n"
      "down-link ToR2 A2\n",
      topology_);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].description, "renumber ToR1");
  EXPECT_EQ(changes[1].description, "maintenance window");

  // Applying to a clone performs the resolved mutations.
  topo::Topology clone = topology_;
  changes[0].apply(clone);
  EXPECT_EQ(clone.device(id("ToR1")).asn, 64990u);
  changes[1].apply(clone);
  const auto link = *clone.find_link(id("ToR1"), id("A1"));
  EXPECT_EQ(clone.link(link).bgp_state, topo::BgpSessionState::kAdminShutdown);
  const auto down = *clone.find_link(id("ToR2"), id("A2"));
  EXPECT_EQ(clone.link(down).link_state, topo::LinkState::kDown);
}

TEST_F(ChangePlanTest, ResolvesNamesAtParseTime) {
  EXPECT_THROW(parse_change_plan("change x\nset-asn NoSuchDevice 1\n",
                                 topology_),
               dcv::ParseError);
  EXPECT_THROW(parse_change_plan("change x\nshut-link ToR1 ToR2\n",
                                 topology_),  // devices exist, link doesn't
               dcv::ParseError);
  EXPECT_THROW(parse_change_plan("change x\nset-asn ToR1 notanumber\n",
                                 topology_),
               dcv::ParseError);
  EXPECT_THROW(parse_change_plan("set-asn ToR1 64990\n", topology_),
               dcv::ParseError);  // operation before any 'change'
  EXPECT_THROW(parse_change_plan("change x\nfrob ToR1\n", topology_),
               dcv::ParseError);  // unknown operation
}

TEST_F(ChangePlanTest, ErrorsNameTheOffendingLine) {
  try {
    (void)parse_change_plan(
        "change ok\nset-asn ToR1 64990\nset-asn Ghost 1\n", topology_);
    FAIL() << "expected ParseError";
  } catch (const dcv::ParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("Ghost"), std::string::npos) << what;
  }
}

TEST_F(ChangePlanTest, EmptyAndCommentOnlyPlansYieldNoChanges) {
  EXPECT_TRUE(parse_change_plan("", topology_).empty());
  EXPECT_TRUE(parse_change_plan("# nothing\n\n", topology_).empty());
}

}  // namespace
}  // namespace dcv::rcdc
