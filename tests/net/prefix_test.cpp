#include "net/prefix.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>

#include "net/error.hpp"

namespace dcv::net {
namespace {

TEST(Prefix, DefaultIsDefaultRoute) {
  EXPECT_TRUE(Prefix{}.is_default());
  EXPECT_EQ(Prefix{}.to_string(), "0.0.0.0/0");
  EXPECT_EQ(Prefix::default_route(), Prefix{});
}

TEST(Prefix, HostBitsAreMaskedOff) {
  const Prefix p(Ipv4Address::parse("10.20.30.40"), 24);
  EXPECT_EQ(p.network().to_string(), "10.20.30.0");
  EXPECT_EQ(p, Prefix::parse("10.20.30.0/24"));
}

TEST(Prefix, ParseBareAddressAsHostRoute) {
  const Prefix p = Prefix::parse("1.2.3.4");
  EXPECT_EQ(p.length(), 32);
  EXPECT_EQ(p.size(), 1u);
}

TEST(Prefix, FirstAndLast) {
  const Prefix p = Prefix::parse("10.0.0.0/8");
  EXPECT_EQ(p.first().to_string(), "10.0.0.0");
  EXPECT_EQ(p.last().to_string(), "10.255.255.255");
  EXPECT_EQ(Prefix::parse("10.3.129.224/28").last().to_string(),
            "10.3.129.239");
}

TEST(Prefix, MaskAndSize) {
  EXPECT_EQ(Prefix::parse("1.0.0.0/24").mask().to_string(), "255.255.255.0");
  EXPECT_EQ(Prefix::parse("1.0.0.0/12").mask().to_string(), "255.240.0.0");
  EXPECT_EQ(Prefix::parse("0.0.0.0/0").size(), std::uint64_t{1} << 32);
  EXPECT_EQ(Prefix::parse("1.0.0.0/24").size(), 256u);
}

TEST(Prefix, ContainsAddress) {
  const Prefix p = Prefix::parse("172.16.0.0/12");
  EXPECT_TRUE(p.contains(Ipv4Address::parse("172.16.0.0")));
  EXPECT_TRUE(p.contains(Ipv4Address::parse("172.31.255.255")));
  EXPECT_FALSE(p.contains(Ipv4Address::parse("172.32.0.0")));
  EXPECT_FALSE(p.contains(Ipv4Address::parse("172.15.255.255")));
}

TEST(Prefix, ContainsPrefixIsSubsetRelation) {
  const Prefix outer = Prefix::parse("10.0.0.0/8");
  const Prefix inner = Prefix::parse("10.20.0.0/16");
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(inner.contains(outer));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_FALSE(outer.contains(Prefix::parse("11.0.0.0/16")));
}

TEST(Prefix, OverlapsIffNested) {
  const Prefix a = Prefix::parse("10.0.0.0/8");
  const Prefix b = Prefix::parse("10.1.0.0/16");
  const Prefix c = Prefix::parse("11.0.0.0/8");
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(Prefix::default_route().overlaps(c));
}

TEST(Prefix, LengthOutOfRangeThrows) {
  EXPECT_THROW(Prefix(Ipv4Address{}, 33), InvalidArgument);
  EXPECT_THROW(Prefix(Ipv4Address{}, -1), InvalidArgument);
  EXPECT_THROW(Prefix::parse("1.2.3.4/33"), ParseError);
  EXPECT_THROW(Prefix::parse("1.2.3.4/"), ParseError);
  EXPECT_THROW(Prefix::parse("1.2.3.4/x"), ParseError);
}

TEST(Prefix, OrderingIsByNetworkThenLength) {
  EXPECT_LT(Prefix::parse("9.0.0.0/8"), Prefix::parse("10.0.0.0/8"));
  EXPECT_LT(Prefix::parse("10.0.0.0/8"), Prefix::parse("10.0.0.0/16"));
}

TEST(Prefix, HashDistinguishesLengths) {
  const std::hash<Prefix> h;
  EXPECT_NE(h(Prefix::parse("10.0.0.0/8")), h(Prefix::parse("10.0.0.0/16")));
}

TEST(PrefixDifference, DisjointReturnsOuter) {
  const auto out = prefix_difference(Prefix::parse("10.0.0.0/8"),
                                     Prefix::parse("11.0.0.0/8"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Prefix::parse("10.0.0.0/8"));
}

TEST(PrefixDifference, InnerCoversOuterReturnsEmpty) {
  EXPECT_TRUE(prefix_difference(Prefix::parse("10.1.0.0/16"),
                                Prefix::parse("10.0.0.0/8"))
                  .empty());
  EXPECT_TRUE(prefix_difference(Prefix::parse("10.0.0.0/8"),
                                Prefix::parse("10.0.0.0/8"))
                  .empty());
}

TEST(PrefixDifference, SplitsIntoSiblings) {
  const auto out = prefix_difference(Prefix::parse("10.0.0.0/8"),
                                     Prefix::parse("10.64.0.0/10"));
  // 10.0.0.0/8 minus 10.64.0.0/10 = 10.128.0.0/9 and 10.0.0.0/10.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Prefix::parse("10.128.0.0/9"));
  EXPECT_EQ(out[1], Prefix::parse("10.0.0.0/10"));
}

/// Property: the difference pieces are disjoint from inner, nested in
/// outer, and together with inner exactly tile outer. The parameters are
/// strings, not const char*, so the case names print the prefixes rather
/// than pointer values that change with every run.
using PrefixPair = std::pair<std::string, std::string>;
class PrefixDifferenceProperty : public testing::TestWithParam<PrefixPair> {};

TEST_P(PrefixDifferenceProperty, TilesOuter) {
  const Prefix outer = Prefix::parse(GetParam().first);
  const Prefix inner = Prefix::parse(GetParam().second);
  const auto pieces = prefix_difference(outer, inner);
  std::uint64_t total = inner.contains(outer) ? 0 : inner.size();
  for (const Prefix& piece : pieces) {
    EXPECT_TRUE(outer.contains(piece)) << piece.to_string();
    EXPECT_FALSE(piece.overlaps(inner)) << piece.to_string();
    for (const Prefix& other : pieces) {
      if (&other != &piece) {
        EXPECT_FALSE(piece.overlaps(other));
      }
    }
    total += piece.size();
  }
  if (outer.contains(inner)) {
    EXPECT_EQ(total, outer.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PrefixDifferenceProperty,
    testing::Values(PrefixPair{"10.0.0.0/8", "10.0.0.0/16"},
                    PrefixPair{"10.0.0.0/8", "10.255.255.0/24"},
                    PrefixPair{"0.0.0.0/0", "10.37.0.0/16"},
                    PrefixPair{"10.0.0.0/8", "10.129.3.7/32"},
                    PrefixPair{"192.168.0.0/16", "192.168.128.0/17"}));

/// Property over random prefixes: contains() agrees with the interval view.
TEST(PrefixProperty, ContainsAgreesWithRange) {
  std::mt19937_64 rng(123);
  std::uniform_int_distribution<std::uint32_t> addr;
  std::uniform_int_distribution<int> len(0, 32);
  for (int i = 0; i < 2000; ++i) {
    const Prefix p(Ipv4Address(addr(rng)), len(rng));
    const Ipv4Address probe(addr(rng));
    const bool in_range = p.first() <= probe && probe <= p.last();
    EXPECT_EQ(p.contains(probe), in_range) << p.to_string();
  }
}

}  // namespace
}  // namespace dcv::net
