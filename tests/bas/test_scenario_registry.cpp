// The fixed scenario table (bas::make_scenario): every (platform, variant)
// pair the paper compares is constructible through the one factory, the
// unified Scenario interface exposes the right machine/plant/console, and
// unknown pairs fail loudly instead of silently building the wrong thing.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "bas/scenario.hpp"
#include "sim/machine.hpp"

namespace bas = mkbas::bas;
namespace sim = mkbas::sim;

using bas::Platform;

TEST(ScenarioRegistry, BuildsTempVariantOnEveryPlatform) {
  for (Platform p : {Platform::kMinix, Platform::kSel4, Platform::kLinux}) {
    sim::Machine m(7);
    auto sc = bas::make_scenario(m, p, "temp");
    ASSERT_NE(sc, nullptr) << bas::to_string(p);
    EXPECT_EQ(sc->platform(), p);
    EXPECT_STREQ(sc->variant(), "temp");
    EXPECT_EQ(&sc->machine(), &m);
    // Temperature variants expose a live plant through the interface.
    ASSERT_NE(sc->plant(), nullptr);
  }
}

TEST(ScenarioRegistry, EmptyVariantMeansTemp) {
  sim::Machine m(7);
  auto sc = bas::make_scenario(m, Platform::kMinix, "");
  ASSERT_NE(sc, nullptr);
  EXPECT_STREQ(sc->variant(), "temp");
}

TEST(ScenarioRegistry, BuildsThePlatformSpecificVariants) {
  {
    sim::Machine m(7);
    auto sc = bas::make_scenario(m, Platform::kLinux, "uds");
    ASSERT_NE(sc, nullptr);
    EXPECT_STREQ(sc->variant(), "uds");
    EXPECT_NE(sc->plant(), nullptr);
  }
  {
    sim::Machine m(7);
    auto sc = bas::make_scenario(m, Platform::kMinix, "bsl3");
    ASSERT_NE(sc, nullptr);
    EXPECT_STREQ(sc->variant(), "bsl3");
    // Containment has different physics: no temperature plant.
    EXPECT_EQ(sc->plant(), nullptr);
  }
}

TEST(ScenarioRegistry, UnregisteredPairThrows) {
  sim::Machine m(7);
  EXPECT_THROW(bas::make_scenario(m, Platform::kMinix, "uds"),
               std::invalid_argument);
  EXPECT_THROW(bas::make_scenario(m, Platform::kSel4, "no-such-variant"),
               std::invalid_argument);
}

TEST(ScenarioRegistry, VariantListingIsSortedPerPlatform) {
  const auto linux_variants = bas::scenario_variants(Platform::kLinux);
  ASSERT_GE(linux_variants.size(), 2u);
  EXPECT_TRUE(std::is_sorted(linux_variants.begin(), linux_variants.end()));
  bool has_temp = false;
  for (const auto& v : linux_variants) has_temp |= (v == "temp");
  EXPECT_TRUE(has_temp);
}
