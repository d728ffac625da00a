// Tests for machine topology, thread placement and the flag space.
#include <gtest/gtest.h>

#include "platform/design_space.hpp"
#include "platform/flags.hpp"
#include "platform/topology.hpp"
#include "support/error.hpp"

namespace socrates::platform {
namespace {

const MachineTopology kXeon = MachineTopology::xeon_e5_2630_v3();

/// The paper's reduced compiler space: the standard levels then CF1-CF4.
std::vector<NamedConfig> paper_configs() {
  return DesignSpace::paper_space(kXeon).configs;
}

TEST(Topology, PaperPlatformShape) {
  EXPECT_EQ(kXeon.sockets, 2u);
  EXPECT_EQ(kXeon.physical_cores(), 16u);
  EXPECT_EQ(kXeon.logical_cores(), 32u);
}

TEST(Placement, CloseFillsSocketZeroFirst) {
  const auto p = place_threads(kXeon, 8, BindingPolicy::kClose);
  for (const auto& t : p) EXPECT_EQ(t.socket, 0u);
  const auto s = summarize(kXeon, p);
  EXPECT_EQ(s.sockets_used, 1u);
  EXPECT_EQ(s.cores_used, 8u);
  EXPECT_EQ(s.cores_with_two, 0u);
}

TEST(Placement, CloseSpillsToSecondSocketAfterEight) {
  const auto s = summarize(kXeon, place_threads(kXeon, 9, BindingPolicy::kClose));
  EXPECT_EQ(s.sockets_used, 2u);
  EXPECT_EQ(s.cores_per_socket_used[0], 8u);
  EXPECT_EQ(s.cores_per_socket_used[1], 1u);
}

TEST(Placement, SpreadAlternatesSockets) {
  const auto p = place_threads(kXeon, 2, BindingPolicy::kSpread);
  EXPECT_NE(p[0].socket, p[1].socket);
  const auto s = summarize(kXeon, p);
  EXPECT_EQ(s.sockets_used, 2u);
}

TEST(Placement, SpreadBalancesSockets) {
  for (const std::size_t n : {4u, 6u, 10u, 16u}) {
    const auto s = summarize(kXeon, place_threads(kXeon, n, BindingPolicy::kSpread));
    EXPECT_LE(s.cores_per_socket_used[0] - s.cores_per_socket_used[1], 1u) << n;
  }
}

TEST(Placement, HyperthreadsOnlyAfterAllCores) {
  for (const auto policy : {BindingPolicy::kClose, BindingPolicy::kSpread}) {
    const auto s16 = summarize(kXeon, place_threads(kXeon, 16, policy));
    EXPECT_EQ(s16.cores_with_two, 0u);
    const auto s17 = summarize(kXeon, place_threads(kXeon, 17, policy));
    EXPECT_EQ(s17.cores_with_two, 1u);
    const auto s32 = summarize(kXeon, place_threads(kXeon, 32, policy));
    EXPECT_EQ(s32.cores_with_two, 16u);
  }
}

TEST(Placement, EveryThreadPlacedExactlyOnce) {
  for (std::size_t n = 1; n <= kXeon.logical_cores(); ++n) {
    for (const auto policy : {BindingPolicy::kClose, BindingPolicy::kSpread}) {
      const auto p = place_threads(kXeon, n, policy);
      EXPECT_EQ(p.size(), n);
      const auto s = summarize(kXeon, p);
      EXPECT_EQ(s.threads, n);
      EXPECT_LE(s.cores_used, kXeon.physical_cores());
    }
  }
}

TEST(Placement, RejectsBadThreadCounts) {
  EXPECT_THROW(place_threads(kXeon, 0, BindingPolicy::kClose), ContractViolation);
  EXPECT_THROW(place_threads(kXeon, 33, BindingPolicy::kClose), ContractViolation);
}

TEST(Binding, StringRoundTrip) {
  EXPECT_EQ(binding_from_string("close"), BindingPolicy::kClose);
  EXPECT_EQ(binding_from_string("spread"), BindingPolicy::kSpread);
  EXPECT_STREQ(to_string(BindingPolicy::kSpread), "spread");
  EXPECT_THROW(binding_from_string("master"), ContractViolation);
}

// ---- flag space -----------------------------------------------------------------

TEST(Flags, PragmaOptionsFormat) {
  const FlagConfig c =
      FlagConfig(OptLevel::kO2).with(Flag::kNoInline).with(Flag::kUnrollAllLoops);
  EXPECT_EQ(c.pragma_options(), "O2,no-inline-functions,unroll-all-loops");
}

TEST(Flags, ParseRoundTrip) {
  for (const auto& named : paper_configs()) {
    const FlagConfig parsed = FlagConfig::parse(named.config.pragma_options());
    EXPECT_EQ(parsed, named.config) << named.name;
  }
}

TEST(Flags, ParseAcceptsPaperAbbreviation) {
  const FlagConfig c = FlagConfig::parse("O2,no-inline");
  EXPECT_TRUE(c.has(Flag::kNoInline));
}

TEST(Flags, ParseRejectsUnknown) {
  EXPECT_THROW(FlagConfig::parse("O7"), ContractViolation);
  EXPECT_THROW(FlagConfig::parse("O2,funroll-everything"), ContractViolation);
}

TEST(Flags, PaperCustomConfigsMatchSectionIII) {
  const auto cfs = paper_custom_configs();
  ASSERT_EQ(cfs.size(), 4u);
  // CF1: O3, no-guess-branch-probability, no-ivopts, no-tree-loop-optimize, no-inline
  EXPECT_EQ(cfs[0].config.level(), OptLevel::kO3);
  EXPECT_TRUE(cfs[0].config.has(Flag::kNoGuessBranchProb));
  EXPECT_TRUE(cfs[0].config.has(Flag::kNoIvopts));
  EXPECT_TRUE(cfs[0].config.has(Flag::kNoTreeLoopOptimize));
  EXPECT_TRUE(cfs[0].config.has(Flag::kNoInline));
  EXPECT_FALSE(cfs[0].config.has(Flag::kUnrollAllLoops));
  // CF4: O2, no-inline
  EXPECT_EQ(cfs[3].config.level(), OptLevel::kO2);
  EXPECT_EQ(cfs[3].config.flag_bits(),
            FlagConfig(OptLevel::kO2).with(Flag::kNoInline).flag_bits());
}

TEST(Flags, CobaynSpaceHas128DistinctPoints) {
  const auto space = cobayn_search_space();
  EXPECT_EQ(space.size(), 128u);
  for (std::size_t i = 0; i < space.size(); ++i)
    for (std::size_t j = i + 1; j < space.size(); ++j)
      EXPECT_FALSE(space[i] == space[j]) << i << "," << j;
}

TEST(Flags, ReducedSpaceIsEightNamedConfigs) {
  const auto space = paper_configs();
  ASSERT_EQ(space.size(), 8u);
  EXPECT_EQ(space[0].name, "Os");
  EXPECT_EQ(space[3].name, "O3");
  EXPECT_EQ(space[4].name, "CF1");
  EXPECT_EQ(space[7].name, "CF4");
}

}  // namespace
}  // namespace socrates::platform
