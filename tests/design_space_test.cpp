// The knob schema: platform::DesignSpace is the one encoding of a
// design point (flat index, configuration, knob row, binding code,
// clone list), so each conversion must round-trip and must refuse what
// the space cannot hold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "platform/design_space.hpp"
#include "support/error.hpp"

namespace socrates::platform {
namespace {

const DesignSpace& space() {
  static const DesignSpace kSpace =
      DesignSpace::paper_space(MachineTopology::xeon_e5_2630_v3());
  return kSpace;
}

bool same(const DesignSpace::Point& a, const DesignSpace::Point& b) {
  return a.config == b.config && a.thread == b.thread && a.binding == b.binding;
}

/// The ContractViolation message `decode` throws for `row`.
std::string decode_error(const std::vector<int>& row) {
  try {
    space().decode(row);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "no error";
}

TEST(DesignSpace, PaperSpaceShape) {
  EXPECT_EQ(space().configs.size(), 8u);
  EXPECT_EQ(space().thread_counts.size(), 32u);
  EXPECT_EQ(space().bindings.size(), 2u);
  EXPECT_EQ(space().size(), 512u);
}

TEST(DesignSpace, FlatIndexIsConfigMajorThenThreadsThenBinding) {
  EXPECT_TRUE(same(space().point(0), {0, 0, 0}));
  EXPECT_TRUE(same(space().point(1), {0, 0, 1}));
  EXPECT_TRUE(same(space().point(2), {0, 1, 0}));
  EXPECT_TRUE(same(space().point(64), {1, 0, 0}));
  EXPECT_TRUE(same(space().point(511), {7, 31, 1}));
  for (std::size_t flat = 0; flat < space().size(); ++flat)
    EXPECT_EQ(space().flat(space().point(flat)), flat);
  EXPECT_THROW(space().point(space().size()), ContractViolation);
  EXPECT_THROW(space().flat({8, 0, 0}), ContractViolation);
}

TEST(DesignSpace, EveryEncodingRoundTrips) {
  for (std::size_t flat = 0; flat < space().size(); ++flat) {
    const auto p = space().point(flat);
    EXPECT_TRUE(same(space().decode(space().knob_row(p)), p)) << flat;
  }
  // The knob row holds the config index, the thread count (not its
  // index) and the binding code.
  EXPECT_EQ(space().knob_row({3, 16, 1}), (std::vector<int>{3, 17, 1}));
  EXPECT_EQ(DesignSpace::knob_names(),
            (std::vector<std::string>{"config", "threads", "binding"}));
  EXPECT_EQ(DesignSpace::metric_names(),
            (std::vector<std::string>{"exec_time_s", "power_w", "throughput"}));
}

TEST(DesignSpace, DecodeNamesTheKnobAndValueTheSpaceCannotHold) {
  // A knowledge row from a 64-thread machine: the 32-thread space must
  // refuse it at decode, not hand the platform model a configuration
  // it cannot place.
  EXPECT_NE(decode_error({0, 64, 0}).find("knob 'threads' = 64"), std::string::npos)
      << decode_error({0, 64, 0});
  EXPECT_NE(decode_error({0, 0, 0}).find("knob 'threads' = 0"), std::string::npos);
  EXPECT_NE(decode_error({8, 1, 0}).find("knob 'config' = 8"), std::string::npos);
  EXPECT_NE(decode_error({-1, 1, 0}).find("knob 'config' = -1"), std::string::npos);
  EXPECT_NE(decode_error({0, 1, 2}).find("knob 'binding' = 2"), std::string::npos);
  EXPECT_NE(decode_error({0, 1}).find("2 knobs"), std::string::npos);

  // A binding the space does not hold is refused even with a valid code.
  DesignSpace close_only = space();
  close_only.bindings = {BindingPolicy::kClose};
  EXPECT_NO_THROW(close_only.decode({0, 1, 0}));
  EXPECT_THROW(close_only.decode({0, 1, 1}), ContractViolation);
}

TEST(DesignSpace, BindingCodes) {
  EXPECT_EQ(DesignSpace::binding_code(BindingPolicy::kClose), 0);
  EXPECT_EQ(DesignSpace::binding_code(BindingPolicy::kSpread), 1);
}

TEST(DesignSpace, FullCloneListIsConfigMajorThenBinding) {
  const auto clones = space().clones();
  ASSERT_EQ(clones.size(), 16u);
  EXPECT_EQ(clones[0].config.name, "Os");
  EXPECT_EQ(clones[0].binding, BindingPolicy::kClose);
  EXPECT_EQ(clones[1].config.name, "Os");
  EXPECT_EQ(clones[1].binding, BindingPolicy::kSpread);
  EXPECT_EQ(clones[15].config.name, "CF4");
  EXPECT_EQ(clones[15].binding, BindingPolicy::kSpread);
}

TEST(DesignSpace, PrunedClonesDedupeInVersionIdOrder) {
  // (cfg 3, spread) and (cfg 1, close) each run two points.
  const auto clones = space().clones({{3, 3, 1}, {1, 7, 0}, {3, 15, 1}, {1, 1, 0}});
  ASSERT_EQ(clones.size(), 2u);
  EXPECT_EQ(clones[0].config.name, space().configs[1].name);
  EXPECT_EQ(clones[0].binding, BindingPolicy::kClose);
  EXPECT_EQ(clones[1].config.name, space().configs[3].name);
  EXPECT_EQ(clones[1].binding, BindingPolicy::kSpread);
  EXPECT_THROW(space().clones({{8, 0, 0}}), ContractViolation);
}

}  // namespace
}  // namespace socrates::platform
