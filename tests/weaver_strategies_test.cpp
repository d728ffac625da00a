// Tests for the Multiversioning and Autotuner strategies across all
// twelve Polybench benchmarks (parameterized) — the Table I pipeline.
#include <gtest/gtest.h>

#include "ir/loc_counter.hpp"
#include "ir/omp.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "kernels/registry.hpp"
#include "kernels/sources.hpp"
#include "platform/design_space.hpp"
#include "support/error.hpp"
#include "weaver/report.hpp"

namespace socrates::weaver {
namespace {

/// Clones of configs x bindings, built by the knob schema.
std::vector<platform::CloneSpec> clones_of(
    std::vector<platform::NamedConfig> configs,
    std::vector<platform::BindingPolicy> bindings) {
  return platform::DesignSpace{std::move(configs), {1}, std::move(bindings)}.clones();
}

class Strategies : public ::testing::TestWithParam<std::string> {
 protected:
  WovenBenchmark weave() {
    const auto space =
        platform::DesignSpace::paper_space(platform::MachineTopology::xeon_e5_2630_v3());
    return weave_benchmark(GetParam(), ir::parse(kernels::benchmark_source(GetParam())),
                           space.clones());
  }
};

TEST_P(Strategies, GeneratesSixteenVersionsPerKernel) {
  const auto woven = weave();
  ASSERT_EQ(woven.kernels.size(), 1u);
  // 8 configs x 2 bindings.
  EXPECT_EQ(woven.kernels[0].versions.size(), 16u);
  // Version ids are dense and unique.
  std::vector<bool> seen(16, false);
  for (const auto& v : woven.kernels[0].versions) {
    ASSERT_GE(v.id, 0);
    ASSERT_LT(v.id, 16);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v.id)]);
    seen[static_cast<std::size_t>(v.id)] = true;
  }
}

TEST_P(Strategies, EveryCloneExistsWithGccPragma) {
  const auto woven = weave();
  const std::string out = ir::print(woven.unit);
  for (const auto& v : woven.kernels[0].versions) {
    EXPECT_NE(woven.unit.find_function(v.function_name), nullptr) << v.function_name;
    const std::string pragma =
        "#pragma GCC optimize(\"" + v.flags.pragma_options() + "\")";
    EXPECT_NE(out.find(pragma), std::string::npos) << pragma;
  }
}

TEST_P(Strategies, ClonesCarryRewrittenOmpPragmas) {
  const auto woven = weave();
  for (const auto& v : woven.kernels[0].versions) {
    const auto* clone = woven.unit.find_function(v.function_name);
    ASSERT_NE(clone, nullptr);
    bool found_rewritten = false;
    ir::walk_stmt(*clone->body, [&](const ir::Stmt& s) {
      if (s.kind != ir::StmtKind::kPragma) return;
      const auto info = ir::parse_omp(static_cast<const ir::PragmaStmt&>(s).pragma);
      if (!info) return;
      EXPECT_EQ(info->clause_argument("num_threads"),
                threads_variable(woven.kernels[0].kernel_name));
      EXPECT_EQ(info->clause_argument("proc_bind"),
                std::string(platform::to_string(v.binding)));
      found_rewritten = true;
    });
    EXPECT_TRUE(found_rewritten) << v.function_name;
  }
}

TEST_P(Strategies, OriginalKernelPragmasUntouched) {
  const auto woven = weave();
  const auto* original = woven.unit.find_function(woven.kernels[0].kernel_name);
  ASSERT_NE(original, nullptr);
  ir::walk_stmt(*original->body, [&](const ir::Stmt& s) {
    if (s.kind != ir::StmtKind::kPragma) return;
    const auto info = ir::parse_omp(static_cast<const ir::PragmaStmt&>(s).pragma);
    if (!info) return;
    EXPECT_FALSE(info->has_clause("proc_bind"));
  });
}

TEST_P(Strategies, WrapperDispatchesOnVersionVariable) {
  const auto woven = weave();
  const auto* wrapper = woven.unit.find_function(woven.kernels[0].wrapper_name);
  ASSERT_NE(wrapper, nullptr);
  const std::string body = ir::print_stmt(*wrapper->body);
  for (const auto& v : woven.kernels[0].versions)
    EXPECT_NE(body.find(v.function_name + "("), std::string::npos);
  EXPECT_NE(body.find(woven.kernels[0].version_var + " == 0"), std::string::npos);
  // Fallback to the original kernel.
  EXPECT_NE(body.find(woven.kernels[0].kernel_name + "("), std::string::npos);
}

TEST_P(Strategies, MainCallsWrapperNotKernel) {
  const auto woven = weave();
  const auto* main_fn = woven.unit.find_function("main");
  ASSERT_NE(main_fn, nullptr);
  const std::string body = ir::print_stmt(*main_fn->body);
  EXPECT_NE(body.find(woven.kernels[0].wrapper_name + "("), std::string::npos);
  // The direct kernel call must be gone (the wrapper name contains the
  // kernel name, so check for "kernel_xxx(" at a call position).
  EXPECT_EQ(body.find(woven.kernels[0].kernel_name + "("), std::string::npos);
}

TEST_P(Strategies, AutotunerInsertsMargotGlue) {
  const auto woven = weave();
  const std::string out = ir::print(woven.unit);
  EXPECT_NE(out.find("#include \"margot.h\""), std::string::npos);
  EXPECT_NE(out.find("margot_init();"), std::string::npos);
  const auto upd = out.find("margot_update(&" + woven.kernels[0].version_var + ", &" +
                            woven.kernels[0].threads_var + ");");
  const auto start = out.find("margot_start_monitors();");
  const auto call = out.find(woven.kernels[0].wrapper_name + "(", start);
  const auto stop = out.find("margot_stop_monitors();");
  EXPECT_NE(upd, std::string::npos);
  EXPECT_TRUE(upd < start && start < call && call < stop);
}

TEST_P(Strategies, ControlVariablesAreDeclared) {
  const auto woven = weave();
  const std::string out = ir::print(woven.unit);
  EXPECT_NE(out.find("int " + woven.kernels[0].version_var + " = 0;"),
            std::string::npos);
  EXPECT_NE(out.find("int " + woven.kernels[0].threads_var + " = 1;"),
            std::string::npos);
}

TEST_P(Strategies, WovenSourceReparsesAndIsStable) {
  const auto woven = weave();
  const std::string once = ir::print(woven.unit);
  const std::string twice = ir::print(ir::parse(once));
  EXPECT_EQ(once, twice);
}

TEST_P(Strategies, TableOneMetricsAreConsistent) {
  const auto woven = weave();
  const auto& r = woven.report;
  EXPECT_EQ(r.benchmark, GetParam());
  EXPECT_GT(r.attributes, 50u);
  EXPECT_GT(r.actions, 50u);
  EXPECT_GT(r.original_loc, 20u);
  // W-LOC is several times O-LOC (an order of magnitude in the paper).
  EXPECT_GT(r.weaved_loc, r.original_loc * 4);
  EXPECT_EQ(r.delta_loc(), r.weaved_loc - r.original_loc);
  EXPECT_GT(r.bloat(), 1.0);
  EXPECT_EQ(r.weaved_loc, ir::logical_loc(woven.unit));
}

TEST_P(Strategies, WeavingIsDeterministic) {
  const auto a = weave();
  const auto b = weave();
  EXPECT_EQ(ir::print(a.unit), ir::print(b.unit));
  EXPECT_EQ(a.report.attributes, b.report.attributes);
  EXPECT_EQ(a.report.actions, b.report.actions);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, Strategies,
                         ::testing::ValuesIn(kernels::benchmark_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });
INSTANTIATE_TEST_SUITE_P(ExtendedBenchmarks, Strategies,
                         ::testing::ValuesIn(kernels::extended_benchmark_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });


TEST(StrategiesEdge, RequiresAKernelFunction) {
  auto tu = ir::parse("int main(void) { return 0; }");
  WeavingMetrics metrics;
  Weaver weaver(tu, metrics);
  EXPECT_THROW(apply_multiversioning(
                   weaver, clones_of(platform::standard_levels(),
                                     {platform::BindingPolicy::kClose})),
               ContractViolation);
}

TEST(StrategiesEdge, AutotunerRequiresMain) {
  auto tu = ir::parse("void kernel_x(int n) { }\nvoid caller(void) { kernel_x(1); }");
  WeavingMetrics metrics;
  Weaver weaver(tu, metrics);
  const auto kernels = apply_multiversioning(
      weaver, clones_of(platform::standard_levels(), {platform::BindingPolicy::kClose}));
  EXPECT_THROW(apply_autotuner(weaver, kernels), ContractViolation);
}

TEST(StrategiesEdge, MultiKernelApplication) {
  // An application with two computation phases: each kernel gets its
  // own clones and wrapper, and both call sites are instrumented.
  const char* kTwoKernels = R"(
int buffer[100];

void kernel_phase1(int n)
{
  int i;
  #pragma omp parallel for
  for (i = 0; i < n; i++)
    buffer[i] = i * 2;
}

void kernel_phase2(int n)
{
  int i;
  #pragma omp parallel for
  for (i = 0; i < n; i++)
    buffer[i] = buffer[i] + 1;
}

int main(int argc, char **argv)
{
  kernel_phase1(100);
  kernel_phase2(100);
  return 0;
}
)";
  const auto woven = weave_benchmark(
      "two-kernels", ir::parse(kTwoKernels),
      clones_of(platform::standard_levels(),
                {platform::BindingPolicy::kClose, platform::BindingPolicy::kSpread}));
  ASSERT_EQ(woven.kernels.size(), 2u);
  EXPECT_EQ(woven.kernels[0].versions.size(), 8u);
  EXPECT_EQ(woven.kernels[1].versions.size(), 8u);
  const std::string out = ir::print(woven.unit);
  // Both wrappers exist and main calls both.
  EXPECT_NE(woven.unit.find_function("kernel_phase1_wrapper"), nullptr);
  EXPECT_NE(woven.unit.find_function("kernel_phase2_wrapper"), nullptr);
  const auto* main_fn = woven.unit.find_function("main");
  const std::string body = ir::print_stmt(*main_fn->body);
  EXPECT_NE(body.find("kernel_phase1_wrapper(100);"), std::string::npos);
  EXPECT_NE(body.find("kernel_phase2_wrapper(100);"), std::string::npos);
  // Each call site is individually instrumented: two update calls.
  std::size_t updates = 0;
  std::size_t pos = 0;
  while ((pos = body.find("margot_update", pos)) != std::string::npos) {
    ++updates;
    ++pos;
  }
  EXPECT_EQ(updates, 2u);
  // Each kernel gets its own control variables (independent tuning).
  EXPECT_NE(out.find("int __margot_version_kernel_phase1 = 0;"), std::string::npos);
  EXPECT_NE(out.find("int __margot_version_kernel_phase2 = 0;"), std::string::npos);
  EXPECT_NE(out.find("margot_update(&__margot_version_kernel_phase1"),
            std::string::npos);
  EXPECT_NE(out.find("margot_update(&__margot_version_kernel_phase2"),
            std::string::npos);
  // The woven multi-kernel source still parses and is stable.
  EXPECT_EQ(out, ir::print(ir::parse(out)));
}

TEST(StrategiesEdge, KernelCalledFromHelperFunction) {
  // Call sites outside main are retargeted and instrumented too.
  const char* kSource = R"(
void kernel_x(int n)
{
  int i;
  for (i = 0; i < n; i++)
    i = i;
}

void driver(int n)
{
  kernel_x(n);
}

int main(int argc, char **argv)
{
  driver(10);
  return 0;
}
)";
  const auto woven =
      weave_benchmark("helper-call", ir::parse(kSource),
                      clones_of({platform::NamedConfig{"O2", {}}},
                                {platform::BindingPolicy::kClose}));
  const auto* driver = woven.unit.find_function("driver");
  const std::string body = ir::print_stmt(*driver->body);
  EXPECT_NE(body.find("kernel_x_wrapper(n);"), std::string::npos);
  EXPECT_NE(body.find("margot_update"), std::string::npos);
}

TEST(StrategiesEdge, SingleConfigSingleBinding) {
  auto tu = ir::parse(
      "void kernel_x(int n) { }\nint main(void) { kernel_x(1); return 0; }");
  WeavingMetrics metrics;
  Weaver weaver(tu, metrics);
  const auto kernels = apply_multiversioning(
      weaver,
      clones_of({platform::NamedConfig{"O2", {}}}, {platform::BindingPolicy::kClose}));
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].versions.size(), 1u);
}

}  // namespace
}  // namespace socrates::weaver
