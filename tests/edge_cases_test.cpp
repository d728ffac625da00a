// Edge-case sweep across modules: parser error paths, OpenMP pragma
// corner cases, BN sampling with evidence, executor interplay, and
// input-aware requirement broadcasting.
#include <gtest/gtest.h>

#include "bayes/network.hpp"
#include "ir/lexer.hpp"
#include "ir/omp.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "kernels/registry.hpp"
#include "platform/executor.hpp"
#include "socrates/input_aware_app.hpp"
#include "socrates/pipeline.hpp"
#include "support/error.hpp"

namespace socrates {
namespace {

// ---- parser error paths -----------------------------------------------------

TEST(ParserErrors, UnterminatedConstructs) {
  EXPECT_THROW(ir::parse("void f(void) {"), ir::ParseError);
  EXPECT_THROW(ir::parse("void f(int a,"), ir::ParseError);
  EXPECT_THROW(ir::parse_expression("(a + b"), ir::ParseError);
  EXPECT_THROW(ir::parse_expression("A[i"), ir::ParseError);
  EXPECT_THROW(ir::parse_statement("if (x) else y;"), ir::ParseError);
}

TEST(ParserErrors, MissingSemicolons) {
  EXPECT_THROW(ir::parse_statement("x = 1"), ir::ParseError);
  EXPECT_THROW(ir::parse_statement("return x"), ir::ParseError);
  EXPECT_THROW(ir::parse("int g = 3"), ir::ParseError);
}

TEST(ParserErrors, BadDirectives) {
  EXPECT_THROW(ir::parse("#garbage nonsense"), ir::ParseError);
  // #pragma inside a function is fine, #include is not.
  EXPECT_THROW(ir::parse("void f(void) {\n#include <x.h>\n}"), ir::ParseError);
}

TEST(ParserErrors, ExpressionInTypePosition) {
  EXPECT_THROW(ir::parse("1 + 2;"), ir::ParseError);
}

// ---- OpenMP pragma corners ------------------------------------------------------

TEST(OmpCorners, BareDirectives) {
  const auto barrier = ir::parse_omp(ir::Pragma{"omp barrier"});
  ASSERT_TRUE(barrier.has_value());
  EXPECT_EQ(barrier->directive, "barrier");
  EXPECT_TRUE(barrier->clauses.empty());
  EXPECT_EQ(barrier->render(), "omp barrier");
}

TEST(OmpCorners, NestedParensInClause) {
  const auto info =
      ir::parse_omp(ir::Pragma{"omp parallel for num_threads(f(a, b) + 1)"});
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->clause_argument("num_threads"), "f(a, b) + 1");
}

TEST(OmpCorners, WhitespaceRobustness) {
  const auto info =
      ir::parse_omp(ir::Pragma{"  omp   parallel   for   nowait  "});
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->directive, "parallel for");
  EXPECT_TRUE(info->has_clause("nowait"));
}

// ---- BN forward sampling with fixed evidence --------------------------------------

TEST(BayesSampling, EvidencePinsVariables) {
  bayes::BayesNet net({bayes::Variable{"a", 2}, bayes::Variable{"b", 2}});
  net.add_edge(0, 1);
  bayes::Dataset data;
  for (int i = 0; i < 50; ++i) {
    data.push_back({0, 0});
    data.push_back({1, 1});
  }
  net.fit(data, 0.1);
  Rng rng(3);
  bayes::Assignment evidence(2, std::nullopt);
  evidence[0] = 1;
  for (int i = 0; i < 100; ++i) {
    const auto s = net.sample(rng, evidence);
    EXPECT_EQ(s[0], 1u);
  }
}

// ---- executor interplay --------------------------------------------------------------

TEST(ExecutorInterplay, IdleTimeMovesDisturbanceWindows) {
  // A disturbance scheduled after 100 s of idling must not hit a run
  // that happens before it.
  const auto model = platform::PerformanceModel::paper_platform();
  platform::KernelExecutor exec(model, kernels::find_benchmark("2mm").model, 0.01, 5);
  platform::DisturbanceSchedule sched;
  sched.add({100.0, 200.0, 0.0, 0.0, 50.0});
  exec.set_disturbances(std::move(sched));

  const platform::Configuration c{platform::FlagConfig(platform::OptLevel::kO2), 8,
                                  platform::BindingPolicy::kClose};
  const auto before = exec.run(c);
  exec.idle(150.0);
  const auto during = exec.run(c);
  EXPECT_NEAR(during.avg_power_w - before.avg_power_w, 50.0,
              before.avg_power_w * 0.1);
}

TEST(ExecutorInterplay, WorkScaleChangeTakesEffectImmediately) {
  const auto model = platform::PerformanceModel::paper_platform();
  platform::KernelExecutor exec(model, kernels::find_benchmark("syrk").model, 1.0, 5);
  const platform::Configuration c{platform::FlagConfig(platform::OptLevel::kO2), 8,
                                  platform::BindingPolicy::kClose};
  const double full = exec.run(c).exec_time_s;
  exec.set_work_scale(0.1);
  const double small = exec.run(c).exec_time_s;
  EXPECT_LT(small, full * 0.2);
  EXPECT_THROW(exec.set_work_scale(0.0), ContractViolation);
}

// ---- input-aware requirement broadcast ----------------------------------------------

TEST(InputAwareBroadcast, ConstraintsApplyToEveryCluster) {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 2;
  Pipeline tc(kModel, opts);
  InputAwareApplication app(build_input_aware(tc, "2mm", {0.05, 1.0}), kModel);

  using M = margot::ContextMetrics;
  app.set_rank_all(margot::Rank::minimize_exec_time(M::kExecTime));
  app.add_constraint_all({M::kPower, margot::ComparisonOp::kLessEqual, 80.0, 0, 0.0});

  for (const double scale : {0.05, 1.0}) {
    app.set_input(scale);
    const auto s = app.run_iteration();
    EXPECT_LE(s.power_w, 85.0) << "cap must hold at scale " << scale;
  }
}

// ---- weaving determinism under the full toolchain -------------------------------------

TEST(ToolchainWeave, WovenUnitsIdenticalAcrossBuilds) {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 1;
  Pipeline tc(kModel, opts);
  const auto a = tc.build("seidel-2d");
  const auto b = tc.build("seidel-2d");
  EXPECT_EQ(ir::print(a.woven.unit), ir::print(b.woven.unit));
}

}  // namespace
}  // namespace socrates
