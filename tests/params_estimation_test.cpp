// Tests for feature-based model-parameter estimation and the
// arbitrary-source toolchain path.
#include <gtest/gtest.h>

#include "cobayn/corpus.hpp"
#include "features/params_from_features.hpp"
#include "ir/parser.hpp"
#include "kernels/registry.hpp"
#include "margot/context.hpp"
#include "kernels/sources.hpp"
#include "margot/kb_io.hpp"
#include "observability/metrics.hpp"
#include "socrates/pipeline.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace socrates {
namespace {

features::FeatureVector features_of_benchmark(const char* name) {
  const auto tu = ir::parse(kernels::benchmark_source(name));
  return features::extract_kernel_features(tu).front().second;
}

TEST(ParamEstimation, AllFieldsInValidRanges) {
  for (const auto& b : kernels::all_benchmarks()) {
    const auto fv = features_of_benchmark(b.name.c_str());
    const auto p = features::estimate_model_params(fv, b.name, 5.0);
    EXPECT_EQ(p.name, b.name);
    EXPECT_EQ(p.seq_work_s, 5.0);
    EXPECT_GE(p.parallel_fraction, 0.3);
    EXPECT_LE(p.parallel_fraction, 1.0);
    for (const double v : {p.mem_intensity, p.unroll_affinity,
                           p.vectorization_affinity, p.fp_ratio, p.branchiness,
                           p.call_density, p.icache_sensitivity, p.ivopt_sensitivity,
                           p.loop_opt_sensitivity}) {
      EXPECT_GE(v, 0.0) << b.name;
      EXPECT_LE(v, 1.0) << b.name;
    }
  }
}

TEST(ParamEstimation, QualitativeOrderingsMatchCalibration) {
  // The estimator must reproduce the *directions* of the hand
  // calibration: nussinov branchier and more call-dense than 2mm;
  // matvec kernels more memory-bound than matmuls; kernels without
  // OpenMP pragmas get a low parallel fraction.
  const auto p2mm =
      features::estimate_model_params(features_of_benchmark("2mm"), "2mm", 5.0);
  const auto pnuss = features::estimate_model_params(features_of_benchmark("nussinov"),
                                                     "nussinov", 5.0);
  const auto pmvt =
      features::estimate_model_params(features_of_benchmark("mvt"), "mvt", 5.0);

  EXPECT_GT(pnuss.branchiness, p2mm.branchiness);
  EXPECT_GT(pnuss.call_density, p2mm.call_density);
  EXPECT_GT(pmvt.mem_intensity, p2mm.mem_intensity);
  EXPECT_LT(pnuss.vectorization_affinity, p2mm.vectorization_affinity);

  const auto serial = features::estimate_model_params(
      [] {
        const auto tu = ir::parse(
            "void kernel_s(int n) { int i; for (i = 0; i < n; i++) g(i); }\n"
            "int main(void) { kernel_s(4); return 0; }");
        return features::extract_kernel_features(tu).front().second;
      }(),
      "serial", 1.0);
  EXPECT_LT(serial.parallel_fraction, 0.5);
}

TEST(ParamEstimation, RejectsNonPositiveWork) {
  const auto fv = features_of_benchmark("2mm");
  EXPECT_THROW(features::estimate_model_params(fv, "x", 0.0), ContractViolation);
}

TEST(BuildFromSource, WholePipelineOnArbitraryCode) {
  // A synthetic kernel the toolchain has never seen.
  cobayn::SyntheticSpec spec;
  spec.name = "userapp";
  spec.loop_nests = 2;
  spec.nest_depth = 2;
  spec.body_ops = 3;
  spec.memory_heavy = true;
  const std::string source = cobayn::generate_source(spec);

  const auto model = platform::PerformanceModel::paper_platform();
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 2;
  Pipeline tc(model, opts);
  const auto binary = tc.build_from_source("userapp", source, 2.0);

  EXPECT_EQ(binary.benchmark, "userapp");
  EXPECT_EQ(binary.profile.size(), 512u);
  EXPECT_EQ(binary.woven.kernels.size(), 1u);
  EXPECT_EQ(binary.woven.kernels[0].kernel_name, "kernel_userapp");
  EXPECT_EQ(binary.knowledge.size(), 512u);
  // Pinned: estimating the kernel model from the Features stage's
  // output, with no second parse, must not change the knowledge.
  EXPECT_EQ(stable_hash64(margot::knowledge_to_string(binary.knowledge)),
            0x00728393b9de7422ULL);
  // The AS-RTM can decide on it immediately.
  margot::Asrtm asrtm(binary.knowledge);
  asrtm.set_rank(margot::Rank::minimize_exec_time(margot::ContextMetrics::kExecTime));
  EXPECT_NO_THROW(asrtm.find_best_operating_point());
}

TEST(BuildFromSource, RequiresAKernelFunction) {
  const auto model = platform::PerformanceModel::paper_platform();
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  Pipeline tc(model, opts);
  EXPECT_THROW(tc.build_from_source("bad", "int main(void) { return 0; }"),
               ContractViolation);
}

TEST(BuildFromSource, MalformedSourceFailsInsideTheSupervisedParseStage) {
  const auto model = platform::PerformanceModel::paper_platform();
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  Pipeline tc(model, opts);
  Counter& failures = MetricsRegistry::global().counter("supervisor.transient_failures");
  const std::uint64_t before = failures.value();
  EXPECT_THROW(tc.build_from_source("bad", "void kernel_x(int n) { return ((1; }"),
               ir::ParseError);
  // Every attempt of the Parse stage failed under its supervisor.
  EXPECT_EQ(failures.value() - before, tc.options().supervisor.max_attempts);
}

}  // namespace
}  // namespace socrates
