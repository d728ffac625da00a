#include "socrates/pipeline.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "dse/representative.hpp"
#include "dse/two_stage.hpp"
#include "features/params_from_features.hpp"
#include "ir/parser.hpp"
#include "kernels/registry.hpp"
#include "kernels/sources.hpp"
#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "support/chaos.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"

namespace socrates {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one pipeline stage: finish() records a "pipeline" trace span,
/// feeds the per-stage seconds histogram and returns the elapsed time
/// for the StageReport.  Explicit finish() (not RAII) because stages
/// run linearly in one scope and their spans must not nest.
class StageScope {
 public:
  explicit StageScope(const char* name)
      : name_(name),
        start_(Clock::now()),
        trace_start_us_(Tracer::global().enabled() ? Tracer::global().now_us()
                                                   : -1) {}

  double finish() const {
    const double seconds = seconds_since(start_);
    MetricsRegistry::global()
        .histogram(std::string("pipeline.stage_seconds.") + name_)
        .observe(seconds);
    if (trace_start_us_ >= 0) {
      TraceEvent event;
      event.name = name_;
      event.category = "pipeline";
      event.lane = Tracer::current_lane();
      event.start_us = trace_start_us_;
      event.duration_us = Tracer::global().now_us() - trace_start_us_;
      Tracer::global().record(event);
    }
    return seconds;
  }

 private:
  const char* name_;
  Clock::time_point start_;
  std::int64_t trace_start_us_;
};

void count_key_bytes(const Hasher& h) {
  static Counter& bytes =
      MetricsRegistry::global().counter("pipeline.key_bytes_hashed");
  bytes.add(h.bytes());
}

}  // namespace

const StageReport* PipelineReport::stage(std::string_view name) const {
  for (std::size_t i = stages.size(); i-- > 0;)
    if (stages[i].name == name) return &stages[i];
  return nullptr;
}

std::uint64_t platform_signature(const platform::PerformanceModel& platform) {
  Hasher h;
  h.add("platform-signature");
  const auto& t = platform.topology();
  h.add(static_cast<std::uint64_t>(t.sockets));
  h.add(static_cast<std::uint64_t>(t.cores_per_socket));
  h.add(static_cast<std::uint64_t>(t.threads_per_core));
  const auto& m = platform.machine();
  h.add(m.idle_power_w).add(m.socket_active_w).add(m.core_dynamic_w);
  h.add(m.stall_power_share).add(m.ht_power_bonus).add(m.ht_throughput_gain);
  h.add(m.dram_w_per_gbs).add(m.turbo_headroom).add(m.turbo_power_exponent);
  h.add(m.core_bw_gbs).add(m.socket_bw_gbs).add(m.ht_bw_gain);
  h.add(platform.time_noise_sigma()).add(platform.power_noise_sigma());
  count_key_bytes(h);
  return h.digest();
}

std::uint64_t cobayn_artifact_key(const platform::PerformanceModel& platform,
                                  std::size_t corpus_size, std::uint64_t seed,
                                  const cobayn::TrainOptions& train,
                                  std::uint64_t stage_version) {
  Hasher h;
  h.add("cobayn-model");
  h.add(stage_version);
  h.add(platform_signature(platform));
  h.add(static_cast<std::uint64_t>(corpus_size));
  h.add(seed);
  h.add(static_cast<std::uint64_t>(train.feature_bins));
  h.add(train.good_share);
  h.add(static_cast<std::uint64_t>(train.profile_threads));
  h.add(static_cast<std::uint64_t>(train.k2.max_parents));
  h.add(train.k2.laplace_alpha);
  count_key_bytes(h);
  return h.digest();
}

std::uint64_t dse_artifact_key(const platform::PerformanceModel& platform,
                               const std::string& source,
                               const platform::KernelModelParams& params,
                               const platform::DesignSpace& space,
                               std::size_t repetitions, std::uint64_t seed,
                               double work_scale, const dse::Explorer& explorer,
                               std::uint64_t stage_version) {
  Hasher h;
  h.add("dse-profile");
  h.add(stage_version);
  h.add(platform_signature(platform));
  h.add(source);
  h.add(params.name).add(params.seq_work_s).add(params.parallel_fraction);
  h.add(params.mem_intensity).add(params.unroll_affinity);
  h.add(params.vectorization_affinity).add(params.fp_ratio).add(params.branchiness);
  h.add(params.call_density).add(params.icache_sensitivity);
  h.add(params.ivopt_sensitivity).add(params.loop_opt_sensitivity);
  space.add_to_key(h);
  h.add(static_cast<std::uint64_t>(repetitions));
  h.add(seed);
  h.add(work_scale);
  explorer.add_to_key(h);
  count_key_bytes(h);
  return h.digest();
}

Pipeline::Pipeline(const platform::PerformanceModel& platform, ToolchainOptions options,
                   ArtifactCache* cache)
    : platform_(platform),
      options_(options),
      cache_(cache != nullptr ? cache : &ArtifactCache::global()),
      pool_(options.jobs),
      supervisor_(options.supervisor) {
  SOCRATES_REQUIRE(options_.custom_configs >= 1);
  SOCRATES_REQUIRE(options_.dse_repetitions >= 1);
  SOCRATES_REQUIRE(options_.dse_point_attempts >= 1);
}

bool Pipeline::ensure_cobayn() {
  if (!cobayn_.empty()) return true;  // computed once, reused in-process

  cobayn::TrainOptions train;
  train.pool = &pool_;
  const std::uint64_t key =
      cobayn_artifact_key(platform_, options_.corpus_size, options_.seed, train);
  if (auto payload = cache_->load(key, "cobayn-model")) {
    try {
      std::istringstream in(*payload);
      cobayn_.push_back(cobayn::CobaynModel::load(in));
      cobayn_from_cache_ = true;
      log_info() << "COBAYN model loaded from artifact cache";
      return true;
    } catch (const ContractViolation& e) {
      log_warn() << "stored COBAYN artifact unusable (" << e.what()
                 << "); retraining";
      cobayn_.clear();
    }
  }

  log_info() << "training COBAYN on " << options_.corpus_size << " synthetic kernels";
  const auto corpus = cobayn::make_corpus(options_.corpus_size, options_.seed);
  cobayn_.push_back(cobayn::CobaynModel::train(corpus, platform_, train));
  std::ostringstream out;
  cobayn_.front().save(out);
  cache_->store(key, "cobayn-model", out.str());
  cobayn_from_cache_ = false;
  return false;
}

const cobayn::CobaynModel& Pipeline::cobayn_model() {
  ensure_cobayn();
  return cobayn_.front();
}

const cobayn::CobaynModel& Pipeline::cobayn_model() const {
  SOCRATES_REQUIRE_MSG(!cobayn_.empty(), "COBAYN model not trained yet");
  return cobayn_.front();
}

Pipeline::ExploreCacheResult Pipeline::explore_cached(
    const std::string& source, const platform::KernelModelParams& params,
    const platform::DesignSpace& space, std::size_t repetitions, std::uint64_t seed,
    double work_scale, const dse::Explorer& explorer) {
  const std::uint64_t key = dse_artifact_key(platform_, source, params, space,
                                             repetitions, seed, work_scale, explorer);
  if (auto payload = cache_->load(key, "dse-profile")) {
    try {
      ExploreCacheResult hit;
      hit.points = dse::load_profile(space, *payload);
      hit.cache_hit = true;
      hit.evaluated = hit.points.size();
      return hit;
    } catch (const ContractViolation& e) {
      log_warn() << "stored DSE artifact unusable (" << e.what() << "); re-exploring";
    }
  }
  dse::ExploreContext ctx{platform_, params,     space,  repetitions,
                          seed,      work_scale, &pool_, options_.dse_point_attempts};
  auto run = explorer.explore(ctx);
  if (run.dropped == 0) {
    cache_->store(key, "dse-profile", dse::save_profile(run.points));
  } else {
    // Never cache a degraded profile: a later chaos-free build must
    // re-explore, not inherit the holes.
    log_warn() << "DSE (" << explorer.name() << ") dropped " << run.dropped << " of "
               << run.evaluated << " explored points; profile not cached";
  }
  ExploreCacheResult out;
  out.points = std::move(run.points);
  out.dropped = run.dropped;
  out.evaluated = run.evaluated;
  return out;
}

AdaptiveBinary Pipeline::build(const std::string& benchmark_name,
                               double work_scale_override) {
  SOCRATES_REQUIRE(work_scale_override >= 0.0);
  const double work_scale =
      work_scale_override > 0.0 ? work_scale_override : options_.work_scale;
  const auto& bench = kernels::find_benchmark(benchmark_name);
  return build_impl(benchmark_name, kernels::benchmark_source(benchmark_name),
                    bench.model, work_scale);
}

AdaptiveBinary Pipeline::build_from_source(const std::string& name,
                                           const std::string& source,
                                           double seq_work_s) {
  const auto features = cobayn::kernel_features_of_source(source);
  const auto params = features::estimate_model_params(features, name, seq_work_s);
  return build_impl(name, source, params, options_.work_scale);
}

AdaptiveBinary Pipeline::build_impl(const std::string& name, const std::string& source,
                                    const platform::KernelModelParams& params,
                                    double work_scale) {
  report_ = {};
  AdaptiveBinary out;
  out.benchmark = name;
  ChaosEngine& chaos = ChaosEngine::global();

  const auto push_stage = [this](const char* stage_name, bool cache_hit,
                                 double seconds, const SupervisorReport& sup,
                                 std::size_t dropped, std::string note) {
    StageReport stage;
    stage.name = stage_name;
    stage.cache_hit = cache_hit;
    stage.seconds = seconds;
    stage.attempts = sup.attempts;
    stage.fallback = !sup.succeeded;
    stage.dropped_points = dropped;
    stage.note = std::move(note);
    if (stage.fallback)
      MetricsRegistry::global().counter("pipeline.stage_fallbacks").add(1);
    report_.stages.push_back(std::move(stage));
  };

  // Parse: source -> AST.  No degraded product makes sense for a parse
  // failure, so exhaustion propagates after the retries.
  const StageScope parse_stage("Parse");
  std::optional<ir::TranslationUnit> tu;
  const auto parse_sup = supervisor_.run("Parse", [&] {
    chaos.on_stage("stage.Parse");
    tu.emplace(ir::parse(source));
  });
  push_stage("Parse", false, parse_stage.finish(), parse_sup, 0, {});

  // Features: Milepost-style static features of the kernel function.
  // Fallback: a conservative all-zero vector — COBAYN still predicts,
  // just without a feature signal.  A source with no kernel_* function
  // is a caller bug and still propagates (permanent).
  const StageScope features_stage("Features");
  auto features_sup = supervisor_.run_or_report("Features", [&] {
    chaos.on_stage("stage.Features");
    const auto kernels = features::extract_kernel_features(*tu);
    SOCRATES_REQUIRE_MSG(!kernels.empty(), "source has no kernel_* function");
    out.kernel_features = kernels.front().second;
  });
  std::string features_note;
  if (!features_sup.succeeded) {
    out.kernel_features = {};
    features_note = "degraded: conservative default features (" +
                    features_sup.last_error + ")";
    log_warn() << "Features stage exhausted its retries; " << features_note;
  }
  push_stage("Features", false, features_stage.finish(), features_sup, 0,
             std::move(features_note));

  // CobaynPredict: compiler-space pruning.  The trained model is a
  // cached artifact shared across builds and processes.  Fallback: no
  // custom configs — the design space keeps the standard -Os/-O1/-O2/
  // -O3 levels, so the campaign completes with the paper's baseline
  // configurations instead of aborting.
  const StageScope predict_stage("CobaynPredict");
  bool model_hit = false;
  auto predict_sup = supervisor_.run_or_report("CobaynPredict", [&] {
    chaos.on_stage("stage.CobaynPredict");
    model_hit = ensure_cobayn();
    out.custom_configs = options_.use_paper_cfs
                             ? platform::paper_custom_configs()
                             : cobayn_.front().predict_named(out.kernel_features,
                                                             options_.custom_configs);
  });
  std::string predict_note;
  if (!predict_sup.succeeded) {
    out.custom_configs.clear();
    predict_note = "degraded: standard optimization levels only (" +
                   predict_sup.last_error + ")";
    log_warn() << "CobaynPredict stage exhausted its retries; " << predict_note;
  }
  push_stage("CobaynPredict", model_hit, predict_stage.finish(), predict_sup, 0,
             std::move(predict_note));

  // Reduced design space: the 4 standard levels + the CFs.
  out.space =
      platform::DesignSpace::paper_space(platform_.topology(), out.custom_configs);

  // Dse: explore the space with the configured strategy (cached
  // artifact keyed by strategy + budget).  Faults are absorbed per
  // design point — a point that exhausts its attempts is dropped and
  // reported as reduced coverage, not a failed build.  Runs before
  // Weave so representative pruning can shrink the emitted clone set.
  // The COBAYN-predicted configs seed the model-guided search.
  std::vector<std::size_t> seed_configs;
  for (std::size_t ci = platform::standard_levels().size(); ci < out.space.configs.size();
       ++ci)
    seed_configs.push_back(ci);
  const auto explorer = dse::make_explorer(options_.dse, std::move(seed_configs));
  const StageScope dse_stage("Dse");
  ExploreCacheResult dse_result;
  const auto dse_sup = supervisor_.run("Dse", [&] {
    chaos.on_stage("stage.Dse");
    dse_result = explore_cached(source, params, out.space, options_.dse_repetitions,
                                options_.seed + 17, work_scale, *explorer);
    if (dse_result.points.empty())
      throw Error("DSE dropped every design point");
  });
  out.profile = std::move(dse_result.points);
  std::string dse_note;
  {
    std::ostringstream os;
    if (options_.dse.kind != dse::DseStrategyOptions::Kind::kFull)
      os << "strategy " << explorer->name() << ": " << dse_result.evaluated << " of "
         << out.space.size() << " points evaluated";
    if (dse_result.dropped > 0)
      os << (os.str().empty() ? "" : "; ") << "degraded coverage: "
         << dse_result.dropped << " points dropped";
    dse_note = os.str();
  }
  push_stage("Dse", dse_result.cache_hit, dse_stage.finish(), dse_sup,
             dse_result.dropped, std::move(dse_note));

  // Prune: cluster the explored Pareto front to at most K
  // representatives (Luo et al.); the weaver then emits only the
  // pruned clone set and the knowledge base only the representatives.
  std::vector<platform::CloneSpec> clones = out.space.clones();
  if (options_.dse.max_representatives > 0) {
    const StageScope prune_stage("Prune");
    dse::RepresentativeSet reps;
    const auto prune_sup = supervisor_.run("Prune", [&] {
      chaos.on_stage("stage.Prune");
      reps = dse::select_representatives(out.profile,
                                         options_.dse.max_representatives);
    });
    out.representatives = reps.representatives;
    std::vector<platform::DesignSpace::Point> kept;
    for (const std::size_t i : out.representatives)
      kept.push_back(out.space.point(out.profile[i].flat));
    clones = out.space.clones(kept);
    std::ostringstream os;
    os << "front " << reps.front.size() << " -> " << out.representatives.size()
       << " representatives, " << clones.size() << " clone(s)";
    push_stage("Prune", false, prune_stage.finish(), prune_sup, 0, os.str());
  }

  // Weave: LARA/MANET multiversioning + autotuner hooks over the full
  // cross product — or only the pruned clone set.  Fallback: an empty
  // woven report — the knowledge stage does not depend on it, so
  // losing the weave report costs instrumentation, not results.
  const StageScope weave_stage("Weave");
  auto weave_sup = supervisor_.run_or_report("Weave", [&] {
    chaos.on_stage("stage.Weave");
    out.woven = weaver::weave_benchmark(name, *tu, clones);
  });
  std::string weave_note;
  if (!weave_sup.succeeded) {
    out.woven = {};
    weave_note = "degraded: no woven instrumentation (" + weave_sup.last_error + ")";
    log_warn() << "Weave stage exhausted its retries; " << weave_note;
  }
  push_stage("Weave", false, weave_stage.finish(), weave_sup, 0,
             std::move(weave_note));

  // Knowledge: application knowledge for the AS-RTM (pruned to the
  // representatives when the Prune stage ran).
  const StageScope knowledge_stage("Knowledge");
  const auto knowledge_sup = supervisor_.run("Knowledge", [&] {
    chaos.on_stage("stage.Knowledge");
    out.knowledge =
        out.representatives.empty()
            ? dse::to_knowledge_base(out.space, out.profile)
            : dse::to_knowledge_base(out.space, out.profile, out.representatives);
  });
  push_stage("Knowledge", false, knowledge_stage.finish(), knowledge_sup, 0, {});

  std::size_t degraded = 0;
  for (const auto& s : report_.stages)
    if (s.degraded()) ++degraded;
  log_info() << "built adaptive binary for " << name << ": " << out.profile.size()
             << " operating points, " << out.woven.report.weaved_loc << " weaved LOC"
             << (dse_result.cache_hit ? " (DSE from cache)" : "")
             << (degraded > 0 ? " [" + std::to_string(degraded) + " degraded stage(s)]"
                              : "");
  return out;
}

std::vector<dse::ProfiledPoint> Pipeline::profile_space(
    const std::string& benchmark_name, const platform::DesignSpace& space,
    std::size_t repetitions, std::uint64_t seed, double work_scale) {
  SOCRATES_REQUIRE(repetitions >= 1);
  const auto& bench = kernels::find_benchmark(benchmark_name);
  const StageScope dse_stage("Dse");
  ExploreCacheResult result;
  const auto sup = supervisor_.run("Dse", [&] {
    ChaosEngine::global().on_stage("stage.Dse");
    result = explore_cached(kernels::benchmark_source(benchmark_name), bench.model,
                            space, repetitions, seed, work_scale,
                            dse::FullFactorialExplorer());
    if (result.points.empty()) throw Error("DSE dropped every design point");
  });
  StageReport stage;
  stage.name = "Dse";
  stage.cache_hit = result.cache_hit;
  stage.seconds = dse_stage.finish();
  stage.attempts = sup.attempts;
  stage.dropped_points = result.dropped;
  if (result.dropped > 0)
    stage.note = "degraded coverage: " + std::to_string(result.dropped) +
                 " design points dropped";
  report_.stages.push_back(std::move(stage));
  return std::move(result.points);
}

}  // namespace socrates
