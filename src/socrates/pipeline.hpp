// The staged toolchain pipeline.
//
// Pipeline decomposes the Figure 1 flow into named stages — Parse,
// Features, CobaynPredict, Dse, Prune (optional), Weave, Knowledge —
// executed by a
// deterministic TaskPool and backed by a content-keyed ArtifactCache.
// The two expensive products (the trained COBAYN model and a profiled
// design space) are stored under keys derived from every input that can
// change them, so a second build with the same inputs — in the same
// process or, with $SOCRATES_CACHE_DIR, in a later one — reloads the
// artifact instead of recomputing it.  docs/PIPELINE.md documents the
// stage graph, the key recipes and the determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cobayn/cobayn.hpp"
#include "dse/dse.hpp"
#include "dse/explorer.hpp"
#include "features/features.hpp"
#include "margot/operating_point.hpp"
#include "platform/perf_model.hpp"
#include "support/artifact_cache.hpp"
#include "support/supervisor.hpp"
#include "support/task_pool.hpp"
#include "weaver/report.hpp"

namespace socrates {

struct ToolchainOptions {
  std::size_t corpus_size = 48;     ///< synthetic kernels for COBAYN training
  std::uint64_t seed = 2018;        ///< master seed (DATE'18 vintage)
  std::size_t custom_configs = 4;   ///< how many CFs COBAYN suggests
  std::size_t dse_repetitions = 5;  ///< profiling runs per design point
  /// Use the paper's published CF1-CF4 instead of the trained model's
  /// predictions (the figure benches do, for comparability).
  bool use_paper_cfs = false;
  double work_scale = 1.0;          ///< dataset scale for profiling
  /// Parallel jobs for DSE / corpus work; 0 = TaskPool::default_jobs()
  /// (the SOCRATES_JOBS environment variable, else the hardware).
  /// Results are identical at any value.
  std::size_t jobs = 0;
  /// Retry/timeout/backoff policy every stage runs under (see
  /// support/supervisor.hpp).  The defaults retry transient failures
  /// twice with no deadline and no backoff sleep.
  SupervisorPolicy supervisor;
  /// Tries per DSE design point before the point is dropped from the
  /// profile (reduced coverage instead of an aborted campaign).
  std::size_t dse_point_attempts = 2;
  /// DSE strategy + budget knobs (the SOCRATES_DSE* family; defaults
  /// reproduce the paper: full factorial, no pruning).  When
  /// max_representatives > 0 the pipeline inserts a Prune stage that
  /// clusters the explored Pareto front and the weaver emits only the
  /// pruned clone set (docs/DSE.md).
  dse::DseStrategyOptions dse = dse::DseStrategyOptions::from_env();
};

/// Everything the toolchain produced for one benchmark.
struct AdaptiveBinary {
  std::string benchmark;
  features::FeatureVector kernel_features;
  std::vector<platform::NamedConfig> custom_configs;  ///< CF1..CFn
  weaver::WovenBenchmark woven;
  platform::DesignSpace space;
  std::vector<dse::ProfiledPoint> profile;
  margot::KnowledgeBase knowledge{platform::DesignSpace::knob_names(),
                                  platform::DesignSpace::metric_names()};
  /// Indices (into `profile`) of the representative points the clone
  /// set and knowledge base were pruned to; empty when pruning is off
  /// (the knowledge base then covers the whole profile).
  std::vector<std::size_t> representatives;
};

/// One executed pipeline stage.
struct StageReport {
  std::string name;  ///< Parse, Features, CobaynPredict, Dse, Prune, Weave, Knowledge
  bool cache_hit = false;  ///< product served from the artifact cache
  double seconds = 0.0;    ///< wall-clock time of the stage (incl. retries)
  std::size_t attempts = 1;        ///< supervisor attempts the stage took
  bool fallback = false;           ///< degraded product was substituted
  std::size_t dropped_points = 0;  ///< Dse only: points lost to faults
  std::string note;  ///< why the stage degraded ("" on a clean run)

  bool degraded() const { return fallback || dropped_points > 0; }
};

struct PipelineReport {
  std::vector<StageReport> stages;

  /// Last stage with this name, nullptr when absent.
  const StageReport* stage(std::string_view name) const;
};

/// Stage implementation versions.  Bump one when the corresponding
/// stage changes behaviour: the key changes, so previously stored
/// artifacts are invalidated instead of silently reused.
inline constexpr std::uint64_t kCobaynStageVersion = 1;
/// v2: the Dse stage runs a pluggable Explorer; keys gained the
/// strategy fingerprint and old full-factorial artifacts were retired.
/// v3: the profile payload is binary records (dse::save_profile), so a
/// stored text profile is a miss.
inline constexpr std::uint64_t kDseStageVersion = 3;

/// Fingerprint of the performance model (topology, power constants,
/// noise magnitudes).  Two platforms that would measure differently
/// never share cached artifacts.
std::uint64_t platform_signature(const platform::PerformanceModel& platform);

/// Artifact key of the trained COBAYN model.
std::uint64_t cobayn_artifact_key(const platform::PerformanceModel& platform,
                                  std::size_t corpus_size, std::uint64_t seed,
                                  const cobayn::TrainOptions& train,
                                  std::uint64_t stage_version = kCobaynStageVersion);

/// Artifact key of a profiled design space: every input of the
/// profile plus the strategy fingerprint (Explorer::add_to_key), so two
/// strategies — or two budgets of one strategy — never share a stored
/// profile.
std::uint64_t dse_artifact_key(const platform::PerformanceModel& platform,
                               const std::string& source,
                               const platform::KernelModelParams& params,
                               const platform::DesignSpace& space,
                               std::size_t repetitions, std::uint64_t seed,
                               double work_scale, const dse::Explorer& explorer,
                               std::uint64_t stage_version = kDseStageVersion);

class Pipeline {
 public:
  /// `cache` == nullptr uses ArtifactCache::global().
  explicit Pipeline(const platform::PerformanceModel& platform,
                    ToolchainOptions options = {}, ArtifactCache* cache = nullptr);

  const ToolchainOptions& options() const { return options_; }
  const platform::PerformanceModel& platform() const { return platform_; }
  TaskPool& pool() { return pool_; }
  ArtifactCache& cache() { return *cache_; }

  /// The COBAYN model: loaded from the artifact cache when a matching
  /// artifact exists, trained (and stored) otherwise.
  const cobayn::CobaynModel& cobayn_model();
  /// Const access; throws unless the model is already available.
  const cobayn::CobaynModel& cobayn_model() const;
  bool cobayn_ready() const { return !cobayn_.empty(); }

  /// Runs all stages for one registered Polybench benchmark.
  /// `work_scale_override` (> 0) profiles the DSE at a different
  /// dataset scale than options().work_scale.
  AdaptiveBinary build(const std::string& benchmark_name,
                       double work_scale_override = 0.0);

  /// Runs all stages on an arbitrary C source (any file with a kernel_*
  /// function); the kernel's platform behaviour is estimated from its
  /// static features, with `seq_work_s` as the sequential baseline.
  AdaptiveBinary build_from_source(const std::string& name, const std::string& source,
                                   double seq_work_s = 5.0);

  /// Dse stage only: profiles the whole of `space` for a registered
  /// benchmark through the artifact cache (the figure benches sweep
  /// design spaces directly).  Appends a Dse entry to last_report().
  std::vector<dse::ProfiledPoint> profile_space(const std::string& benchmark_name,
                                                const platform::DesignSpace& space,
                                                std::size_t repetitions,
                                                std::uint64_t seed,
                                                double work_scale = 1.0);

  /// Stage reports of the most recent build() / build_from_source()
  /// (standalone profile_space() calls append to it).
  const PipelineReport& last_report() const { return report_; }

  /// The supervisor every stage runs under (policy from options()).
  Supervisor& supervisor() { return supervisor_; }

 private:
  AdaptiveBinary build_impl(const std::string& name, const std::string& source,
                            const platform::KernelModelParams& params,
                            double work_scale);
  /// Trains or cache-loads the model; true when it came from the cache.
  bool ensure_cobayn();
  /// Cache-through exploration with per-point fault tolerance (the Dse
  /// stage of build() and profile_space()).  `evaluated` counts unique
  /// points the strategy spent budget on (points.size() on a cache hit).
  struct ExploreCacheResult {
    std::vector<dse::ProfiledPoint> points;
    bool cache_hit = false;
    std::size_t dropped = 0;
    std::size_t evaluated = 0;
  };
  ExploreCacheResult explore_cached(const std::string& source,
                                    const platform::KernelModelParams& params,
                                    const platform::DesignSpace& space,
                                    std::size_t repetitions, std::uint64_t seed,
                                    double work_scale, const dse::Explorer& explorer);

  const platform::PerformanceModel& platform_;
  ToolchainOptions options_;
  ArtifactCache* cache_;
  TaskPool pool_;
  Supervisor supervisor_;
  std::vector<cobayn::CobaynModel> cobayn_;  ///< 0 or 1 element (late init)
  bool cobayn_from_cache_ = false;
  PipelineReport report_;
};

}  // namespace socrates
