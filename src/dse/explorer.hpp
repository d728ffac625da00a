// Pluggable DSE strategies (the Explorer interface).
//
// The paper profiles the full factorial space but stresses that the
// approach "is agnostic with respect to the used DSE strategy".  This
// layer makes that agnosticism structural: the full sweep and the
// model-guided two-stage search of two_stage.hpp implement the same
// Explorer interface, and socrates::Pipeline selects one through the
// SOCRATES_DSE environment knob (see DseStrategyOptions::from_env).
// A strategy only chooses *which* points to measure: each one hands
// its flat indices to profile_points(), the one per-point loop.
//
// The determinism contract every strategy honours (docs/DSE.md): a
// design point is identified by its *flat index* in the full factorial
// space (platform::DesignSpace owns the layout), and its measurement
// noise always comes from the RNG stream (seed, flat index).  Any
// point profiled by any strategy is therefore bit-identical to the
// same point profiled by the full sweep — at any SOCRATES_JOBS, in
// any profiling order.  The two-stage search draws
// from no RNG stream of its own: its seeds come from the noise-free
// model and its polish from the measured front, so the *choice* of
// points is deterministic too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "dse/dse.hpp"
#include "support/hash.hpp"
#include "support/task_pool.hpp"

namespace socrates::dse {

/// Everything an Explorer needs to profile points of one design space.
struct ExploreContext {
  const platform::PerformanceModel& model;
  const platform::KernelModelParams& kernel;
  const platform::DesignSpace& space;
  std::size_t repetitions = 1;  ///< noisy runs per profiled point
  std::uint64_t seed = 0;       ///< master seed of the per-point streams
  double work_scale = 1.0;
  TaskPool* pool = nullptr;          ///< nullptr = TaskPool::shared()
  std::size_t point_attempts = 1;    ///< tries per point before it is dropped
};

/// What a strategy explored.  `points` come back in ascending flat-index
/// order unless the strategy documents another deterministic order.
struct ExploreResult {
  std::vector<ProfiledPoint> points;
  std::size_t evaluated = 0;    ///< unique design points profiled (incl. dropped)
  std::size_t dropped = 0;      ///< points lost after all attempts (chaos/faults)
  std::size_t retries = 0;      ///< extra per-point attempts that were needed
};

/// One DSE strategy.  Implementations are immutable after construction
/// (explore() is const and thread-compatible) and must honour the
/// determinism contract above.
class Explorer {
 public:
  virtual ~Explorer();

  /// Stable strategy name ("full", "two-stage")
  /// — used in logs, stage notes and metrics labels.
  virtual std::string_view name() const = 0;

  /// Explores the space.  Per-point faults are absorbed with
  /// ctx.point_attempts tries (an exhausted point is dropped, reported
  /// in ExploreResult::dropped); logic errors propagate.
  virtual ExploreResult explore(const ExploreContext& ctx) const = 0;

  /// Feeds every knob that changes what explore() would profile into an
  /// artifact-cache key: strategy identity plus its budget parameters.
  /// Two explorers with the same fingerprint produce the same points.
  virtual void add_to_key(Hasher& h) const = 0;
};

/// The paper's exhaustive sweep: every flat index of the space.
class FullFactorialExplorer final : public Explorer {
 public:
  std::string_view name() const override { return "full"; }
  ExploreResult explore(const ExploreContext& ctx) const override;
  void add_to_key(Hasher& h) const override;
};

/// Which strategy the Pipeline runs, plus its budget knobs.  Defaults
/// reproduce the paper (full factorial, no pruning); from_env() reads
/// the SOCRATES_DSE* family documented in docs/DSE.md.
struct DseStrategyOptions {
  enum class Kind { kFull, kTwoStage };

  Kind kind = Kind::kFull;
  std::size_t budget = 0;  ///< two-stage: max profiled points (0 = auto)
  /// Prune the knowledge base / clone set to at most this many
  /// representative configurations (0 = keep everything).
  std::size_t max_representatives = 0;

  /// SOCRATES_DSE (full|two-stage) and the SOCRATES_DSE_{BUDGET,PRUNE}
  /// knobs, each hardened through support/env (clamp + warn once).
  static DseStrategyOptions from_env();
};

/// Builds the configured strategy.  `seed_configs` (config indices of
/// the space, e.g. the COBAYN-predicted CFs) bias the two-stage seeding
/// stage; the full sweep ignores them.
std::unique_ptr<Explorer> make_explorer(const DseStrategyOptions& options,
                                        std::vector<std::size_t> seed_configs = {});

/// The one per-point profiling loop every strategy runs.  Profiles the
/// given flat indices of the full factorial space in parallel on
/// ctx.pool: each point draws noise from the stream (seed, flat index)
/// and gets ctx.point_attempts tries (chaos site "dse.point", indexed
/// by (flat index, attempt)); a point that exhausts them is dropped.
/// Logic errors propagate.  Survivors keep the order of `flat_indices`;
/// `evaluated` is flat_indices.size().
ExploreResult profile_points(const ExploreContext& ctx,
                             const std::vector<std::size_t>& flat_indices);

}  // namespace socrates::dse
