// Pluggable DSE strategies (the Explorer interface).
//
// The paper profiles the full factorial space but stresses that the
// approach "is agnostic with respect to the used DSE strategy".  This
// layer makes that agnosticism structural: every way of exploring a
// DesignSpace — the full sweep, random subsets, stratified ladders and
// the model-guided two-stage search of two_stage.hpp — implements the
// same Explorer interface, and socrates::Pipeline selects one through
// the SOCRATES_DSE environment knob (see DseStrategyOptions::from_env).
// A strategy only chooses *which* points to measure: each one hands
// its flat indices to profile_points(), the one per-point loop.
//
// The determinism contract every strategy honours (docs/DSE.md): a
// design point is identified by its *flat index* in the full factorial
// space, and its measurement noise always comes from the RNG stream
// (seed, flat index).  Any point profiled by any strategy is therefore
// bit-identical to the same point profiled by the full sweep — at any
// SOCRATES_JOBS, in any profiling order.  Strategy-internal decisions
// (subset draws, genetic operators) run on their own serial streams, so
// the *choice* of points is deterministic too.
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
  const DesignSpace& space;
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
  std::vector<std::size_t> flat;  ///< flat index of each of `points`
  std::size_t evaluated = 0;    ///< unique design points profiled (incl. dropped)
  std::size_t dropped = 0;      ///< points lost after all attempts (chaos/faults)
  std::size_t retries = 0;      ///< extra per-point attempts that were needed
  std::size_t generations = 0;  ///< two-stage only: GA generations run
};

/// One DSE strategy.  Implementations are immutable after construction
/// (explore() is const and thread-compatible) and must honour the
/// determinism contract above.
class Explorer {
 public:
  virtual ~Explorer();

  /// Stable strategy name ("full", "subset", "stratified", "two-stage")
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

/// Uniformly random subset of the space, without replacement.
/// `fraction` must lie in (0, 1]; at least one point is profiled.
class RandomSubsetExplorer final : public Explorer {
 public:
  explicit RandomSubsetExplorer(double fraction);

  std::string_view name() const override { return "subset"; }
  ExploreResult explore(const ExploreContext& ctx) const override;
  void add_to_key(Hasher& h) const override;

  double fraction() const { return fraction_; }

 private:
  double fraction_;
};

/// Every (config, binding) stratum profiled at `threads_per_stratum`
/// thread counts: the extremes plus geometrically spaced interior
/// points (anchors the AS-RTM falls back to are always present).
class StratifiedExplorer final : public Explorer {
 public:
  explicit StratifiedExplorer(std::size_t threads_per_stratum);

  std::string_view name() const override { return "stratified"; }
  ExploreResult explore(const ExploreContext& ctx) const override;
  void add_to_key(Hasher& h) const override;

  std::size_t threads_per_stratum() const { return threads_per_stratum_; }

 private:
  std::size_t threads_per_stratum_;
};

/// Which strategy the Pipeline runs, plus every budget knob.  Defaults
/// reproduce the paper (full factorial, no pruning); from_env() reads
/// the SOCRATES_DSE* family documented in docs/DSE.md.
struct DseStrategyOptions {
  enum class Kind { kFull, kSubset, kStratified, kTwoStage };

  Kind kind = Kind::kFull;
  double subset_fraction = 0.25;       ///< subset: share of the space
  std::size_t stratified_threads = 6;  ///< stratified: ladder size
  std::size_t budget = 0;              ///< two-stage: max profiled points (0 = auto)
  std::size_t population = 12;         ///< two-stage: GA children per generation
  std::size_t generations = 24;        ///< two-stage: GA generation cap
  /// Prune the knowledge base / clone set to at most this many
  /// representative configurations (0 = keep everything).
  std::size_t max_representatives = 0;

  /// SOCRATES_DSE (full|subset|stratified|two-stage) and the
  /// SOCRATES_DSE_{FRACTION,STRATA,BUDGET,POP,GENS,PRUNE} knobs, each
  /// hardened through support/env (clamp + warn once).
  static DseStrategyOptions from_env();
};

/// Builds the configured strategy.  `seed_configs` (config indices of
/// the space, e.g. the COBAYN-predicted CFs) bias the two-stage seeding
/// stage; other strategies ignore them.
std::unique_ptr<Explorer> make_explorer(const DseStrategyOptions& options,
                                        std::vector<std::size_t> seed_configs = {});

/// The one per-point profiling loop every strategy runs.  Profiles the
/// given flat indices of the full factorial space in parallel on
/// ctx.pool: each point draws noise from the stream (seed, flat index)
/// and gets ctx.point_attempts tries (chaos site "dse.point", indexed
/// by (flat index, attempt)); a point that exhausts them is dropped.
/// Logic errors propagate.  Survivors keep the order of `flat_indices`
/// and `flat` names them; `evaluated` is flat_indices.size().
ExploreResult profile_points(const ExploreContext& ctx,
                             const std::vector<std::size_t>& flat_indices);

namespace detail {

/// (config, threads, binding) indices of a flat point.
struct FlatPoint {
  std::size_t config = 0;
  std::size_t thread = 0;   ///< index into space.thread_counts
  std::size_t binding = 0;  ///< index into space.bindings
};

FlatPoint decompose_flat(const DesignSpace& space, std::size_t flat);
std::size_t compose_flat(const DesignSpace& space, const FlatPoint& p);

}  // namespace detail

}  // namespace socrates::dse
