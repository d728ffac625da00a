// Two-stage model-guided design-space exploration.
//
// Ports the Odyssey idea (SNIPPETS #2/#3) to the SOCRATES toolchain: a
// *cheap* first stage queries the analytical platform::PerformanceModel
// (noise-free; the queries spend no profiling budget) and profiles the
// model-predicted Pareto front plus the COBAYN-predicted compiler
// configurations as seeds; a second stage polishes the measured front,
// profiling the knob-space neighbours of the front — walked in Luo et
// al.'s representative order — until a fixpoint or the budget runs
// out.  The explorer thus reaches the full-factorial front at a
// fraction of the evaluations (bench/ablation_dse_strategies pins the
// ratio).
//
// Determinism: every profiled point draws its noise from the stream
// (seed, flat index) — bit-identical to the full sweep at any
// SOCRATES_JOBS (explorer.hpp's contract).  Seed → polish draws from no
// RNG stream of its own: the seeds are a function of the noise-free
// model and the polish a function of the measured archive, so the *set*
// of explored points is reproducible too.  Per-point faults are
// absorbed by the "dse.point" chaos site; a dropped point only shrinks
// the archive the polish walks.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dse/explorer.hpp"

namespace socrates::dse {

/// Model-seeded search with a front polish over a DesignSpace.
class TwoStageExplorer final : public Explorer {
 public:
  struct Params {
    /// Max design points profiled, dropped points included.  0 = auto:
    /// max(24, space / 11), never more than the space.
    std::size_t budget = 0;
    /// Config indices (into DesignSpace::configs) favoured by the
    /// model-seeding stage — the COBAYN-predicted CFs in the pipeline.
    std::vector<std::size_t> seed_configs;
    /// Warm-start hook: *flat* design-point indices profiled first,
    /// before any analytically-derived seed.  Fed by the server's
    /// cross-tenant knowledge pool (a donor kernel's best measured
    /// points mapped into this space — docs/SERVER.md); empty for a
    /// cold start.  Participates in the artifact-cache key.
    std::vector<std::size_t> warm_flat_seeds;
  };

  explicit TwoStageExplorer(Params params) : params_(std::move(params)) {}

  std::string_view name() const override { return "two-stage"; }
  ExploreResult explore(const ExploreContext& ctx) const override;
  void add_to_key(Hasher& h) const override;

  const Params& params() const { return params_; }
  /// The budget explore() will actually use for `space_size` points.
  std::size_t resolved_budget(std::size_t space_size) const;

 private:
  Params params_;
};

}  // namespace socrates::dse
