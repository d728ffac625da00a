// Representative-set pruning of an explored design space.
//
// Luo et al. (arXiv 1407.4075) observe that a multiversioned binary
// does not need one clone per Pareto-optimal configuration: a small
// *representative set* that spreads across the front preserves almost
// all of the achievable quality while shrinking the clone set the
// weaver must emit and the knowledge base the AS-RTM must search.
// This layer implements that reduction for SOCRATES: cluster the
// explored Pareto front in normalized objective space (throughput up,
// power down) and keep at most K representatives, chosen by a
// deterministic hypervolume-greedy sweep that always retains both front
// extremes (the corners graceful degradation falls back to) and then
// the knees — each representative stands in for the front segment whose
// dominated area it preserves.
//
// socrates::Pipeline applies it between the Dse and Weave stages when
// SOCRATES_DSE_PRUNE > 0: the weaver then emits only the clones that
// run the representatives (platform::DesignSpace::clones) and
// to_knowledge_base exports only the representatives.
#pragma once

#include <cstddef>
#include <vector>

#include "dse/dse.hpp"

namespace socrates::dse {

/// The pruning outcome over one explored profile.
struct RepresentativeSet {
  /// Indices (into the profiled points) of the kept representatives —
  /// always a subset of `front`, in selection order: the two extremes
  /// first, then descending marginal dominated area, so a caller that
  /// truncates or spends budget in order keeps the most valuable
  /// points.  (When the whole front fits under the cap it is returned
  /// ascending.)
  std::vector<std::size_t> representatives;
  /// Indices of the full explored Pareto front, ascending.
  std::vector<std::size_t> front;
};

/// Prunes the Pareto front of `points` to at most `max_representatives`
/// entries (0 = keep the whole front).  Deterministic: the two front
/// extremes (cheapest and fastest) are always kept, then a
/// hypervolume-greedy sweep in normalized objective space fills the
/// remaining slots — each round keeps the point adding the most
/// dominated area, ties broken by the lower point index — and stops
/// early once only duplicates remain.
RepresentativeSet select_representatives(const std::vector<ProfiledPoint>& points,
                                         std::size_t max_representatives);

/// 2D hypervolume of the Pareto front of `points` against the reference
/// point (throughput 0, power `ref_power`): the area dominated by the
/// front in (throughput up, power down) space.  Front points with power
/// above the reference contribute nothing.  The bench compares fronts
/// via the ratio of their hypervolumes at a shared reference.
double pareto_hypervolume(const std::vector<ProfiledPoint>& points, double ref_power);

}  // namespace socrates::dse
