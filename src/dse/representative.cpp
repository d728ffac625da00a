#include "dse/representative.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace socrates::dse {

namespace {

/// Normalized (throughput, power) coordinates of the front, so a
/// distance mixes both objectives regardless of their units.
struct Normalized {
  double thr = 0.0;
  double pw = 0.0;
};

std::vector<Normalized> normalize(const std::vector<ProfiledPoint>& points,
                                  const std::vector<std::size_t>& front) {
  double thr_lo = std::numeric_limits<double>::infinity(), thr_hi = -thr_lo;
  double pw_lo = thr_lo, pw_hi = -thr_lo;
  for (const std::size_t i : front) {
    thr_lo = std::min(thr_lo, points[i].throughput());
    thr_hi = std::max(thr_hi, points[i].throughput());
    pw_lo = std::min(pw_lo, points[i].power_mean_w);
    pw_hi = std::max(pw_hi, points[i].power_mean_w);
  }
  const double thr_span = thr_hi > thr_lo ? thr_hi - thr_lo : 1.0;
  const double pw_span = pw_hi > pw_lo ? pw_hi - pw_lo : 1.0;
  std::vector<Normalized> out(front.size());
  for (std::size_t k = 0; k < front.size(); ++k) {
    out[k].thr = (points[front[k]].throughput() - thr_lo) / thr_span;
    out[k].pw = (points[front[k]].power_mean_w - pw_lo) / pw_span;
  }
  return out;
}

/// Staircase hypervolume of a set of normalized front points against
/// the reference (thr 0, power kRefPower): the area the selection
/// dominates.  kRefPower sits above the normalized power range so the
/// cheapest point keeps a positive depth.
constexpr double kRefPower = 1.1;

double normalized_hypervolume(const std::vector<Normalized>& norm,
                              const std::vector<std::size_t>& selected) {
  std::vector<std::size_t> order = selected;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (norm[a].pw != norm[b].pw) return norm[a].pw < norm[b].pw;
    return norm[a].thr < norm[b].thr;
  });
  double volume = 0.0;
  double prev_thr = 0.0;
  for (const std::size_t k : order) {
    const double slab = norm[k].thr - prev_thr;
    const double depth = kRefPower - norm[k].pw;
    if (slab > 0.0 && depth > 0.0) {
      volume += slab * depth;
      prev_thr = norm[k].thr;
    }
  }
  return volume;
}

}  // namespace

RepresentativeSet select_representatives(const std::vector<ProfiledPoint>& points,
                                         std::size_t max_representatives) {
  SOCRATES_REQUIRE_MSG(!points.empty(),
                       "representative selection needs a non-empty profile");
  RepresentativeSet out;
  out.front = pareto_filter(points);

  if (max_representatives == 0 || out.front.size() <= max_representatives) {
    out.representatives = out.front;
    return out;
  }

  const auto norm = normalize(points, out.front);

  // Anchor the extremes: the cheapest point (min power) and the fastest
  // (max throughput).  On a front sorted ascending both live at the
  // ends, but duplicates make argmin/argmax the robust choice.
  std::size_t cheapest = 0, fastest = 0;
  for (std::size_t k = 1; k < out.front.size(); ++k) {
    if (points[out.front[k]].power_mean_w < points[out.front[cheapest]].power_mean_w)
      cheapest = k;
    if (points[out.front[k]].throughput() > points[out.front[fastest]].throughput())
      fastest = k;
  }

  std::vector<char> chosen(out.front.size(), 0);
  std::vector<std::size_t> picks;
  const auto take = [&](std::size_t k) {
    if (chosen[k] == 0) {
      chosen[k] = 1;
      picks.push_back(k);
    }
  };
  take(cheapest);
  take(fastest);

  // Hypervolume-greedy sweep: each round keeps the front point whose
  // addition grows the dominated area the most (ties to the lower
  // index).  Each representative thus stands in for the front segment
  // whose quality it preserves — the extremes and the knees come first,
  // and the selection maximizes what a K-clone deployment can still
  // achieve.  Deterministic; stops early once the remaining points add
  // nothing (exact duplicates of kept points).
  while (picks.size() < max_representatives) {
    const double base = normalized_hypervolume(norm, picks);
    std::size_t best = out.front.size();
    double best_gain = 0.0;
    for (std::size_t k = 0; k < out.front.size(); ++k) {
      if (chosen[k] != 0) continue;
      auto trial = picks;
      trial.push_back(k);
      const double gain = normalized_hypervolume(norm, trial) - base;
      if (gain > best_gain) {
        best_gain = gain;
        best = k;
      }
    }
    if (best == out.front.size()) break;  // nothing left that adds area
    take(best);
  }

  // Selection order — extremes, then descending marginal area — so a
  // caller that truncates (or spends budget in order, like the
  // two-stage polish) keeps the most valuable representatives first.
  out.representatives.reserve(picks.size());
  for (const std::size_t k : picks) out.representatives.push_back(out.front[k]);
  return out;
}

double pareto_hypervolume(const std::vector<ProfiledPoint>& points, double ref_power) {
  SOCRATES_REQUIRE_MSG(std::isfinite(ref_power) && ref_power > 0.0,
                       "hypervolume reference power must be positive and finite");
  if (points.empty()) return 0.0;
  const auto front = pareto_filter(points);

  // Along a (throughput up, power down) front sorted by ascending
  // power, throughput ascends too; the dominated area is the staircase
  //   sum_i (thr_i - thr_{i-1}) * (ref_power - power_i).
  std::vector<std::size_t> order = front;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (points[a].power_mean_w != points[b].power_mean_w)
      return points[a].power_mean_w < points[b].power_mean_w;
    return points[a].throughput() < points[b].throughput();
  });

  double volume = 0.0;
  double prev_thr = 0.0;
  for (const std::size_t i : order) {
    const double slab = points[i].throughput() - prev_thr;
    const double depth = ref_power - points[i].power_mean_w;
    if (slab > 0.0 && depth > 0.0) {
      volume += slab * depth;
      prev_thr = points[i].throughput();
    }
  }
  return volume;
}

}  // namespace socrates::dse
