#include "dse/two_stage.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "dse/representative.hpp"
#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "support/chaos.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace socrates::dse {

namespace {

/// Domain separator of the GA decision stream — keeps it disjoint from
/// the per-point noise streams (seed, flat) and the chaos schedules.
constexpr std::uint64_t kGaStreamTag = 0x9a5eedU;

bool dominates(const ProfiledPoint& a, const ProfiledPoint& b) {
  const bool ge = a.throughput() >= b.throughput() && a.power_mean_w <= b.power_mean_w;
  const bool gt = a.throughput() > b.throughput() || a.power_mean_w < b.power_mean_w;
  return ge && gt;
}

/// Scalar tie-break fitness when neither tournament entrant dominates:
/// energy efficiency (throughput per watt), the paper's figure of merit.
double efficiency(const ProfiledPoint& p) {
  return p.power_mean_w > 0.0 ? p.throughput() / p.power_mean_w : p.throughput();
}

}  // namespace

TwoStageExplorer::TwoStageExplorer(Params params) : params_(std::move(params)) {
  SOCRATES_REQUIRE_MSG(params_.population >= 2,
                       "two-stage population must be >= 2 (got "
                           << params_.population << ") — crossover needs two parents");
  SOCRATES_REQUIRE_MSG(params_.generations >= 1,
                       "two-stage generation cap must be >= 1");
}

std::size_t TwoStageExplorer::resolved_budget(std::size_t space_size) const {
  const std::size_t wanted =
      params_.budget != 0 ? params_.budget
                          : std::max(2 * params_.population, space_size / 11);
  return std::max<std::size_t>(1, std::min(wanted, space_size));
}

ExploreResult TwoStageExplorer::explore(const ExploreContext& ctx) const {
  SOCRATES_REQUIRE_MSG(ctx.repetitions >= 1, "DSE repetitions must be >= 1");
  SOCRATES_REQUIRE_MSG(ctx.space.size() > 0, "DSE design space is empty");
  for (const std::size_t ci : params_.seed_configs)
    SOCRATES_REQUIRE_MSG(ci < ctx.space.configs.size(),
                         "two-stage seed config index " << ci << " outside the space");
  for (const std::size_t flat : params_.warm_flat_seeds)
    SOCRATES_REQUIRE_MSG(flat < ctx.space.size(),
                         "two-stage warm seed flat index " << flat
                                                           << " outside the space");

  TraceSpan span("dse-explore", "dse");
  const DesignSpace& space = ctx.space;
  const std::size_t total = space.size();
  const std::size_t n_threads = space.thread_counts.size();
  const std::size_t budget = resolved_budget(total);
  ChaosEngine& chaos = ChaosEngine::global();

  // The profiled archive, keyed by flat index (ordered: the final
  // profile comes out in ascending flat order, like the full sweep).
  std::map<std::size_t, ProfiledPoint> archive;
  std::set<std::size_t> attempted;  ///< profiled or dropped — budget spent
  ExploreResult result;

  const auto remaining = [&] { return budget - attempted.size(); };

  // Profiles a candidate batch under the budget: dedups against every
  // earlier attempt (first occurrence wins, so callers order candidates
  // by priority) and truncates to the remaining budget minus `reserve`
  // (budget held back for a later stage).  The candidate list is a
  // deterministic function of the archive, so the truncation point is
  // identical at any job count.  Returns how many candidates actually
  // went to the profiler.
  const auto profile_batch = [&](std::vector<std::size_t> flats,
                                 std::size_t reserve = 0) -> std::size_t {
    const std::size_t cap = remaining() > reserve ? remaining() - reserve : 0;
    std::vector<std::size_t> fresh;
    fresh.reserve(flats.size());
    std::set<std::size_t> in_batch;
    for (const std::size_t flat : flats) {
      if (fresh.size() >= cap) break;
      if (attempted.count(flat) == 0 && in_batch.insert(flat).second)
        fresh.push_back(flat);
    }
    if (fresh.empty()) return 0;
    auto profile = profile_points(ctx, fresh);
    for (std::size_t k = 0; k < profile.flat.size(); ++k)
      archive.emplace(profile.flat[k], std::move(profile.points[k]));
    attempted.insert(fresh.begin(), fresh.end());
    result.dropped += profile.dropped;
    result.retries += profile.retries;
    return fresh.size();
  };

  // Flat indices of the archive's current Pareto front, most valuable
  // first: the hypervolume-greedy representative order (extremes, then
  // descending marginal area), with the rest of the front appended
  // ascending.  Budget spent in this order refines the points a pruned
  // deployment would actually keep.
  constexpr std::size_t kPolishFrontCap = 12;
  const auto archive_front = [&] {
    std::vector<std::size_t> flats;
    std::vector<ProfiledPoint> pts;
    flats.reserve(archive.size());
    pts.reserve(archive.size());
    for (const auto& [flat, point] : archive) {
      flats.push_back(flat);
      pts.push_back(point);
    }
    const auto rs = select_representatives(pts, kPolishFrontCap);
    std::vector<std::size_t> front;
    std::set<std::size_t> seen;
    for (const std::size_t i : rs.representatives)
      if (seen.insert(i).second) front.push_back(flats[i]);
    for (const std::size_t i : rs.front)
      if (seen.insert(i).second) front.push_back(flats[i]);
    return front;
  };

  // ---- Stage 1: analytical seeding (model queries, no budget) -------------
  //
  // The noise-free surrogate predicts where the measured front will be.
  // Its Pareto front is far too large to profile whole (most thread
  // counts of the best configs are model-optimal), so the profiled
  // population is, in priority order: the extremal candidates (the
  // measured global-fastest / global-cheapest point is, up to noise,
  // among the surrogate's top few), a farthest-point spread of the
  // surrogate front (select_representatives, the same clustering the
  // Prune stage uses), and the per-seed-config champions.
  std::vector<ProfiledPoint> surrogate(total);
  for (std::size_t flat = 0; flat < total; ++flat) {
    const auto fp = detail::decompose_flat(space, flat);
    const platform::Configuration config{space.configs[fp.config].config,
                                         space.thread_counts[fp.thread],
                                         space.bindings[fp.binding]};
    const auto m = ctx.model.evaluate(ctx.kernel, config, nullptr, ctx.work_scale);
    surrogate[flat].config_index = fp.config;
    surrogate[flat].configuration = config;
    surrogate[flat].exec_time_mean_s = m.exec_time_s;
    surrogate[flat].power_mean_w = m.avg_power_w;
  }

  std::vector<std::size_t> seeds;
  // Warm seeds first: points a donor kernel already *measured* as good
  // outrank every analytical guess, and profile_batch's
  // first-occurrence-wins dedup keeps them ahead of the slices below
  // even when they coincide.
  if (!params_.warm_flat_seeds.empty()) {
    static Counter& warm_seeds = MetricsRegistry::global().counter("dse.warm_seeds");
    warm_seeds.add(params_.warm_flat_seeds.size());
    seeds.insert(seeds.end(), params_.warm_flat_seeds.begin(),
                 params_.warm_flat_seeds.end());
  }
  // Extremal candidates: noise can promote any near-optimal point to
  // the measured extreme, so profile the top slice of each objective
  // (ties broken by flat index — deterministic at any job count).
  constexpr std::size_t kExtremeSlice = 6;
  std::vector<std::size_t> by_thr(total), by_pow(total);
  for (std::size_t f = 0; f < total; ++f) by_thr[f] = by_pow[f] = f;
  std::stable_sort(by_thr.begin(), by_thr.end(), [&](std::size_t a, std::size_t b) {
    return surrogate[a].throughput() > surrogate[b].throughput();
  });
  std::stable_sort(by_pow.begin(), by_pow.end(), [&](std::size_t a, std::size_t b) {
    return surrogate[a].power_mean_w < surrogate[b].power_mean_w;
  });
  for (std::size_t i = 0; i < std::min(kExtremeSlice, total); ++i) {
    seeds.push_back(by_thr[i]);
    seeds.push_back(by_pow[i]);
  }
  // A spread of the surrogate front, pruned exactly like the Prune
  // stage prunes the measured front.
  const std::vector<std::size_t> sur_front = pareto_filter(surrogate);
  std::vector<ProfiledPoint> sur_front_pts;
  sur_front_pts.reserve(sur_front.size());
  for (const std::size_t f : sur_front) sur_front_pts.push_back(surrogate[f]);
  for (const std::size_t i :
       select_representatives(sur_front_pts, params_.population).representatives)
    seeds.push_back(sur_front[i]);
  for (const std::size_t ci : params_.seed_configs) {
    // Champions of the COBAYN-predicted config: best throughput and
    // best efficiency across its (threads x binding) slice.
    std::size_t best_thr = ci * n_threads * space.bindings.size();
    std::size_t best_eff = best_thr;
    for (std::size_t k = 0; k < n_threads * space.bindings.size(); ++k) {
      const std::size_t flat = ci * n_threads * space.bindings.size() + k;
      if (surrogate[flat].throughput() > surrogate[best_thr].throughput())
        best_thr = flat;
      if (efficiency(surrogate[flat]) > efficiency(surrogate[best_eff]))
        best_eff = flat;
    }
    seeds.push_back(best_thr);
    seeds.push_back(best_eff);
  }
  profile_batch(std::move(seeds));

  // Half of what is left after seeding is reserved for the polish
  // stage: refining the measured front's neighbourhood recovers more
  // front than another genetic round does.
  const std::size_t polish_reserve = remaining() / 2;

  // ---- Stage 2: generational genetic refinement ---------------------------
  Rng ga(derive_stream(hash_combine(ctx.seed, kGaStreamTag), 0));
  static Counter& ga_generations =
      MetricsRegistry::global().counter("dse.ga_generations");
  static Counter& explore_faults =
      MetricsRegistry::global().counter("dse.explore_faults");

  // Tournament of two over the archive: dominance first, efficiency as
  // the tie-break.  The archive is iterated as a vector so uniform_int
  // indexes it deterministically.
  std::vector<std::size_t> pool_flats;
  const auto tournament = [&]() -> std::size_t {
    const auto pick = [&] {
      return pool_flats[static_cast<std::size_t>(
          ga.uniform_int(0, static_cast<std::int64_t>(pool_flats.size()) - 1))];
    };
    const std::size_t a = pick();
    const std::size_t b = pick();
    const ProfiledPoint& pa = archive.at(a);
    const ProfiledPoint& pb = archive.at(b);
    if (dominates(pa, pb)) return a;
    if (dominates(pb, pa)) return b;
    return efficiency(pa) >= efficiency(pb) ? a : b;
  };

  for (std::size_t gen = 0; gen < params_.generations; ++gen) {
    if (remaining() <= polish_reserve || archive.empty()) break;
    if (chaos.enabled() &&
        chaos.fire_indexed("dse.explore", gen, chaos.spec().dse_explore,
                           "chaos.explore_faults")) {
      // A voided generation: the round's proposals are lost and the
      // search degrades to fewer refinement rounds — never a corrupted
      // archive (profiled points are immutable once measured).
      explore_faults.add(1);
      ++result.generations;
      continue;
    }

    pool_flats.clear();
    for (const auto& [flat, point] : archive) pool_flats.push_back(flat);

    std::set<std::size_t> children;
    const std::size_t max_draws = 20 * params_.population;
    for (std::size_t draw = 0;
         draw < max_draws && children.size() < params_.population; ++draw) {
      auto a = detail::decompose_flat(space, tournament());
      const auto b = detail::decompose_flat(space, tournament());
      // Uniform per-knob crossover, then mutation per knob.
      detail::FlatPoint child;
      child.config = ga.uniform() < 0.5 ? a.config : b.config;
      child.thread = ga.uniform() < 0.5 ? a.thread : b.thread;
      child.binding = ga.uniform() < 0.5 ? a.binding : b.binding;
      if (ga.uniform() < 0.5) {
        const auto step = ga.uniform_int(-2, 2);
        const auto t = static_cast<std::int64_t>(child.thread) + step;
        child.thread = static_cast<std::size_t>(
            std::clamp<std::int64_t>(t, 0, static_cast<std::int64_t>(n_threads) - 1));
      }
      if (ga.uniform() < 0.15)
        child.config = static_cast<std::size_t>(
            ga.uniform_int(0, static_cast<std::int64_t>(space.configs.size()) - 1));
      if (ga.uniform() < 0.15 && space.bindings.size() > 1)
        child.binding = child.binding == 0 ? 1 : 0;
      const std::size_t flat = detail::compose_flat(space, child);
      if (attempted.count(flat) == 0) children.insert(flat);
    }
    if (children.empty()) break;  // the front's neighbourhood is exhausted
    profile_batch({children.begin(), children.end()}, polish_reserve);
    ++result.generations;
    ga_generations.add(1);
  }

  // ---- Stage 3: neighbourhood polish --------------------------------------
  //
  // Measurement noise wobbles front membership around the surrogate's
  // prediction; profiling every unexplored knob-space neighbour of the
  // *measured* front until a fixpoint (or the budget runs out) chases
  // those wobbles down deterministically.
  while (remaining() > 0 && !archive.empty()) {
    std::vector<std::size_t> neighbours;
    for (const std::size_t flat : archive_front()) {
      const auto fp = detail::decompose_flat(space, flat);
      const auto push = [&](detail::FlatPoint p) {
        const std::size_t f = detail::compose_flat(space, p);
        if (attempted.count(f) == 0) neighbours.push_back(f);
      };
      if (fp.thread > 0) push({fp.config, fp.thread - 1, fp.binding});
      if (fp.thread + 1 < n_threads) push({fp.config, fp.thread + 1, fp.binding});
      if (space.bindings.size() > 1)
        push({fp.config, fp.thread, fp.binding == 0 ? std::size_t{1} : std::size_t{0}});
      if (fp.config > 0) push({fp.config - 1, fp.thread, fp.binding});
      if (fp.config + 1 < space.configs.size())
        push({fp.config + 1, fp.thread, fp.binding});
    }
    if (profile_batch(std::move(neighbours)) == 0) break;  // fixpoint
  }

  result.evaluated = attempted.size();
  span.set_arg("evaluated", static_cast<std::int64_t>(result.evaluated));
  result.points.reserve(archive.size());
  result.flat.reserve(archive.size());
  for (auto& [flat, point] : archive) {
    result.points.push_back(std::move(point));
    result.flat.push_back(flat);
  }
  return result;
}

void TwoStageExplorer::add_to_key(Hasher& h) const {
  h.add("dse-two-stage");
  h.add(static_cast<std::uint64_t>(params_.budget));
  h.add(static_cast<std::uint64_t>(params_.population));
  h.add(static_cast<std::uint64_t>(params_.generations));
  h.add(static_cast<std::uint64_t>(params_.seed_configs.size()));
  for (const std::size_t ci : params_.seed_configs)
    h.add(static_cast<std::uint64_t>(ci));
  h.add("warm-seeds");
  h.add(static_cast<std::uint64_t>(params_.warm_flat_seeds.size()));
  for (const std::size_t flat : params_.warm_flat_seeds)
    h.add(static_cast<std::uint64_t>(flat));
}

// make_explorer lives here (not explorer.cpp) because it is the one
// place that must know every concrete strategy.
std::unique_ptr<Explorer> make_explorer(const DseStrategyOptions& options,
                                        std::vector<std::size_t> seed_configs) {
  switch (options.kind) {
    case DseStrategyOptions::Kind::kSubset:
      return std::make_unique<RandomSubsetExplorer>(options.subset_fraction);
    case DseStrategyOptions::Kind::kStratified:
      return std::make_unique<StratifiedExplorer>(options.stratified_threads);
    case DseStrategyOptions::Kind::kTwoStage: {
      TwoStageExplorer::Params params;
      params.budget = options.budget;
      params.population = options.population;
      params.generations = options.generations;
      params.seed_configs = std::move(seed_configs);
      return std::make_unique<TwoStageExplorer>(std::move(params));
    }
    case DseStrategyOptions::Kind::kFull:
      break;
  }
  return std::make_unique<FullFactorialExplorer>();
}

}  // namespace socrates::dse
