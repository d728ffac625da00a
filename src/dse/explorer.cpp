#include "dse/explorer.hpp"

#include <atomic>
#include <numeric>

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "support/chaos.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace socrates::dse {

namespace {

/// Measures the design point at `flat`: ctx.repetitions runs drawing
/// from `noise`.
ProfiledPoint profile_point(const ExploreContext& ctx,
                            const platform::Configuration& config, std::size_t flat,
                            Rng& noise) {
  ProfiledPoint p;
  p.flat = flat;
  RunningStats time_stats;
  RunningStats power_stats;
  for (std::size_t r = 0; r < ctx.repetitions; ++r) {
    const auto m = ctx.model.evaluate(ctx.kernel, config, &noise, ctx.work_scale);
    time_stats.add(m.exec_time_s);
    power_stats.add(m.avg_power_w);
  }
  p.exec_time_mean_s = time_stats.mean();
  p.exec_time_stddev_s = time_stats.stddev();
  p.power_mean_w = power_stats.mean();
  p.power_stddev_w = power_stats.stddev();
  return p;
}

}  // namespace

Explorer::~Explorer() = default;

// ---- the per-point loop ----------------------------------------------------

ExploreResult profile_points(const ExploreContext& ctx,
                             const std::vector<std::size_t>& flat_indices) {
  SOCRATES_REQUIRE_MSG(ctx.repetitions >= 1,
                       "DSE repetitions must be >= 1 (got " << ctx.repetitions
                                                            << ")");
  SOCRATES_REQUIRE_MSG(ctx.space.size() > 0, "DSE design space is empty");
  SOCRATES_REQUIRE(ctx.point_attempts >= 1);

  std::vector<ProfiledPoint> slots(flat_indices.size());
  std::vector<char> dropped(flat_indices.size(), 0);
  std::atomic<std::size_t> retries{0};
  TaskPool& executor = ctx.pool != nullptr ? *ctx.pool : TaskPool::shared();
  ChaosEngine& chaos = ChaosEngine::global();
  static Counter& points_profiled =
      MetricsRegistry::global().counter("dse.points_profiled");

  executor.parallel_for(flat_indices.size(), [&](std::size_t k) {
    TraceSpan span("dse-point", "dse");
    const std::size_t flat = flat_indices[k];
    span.set_arg("point", static_cast<std::int64_t>(flat));
    const platform::Configuration config = ctx.space.configuration(ctx.space.point(flat));
    for (std::size_t attempt = 0; attempt < ctx.point_attempts; ++attempt) {
      try {
        // Indexed (not counter-based) chaos draw: the decision for
        // (flat point, attempt) is independent of which strategy asked
        // and of thread interleaving.
        if (chaos.enabled() &&
            chaos.fire_indexed("dse.point", hash_combine(flat, attempt)))
          throw ChaosFault("injected DSE point fault");
        // Fresh stream every attempt, keyed by the *flat* index: the
        // surviving measurement is bit-identical to a chaos-free run
        // of any strategy.
        Rng noise(derive_stream(ctx.seed, flat));
        slots[k] = profile_point(ctx, config, flat, noise);
        points_profiled.add(1);
        return;
      } catch (const std::logic_error&) {
        throw;  // a caller bug, not a flaky measurement
      } catch (const std::exception&) {
        if (attempt + 1 < ctx.point_attempts)
          retries.fetch_add(1, std::memory_order_relaxed);
      }
    }
    dropped[k] = 1;
  });

  ExploreResult out;
  out.evaluated = flat_indices.size();
  out.retries = retries.load();
  out.points.reserve(flat_indices.size());
  for (std::size_t k = 0; k < flat_indices.size(); ++k) {
    if (dropped[k] != 0)
      ++out.dropped;
    else
      out.points.push_back(slots[k]);
  }
  if (out.dropped > 0)
    MetricsRegistry::global().counter("dse.points_dropped").add(out.dropped);
  if (out.retries > 0)
    MetricsRegistry::global().counter("dse.point_retries").add(out.retries);
  return out;
}

// ---- FullFactorialExplorer -------------------------------------------------

ExploreResult FullFactorialExplorer::explore(const ExploreContext& ctx) const {
  std::vector<std::size_t> all(ctx.space.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return profile_points(ctx, all);
}

void FullFactorialExplorer::add_to_key(Hasher& h) const { h.add("dse-full"); }

// ---- strategy selection ----------------------------------------------------

DseStrategyOptions DseStrategyOptions::from_env() {
  DseStrategyOptions o;
  if (env::choice_or("SOCRATES_DSE", "full", {"full", "two-stage"}) == "two-stage")
    o.kind = Kind::kTwoStage;
  o.budget = env::size_or("SOCRATES_DSE_BUDGET", 0, 0, 1u << 20);
  o.max_representatives = env::size_or("SOCRATES_DSE_PRUNE", 0, 0, 4096);
  return o;
}

}  // namespace socrates::dse
