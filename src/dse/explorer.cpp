#include "dse/explorer.hpp"

#include <atomic>
#include <numeric>

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "support/chaos.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace socrates::dse {

Explorer::~Explorer() = default;

namespace detail {

FlatPoint decompose_flat(const DesignSpace& space, std::size_t flat) {
  const std::size_t n_threads = space.thread_counts.size();
  const std::size_t n_bindings = space.bindings.size();
  FlatPoint p;
  p.config = flat / (n_threads * n_bindings);
  p.thread = (flat / n_bindings) % n_threads;
  p.binding = flat % n_bindings;
  return p;
}

std::size_t compose_flat(const DesignSpace& space, const FlatPoint& p) {
  const std::size_t n_threads = space.thread_counts.size();
  const std::size_t n_bindings = space.bindings.size();
  return (p.config * n_threads + p.thread) * n_bindings + p.binding;
}

}  // namespace detail

// ---- the per-point loop ----------------------------------------------------

ExploreResult profile_points(const ExploreContext& ctx,
                             const std::vector<std::size_t>& flat_indices) {
  SOCRATES_REQUIRE_MSG(ctx.repetitions >= 1,
                       "DSE repetitions must be >= 1 (got " << ctx.repetitions
                                                            << ")");
  SOCRATES_REQUIRE_MSG(ctx.space.size() > 0, "DSE design space is empty");
  SOCRATES_REQUIRE(ctx.point_attempts >= 1);
  const DesignSpace& space = ctx.space;

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
    const detail::FlatPoint fp = detail::decompose_flat(space, flat);
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
        slots[k] = profile_point(ctx.model, ctx.kernel, space, fp.config,
                                 space.thread_counts[fp.thread],
                                 space.bindings[fp.binding], ctx.repetitions, noise,
                                 ctx.work_scale);
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
  out.flat.reserve(flat_indices.size());
  for (std::size_t k = 0; k < flat_indices.size(); ++k) {
    if (dropped[k] != 0) {
      ++out.dropped;
      continue;
    }
    out.points.push_back(std::move(slots[k]));
    out.flat.push_back(flat_indices[k]);
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
