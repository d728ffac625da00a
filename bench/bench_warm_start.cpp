// Bench: cross-tenant knowledge sharing — what a warm start is worth,
// emitting BENCH_warm_start.json (support/bench_json.hpp).
//
//   server  A donor tenant runs against design-time knowledge that
//           underestimates the true power draw by 1.5x, so its first
//           decisions overshoot the cap and the feedback loop has to
//           walk the thread count down to the truly feasible optimum.
//           Once converged, checkpoint_all() publishes its corrected
//           representatives into the knowledge pool; a similar tenant
//           registering afterwards is seeded from them and must land on
//           the same optimum with >= 3x fewer feedback rounds and a
//           true-rank gap within 5%.  Three cold variants (sharing
//           disabled, featureless profile, plain register_tenant) must
//           produce bit-identical decision sequences — sharing off is
//           exactly the old behaviour.
//   dse     A donor kernel's two-stage exploration hands its best
//           measured points (as flat indices) plus the merged COBAYN
//           posterior to a similar kernel's explorer via
//           warm_flat_seeds / seed_configs.  At an equal, deliberately
//           small budget the warm search must find an operating point
//           at least as fast as the cold search's best.
//
// Everything is seeded and model-driven, so the artifact is machine-
// stable; bench/baselines/warm_start.json gates it in CI
// (warm-start-bench-smoke preset).  --quick shrinks the COBAYN corpus
// for CTest; the server episode is already small.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "cobayn/cobayn.hpp"
#include "dse/dse.hpp"
#include "dse/explorer.hpp"
#include "dse/two_stage.hpp"
#include "kernels/registry.hpp"
#include "kernels/sources.hpp"
#include "margot/asrtm.hpp"
#include "server/server.hpp"
#include "support/bench_json.hpp"
#include "support/task_pool.hpp"

namespace {

using namespace socrates;

// ---- server episode ----------------------------------------------------------------

constexpr double kPowerCap = 100.0;
// True behaviour per thread count: exec falls with threads, power
// crosses the cap between 6 and 8 threads — the true optimum is 6.
const std::vector<int> kThreads = {1, 2, 4, 6, 8, 12, 16};
const std::vector<double> kPowerShare = {0.3, 0.4, 0.6, 0.9, 1.034, 1.3, 1.6};
constexpr std::size_t kTrueBest = 3;  // threads 6

double true_exec(std::size_t op) {
  return 10.0 / std::pow(static_cast<double>(kThreads[op]), 0.8);
}
double true_power(std::size_t op) { return kPowerCap * kPowerShare[op]; }

/// Design-time knowledge: the platform model underestimates exec by
/// 1.6x and power by 1.5x, so the cold AS-RTM believes 12 threads fit
/// under the cap until feedback teaches it otherwise.
margot::KnowledgeBase design_kb() {
  margot::KnowledgeBase kb({"threads"}, {"exec_time_s", "power_w"});
  for (std::size_t i = 0; i < kThreads.size(); ++i) {
    margot::OperatingPoint op;
    op.knobs = {kThreads[i]};
    op.metrics = {{true_exec(i) / 1.6, 0.01}, {true_power(i) / 1.5, 0.5}};
    kb.add(std::move(op));
  }
  return kb;
}

void configure(margot::Asrtm& asrtm) {
  asrtm.set_rank(margot::Rank::minimize_exec_time(0));
  asrtm.add_constraint({1, margot::ComparisonOp::kLessEqual, kPowerCap, 0, 1.0});
}

features::FeatureVector server_features(double level) {
  features::FeatureVector fv;
  for (const std::size_t idx : cobayn::CobaynModel::model_feature_indices())
    fv.values[idx] = level;
  return fv;
}

/// Decide/feedback rounds: each round decides, then reports the *true*
/// exec and power of the decided point.  Returns the decision sequence.
std::vector<std::size_t> drive(server::Server& srv, std::uint64_t handle,
                               std::size_t rounds) {
  std::vector<std::size_t> decisions;
  decisions.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t op = srv.decide(handle);
    decisions.push_back(op);
    if (srv.submit_feedback(handle, op, 0, true_exec(op)) != server::Admission::kAccepted ||
        srv.submit_feedback(handle, op, 1, true_power(op)) != server::Admission::kAccepted) {
      std::fprintf(stderr, "feedback refused in round %zu\n", r);
      std::exit(2);
    }
    if (!srv.drain(10.0)) {
      std::fprintf(stderr, "drain timed out in round %zu\n", r);
      std::exit(2);
    }
  }
  return decisions;
}

/// Feedback rounds spent before the decisions settle on the true
/// optimum (rounds == sequence length when they never do).
std::size_t rounds_to_truth(const std::vector<std::size_t>& decisions) {
  std::size_t settle = decisions.size();
  for (std::size_t i = decisions.size(); i-- > 0;) {
    if (decisions[i] != kTrueBest) break;
    settle = i;
  }
  return settle;
}

server::ServerOptions server_options() {
  server::ServerOptions o;
  o.shards = 2;
  o.ring_capacity = 256;
  o.batch_drain = 32;
  o.max_tenants = 8;
  o.shard_stall_deadline_s = 60.0;
  o.rate_limit_per_s = 0.0;
  o.pool_publish_after = 32;
  return o;
}

// ---- dse episode -------------------------------------------------------------------

double best_exec(const std::vector<dse::ProfiledPoint>& points) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& p : points) best = std::min(best, p.exec_time_mean_s);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "unknown argument %s (only --quick)\n", argv[i]);
      return 2;
    }
  }
  bool all_ok = true;

  // ---- server: donor converges, warm tenant skips the cold walk ----------------
  std::printf("== server: donor cold walk vs pool-seeded warm start ==\n");
  const std::size_t rounds = 48;
  std::vector<std::size_t> donor_decisions;
  std::vector<std::size_t> warm_decisions;
  server::Server::Stats stats;
  server::CreateResult warm;
  {
    server::Server srv(server_options());
    server::TenantProfile donor_profile;
    donor_profile.features = server_features(3.0);
    const auto donor =
        srv.create_tenant("donor", design_kb(), configure, donor_profile);
    if (!donor.created || donor.warm_started) {
      std::fprintf(stderr, "donor registration went wrong\n");
      return 2;
    }
    donor_decisions = drive(srv, donor.handle, rounds);
    srv.checkpoint_all();  // republish with the final corrections

    server::TenantProfile warm_profile;
    warm_profile.features = server_features(3.02);
    warm = srv.create_tenant("warm", design_kb(), configure, warm_profile);
    if (!warm.created) {
      std::fprintf(stderr, "warm registration went wrong\n");
      return 2;
    }
    warm_decisions = drive(srv, warm.handle, rounds);
    stats = srv.stats();
  }
  const std::size_t cold_rounds = rounds_to_truth(donor_decisions);
  const std::size_t warm_rounds = rounds_to_truth(warm_decisions);
  const double speedup = static_cast<double>(cold_rounds) /
                         static_cast<double>(std::max<std::size_t>(1, warm_rounds));
  const std::size_t warm_first = warm_decisions.empty() ? kTrueBest : warm_decisions[0];
  const double rank_gap = true_exec(warm_first) / true_exec(kTrueBest) - 1.0;
  const bool server_ok = warm.warm_started && warm.seeded_points > 0 &&
                         stats.pool_entries >= 1 && stats.warm_started == 1 &&
                         cold_rounds > 0 && cold_rounds < rounds &&
                         warm_rounds < rounds && speedup >= 3.0 && rank_gap <= 0.05;
  all_ok = all_ok && server_ok;
  std::printf(
      "   cold: %zu rounds to the true optimum, warm: %zu (%.1fx fewer), "
      "rank gap %.3f, %zu seeded points -> %s\n",
      cold_rounds, warm_rounds, speedup, rank_gap, warm.seeded_points,
      server_ok ? "OK" : "FAIL");

  // ---- server: sharing off is bit-identical to the old cold behaviour ----------
  std::vector<std::vector<std::size_t>> cold_variants;
  {
    server::ServerOptions off = server_options();
    off.share_knowledge = false;
    server::Server srv(off);
    server::TenantProfile profile;
    profile.features = server_features(3.0);
    const auto t = srv.create_tenant("t", design_kb(), configure, profile);
    cold_variants.push_back(drive(srv, t.handle, rounds));
  }
  {
    server::Server srv(server_options());  // sharing on, but no features
    const auto t = srv.create_tenant("t", design_kb(), configure);
    cold_variants.push_back(drive(srv, t.handle, rounds));
  }
  {
    server::Server srv(server_options());  // the pre-pool entry point
    std::uint64_t handle = 0;
    if (!srv.register_tenant("t", design_kb(), configure, &handle)) return 2;
    cold_variants.push_back(drive(srv, handle, rounds));
  }
  const bool cold_identical =
      cold_variants[0] == donor_decisions && cold_variants[1] == donor_decisions &&
      cold_variants[2] == donor_decisions;
  all_ok = all_ok && cold_identical;
  std::printf("   sharing-off / featureless / plain-register sequences %s\n",
              cold_identical ? "identical to the cold walk" : "DIVERGED (FAIL)");

  // ---- dse: donor's measured best + merged posterior warm the explorer ---------
  std::printf("== dse: warm-seeded two-stage vs cold at an equal budget ==\n");
  const auto& platform_model = platform::PerformanceModel::paper_platform();
  const std::string donor_name = "2mm";
  const std::string recipient_name = "3mm";
  const auto& donor_kernel = kernels::find_benchmark(donor_name).model;
  const auto& recipient_kernel = kernels::find_benchmark(recipient_name).model;

  const auto corpus = cobayn::make_corpus(quick ? 16 : 32, 2018);
  const auto model = cobayn::CobaynModel::train(corpus, platform_model);
  const auto fv_donor =
      cobayn::kernel_features_of_source(kernels::benchmark_source(donor_name));
  const auto fv_recipient =
      cobayn::kernel_features_of_source(kernels::benchmark_source(recipient_name));
  const auto merged = cobayn::CobaynModel::merge_posterior(
      model.export_posterior(fv_donor), static_cast<double>(model.training_rows()),
      model.export_posterior(fv_recipient), static_cast<double>(model.training_rows()));

  // The shared space is built the way the pipeline builds it: the four
  // standard levels plus the posterior-predicted CF1..CF4 — here from
  // the *merged* donor+recipient posterior, so the pooled prior decides
  // which configurations exist at all.  The CF indices are the
  // seeding-stage bias for both searches; donor flat indices transfer
  // because both kernels explore the identical space.
  std::vector<platform::NamedConfig> cfs;
  std::vector<std::size_t> seed_configs;
  for (const auto& cfg : cobayn::CobaynModel::top_configs(merged, 4)) {
    seed_configs.push_back(platform::standard_levels().size() + cfs.size());
    cfs.push_back({"CF" + std::to_string(cfs.size() + 1), cfg});
  }
  const auto space = platform::DesignSpace::paper_space(platform_model.topology(), cfs);

  TaskPool pool(4);
  dse::ExploreContext donor_ctx{platform_model, donor_kernel, space, 3, 2018, 1.0,
                                &pool, 1};
  dse::TwoStageExplorer::Params donor_params;
  donor_params.budget = 64;
  donor_params.seed_configs = seed_configs;
  const auto donor_result = dse::TwoStageExplorer(donor_params).explore(donor_ctx);

  // The donor's four fastest measured points, as flat indices — what
  // the server pool hands a similar kernel.
  std::vector<std::size_t> ranked(donor_result.points.size());
  std::iota(ranked.begin(), ranked.end(), std::size_t{0});
  std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
    return donor_result.points[a].exec_time_mean_s <
           donor_result.points[b].exec_time_mean_s;
  });
  std::vector<std::size_t> warm_seeds;
  for (std::size_t i = 0; i < ranked.size() && warm_seeds.size() < 4; ++i)
    warm_seeds.push_back(donor_result.points[ranked[i]].flat);

  dse::ExploreContext ctx{platform_model, recipient_kernel, space, 3, 2018, 1.0,
                          &pool, 1};
  dse::TwoStageExplorer::Params cold_params;
  cold_params.budget = 24;
  cold_params.seed_configs = seed_configs;
  dse::TwoStageExplorer::Params warm_params = cold_params;
  warm_params.warm_flat_seeds = warm_seeds;

  const auto cold_result = dse::TwoStageExplorer(cold_params).explore(ctx);
  const auto warm_result = dse::TwoStageExplorer(warm_params).explore(ctx);
  const double cold_best = best_exec(cold_result.points);
  const double warm_best = best_exec(warm_result.points);
  const double warm_ratio = cold_best / warm_best;
  const bool dse_ok = !warm_seeds.empty() && warm_ratio >= 1.0 &&
                      warm_result.evaluated <= cold_params.budget;
  all_ok = all_ok && dse_ok;
  std::printf(
      "   budget %zu: cold best %.4fs, warm best %.4fs (ratio %.3f, %zu seeds, "
      "%zu seed configs) -> %s\n",
      cold_params.budget, cold_best, warm_best, warm_ratio, warm_seeds.size(),
      seed_configs.size(), dse_ok ? "OK" : "FAIL");

  // ---- artifact ----------------------------------------------------------------
  JsonWriter w;
  w.begin_object();
  w.kv("mode", quick ? "quick" : "full");
  w.key("server").begin_object();
  w.kv("rounds", static_cast<std::uint64_t>(rounds));
  w.kv("cold_rounds_to_truth", static_cast<std::uint64_t>(cold_rounds));
  w.kv("warm_rounds_to_truth", static_cast<std::uint64_t>(warm_rounds));
  w.kv("speedup", speedup);
  w.kv("warm_rank_gap", rank_gap);
  w.kv("seeded_points", static_cast<std::uint64_t>(warm.seeded_points));
  w.kv("pool_entries", static_cast<std::uint64_t>(stats.pool_entries));
  w.kv("warm_started", static_cast<std::uint64_t>(stats.warm_started));
  w.kv("cold_identical_when_disabled", cold_identical ? 1 : 0);
  w.end_object();
  w.key("dse").begin_object();
  w.kv("budget", static_cast<std::uint64_t>(cold_params.budget));
  w.kv("donor_best_exec_s", best_exec(donor_result.points));
  w.kv("cold_best_exec_s", cold_best);
  w.kv("warm_best_exec_s", warm_best);
  w.kv("warm_vs_cold_ratio", warm_ratio);
  w.kv("warm_seeds", static_cast<std::uint64_t>(warm_seeds.size()));
  w.kv("seed_configs", static_cast<std::uint64_t>(seed_configs.size()));
  w.end_object();
  w.end_object();
  write_bench_json("warm_start", w.str());

  std::printf("%s: warm-started tenants reach the converged optimum with >= 3x "
              "fewer updates at a <= 5%% rank gap\n",
              all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
