// Bench: the overload-safe multi-tenant AS-RTM server under three
// regimes, emitting BENCH_server.json (support/bench_json.hpp).
//
//   clean     kBlock policy, journaling on: mixed feedback + decision
//             traffic across many tenants, flat out.  Measures sustained
//             feedback throughput and decision latency percentiles, then
//             kills the server (crash-equivalent destructor) and resumes
//             it, verifying every tenant recovers to exactly the
//             committed prefix of its feedback stream — at most one
//             uncommitted group-commit batch lost per tenant.
//   overload  kDropOldest policy with a deliberately small ring and
//             periodic injected shard stalls: the ingest is driven well
//             past drain capacity.  Measures how much is shed and that
//             decision latency does not collapse: its p99 against a
//             clean run that applies the same number of events, median
//             of 5 repetitions, gated at <= 5x.
//   chaos     shard-stall + ingest-flood + journal-fail armed (seeded,
//             deterministic): the watchdog must restart stalled shards,
//             floods must shed instead of wedging, and a final
//             kill-and-resume must bring back every tenant.
//
// Every tenant registers a copy of one tenant_kb(), so the artifact
// also counts the distinct knowledge storage blocks the tenants' AS-RTMs
// read (knowledge.storage_blocks): copies share one block, so it is 1.
// The clean regime's events are all well-formed, its tenants unlimited
// and its breakers closed, so every submit takes the lock-free fast
// path: clean.ingress_locked counts those that took the ingress lock
// instead, and is 0.
//
// Default is the full run (>= 1k tenants, the ISSUE's >= 1M updates/sec
// target printed against the measured number); --quick runs a scaled-
// down version for CTest, whose artifact is gated by
// bench/baselines/server.json (machine-stable invariants: conservation,
// shedding, recovery — not absolute nanoseconds).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "margot/asrtm.hpp"
#include "observability/metrics.hpp"
#include "server/server.hpp"
#include "support/bench_json.hpp"
#include "support/chaos.hpp"
#include "support/statistics.hpp"

namespace {

using namespace socrates;
namespace fs = std::filesystem;

struct BenchConfig {
  bool quick = false;
  std::size_t tenants = 1024;
  std::size_t clean_events = 3'000'000;
  std::size_t overload_events = 1'500'000;
  std::size_t chaos_events = 150'000;
  std::size_t decide_every = 256;  ///< decision sample cadence (events)
};

margot::KnowledgeBase tenant_kb() {
  // Metric 0 mean of point 0 is 1.0, so feeding a constant 1.25
  // drives the correction EWMA along a closed-form trajectory — the
  // resume check below recomputes it exactly from the event count.
  margot::KnowledgeBase kb({"knob"}, {"throughput", "power"});
  for (std::size_t i = 0; i < 8; ++i) {
    margot::OperatingPoint op;
    op.knobs = {static_cast<int>(i)};
    op.metrics = {{1.0 + 0.05 * static_cast<double>(i), 0.01},
                  {60.0 + static_cast<double>(i), 0.5}};
    kb.add(std::move(op));
  }
  return kb;
}

void configure_tenant(margot::Asrtm& asrtm) {
  asrtm.set_rank(margot::Rank::maximize_throughput(0));
  asrtm.add_constraint({1, margot::ComparisonOp::kLessEqual, 66.0, 0, 1.0});
}

constexpr double kFeedbackValue = 1.25;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RegimeResult {
  std::uint64_t events = 0;
  std::uint64_t ingress_locked = 0;  ///< submits that took the ingress lock
  double seconds = 0.0;
  double throughput_per_s = 0.0;
  double decision_p50_ns = 0.0;
  double decision_p99_ns = 0.0;
  server::Server::Stats stats;
  bool conservation_ok = false;
};

/// Drives `events` feedback updates round-robin over the tenants, with
/// a decision sampled every `decide_every` events, then drains.
RegimeResult drive(server::Server& srv, const std::vector<std::uint64_t>& handles,
                   std::size_t events, std::size_t decide_every,
                   const std::function<void(std::size_t)>& per_event_hook = {}) {
  RegimeResult result;
  std::vector<double> decide_ns;
  decide_ns.reserve(events / decide_every + 1);
  const Counter& locked = MetricsRegistry::global().counter("server.ingress_locked");
  const std::uint64_t locked0 = locked.value();
  const double t0 = now_s();
  for (std::size_t i = 0; i < events; ++i) {
    if (per_event_hook) per_event_hook(i);
    const std::uint64_t handle = handles[i % handles.size()];
    (void)srv.submit_feedback(handle, 0, 0, kFeedbackValue);
    if (i % decide_every == 0) {
      const auto d0 = std::chrono::steady_clock::now();
      (void)srv.decide(handle);
      const auto d1 = std::chrono::steady_clock::now();
      decide_ns.push_back(
          std::chrono::duration<double, std::nano>(d1 - d0).count());
    }
  }
  srv.drain(120.0);
  result.seconds = now_s() - t0;
  result.events = events;
  result.ingress_locked = locked.value() - locked0;
  result.throughput_per_s =
      result.seconds > 0 ? static_cast<double>(events) / result.seconds : 0.0;
  result.decision_p50_ns = quantile(decide_ns, 0.5);
  result.decision_p99_ns = quantile(decide_ns, 0.99);
  result.stats = srv.stats();
  result.conservation_ok =
      result.stats.drained + result.stats.shed == result.stats.accepted;
  return result;
}

std::vector<std::uint64_t> register_tenants(server::Server& srv, std::size_t n) {
  const margot::KnowledgeBase kb = tenant_kb();
  std::vector<std::uint64_t> handles;
  handles.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    std::uint64_t handle = 0;
    if (!srv.register_tenant("tenant" + std::to_string(t), kb, configure_tenant,
                             &handle)) {
      std::fprintf(stderr, "tenant registration refused at %zu\n", t);
      std::exit(2);
    }
    handles.push_back(handle);
  }
  return handles;
}

/// Distinct knowledge storage blocks behind the tenants' AS-RTMs, told
/// apart by the address of their first metric column.
std::size_t count_storage_blocks(server::Server& srv,
                                 const std::vector<std::uint64_t>& handles) {
  std::vector<const double*> columns;
  for (const std::uint64_t handle : handles)
    srv.with_tenant(handle, [&](margot::Asrtm& asrtm) {
      columns.push_back(asrtm.knowledge().metric_means(0));
    });
  std::sort(columns.begin(), columns.end());
  return static_cast<std::size_t>(std::unique(columns.begin(), columns.end()) -
                                  columns.begin());
}

/// Correction value after `n` constant-feedback events (the EWMA
/// trajectory the journal replay must land on exactly).
double reference_correction(std::size_t n) {
  margot::Asrtm reference(tenant_kb());
  for (std::size_t i = 0; i < n; ++i) reference.send_feedback(0, 0, kFeedbackValue);
  return reference.correction(0);
}

void write_regime(JsonWriter& w, const char* name, const RegimeResult& r) {
  w.key(name).begin_object();
  w.kv("events", static_cast<std::uint64_t>(r.events));
  w.kv("seconds", r.seconds);
  w.kv("throughput_per_s", r.throughput_per_s);
  w.kv("decision_p50_ns", r.decision_p50_ns);
  w.kv("decision_p99_ns", r.decision_p99_ns);
  w.kv("accepted", r.stats.accepted);
  w.kv("drained", r.stats.drained);
  w.kv("shed", r.stats.shed);
  w.kv("conservation_ok", r.conservation_ok ? 1 : 0);
  w.kv("ingress_locked", r.ingress_locked);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.quick = true;
      config.tenants = 64;
      config.clean_events = 60'000;
      config.overload_events = 60'000;
      config.chaos_events = 20'000;
      config.decide_every = 64;
    } else {
      std::fprintf(stderr, "unknown argument %s (only --quick)\n", argv[i]);
      return 2;
    }
  }

  const fs::path root =
      fs::temp_directory_path() / ("socrates_bench_server." + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  server::ServerOptions base = server::ServerOptions::from_env();
  base.max_tenants = config.tenants;
  base.rate_limit_per_s = 0.0;          // contract testing is the server tests' job
  base.breaker.error_threshold = 1u << 30;  // no trips from valid traffic
  base.shard_stall_deadline_s = 5.0;
  bool all_ok = true;

  // ---- clean regime + exact kill-and-resume -----------------------------------
  std::printf("== clean: %zu tenants, %zu events, policy=block ==\n", config.tenants,
              config.clean_events);
  RegimeResult clean;
  std::size_t storage_blocks = 0;
  std::vector<std::size_t> applied_at_kill(config.tenants, 0);
  std::vector<std::size_t> buffered_at_kill(config.tenants, 0);
  server::ServerOptions clean_options = base;
  clean_options.policy = server::BackpressurePolicy::kBlock;
  clean_options.checkpoint_dir = (root / "clean").string();
  {
    server::Server srv(clean_options);
    const auto handles = register_tenants(srv, config.tenants);
    storage_blocks = count_storage_blocks(srv, handles);
    clean = drive(srv, handles, config.clean_events, config.decide_every);
    for (std::size_t t = 0; t < config.tenants; ++t) {
      const auto status = srv.tenant_status(handles[t]);
      applied_at_kill[t] = status.applied;
      buffered_at_kill[t] = status.buffered_events;
    }
    // Destructor without checkpoint_all(): the kill.
  }
  std::printf("   %.0f updates/s, decide p50=%.0fns p99=%.0fns, drained=%llu\n",
              clean.throughput_per_s, clean.decision_p50_ns, clean.decision_p99_ns,
              static_cast<unsigned long long>(clean.stats.drained));
  std::printf("   knowledge: %zu tenants read %zu storage block(s)\n", config.tenants,
              storage_blocks);

  std::size_t resume_exact = 0;
  std::size_t max_lost = 0;
  double resume_seconds = 0.0;
  {
    const double t0 = now_s();
    server::Server resumed(clean_options);
    const auto handles = register_tenants(resumed, config.tenants);
    resume_seconds = now_s() - t0;
    for (std::size_t t = 0; t < config.tenants; ++t) {
      const std::size_t survived = applied_at_kill[t] - buffered_at_kill[t];
      max_lost = std::max(max_lost, buffered_at_kill[t]);
      const double expected = reference_correction(survived);
      double actual = 0.0;
      resumed.with_tenant(handles[t], [&](margot::Asrtm& asrtm) {
        actual = asrtm.correction(0);
      });
      if (actual == expected) ++resume_exact;
    }
  }
  const bool lost_bound_ok = max_lost < clean_options.checkpoint.group_commit;
  const bool resume_ok = resume_exact == config.tenants;
  all_ok = all_ok && clean.conservation_ok && lost_bound_ok && resume_ok;
  std::printf(
      "   resume: %zu/%zu tenants exact, max lost %zu events (group_commit %zu) "
      "in %.2fs -> %s\n",
      resume_exact, config.tenants, max_lost, clean_options.checkpoint.group_commit,
      resume_seconds, resume_ok && lost_bound_ok ? "OK" : "FAIL");

  // ---- overload regime ---------------------------------------------------------
  // Overload sheds most events, so its decisions mostly see a clean
  // epoch.  Its decision p99 is therefore compared with a clean (kBlock)
  // run that applies as many events as the overload run applied, with
  // as many decision samples; p99_vs_clean is the median ratio over
  // kOverloadReps such pairs.
  constexpr int kOverloadReps = 5;
  std::printf("== overload: policy=drop-oldest, small ring, injected stalls, "
              "%d reps vs clean at equal applied events ==\n",
              kOverloadReps);
  server::ServerOptions overload_options = base;
  overload_options.policy = server::BackpressurePolicy::kDropOldest;
  overload_options.ring_capacity = 1024;
  server::ServerOptions equal_options = base;
  equal_options.policy = server::BackpressurePolicy::kBlock;
  const std::size_t overload_decisions =
      (config.overload_events + config.decide_every - 1) / config.decide_every;
  RegimeResult overload;  ///< the first repetition, reported as the regime
  std::vector<double> ratios;
  std::vector<double> equal_p99s;
  for (int rep = 0; rep < kOverloadReps; ++rep) {
    const fs::path dir = root / ("overload" + std::to_string(rep));
    overload_options.checkpoint_dir = (dir / "overload").string();
    equal_options.checkpoint_dir = (dir / "clean").string();
    RegimeResult shed_run;
    {
      server::Server srv(overload_options);
      const auto handles = register_tenants(srv, config.tenants);
      // Periodic injected stalls guarantee the ring actually fills (2x+
      // overload) even on hosts whose drain outruns this single producer.
      const std::size_t stall_every = config.overload_events / 8;
      shed_run = drive(srv, handles, config.overload_events, config.decide_every,
                       [&](std::size_t i) {
                         if (i % stall_every == 0) {
                           for (std::size_t s = 0; s < srv.options().shards; ++s) {
                             srv.inject_stall(s, 0.02);
                           }
                         }
                       });
    }
    const std::size_t applied =
        std::max<std::size_t>(1, static_cast<std::size_t>(shed_run.stats.drained));
    RegimeResult equal;
    {
      server::Server srv(equal_options);
      const auto handles = register_tenants(srv, config.tenants);
      equal = drive(srv, handles, applied,
                    std::max<std::size_t>(1, applied / overload_decisions));
    }
    all_ok = all_ok && shed_run.conservation_ok && shed_run.stats.shed > 0 &&
             equal.conservation_ok;
    ratios.push_back(equal.decision_p99_ns > 0
                         ? shed_run.decision_p99_ns / equal.decision_p99_ns
                         : 0.0);
    equal_p99s.push_back(equal.decision_p99_ns);
    if (rep == 0) overload = shed_run;
  }
  const double p99_vs_clean = quantile(ratios, 0.5);
  const double equal_p99_ns = quantile(equal_p99s, 0.5);
  std::printf(
      "   %.0f updates/s offered, applied=%llu, shed=%llu (%.1f%%), decide "
      "p99=%.0fns; median p99 ratio vs clean at equal applied events %.2fx "
      "(clean p99 %.0fns)\n",
      overload.throughput_per_s,
      static_cast<unsigned long long>(overload.stats.drained),
      static_cast<unsigned long long>(overload.stats.shed),
      100.0 * static_cast<double>(overload.stats.shed) /
          static_cast<double>(overload.stats.accepted ? overload.stats.accepted : 1),
      overload.decision_p99_ns, p99_vs_clean, equal_p99_ns);

  // ---- chaos regime ------------------------------------------------------------
  std::printf("== chaos: shard-stall + ingest-flood + journal-fail armed ==\n");
  ChaosSpec spec;
  spec.shard_stall = 0.0005;
  spec.stall_ms = 150.0;
  spec.ingest_flood = 0.002;
  spec.flood_burst = 8.0;
  spec.journal_fail = 0.01;
  spec.seed = 2018;
  ChaosEngine::global().install(spec);

  server::ServerOptions chaos_options = base;
  chaos_options.policy = server::BackpressurePolicy::kDropOldest;
  chaos_options.ring_capacity = 1024;
  chaos_options.shard_stall_deadline_s = 0.1;
  chaos_options.watchdog_period_s = 0.02;
  chaos_options.restart_backoff_base_s = 0.0;
  chaos_options.checkpoint_dir = (root / "chaos").string();
  RegimeResult chaos;
  std::size_t chaos_recovered = 0;
  {
    server::Server srv(chaos_options);
    const auto handles = register_tenants(srv, config.tenants);
    chaos = drive(srv, handles, config.chaos_events, config.decide_every);
    // The stall site draws per worker loop; a short run may finish
    // before the schedule fires.  Keep light traffic flowing until the
    // watchdog has restarted at least one shard (seeded chaos makes
    // this quick), then re-drain and take the regime's final stats.
    const double poll_deadline = now_s() + 30.0;
    std::size_t i = 0;
    while (srv.stats().shard_restarts < 1 && now_s() < poll_deadline) {
      (void)srv.submit_feedback(handles[i++ % handles.size()], 0, 0, kFeedbackValue);
      if (i % 64 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    srv.drain(60.0);
    chaos.stats = srv.stats();
    chaos.conservation_ok =
        chaos.stats.drained + chaos.stats.shed == chaos.stats.accepted;
    // Crash-equivalent kill under chaos.
  }
  ChaosEngine::global().disarm();
  {
    server::Server resumed(chaos_options);
    const auto handles = register_tenants(resumed, config.tenants);
    for (std::size_t t = 0; t < config.tenants; ++t) {
      double correction = 0.0;
      std::size_t best = 0;
      resumed.with_tenant(handles[t], [&](margot::Asrtm& asrtm) {
        correction = asrtm.correction(0);
        best = asrtm.find_best_operating_point();
      });
      // Recovery = a structurally sound tenant: replay produced a sane
      // correction (between fresh and the EWMA target) and a servable
      // decision.  Chaos may legitimately have dropped journal batches,
      // so exact state is not required here — the clean regime pins that.
      if (correction >= 1.0 && correction <= kFeedbackValue + 1e-9 &&
          best < tenant_kb().size()) {
        ++chaos_recovered;
      }
    }
  }
  const bool chaos_ok =
      chaos.conservation_ok && chaos_recovered == config.tenants &&
      chaos.stats.shard_restarts >= 1;
  all_ok = all_ok && chaos_ok;
  std::printf(
      "   restarts=%llu, shed=%llu, recovered %zu/%zu tenants -> %s\n",
      static_cast<unsigned long long>(chaos.stats.shard_restarts),
      static_cast<unsigned long long>(chaos.stats.shed), chaos_recovered,
      config.tenants, chaos_ok ? "OK" : "FAIL");

  // ---- artifact ----------------------------------------------------------------
  JsonWriter w;
  w.begin_object();
  w.kv("mode", config.quick ? "quick" : "full");
  w.key("config").begin_object();
  w.kv("tenants", static_cast<std::uint64_t>(config.tenants));
  w.kv("shards", static_cast<std::uint64_t>(base.shards));
  w.kv("ring_capacity", static_cast<std::uint64_t>(base.ring_capacity));
  w.kv("group_commit", static_cast<std::uint64_t>(base.checkpoint.group_commit));
  w.end_object();
  write_regime(w, "clean", clean);
  w.key("resume").begin_object();
  w.kv("exact_tenants", static_cast<std::uint64_t>(resume_exact));
  w.kv("tenants", static_cast<std::uint64_t>(config.tenants));
  w.kv("exact_fraction",
       static_cast<double>(resume_exact) / static_cast<double>(config.tenants));
  w.kv("max_lost_events", static_cast<std::uint64_t>(max_lost));
  w.kv("lost_bound_ok", lost_bound_ok ? 1 : 0);
  w.kv("seconds", resume_seconds);
  w.end_object();
  write_regime(w, "overload", overload);
  w.key("overload_extra").begin_object();
  w.kv("p99_vs_clean", p99_vs_clean);
  w.kv("clean_equal_applied_p99_ns", equal_p99_ns);
  w.kv("shed_any", overload.stats.shed > 0 ? 1 : 0);
  w.end_object();
  write_regime(w, "chaos", chaos);
  w.key("chaos_extra").begin_object();
  w.kv("shard_restarts", chaos.stats.shard_restarts);
  w.kv("recovered_tenants", static_cast<std::uint64_t>(chaos_recovered));
  w.kv("recovered_fraction",
       static_cast<double>(chaos_recovered) / static_cast<double>(config.tenants));
  w.end_object();
  w.key("knowledge").begin_object();
  w.kv("storage_blocks", static_cast<std::uint64_t>(storage_blocks));
  w.end_object();
  w.end_object();
  write_bench_json("server", w.str());

  fs::remove_all(root);

  if (!config.quick) {
    const bool throughput_target = clean.throughput_per_s >= 1e6;
    const bool latency_target = p99_vs_clean > 0 && p99_vs_clean <= 5.0;
    std::printf("%s: sustained %.2fM updates/s across %zu tenants (target 1M/s)\n",
                throughput_target ? "PASS" : "MISS", clean.throughput_per_s / 1e6,
                config.tenants);
    std::printf("%s: overload p99 %.1fx clean (target <= 5x)\n",
                latency_target ? "PASS" : "MISS", p99_vs_clean);
  }
  std::printf("%s: conservation, loss bound and recovery invariants\n",
              all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
