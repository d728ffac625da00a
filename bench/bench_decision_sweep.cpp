// Bench: batched decision sweeps against the per-call decide() path,
// emitting BENCH_decision_sweep.json (support/bench_json.hpp).
//
// Geometry is pinned to the tentpole target: 1024 tenants, each with a
// 256-point knowledge base.  Registration publishes every tenant's
// decision; after a warm-up, the steady state is measured two ways:
//
//   percall  srv.decide(handle) per tenant — takes the tenant lock and
//            serves the AS-RTM's epoch-cached decision.
//   batch    srv.decide_batch(handles, out) — one load of each
//            tenant's published decision, which the write path keeps
//            current, so every tenant is served lock-free and
//            lockfree_fraction is 1 by construction.
//
// The pinned assertions behind the `decision_sweep_bench_smoke` CTest
// entry: batch throughput >= 5x per-call throughput, zero allocations
// in the steady-state loops of either path, every batch result equal
// to the per-call result for the same tenant, and a fully lock-free
// steady-state sweep.  --quick only trims repetitions; the geometry is
// the same so the gate proves the target scale.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "margot/asrtm.hpp"
#include "server/server.hpp"
#include "support/bench_json.hpp"

// Thread-local allocation counter backing the allocation-free
// assertion on both steady-state decision paths.  Thread-local rather
// than process-wide: the server's shard workers and watchdog allocate
// on their own (idle) schedule, and the pin is about the decide paths
// running on the bench thread.
thread_local std::uint64_t g_allocations = 0;

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace socrates;

constexpr std::size_t kTenants = 1024;
constexpr std::size_t kPoints = 256;
constexpr double kMinRatio = 5.0;

margot::KnowledgeBase sweep_kb() {
  margot::KnowledgeBase kb({"knob"}, {"throughput", "power"});
  for (std::size_t i = 0; i < kPoints; ++i) {
    margot::OperatingPoint op;
    op.knobs = {static_cast<int>(i)};
    const double x = static_cast<double>(i);
    op.metrics = {{1.0 + 0.01 * x, 0.02}, {50.0 + 0.25 * x, 0.5}};
    kb.add(std::move(op));
  }
  return kb;
}

void configure_tenant(margot::Asrtm& asrtm) {
  // The 90 W cap keeps 161 of the 256 points feasible, so the sweep
  // exercises the constraint pass, not just the rank scan.
  asrtm.set_rank(margot::Rank::maximize_throughput(0));
  asrtm.add_constraint({1, margot::ComparisonOp::kLessEqual, 90.0, 0, 1.0});
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct PathResult {
  std::uint64_t decisions = 0;
  double seconds = 0.0;
  double per_s = 0.0;
  std::uint64_t steady_allocs = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t repetitions = 200;
  int trials = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      repetitions = 50;
      trials = 3;
    } else {
      std::fprintf(stderr, "unknown argument %s (only --quick)\n", argv[i]);
      return 2;
    }
  }

  server::ServerOptions options = server::ServerOptions::from_env();
  options.max_tenants = kTenants;
  options.rate_limit_per_s = 0.0;
  server::Server srv(options);

  std::vector<server::Server::TenantHandle> handles;
  handles.reserve(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    server::Server::TenantHandle handle = 0;
    if (!srv.register_tenant("tenant" + std::to_string(t), sweep_kb(),
                             configure_tenant, &handle)) {
      std::fprintf(stderr, "tenant registration refused at %zu\n", t);
      return 2;
    }
    handles.push_back(handle);
  }

  // Warm-up: registration already made every tenant's cold decision
  // and published it; one round of each path touches the
  // function-local static metric counters (the cached-decision one
  // included) so the measured loops are pure steady state.
  std::vector<std::size_t> expected(kTenants, 0);
  std::vector<std::size_t> batch_best(kTenants, 0);
  for (std::size_t t = 0; t < kTenants; ++t) expected[t] = srv.decide(handles[t]);
  (void)srv.decide_batch(handles, batch_best);

  // Best-of-trials damps scheduler noise without needing a quiet host;
  // allocations accumulate over *all* trials so a single stray
  // allocation in any steady-state loop fails the pin.
  PathResult percall;
  PathResult batch;
  std::uint64_t lockfree = 0;
  for (int trial = 0; trial < trials; ++trial) {
    {
      const std::uint64_t a0 = g_allocations;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < repetitions; ++r)
        for (std::size_t t = 0; t < kTenants; ++t)
          expected[t] = srv.decide(handles[t]);
      const double s = seconds_since(t0);
      percall.steady_allocs +=
          g_allocations - a0;
      const std::uint64_t n = repetitions * kTenants;
      if (static_cast<double>(n) / s > percall.per_s) {
        percall.decisions = n;
        percall.seconds = s;
        percall.per_s = static_cast<double>(n) / s;
      }
    }
    {
      lockfree = 0;
      const std::uint64_t a0 = g_allocations;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < repetitions; ++r)
        lockfree += srv.decide_batch(handles, batch_best);
      const double s = seconds_since(t0);
      batch.steady_allocs += g_allocations - a0;
      const std::uint64_t n = repetitions * kTenants;
      if (static_cast<double>(n) / s > batch.per_s) {
        batch.decisions = n;
        batch.seconds = s;
        batch.per_s = static_cast<double>(n) / s;
      }
    }
  }

  // Batch results must equal the per-call results for the same tenants
  // (nothing mutated between the loops), and with no writers the whole
  // last sweep set must have been served lock-free.
  bool matches = true;
  for (std::size_t t = 0; t < kTenants; ++t)
    matches = matches && batch_best[t] == expected[t];
  const double lockfree_fraction =
      static_cast<double>(lockfree) /
      static_cast<double>(repetitions * kTenants);

  // A whole-shard sweep serves every tenant of the shard in slot order.
  std::vector<server::Server::TenantHandle> shard_handles(kTenants);
  std::vector<std::size_t> shard_best(kTenants);
  std::size_t shard_served = 0;
  for (std::size_t s = 0; s < options.shards; ++s)
    shard_served += srv.decide_shard(s, shard_handles, shard_best);

  const double ratio = batch.per_s / percall.per_s;
  const std::uint64_t steady_allocs = percall.steady_allocs + batch.steady_allocs;

  JsonWriter w;
  w.begin_object();
  w.key("config").begin_object();
  w.kv("tenants", static_cast<std::uint64_t>(kTenants));
  w.kv("operating_points", static_cast<std::uint64_t>(kPoints));
  w.kv("repetitions", static_cast<std::uint64_t>(repetitions));
  w.end_object();
  w.key("percall").begin_object();
  w.kv("decisions", percall.decisions);
  w.kv("seconds", percall.seconds);
  w.kv("per_s", percall.per_s);
  w.kv("steady_allocs", percall.steady_allocs);
  w.end_object();
  w.key("batch").begin_object();
  w.kv("decisions", batch.decisions);
  w.kv("seconds", batch.seconds);
  w.kv("per_s", batch.per_s);
  w.kv("steady_allocs", batch.steady_allocs);
  w.kv("lockfree_fraction", lockfree_fraction);
  w.end_object();
  w.kv("ratio", ratio);
  w.kv("matches", matches ? 1 : 0);
  w.kv("shard_sweep_served", static_cast<std::uint64_t>(shard_served));
  w.end_object();
  write_bench_json("decision_sweep", w.str());

  std::printf(
      "decision sweep @%zu tenants x %zu OPs: percall=%.2fM/s batch=%.2fM/s "
      "ratio=%.1fx lockfree=%.3f steady_allocs=%llu matches=%d shard=%zu\n",
      kTenants, kPoints, percall.per_s / 1e6, batch.per_s / 1e6, ratio,
      lockfree_fraction, static_cast<unsigned long long>(steady_allocs),
      matches ? 1 : 0, shard_served);

  const bool ok = ratio >= kMinRatio && steady_allocs == 0 && matches &&
                  lockfree_fraction >= 1.0 && shard_served == kTenants;
  if (ok)
    std::printf(
        "PASS: batched sweep is lock-free, allocation-free and >=%.0fx the "
        "per-call decide path\n",
        kMinRatio);
  else
    std::printf(
        "FAIL: batched sweep pin violated (need ratio >= %.0fx, 0 steady "
        "allocations, identical results, lock-free sweep)\n",
        kMinRatio);
  return ok ? 0 : 1;
}
