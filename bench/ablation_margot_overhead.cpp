// Ablation: mARGOt runtime overhead (google-benchmark).
//
// The paper claims "the intrusiveness of mARGOt in the application code
// is limited to an initialization call ... and to start/stop/update
// calls around the regions of interest".  Limited *code* intrusiveness
// only matters if the *runtime* cost of those calls is negligible
// against the kernels they wrap.  This bench measures, on the real host
// (wall clock, not the simulated platform):
//   - Asrtm::find_best_operating_point over the full 512-point 2mm
//     knowledge base, with 0 / 1 / 2 active constraints,
//   - the whole update/start/stop cycle of the woven API,
//   - monitor push + statistics,
// in nanoseconds per call.  Compare with the ~10-200 ms kernel times of
// Figures 4/5: the MAPE loop costs well under 0.1% of a kernel run.
// The observability additions are measured here too: a TraceSpan on the
// disabled path must cost a single relaxed atomic load (compare
// BM_TracerDisabledSpan against BM_TracerEnabledSpan), and journaling
// must not change the asymptotics of the selection loop (compare
// BM_AsrtmSelect_WithJournal against BM_AsrtmSelect_NoConstraints).
// The robustness layer pins its zero-overhead-when-disabled claims the
// same way: a disarmed ChaosEngine probe is one relaxed atomic load
// (BM_ChaosDisabledProbe), a supervised stage that never fails costs a
// couple of steady_clock reads (BM_SupervisorCleanRun), and an AS-RTM
// without an event sink pays nothing for the checkpoint machinery
// (BM_FeedbackUpdate vs BM_FeedbackUpdate_WithEventSink).
//
// The incremental decision engine is *pinned* here, not just measured:
// after the registered benchmarks run, main() asserts on a synthetic
// 1024-point knowledge base that the steady-state (clean-epoch)
// decision is allocation-free and >= 10x faster than the cold decision,
// and exits non-zero otherwise.  The `decision_bench_smoke` CTest entry
// runs exactly this assertion so a regression of the O(1) path fails CI.
// The same artifact pins the dirty path on a drift-shaped loop
// (Throughput/W^2 rank, feedback alternating throughput and power before
// every decision): the baseline gate bounds the exact rank scores each
// dirty decision computes (the best-first walk stops after a handful,
// where a sweep scores every feasible point) and the allocations (0).
// It pins the knowledge base's storage as well: building a 4096-point
// base takes about 8x (linear), not 64x (quadratic), the time of a
// 512-point one, and a copy shares the original's columns
// (BM_KnowledgeBuild and BM_KnowledgeCopy measure both).
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "dse/dse.hpp"
#include "margot/context.hpp"
#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "platform/clock.hpp"
#include "platform/rapl.hpp"
#include "socrates/pipeline.hpp"
#include "support/bench_json.hpp"
#include "support/chaos.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/supervisor.hpp"

// Process-wide allocation counter backing the allocation-free assertion
// on the steady-state decision path.
std::atomic<std::uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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
using M = margot::ContextMetrics;

margot::KnowledgeBase kb_2mm() {
  // Through the pipeline: each BM_ fixture below rebuilds this
  // knowledge base, but only the first call profiles — the rest are
  // artifact-cache hits.
  static const auto model = platform::PerformanceModel::paper_platform();
  static Pipeline pipeline(model);
  const auto space = dse::DesignSpace::paper_space(model.topology());
  return dse::to_knowledge_base(pipeline.profile_space("2mm", space, 3, 2018));
}

void BM_AsrtmSelect_NoConstraints(benchmark::State& state) {
  margot::Asrtm asrtm(kb_2mm());
  asrtm.set_rank(margot::Rank::maximize_throughput(M::kThroughput));
  for (auto _ : state) benchmark::DoNotOptimize(asrtm.find_best_operating_point());
}
BENCHMARK(BM_AsrtmSelect_NoConstraints);

void BM_AsrtmSelect_PowerBudget(benchmark::State& state) {
  margot::Asrtm asrtm(kb_2mm());
  asrtm.set_rank(margot::Rank::minimize_exec_time(M::kExecTime));
  asrtm.add_constraint({M::kPower, margot::ComparisonOp::kLessEqual, 100.0, 0, 1.0});
  for (auto _ : state) benchmark::DoNotOptimize(asrtm.find_best_operating_point());
}
BENCHMARK(BM_AsrtmSelect_PowerBudget);

void BM_AsrtmSelect_TwoConstraints(benchmark::State& state) {
  margot::Asrtm asrtm(kb_2mm());
  asrtm.set_rank(margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower));
  asrtm.add_constraint({M::kPower, margot::ComparisonOp::kLessEqual, 120.0, 0, 1.0});
  asrtm.add_constraint({M::kThroughput, margot::ComparisonOp::kGreaterEqual, 0.2, 1, 0.0});
  for (auto _ : state) benchmark::DoNotOptimize(asrtm.find_best_operating_point());
}
BENCHMARK(BM_AsrtmSelect_TwoConstraints);

void BM_FullMapeCycle(benchmark::State& state) {
  // update + start + (simulated 1 ms region) + stop, as woven by the
  // Autotuner strategy.  The clock/energy advance is part of the loop
  // body but costs ~nothing; the measured cost is the mARGOt glue.
  platform::VirtualClock clock;
  platform::SimulatedRapl rapl;
  margot::Context ctx(kb_2mm(), clock, rapl);
  ctx.asrtm().set_rank(margot::Rank::maximize_throughput(M::kThroughput));
  std::vector<int> knobs(3);
  for (auto _ : state) {
    ctx.update(knobs);
    ctx.start_monitors();
    clock.advance(1e-3);
    rapl.accrue(1e-3, 90.0);
    ctx.stop_monitors();
  }
}
BENCHMARK(BM_FullMapeCycle);

void BM_MonitorPushAndStats(benchmark::State& state) {
  margot::CircularMonitor monitor(16);
  double x = 1.0;
  for (auto _ : state) {
    monitor.push(x);
    x += 0.5;
    benchmark::DoNotOptimize(monitor.average());
    benchmark::DoNotOptimize(monitor.stddev());
  }
}
BENCHMARK(BM_MonitorPushAndStats);

void BM_FeedbackUpdate(benchmark::State& state) {
  margot::Asrtm asrtm(kb_2mm());
  for (auto _ : state) {
    asrtm.send_feedback(0, M::kExecTime, 1.0);
    benchmark::DoNotOptimize(asrtm.correction(M::kExecTime));
  }
}
BENCHMARK(BM_FeedbackUpdate);

void BM_AsrtmSelect_WithJournal(benchmark::State& state) {
  margot::Asrtm asrtm(kb_2mm());
  asrtm.set_rank(margot::Rank::maximize_throughput(M::kThroughput));
  asrtm.enable_decision_journal();
  for (auto _ : state) benchmark::DoNotOptimize(asrtm.find_best_operating_point());
}
BENCHMARK(BM_AsrtmSelect_WithJournal);

void BM_TracerDisabledSpan(benchmark::State& state) {
  Tracer tracer;  // private tracer so a SOCRATES_TRACE env cannot skew this
  tracer.set_enabled(false);
  for (auto _ : state) {
    TraceSpan span("bench", "bench", tracer);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TracerDisabledSpan);

void BM_TracerEnabledSpan(benchmark::State& state) {
  Tracer tracer;
  tracer.set_enabled(true);
  for (auto _ : state) {
    TraceSpan span("bench", "bench", tracer);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TracerEnabledSpan);

void BM_ChaosDisabledProbe(benchmark::State& state) {
  // The gate every pipeline call site takes when SOCRATES_CHAOS is
  // unset: a single relaxed atomic load, nothing else.
  ChaosEngine engine;  // private engine so a SOCRATES_CHAOS env cannot skew this
  for (auto _ : state) benchmark::DoNotOptimize(engine.enabled());
}
BENCHMARK(BM_ChaosDisabledProbe);

void BM_ChaosArmedIndexedDraw(benchmark::State& state) {
  ChaosEngine engine;
  ChaosSpec spec;
  spec.stage_fail = 0.5;
  engine.install(spec);
  std::uint64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(engine.fire_indexed("dse.point", i++));
}
BENCHMARK(BM_ChaosArmedIndexedDraw);

void BM_SupervisorCleanRun(benchmark::State& state) {
  // A supervised stage that succeeds first try: the whole retry/
  // timeout/backoff machinery reduces to two steady_clock reads and a
  // SupervisorReport fill.
  Supervisor supervisor;
  for (auto _ : state) {
    const auto outcome = supervisor.run("bench", [] {});
    benchmark::DoNotOptimize(&outcome);
  }
}
BENCHMARK(BM_SupervisorCleanRun);

void BM_FeedbackUpdate_WithEventSink(benchmark::State& state) {
  // The checkpoint hook: with a sink installed every feedback call
  // additionally builds one RuntimeEvent and invokes the sink (here a
  // counter; CheckpointStore adds one formatted+flushed journal line).
  margot::Asrtm asrtm(kb_2mm());
  std::uint64_t events = 0;
  asrtm.set_event_sink([&events](const margot::RuntimeEvent&) { ++events; });
  for (auto _ : state) {
    asrtm.send_feedback(0, M::kExecTime, 1.0);
    benchmark::DoNotOptimize(asrtm.correction(M::kExecTime));
  }
  benchmark::DoNotOptimize(events);
}
BENCHMARK(BM_FeedbackUpdate_WithEventSink);

// ---- knowledge base storage -------------------------------------------------

/// Synthetic knowledge base on the paper's three-knob schema (config,
/// threads, binding): point i has the mixed-radix knob row
/// (i % 16, i / 16 % 32, i / 512), so every row is distinct.
margot::KnowledgeBase kb_three_knob(std::size_t n) {
  margot::KnowledgeBase kb({"config", "threads", "binding"},
                           {"exec_time_s", "power_w", "throughput"});
  for (std::size_t i = 0; i < n; ++i) {
    const int v = static_cast<int>(i);
    const double x = static_cast<double>(i);
    kb.add({{v % 16, v / 16 % 32, v / 512},
            {{1.0 + 0.001 * x, 0.01}, {60.0 + 0.05 * x, 0.5}, {1.0 / (1.0 + 0.001 * x), 0.01}}});
  }
  return kb;
}

void BM_KnowledgeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(kb_three_knob(n));
}
BENCHMARK(BM_KnowledgeBuild)->Arg(512)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_KnowledgeCopy(benchmark::State& state) {
  const margot::KnowledgeBase kb = kb_three_knob(512);
  for (auto _ : state) {
    margot::KnowledgeBase copy = kb;
    benchmark::DoNotOptimize(copy.metric_means(0));
  }
}
BENCHMARK(BM_KnowledgeCopy);

struct KnowledgePin {
  double build_small_ns = 0.0;  ///< median build of kSmall points
  double build_large_ns = 0.0;  ///< median build of kLarge points
  bool copy_shares_storage = false;
};

/// Median build times of a 512- and a 4096-point base (interleaved
/// repetitions, so host noise hits both alike) and whether a copy's
/// columns are the original's.  A linear build reads a ratio near 8, a
/// quadratic one near 64.
KnowledgePin run_knowledge_pin() {
  constexpr std::size_t kSmall = 512;
  constexpr std::size_t kLarge = 4096;
  constexpr int kReps = 11;
  const auto build_ns = [](std::size_t n) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(kb_three_knob(n));
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  };
  std::vector<double> small;
  std::vector<double> large;
  for (int rep = 0; rep < kReps; ++rep) {
    small.push_back(build_ns(kSmall));
    large.push_back(build_ns(kLarge));
  }
  KnowledgePin pin;
  pin.build_small_ns = quantile(small, 0.5);
  pin.build_large_ns = quantile(large, 0.5);
  const margot::KnowledgeBase original = kb_three_knob(kSmall);
  const margot::KnowledgeBase copy = original;
  pin.copy_shares_storage = copy.metric_means(0) == original.metric_means(0) &&
                            copy.knob_row(0) == original.knob_row(0);
  return pin;
}

// ---- incremental decision engine ------------------------------------------

// Synthetic knowledge base: deterministic, positive metrics (metric 0 =
// throughput-like, ascending; metric 1 = power-like), no pipeline run
// needed, so the pinned check below stays cheap enough for CI.
margot::KnowledgeBase kb_synthetic(std::size_t n) {
  margot::KnowledgeBase kb({"knob"}, {"throughput", "power"});
  for (std::size_t i = 0; i < n; ++i) {
    margot::OperatingPoint op;
    op.knobs = {static_cast<int>(i)};
    const double x = static_cast<double>(i);
    op.metrics = {{0.5 + 0.001 * x, 0.01}, {60.0 + 0.05 * x, 0.5}};
    kb.add(std::move(op));
  }
  return kb;
}

margot::Asrtm make_synthetic_asrtm(std::size_t n) {
  margot::Asrtm asrtm(kb_synthetic(n));
  asrtm.set_rank(margot::Rank::maximize_throughput(0));
  asrtm.add_constraint({1, margot::ComparisonOp::kLessEqual, 95.0, 0, 1.0});
  asrtm.add_constraint({0, margot::ComparisonOp::kGreaterEqual, 0.6, 1, 0.0});
  return asrtm;
}

void BM_AsrtmDecide_Cold1024(benchmark::State& state) {
  margot::Asrtm asrtm = make_synthetic_asrtm(1024);
  for (auto _ : state) {
    asrtm.invalidate_decision_cache();
    benchmark::DoNotOptimize(asrtm.find_best_operating_point());
  }
}
BENCHMARK(BM_AsrtmDecide_Cold1024);

void BM_AsrtmDecide_Cached1024(benchmark::State& state) {
  margot::Asrtm asrtm = make_synthetic_asrtm(1024);
  benchmark::DoNotOptimize(asrtm.find_best_operating_point());
  for (auto _ : state) benchmark::DoNotOptimize(asrtm.find_best_operating_point());
}
BENCHMARK(BM_AsrtmDecide_Cached1024);

/// The drift-shaped dirty path: the paper's Throughput/W^2 rank (one
/// pow term) under a power cap, with one noisy feedback observation —
/// alternating throughput and power — before every decision, so every
/// decision is dirty and half of them move the pow term's metric.
class DriftLoop {
 public:
  explicit DriftLoop(std::size_t n) : asrtm_(kb_synthetic(n)) {
    asrtm_.set_rank(margot::Rank::maximize_throughput_per_watt2(0, 1));
    asrtm_.add_constraint({1, margot::ComparisonOp::kLessEqual, 95.0, 0, 1.0});
    Rng rng(2018);
    for (double& r : noise_) r = rng.uniform(0.99, 1.01);
  }

  /// One feedback + decision; returns the chosen index.
  std::size_t step() {
    const std::size_t metric = step_ % 2;
    const double observed = asrtm_.knowledge().metric_means(metric)[chosen_] *
                            noise_[step_ % noise_.size()];
    ++step_;
    asrtm_.send_feedback(chosen_, metric, observed);
    chosen_ = asrtm_.find_best_operating_point();
    return chosen_;
  }

  const margot::Asrtm& asrtm() const { return asrtm_; }

 private:
  margot::Asrtm asrtm_;
  std::array<double, 256> noise_{};
  std::size_t step_ = 0;
  std::size_t chosen_ = 0;
};

struct DirtyPin {
  double ns = 0.0;                        ///< per feedback + dirty decision
  double scores_per_decision = 0.0;       ///< exact rank scores computed
  std::uint64_t allocs = 0;
  std::uint64_t cached_decisions = 0;     ///< must stay 0: every decision is dirty
};

/// Measures the drift loop once warm: wall time per step (best of
/// trials), exact rank scores computed per decision, and heap
/// allocations over the whole measured window.
DirtyPin run_dirty_pin(std::size_t n) {
  constexpr std::size_t kSteps = 2000;
  constexpr std::size_t kTrials = 5;
  DriftLoop loop(n);
  for (int i = 0; i < 16; ++i) benchmark::DoNotOptimize(loop.step());

  Counter& scores = MetricsRegistry::global().counter("asrtm.scores_computed");
  DirtyPin pin;
  pin.ns = std::numeric_limits<double>::infinity();
  const std::uint64_t scores_before = scores.value();
  const std::uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kSteps; ++i) {
      benchmark::DoNotOptimize(loop.step());
      pin.cached_decisions += loop.asrtm().last_decision_was_cached();
    }
    const auto t1 = std::chrono::steady_clock::now();
    pin.ns = std::min(pin.ns, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                                  static_cast<double>(kSteps));
  }
  pin.allocs = g_allocations.load(std::memory_order_relaxed) - allocs_before;
  pin.scores_per_decision = static_cast<double>(scores.value() - scores_before) /
                            static_cast<double>(kTrials * kSteps);
  return pin;
}

/// The pinned assertion behind the `decision_bench_smoke` CTest entry:
/// at 1024 operating points the clean-epoch decision must be >= 10x
/// faster than the cold decision and allocate nothing.
bool run_decision_scaling_check() {
  constexpr std::size_t kPoints = 1024;
  constexpr double kMinSpeedup = 10.0;
  margot::Asrtm asrtm = make_synthetic_asrtm(kPoints);

  // Warm everything once: scratch buffers, constraint columns, and the
  // function-local static counter references inside the decision paths.
  asrtm.invalidate_decision_cache();
  benchmark::DoNotOptimize(asrtm.find_best_operating_point());
  benchmark::DoNotOptimize(asrtm.find_best_operating_point());

  const auto per_call_ns = [&](bool cold, std::size_t calls) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < calls; ++i) {
      if (cold) asrtm.invalidate_decision_cache();
      benchmark::DoNotOptimize(asrtm.find_best_operating_point());
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(calls);
  };

  // Best-of-trials damps scheduler noise without needing a quiet host.
  double cold_ns = std::numeric_limits<double>::infinity();
  double steady_ns = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 7; ++trial) {
    cold_ns = std::min(cold_ns, per_call_ns(/*cold=*/true, 200));
    steady_ns = std::min(steady_ns, per_call_ns(/*cold=*/false, 20000));
  }

  benchmark::DoNotOptimize(asrtm.find_best_operating_point());
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i)
    benchmark::DoNotOptimize(asrtm.find_best_operating_point());
  const std::uint64_t steady_allocs =
      g_allocations.load(std::memory_order_relaxed) - before;

  const double ratio = cold_ns / steady_ns;
  const DirtyPin dirty = run_dirty_pin(kPoints);
  const KnowledgePin knowledge = run_knowledge_pin();
  const double build_ratio = knowledge.build_large_ns / knowledge.build_small_ns;

  // Machine-readable artifact for the baseline gate
  // (bench/baselines/margot_overhead.json): bounds live on the ratio
  // and the allocation and score counts, which are hardware-independent.
  JsonWriter w;
  w.begin_object();
  w.kv("operating_points", static_cast<std::uint64_t>(kPoints));
  w.key("decide").begin_object();
  w.kv("cold_ns", cold_ns);
  w.kv("steady_ns", steady_ns);
  w.kv("dirty_ns", dirty.ns);
  w.kv("ratio", ratio);
  w.kv("steady_allocs", steady_allocs);
  w.end_object();
  w.key("dirty").begin_object();
  w.kv("scores_per_decision", dirty.scores_per_decision);
  w.kv("allocs", dirty.allocs);
  w.kv("cached_decisions", dirty.cached_decisions);
  w.end_object();
  w.key("knowledge").begin_object();
  w.kv("build_512_ns", knowledge.build_small_ns);
  w.kv("build_4096_ns", knowledge.build_large_ns);
  w.kv("build_ratio", build_ratio);
  w.kv("copy_shares_storage", knowledge.copy_shares_storage ? 1 : 0);
  w.end_object();
  w.end_object();
  write_bench_json("margot_overhead", w.str());

  std::printf(
      "decision scaling @%zu OPs: cold=%.0fns steady=%.0fns ratio=%.1fx "
      "steady_allocs=%llu\n",
      kPoints, cold_ns, steady_ns, ratio,
      static_cast<unsigned long long>(steady_allocs));
  std::printf(
      "drift (Thr/W^2, feedback before every decide) @%zu OPs: dirty=%.0fns "
      "scores/decision=%.3f allocs=%llu cached=%llu\n",
      kPoints, dirty.ns, dirty.scores_per_decision,
      static_cast<unsigned long long>(dirty.allocs),
      static_cast<unsigned long long>(dirty.cached_decisions));
  std::printf(
      "knowledge base: build 512=%.0fus 4096=%.0fus ratio=%.1fx, copy shares "
      "storage=%d\n",
      knowledge.build_small_ns / 1e3, knowledge.build_large_ns / 1e3, build_ratio,
      knowledge.copy_shares_storage ? 1 : 0);
  const bool ok = ratio >= kMinSpeedup && steady_allocs == 0;
  if (ok)
    std::printf(
        "PASS: steady-state decision is allocation-free and >=%.0fx faster "
        "than cold\n",
        kMinSpeedup);
  else
    std::printf(
        "FAIL: steady-state decision pin violated (need ratio >= %.0fx and 0 "
        "allocations)\n",
        kMinSpeedup);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return run_decision_scaling_check() ? 0 : 1;
}
