// End-to-end benchmark: from C source to served decision.
//
// One process runs one workload; with --quick and no --workload it runs
// all four in turn (the CTest smoke).  Every workload goes the whole
// way — the toolchain turns the 12 paper kernels into knowledge bases
// and the sharded server serves decisions from them — but each one
// times a different part of that path:
//
//   toolchain-cold  Closed loop of campaigns.  A campaign is a fresh
//                   memory-only ArtifactCache and Pipeline, one
//                   cobayn_model() (training on a 48-kernel corpus),
//                   then build() of the 12 kernels (512-point space,
//                   5 repetitions).  Nothing is cached.
//   toolchain-warm  The same campaign, but set-up fills a disk-tier
//                   cache and each campaign starts with an empty memory
//                   tier, so COBAYN and every DSE are disk hits.
//   serve-steady    1024 tenants over the 12 knowledge bases, rank
//                   Throughput/W^2 under a 100 W cap.  An invocation is
//                   a tenant's decision in a decide_batch, then one
//                   submit_feedback for the point it ran.  Feedback
//                   equals the knowledge mean, so corrections stay at
//                   1.0.  Phase A: closed loop in 64-tenant batches.
//                   Phase B: open loop at a fixed rate in 1 ms ticks.
//   serve-drift     The same calls with seeded +-1% noise, power x1.15
//                   in the middle third of every 65,536-invocation
//                   period, and a 100/90 W cap switch every 4,096th
//                   invocation, so decisions are recomputed.
//
// Toolchain workloads end by serving their knowledge bases on a small
// server, and serve workloads start by building theirs, so the output
// checks of both halves run on every workload.  All schedules are
// indexed by the invocation count, never by wall time.
//
// Each layer is timed from outside, around calls into its public API:
// Pipeline and its StageReports, Server, and the metrics registry.
// --trace <file> adds a traced run after the untraced one: spans from
// this file around every such call, plus the library's own spans via
// Tracer::global(), written as Chrome trace_event JSON.
//
// Output: a table on stdout, BENCH_e2e.json (--json), and as the last
// stdout line one JSON object {"correct", "attempted", "failed",
// "metrics"} holding the end-to-end metrics, or the per-layer metrics
// of a traced run.  A failed output check exits with code 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/registry.hpp"
#include "margot/asrtm.hpp"
#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "server/server.hpp"
#include "socrates/pipeline.hpp"
#include "support/artifact_cache.hpp"
#include "support/bench_json.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace {

using namespace socrates;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Busy-waits: unlike a sleep, it never lets the core go idle.
void spin_for(std::int64_t ns) {
  for (const std::int64_t until = now_ns() + ns; now_ns() < until;) {
  }
}

// ---- workloads ---------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  bool serve;            ///< times the serve half (else the toolchain half)
  bool warm;             ///< toolchain: campaigns load from a disk-tier cache
  bool drift;            ///< serve: noisy feedback, power drift, cap switches
  double open_rate_per_s;  ///< serve: phase-B arrival rate
};

// The open-loop rates are fixed workload parameters, about 40% of the
// closed-loop capacity measured on a 4-vCPU x86 KVM guest (3.0M/s
// steady, 40k/s drift); they do not move when capacity moves.
constexpr std::array<WorkloadSpec, 4> kWorkloads = {{
    {"toolchain-cold", false, false, false, 0.0},
    {"toolchain-warm", false, true, false, 0.0},
    {"serve-steady", true, false, false, 1'200'000.0},
    {"serve-drift", true, false, true, 16'000.0},
}};

constexpr std::size_t kJobs = 2;              ///< Pipeline task-pool jobs
constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 64;            ///< tenants per decide_batch
constexpr std::size_t kSetups = 7;            ///< set-ups per run; setup_s is their median
constexpr std::int64_t kSetupGapNs = 250'000'000;  ///< spacing between set-ups
constexpr std::int64_t kWarmUpNs = 1'000'000'000;    ///< spin before the first set-up
constexpr std::size_t kCheckedTenants = 16;   ///< decision checks: every T/16-th tenant
constexpr std::size_t kCheckRounds = 64;      ///< toolchain workloads: serve-check rounds
constexpr double kCapW = 100.0;
constexpr double kLowCapW = 90.0;
constexpr std::uint64_t kDriftPeriod = 65'536;
constexpr std::uint64_t kCapSwitchEvery = 4'096;
constexpr double kPowerDrift = 1.15;
constexpr double kNoise = 0.01;
constexpr std::int64_t kTickNs = 1'000'000;

// Knowledge-base metric columns (dse::to_knowledge_base).
constexpr std::size_t kPowerMetric = 1;
constexpr std::size_t kThroughputMetric = 2;
constexpr std::size_t kMetrics = 3;

/// Library span ring for a traced run.  A traced toolchain window stops
/// before this could overflow, so dropped() stays 0.
constexpr std::size_t kLibraryTraceCapacity = std::size_t{1} << 18;

struct Options {
  std::vector<const WorkloadSpec*> workloads;
  std::uint64_t seed = 2018;
  double seconds = 24.0;
  bool quick = false;
  std::string json_path = "BENCH_e2e.json";
  std::string trace_path;  ///< empty: no traced run
  std::string work_dir = ".bench_e2e_work";
};

// ---- metric names (BENCHMARK.json lists the same) -----------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr std::array<MetricDef, 4> kEndToEnd = {{
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"peak_rss_mb", "MB"},
}};

constexpr std::array<MetricDef, 28> kPerLayer = {{
    {"ir.parse_ms", "ms"},
    {"features.extract_ms", "ms"},
    {"cobayn.predict_ms", "ms"},
    {"dse.explore_ms", "ms"},
    {"weaver.weave_ms", "ms"},
    {"margot.knowledge_ms", "ms"},
    {"pipeline.unattributed_ms", "ms"},
    {"cobayn.train_ms", "ms"},
    {"dse.points_profiled", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.bytes_loaded", "bytes"},
    {"support.taskpool_tasks", "count"},
    {"server.submit_ns.p50", "ns"},
    {"server.submit_ns.p99", "ns"},
    {"server.decide_batch_us.p50", "us"},
    {"server.decide_batch_us.p99", "us"},
    {"server.lockfree_ratio", "ratio"},
    {"server.backlog_events.p99", "count"},
    {"margot.columns_recomputed", "count"},
    {"margot.rows_evaluated", "count"},
    {"margot.cached_ratio", "ratio"},
    {"server.update_goal_us.p50", "us"},
    {"server.create_tenant_ms.p50", "ms"},
    {"server.drain_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.dropped_spans", "count"},
    {"trace_overhead.throughput_per_s", "ratio"},
    {"trace_overhead.latency_p50_us", "ratio"},
}};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  const Metric* find(const std::string& name) const {
    for (const auto& m : items_)
      if (m.name == name) return &m;
    return nullptr;
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// ---- measurement helpers -----------------------------------------------------

/// Log-linear histogram of non-negative integers (durations in ns, event
/// counts): exact below 32, then 32 sub-buckets per power of two, so a
/// quantile lands within ~3% of the recorded value while the memory
/// stays fixed however many values are recorded.
class LogHistogram {
 public:
  void record(std::int64_t v) {
    ++buckets_[index(v < 0 ? 0 : static_cast<std::uint64_t>(v))];
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  /// Midpoint of the bucket holding the q-quantile; 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= std::max<std::uint64_t>(rank, 1)) return midpoint(i);
    }
    return midpoint(buckets_.size() - 1);
  }

 private:
  static constexpr std::size_t kSub = 32;
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - 5;
    const std::uint64_t top = v >> shift;  // in [32, 64)
    return static_cast<std::size_t>(shift + 1) * kSub + static_cast<std::size_t>(top - kSub);
  }
  static double midpoint(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int shift = static_cast<int>(i / kSub) - 1;
    const double low = static_cast<double>((kSub + i % kSub) << shift);
    const double width = static_cast<double>(std::uint64_t{1} << shift);
    return low + width / 2.0;
  }

  std::array<std::uint64_t, 60 * kSub> buckets_{};
  std::uint64_t count_ = 0;
};

/// Latencies that share a completion time (one decide_batch) stored
/// once with their count; quantiles weight each entry by it.
class WeightedSamples {
 public:
  void add(double value, std::uint64_t weight) {
    samples_.push_back({value, weight});
    total_ += weight;
  }
  std::uint64_t count() const { return total_; }
  double quantile(double q) const {
    if (samples_.empty()) return 0.0;
    auto sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double target = q * static_cast<double>(total_);
    std::uint64_t seen = 0;
    for (const auto& [value, weight] : sorted) {
      seen += weight;
      if (static_cast<double>(seen) >= target) return value;
    }
    return sorted.back().first;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }

 private:
  std::vector<std::pair<double, std::uint64_t>> samples_;
  std::uint64_t total_ = 0;
};

double median_of(std::vector<double> values) {
  return values.empty() ? 0.0 : quantile(std::move(values), 0.5);
}

/// Registry counters the per-layer metrics are derived from, read as
/// deltas around the part of the run they describe.
constexpr std::array<const char*, 9> kCounters = {
    "dse.points_profiled",      "taskpool.tasks",            "cache.bytes_loaded",
    "server.batch_decisions",   "server.batch_lockfree",     "server.batch_locked",
    "asrtm.columns_recomputed", "asrtm.simd_rows_evaluated", "asrtm.decisions_cached",
};

class CounterSnapshot {
 public:
  CounterSnapshot() {
    auto& registry = MetricsRegistry::global();
    for (std::size_t i = 0; i < kCounters.size(); ++i)
      values_[i] = registry.counter(kCounters[i]).value();
  }
  /// `later` minus this snapshot for the named counter.
  double delta(const CounterSnapshot& later, const char* name) const {
    for (std::size_t i = 0; i < kCounters.size(); ++i)
      if (std::strcmp(kCounters[i], name) == 0)
        return static_cast<double>(later.values_[i] - values_[i]);
    std::fprintf(stderr, "bench_e2e: unknown counter %s\n", name);
    std::abort();
  }

 private:
  std::array<std::uint64_t, kCounters.size()> values_{};
};

// ---- bench-side tracing --------------------------------------------------------

enum Layer : std::uint8_t {
  kCampaign,
  kPipelineSetup,
  kCobaynTrain,
  kBuild,
  kParse,
  kFeatures,
  kCobaynPredict,
  kDse,
  kPrune,
  kWeave,
  kKnowledge,
  kServerSetup,
  kCreateTenant,
  kPrime,
  kGeneratorBatch,
  kApplyWait,
  kSubmit,
  kDecideBatch,
  kUpdateGoal,
  kGeneratorWait,
  kDrain,
  kServerStop,
  kCheck,
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "campaign",          "pipeline.setup",     "cobayn.train",         "pipeline.build",
    "ir.parse",          "features.extract",   "cobayn.predict",       "dse.explore",
    "dse.prune",         "weaver.weave",       "margot.knowledge",     "server.setup",
    "server.create_tenant", "server.prime",    "generator.batch",         "server.apply_wait",
    "server.submit",     "server.decide_batch", "server.update_goal",  "generator.wait",
    "server.drain",      "server.stop",        "bench.check",
};

/// Span recorder for the driving thread.  Every span feeds its layer's
/// duration histogram; inside the measured window it also adds to the
/// layer's total and self time (duration minus child spans).  The first
/// kKeep spans are kept for the Chrome trace; the rest are only
/// aggregated, so the buffer is allocated once and never grows.
class BenchTracer {
 public:
  static constexpr std::size_t kKeep = std::size_t{1} << 16;

  void enable() {
    enabled_ = true;
    kept_.reserve(kKeep);
    stack_.reserve(16);
    // Library spans are stamped in microseconds since the tracer epoch.
    epoch_ns_ = now_ns() - Tracer::global().now_us() * 1000;
  }
  bool enabled() const { return enabled_; }

  void open(Layer layer) { stack_.push_back({layer, now_ns(), 0}); }
  void close() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    finish(frame.layer, frame.start_ns, now_ns() - frame.start_ns, frame.child_ns, true);
  }
  /// A child timed elsewhere (a pipeline StageReport), counted under
  /// the open span.  The library records its own span for it.
  void attribute(Layer layer, std::int64_t ns) { finish(layer, 0, ns, 0, false); }

  /// `reset_histograms`: drop what set-up recorded, so the layer
  /// quantiles describe the window and whatever follows it.
  void begin_window(bool reset_histograms) {
    if (reset_histograms)
      for (auto& layer : layers_) layer.hist = LogHistogram{};
    in_window_ = true;
    window_start_ns_ = now_ns();
  }
  void end_window() {
    in_window_ = false;
    window_ns_ += now_ns() - window_start_ns_;
  }

  /// Share of the window's wall time spent inside top-level spans.
  double coverage() const {
    return window_ns_ > 0 ? static_cast<double>(top_ns_) / static_cast<double>(window_ns_)
                          : 0.0;
  }
  const LogHistogram& histogram(Layer layer) const { return layers_[layer].hist; }
  double self_ms(Layer layer) const { return static_cast<double>(layers_[layer].self_ns) * 1e-6; }
  std::size_t spans() const { return kept_.size() + not_kept_; }

  void write_chrome_trace(std::ostream& out, const std::vector<TraceEvent>& library) const;

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Kept {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };
  struct LayerStats {
    LogHistogram hist;
    std::int64_t self_ns = 0;
  };

  void finish(Layer layer, std::int64_t start, std::int64_t dur, std::int64_t child,
              bool keep) {
    LayerStats& stats = layers_[layer];
    stats.hist.record(dur);
    if (in_window_) {
      stats.self_ns += dur - child;
      if (stack_.empty()) top_ns_ += dur;
    }
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (!keep) return;
    if (kept_.size() < kKeep) {
      kept_.push_back({layer, start, dur});
    } else {
      ++not_kept_;
    }
  }

  bool enabled_ = false;
  bool in_window_ = false;
  std::int64_t epoch_ns_ = 0;
  std::int64_t window_start_ns_ = 0;
  std::int64_t window_ns_ = 0;
  std::int64_t top_ns_ = 0;
  std::vector<Frame> stack_;
  std::vector<Kept> kept_;
  std::size_t not_kept_ = 0;
  std::array<LayerStats, kLayerCount> layers_{};
};

void append_number(std::string& out, double v) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void BenchTracer::write_chrome_trace(std::ostream& out,
                                     const std::vector<TraceEvent>& library) const {
  const std::uint32_t lane = Tracer::current_lane();
  std::string line;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const char* name, const char* category, std::uint32_t tid,
                        double ts_us, double dur_us, const char* arg, std::int64_t arg_v) {
    line.clear();
    line += first ? "\n" : ",\n";
    first = false;
    line += "{\"name\":\"";
    line += name;
    line += "\",\"cat\":\"";
    line += category;
    line += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    line += std::to_string(tid);
    line += ",\"ts\":";
    append_number(line, ts_us);
    line += ",\"dur\":";
    append_number(line, dur_us);
    if (arg != nullptr) {
      line += ",\"args\":{\"";
      line += arg;
      line += "\":";
      line += std::to_string(arg_v);
      line += '}';
    }
    line += '}';
    out << line;
  };
  for (const Kept& k : kept_) {
    emit(kLayerNames[k.layer], "bench", lane,
         static_cast<double>(k.start_ns - epoch_ns_) / 1000.0,
         static_cast<double>(k.dur_ns) / 1000.0, nullptr, 0);
  }
  for (const TraceEvent& e : library) {
    emit(e.name, e.category, e.lane, static_cast<double>(e.start_us),
         static_cast<double>(e.duration_us), e.arg_name, e.arg_value);
  }
  out << "\n]}\n";
}

/// RAII span on the driving thread; one branch when tracing is off.
class Span {
 public:
  Span(BenchTracer& tracer, Layer layer) : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->open(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  BenchTracer* tracer_;
};

// ---- one run --------------------------------------------------------------------

/// Output checks: each counts into failed_fraction, and any failure
/// makes the process exit non-zero.
class Checks {
 public:
  void record(const std::string& name, bool ok) {
    auto& [passed, failed] = results_[name];
    (ok ? passed : failed) += 1;
    if (!ok) std::fprintf(stderr, "bench_e2e: check failed: %s\n", name.c_str());
  }
  void merge(const Checks& other) {
    for (const auto& [name, r] : other.results_) {
      results_[name].first += r.first;
      results_[name].second += r.second;
    }
  }
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const auto& [name, r] : results_) n += r.first + r.second;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [name, r] : results_) n += r.second;
    return n;
  }
  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>& results() const {
    return results_;
  }

 private:
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> results_;
};

struct RunResult {
  MetricList end_to_end;
  MetricList per_layer;  ///< traced runs only
  MetricList extra;      ///< p99s, counts and rates without a bound
  std::vector<double> setup_samples_s;
  std::map<std::string, double> self_ms;  ///< traced runs only
  Checks checks;
  std::uint64_t operations = 0;      ///< builds, invocations and goal updates
  std::uint64_t failed_operations = 0;

  std::uint64_t attempted() const { return operations + checks.total(); }
  std::uint64_t failed() const { return failed_operations + checks.failed(); }
};

/// What one execution of a workload needs, and what it accumulates.
struct Run {
  platform::PerformanceModel model = platform::PerformanceModel::paper_platform();
  ToolchainOptions toolchain;
  BenchTracer tracer;
  RunResult result;

  // Per-layer accumulators.
  std::vector<double> unattributed_ms;   ///< per build: wall minus stage times
  std::size_t campaigns = 0;             ///< campaigns the toolchain metrics cover
  double points_profiled = 0, taskpool_tasks = 0, bytes_loaded = 0;
  std::size_t cache_hits = 0, cache_lookups = 0;
  LogHistogram backlog;             ///< accepted - drained, in events
  LogHistogram late_ns;             ///< open loop: generator lateness

  explicit Run(std::uint64_t seed) {
    toolchain.seed = seed;
    toolchain.jobs = kJobs;
    toolchain.dse = dse::DseStrategyOptions{};  // the paper's full factorial, never the env
  }
};

// ---- toolchain half -------------------------------------------------------------

Layer stage_layer(const std::string& stage) {
  if (stage == "Parse") return kParse;
  if (stage == "Features") return kFeatures;
  if (stage == "CobaynPredict") return kCobaynPredict;
  if (stage == "Dse") return kDse;
  if (stage == "Prune") return kPrune;
  if (stage == "Weave") return kWeave;
  return kKnowledge;
}

struct Campaign {
  std::vector<margot::KnowledgeBase> knowledge;  ///< one per paper kernel
  std::vector<double> build_s;
  double seconds = 0.0;
};

/// One campaign: fresh cache and Pipeline, COBAYN, then the 12 builds.
/// `cache_dir` empty = memory-only.  `count_layers` adds the campaign to
/// the per-layer toolchain metrics.
Campaign run_campaign(Run& run, const std::string& cache_dir, bool count_layers) {
  Campaign out;
  const CounterSnapshot before;
  const std::int64_t t0 = now_ns();
  ArtifactCache::Stats cache_stats;
  {
    Span campaign(run.tracer, kCampaign);
    std::unique_ptr<ArtifactCache> cache;
    std::unique_ptr<Pipeline> pipeline;
    {
      Span span(run.tracer, kPipelineSetup);
      cache = std::make_unique<ArtifactCache>(cache_dir);
      pipeline = std::make_unique<Pipeline>(run.model, run.toolchain, cache.get());
    }
    {
      Span span(run.tracer, kCobaynTrain);
      (void)pipeline->cobayn_model();
    }
    for (const auto& bench : kernels::all_benchmarks()) {
      const std::int64_t b0 = now_ns();
      Span span(run.tracer, kBuild);
      AdaptiveBinary binary = pipeline->build(bench.name);
      const std::int64_t build_ns = now_ns() - b0;
      std::int64_t stages_ns = 0;
      for (const StageReport& stage : pipeline->last_report().stages) {
        const auto ns = static_cast<std::int64_t>(stage.seconds * 1e9);
        stages_ns += ns;
        if (run.tracer.enabled()) run.tracer.attribute(stage_layer(stage.name), ns);
        if (stage.degraded()) ++run.result.failed_operations;
      }
      ++run.result.operations;
      out.build_s.push_back(static_cast<double>(build_ns) * 1e-9);
      if (count_layers)
        run.unattributed_ms.push_back(static_cast<double>(build_ns - stages_ns) * 1e-6);
      out.knowledge.push_back(std::move(binary.knowledge));
    }
    cache_stats = cache->stats();
    // The pipeline's task pool joins and the cache is freed inside the
    // campaign: a user pays for both.
  }
  out.seconds = seconds_between(t0, now_ns());
  if (count_layers) {
    const CounterSnapshot after;
    ++run.campaigns;
    run.points_profiled += before.delta(after, "dse.points_profiled");
    run.taskpool_tasks += before.delta(after, "taskpool.tasks");
    run.bytes_loaded += before.delta(after, "cache.bytes_loaded");
    run.cache_hits += cache_stats.memory_hits + cache_stats.disk_hits;
    run.cache_lookups += cache_stats.memory_hits + cache_stats.disk_hits + cache_stats.misses;
  }
  return out;
}

/// Bit-identical knowledge: same schema and knobs, and every metric
/// mean and deviation equal to the last bit.  Equivalent to comparing
/// the exact-round-trip CSV of margot/kb_io, at a fraction of the cost.
bool same_knowledge(const margot::KnowledgeBase& a, const margot::KnowledgeBase& b) {
  if (a.size() != b.size() || a.knob_names() != b.knob_names() ||
      a.metric_names() != b.metric_names())
    return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (!(a[p].knobs == b[p].knobs)) return false;
    for (std::size_t m = 0; m < a.metric_names().size(); ++m) {
      const margot::MetricStats x = a[p].metrics[m];
      const margot::MetricStats y = b[p].metrics[m];
      if (std::memcmp(&x.mean, &y.mean, sizeof x.mean) != 0 ||
          std::memcmp(&x.stddev, &y.stddev, sizeof x.stddev) != 0)
        return false;
    }
  }
  return true;
}

// ---- serve half -----------------------------------------------------------------

void configure_tenant(margot::Asrtm& asrtm) {
  asrtm.set_rank(margot::Rank::maximize_throughput_per_watt2(kThroughputMetric, kPowerMetric));
  asrtm.add_constraint({kPowerMetric, margot::ComparisonOp::kLessEqual, kCapW, 0, 1.0});
}
constexpr std::size_t kCapConstraint = 0;  ///< handle of the constraint above

/// A server with its tenants and the load generator's view of them.
struct Serving {
  std::unique_ptr<server::Server> server;
  std::vector<std::uint64_t> handles;
  std::vector<std::size_t> kb_of;       ///< tenant -> knowledge base
  std::vector<std::size_t> current;     ///< tenant -> point it runs now
  std::vector<double> cap;              ///< tenant -> power cap goal
  /// Per knowledge base, the metric means, [point * kMetrics + metric].
  std::vector<std::vector<double>> means;
  std::uint64_t invocations = 0;        ///< the schedule index
  bool drift = false;
  Rng noise;
  std::uint64_t accepted = 0;           ///< feedback events admitted to the rings
  const Counter* drained_counter = nullptr;
  std::uint64_t drained0 = 0;           ///< server.drained when the server started

  std::size_t batch() const { return std::min(kBatch, handles.size()); }
  std::uint64_t drained() const { return drained_counter->value() - drained0; }
};

std::unique_ptr<Serving> make_serving(Run& run, const std::vector<margot::KnowledgeBase>& kbs,
                                      std::size_t tenants, bool drift, std::uint64_t seed) {
  Span setup(run.tracer, kServerSetup);
  auto s = std::make_unique<Serving>();
  s->drift = drift;
  s->noise.reseed(seed ^ 0x6e6f697365ULL);
  for (const auto& kb : kbs) {
    std::vector<double> flat(kb.size() * kMetrics);
    for (std::size_t p = 0; p < kb.size(); ++p)
      for (std::size_t m = 0; m < kMetrics; ++m) flat[p * kMetrics + m] = kb[p].metrics[m].mean;
    s->means.push_back(std::move(flat));
  }
  server::ServerOptions options;
  options.shards = kShards;
  options.policy = server::BackpressurePolicy::kBlock;
  options.max_tenants = tenants;
  // No checkpoint_dir: the server runs in memory.  With a journal on a
  // shared virtual disk, steady traffic wrote ~1 GB per run and every
  // 4,096 events per tenant a snapshot storm stalled the rings for up to
  // half a second, so the numbers measured the disk, not the server.
  options.share_knowledge = false;
  options.rate_limit_per_s = 0.0;
  options.shard_stall_deadline_s = 5.0;  // no watchdog restarts from a busy host
  s->server = std::make_unique<server::Server>(options);
  s->drained_counter = &MetricsRegistry::global().counter("server.drained");
  s->drained0 = s->drained_counter->value();
  for (std::size_t t = 0; t < tenants; ++t) {
    server::CreateResult created;
    {
      Span span(run.tracer, kCreateTenant);
      created = s->server->create_tenant("tenant" + std::to_string(t), kbs[t % kbs.size()],
                                         configure_tenant);
    }
    run.result.checks.record("tenant_created", created.created);
    if (!created.created) throw std::runtime_error("tenant registration refused");
    s->handles.push_back(created.handle);
    s->kb_of.push_back(t % kbs.size());
    s->cap.push_back(kCapW);
  }
  // First decisions are cold (every column computed); they belong to
  // set-up, not to the first measured batch.
  Span prime(run.tracer, kPrime);
  s->current.assign(tenants, 0);
  s->server->decide_batch(s->handles, s->current);
  return s;
}

/// Waits until the shard threads have applied `target` events, so the
/// next decisions see them.  False when the server stopped applying.
bool wait_applied(Run& run, Serving& s, std::uint64_t target) {
  if (s.drained() >= target) return true;
  Span span(run.tracer, kApplyWait);
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (s.drained() < target) {
    if (now_ns() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Runs the next `count` invocations, consecutive tenants in round
/// robin.  An invocation is one MAPE-K iteration of a tenant: its
/// decision in a decide_batch, then submit_feedback for the point it
/// ran.  Feedback is applied asynchronously, so before deciding, the
/// generator waits until each tenant's previous feedback has been applied
/// (one round earlier, so the wait is rare).  Every decision then sees
/// its tenant's latest feedback, and the work per decision does not
/// depend on how the shard threads happened to be scheduled.
void invoke_batch(Run& run, Serving& s, std::size_t count) {
  Span batch(run.tracer, kGeneratorBatch);
  std::array<std::uint64_t, kBatch> handles{};
  std::array<std::size_t, kBatch> tenant{};
  std::array<std::size_t, kBatch> best{};
  const std::size_t tenants = s.handles.size();
  const std::uint64_t first = s.invocations;
  for (std::size_t j = 0; j < count; ++j) {
    tenant[j] = static_cast<std::size_t>((first + j) % tenants);
    handles[j] = s.handles[tenant[j]];
  }
  // The batch's last tenant last ran T invocations ago: every feedback
  // up to that one must be applied.
  const std::uint64_t settled = first + count > tenants ? first + count - tenants : 0;
  if (!wait_applied(run, s, std::min(settled, s.accepted)))
    throw std::runtime_error("the shard threads stopped applying feedback");
  {
    Span span(run.tracer, kDecideBatch);
    s.server->decide_batch(std::span<const std::uint64_t>(handles.data(), count),
                           std::span<std::size_t>(best.data(), count));
  }
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint64_t n = s.invocations++;
    const std::size_t t = tenant[j];
    s.current[t] = best[j];
    if (s.drift && n > 0 && n % kCapSwitchEvery == 0) {
      // One tenant, rotating through all of them, flips its cap.
      const std::size_t g = static_cast<std::size_t>((n / kCapSwitchEvery) % tenants);
      s.cap[g] = s.cap[g] == kCapW ? kLowCapW : kCapW;
      server::Admission admission;
      {
        Span span(run.tracer, kUpdateGoal);
        admission = s.server->update_goal(s.handles[g], kCapConstraint, s.cap[g]);
      }
      ++run.result.operations;
      if (admission != server::Admission::kAccepted) ++run.result.failed_operations;
    }
    // Reports alternate between throughput and power from one invocation
    // to the next, and each tenant's flips every round.  Every batch
    // then mixes both kinds: a power report costs its tenant's next
    // decision a constraint column on top of the rank column, so
    // same-kind batches would split tick latencies into two modes.
    const std::size_t metric = ((n + n / tenants) & 1) != 0 ? kPowerMetric : kThroughputMetric;
    double observed = s.means[s.kb_of[t]][s.current[t] * kMetrics + metric];
    if (s.drift) {
      observed *= 1.0 + s.noise.uniform(-kNoise, kNoise);
      const std::uint64_t phase = n % kDriftPeriod;
      if (metric == kPowerMetric && phase >= kDriftPeriod / 3 && phase < 2 * kDriftPeriod / 3)
        observed *= kPowerDrift;
    }
    server::Admission admission;
    {
      Span span(run.tracer, kSubmit);
      admission = s.server->submit_feedback(s.handles[t], s.current[t], metric, observed);
    }
    ++run.result.operations;
    if (admission == server::Admission::kAccepted) {
      ++s.accepted;
    } else {
      ++run.result.failed_operations;
    }
  }
  run.backlog.record(static_cast<std::int64_t>(s.accepted - s.drained()));
}

struct ClosedLoop {
  std::uint64_t invocations = 0;
  double seconds = 0.0;
  LogHistogram batch_ns;  ///< fixed memory, so peak RSS does not grow with the rate
  std::vector<double> segment_rates;  ///< invocations per second of each tenth
};

/// Closed loop: the next batch starts when the previous one returns.
/// Runs for `seconds`, or for `max_rounds` rounds over all tenants.
ClosedLoop closed_loop(Run& run, Serving& s, double seconds, std::uint64_t max_rounds = 0) {
  ClosedLoop out;
  const std::int64_t t0 = now_ns();
  const auto segment_ns = static_cast<std::int64_t>(seconds * 1e8);
  const std::int64_t end = t0 + 10 * segment_ns;
  const std::uint64_t max_invocations = max_rounds * s.handles.size();
  std::int64_t now = t0;
  std::int64_t segment_start = t0;
  std::uint64_t segment_first = 0;
  while (max_rounds > 0 ? out.invocations < max_invocations : now < end) {
    const std::int64_t b0 = now;
    invoke_batch(run, s, s.batch());
    out.invocations += s.batch();
    now = now_ns();
    out.batch_ns.record(now - b0);
    if (max_rounds == 0 && now - segment_start >= segment_ns) {
      out.segment_rates.push_back(static_cast<double>(out.invocations - segment_first) /
                                  seconds_between(segment_start, now));
      segment_start = now;
      segment_first = out.invocations;
    }
  }
  out.seconds = seconds_between(t0, now);
  return out;
}

struct OpenLoop {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  double seconds = 0.0;
  double busy_seconds = 0.0;
  WeightedSamples latency_us;  ///< completion minus the tick's due time
};

/// Open loop: every 1 ms tick, rate/1000 invocations fall due at once,
/// whether or not the previous tick has finished.
OpenLoop open_loop(Run& run, Serving& s, double rate_per_s, double seconds) {
  OpenLoop out;
  const auto per_tick = static_cast<std::size_t>(rate_per_s / 1000.0);
  const auto ticks = static_cast<std::int64_t>(seconds * 1e9) / kTickNs;
  out.latency_us.reserve(static_cast<std::size_t>(ticks) * (per_tick / s.batch() + 1));
  const std::int64_t t0 = now_ns();
  // A generator that falls this far behind has lost the rate; what is
  // left is counted as failed instead of stretching the run.
  const std::int64_t give_up = t0 + 2 * ticks * kTickNs + 1'000'000'000;
  for (std::int64_t k = 0; k < ticks; ++k) {
    const std::int64_t due = t0 + k * kTickNs;
    std::int64_t now = now_ns();
    if (now >= give_up) {
      const auto missed = static_cast<std::uint64_t>(ticks - k) * per_tick;
      out.offered += missed;
      run.result.operations += missed;
      run.result.failed_operations += missed;
      break;
    }
    if (now < due) {
      // Spin, never sleep: a generator that idles its CPU between ticks
      // hands the next tick a cold core, and how cold depends on the
      // host's power management, not on the server.
      Span wait(run.tracer, kGeneratorWait);
      spin_for(due - now);
      now = now_ns();
    }
    run.late_ns.record(now - due);
    const std::int64_t start = now;
    for (std::size_t left = per_tick; left > 0;) {
      const std::size_t count = std::min(left, s.batch());
      invoke_batch(run, s, count);
      now = now_ns();
      out.latency_us.add(static_cast<double>(now - due) * 1e-3, count);
      left -= count;
    }
    out.offered += per_tick;
    out.completed += per_tick;
    out.busy_seconds += seconds_between(start, now);
  }
  out.seconds = seconds_between(t0, now_ns());
  return out;
}

/// The serve half's output checks, run after traffic on every workload:
/// full drain, event conservation, and decide_batch == the tenant's own
/// find_best_operating_point() for a spread of tenants, before and after
/// a cap round trip through update_goal.
void verify_serving(Run& run, Serving& s) {
  Checks& checks = run.result.checks;
  bool drained = false;
  {
    Span span(run.tracer, kDrain);
    const std::int64_t t0 = now_ns();
    drained = s.server->drain(60.0);
    run.result.extra.set("server.drain_s", seconds_between(t0, now_ns()), "s");
  }
  checks.record("drained", drained);
  const auto stats = s.server->stats();
  checks.record("conservation", stats.drained + stats.shed == stats.accepted);
  run.result.extra.set("server.shed", static_cast<double>(stats.shed), "count");
  run.result.extra.set("server.rejected",
                       static_cast<double>(stats.rate_limited + stats.quarantined + stats.invalid),
                       "count");

  const std::size_t stride = std::max<std::size_t>(1, s.handles.size() / kCheckedTenants);
  std::vector<std::uint64_t> checked;
  for (std::size_t t = 0; t < s.handles.size(); t += stride) checked.push_back(s.handles[t]);
  const auto decisions_match = [&](const char* name) {
    Span span(run.tracer, kCheck);
    std::vector<std::size_t> batch(checked.size());
    s.server->decide_batch(checked, batch);
    for (std::size_t i = 0; i < checked.size(); ++i) {
      std::size_t reference = 0;
      s.server->with_tenant(checked[i], [&](margot::Asrtm& asrtm) {
        reference = asrtm.find_best_operating_point();
      });
      checks.record(name, batch[i] == reference);
    }
  };
  decisions_match("decide_batch_matches_find_best");
  for (const double goal : {kLowCapW, kCapW}) {
    for (const std::uint64_t h : checked) {
      server::Admission admission;
      {
        Span span(run.tracer, kUpdateGoal);
        admission = s.server->update_goal(h, kCapConstraint, goal);
      }
      checks.record("update_goal_accepted", admission == server::Admission::kAccepted);
    }
    decisions_match("decide_batch_matches_after_goal_change");
  }
}

void stop_serving(Run& run, std::unique_ptr<Serving> s) {
  Span span(run.tracer, kServerStop);
  s.reset();
}

/// Per-layer serve metrics from the counters around a traffic phase
/// (traced runs only).
void serve_layer_metrics(Run& run, const CounterSnapshot& before, std::uint64_t invocations) {
  if (!run.tracer.enabled()) return;
  const CounterSnapshot after;
  MetricList& m = run.result.per_layer;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double inv = static_cast<double>(invocations);
  const double decisions = before.delta(after, "server.batch_decisions");
  const double locked = before.delta(after, "server.batch_locked");
  m.set("server.lockfree_ratio", ratio(before.delta(after, "server.batch_lockfree"), decisions),
        "ratio");
  m.set("server.backlog_events.p99", run.backlog.quantile(0.99), "count");
  m.set("margot.columns_recomputed", ratio(before.delta(after, "asrtm.columns_recomputed"), inv),
        "count");
  m.set("margot.rows_evaluated", ratio(before.delta(after, "asrtm.simd_rows_evaluated"), inv),
        "count");
  m.set("margot.cached_ratio", ratio(before.delta(after, "asrtm.decisions_cached"), locked),
        "ratio");
}

// ---- one execution of a workload ---------------------------------------------------

/// Runs set-up kSetups times, the measured window for `seconds`, then
/// the output checks.  With `traced` the bench and library spans are on.
RunResult execute(const WorkloadSpec& spec, const Options& options, double seconds,
                  bool traced) {
  const std::size_t tenants = options.quick ? 64 : 1024;
  const fs::path dir = fs::path(options.work_dir) /
                       (std::string(spec.name) + "." + std::to_string(::getpid()) +
                        (traced ? ".traced" : ""));
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto run = std::make_unique<Run>(options.seed);
  Run& r = *run;
  RunResult& res = r.result;
  if (traced) {
    Tracer::global().set_capacity(kLibraryTraceCapacity);
    Tracer::global().set_enabled(true);
    r.tracer.enable();
  }

  // ---- set-up, kSetups times: the last one is kept --------------------------
  std::vector<margot::KnowledgeBase> knowledge;  // toolchain: the reference
  std::unique_ptr<Serving> serving;
  std::string cache_dir;
  // A freshly started process ran about a second slow on a shared KVM
  // host (the host brings an idle vCPU up to speed); spinning first
  // keeps that ramp out of the set-up times.
  spin_for(kWarmUpNs);
  for (std::size_t i = 0; i < kSetups; ++i) {
    if (i > 0) {
      // Slow spells of the host last a few hundred milliseconds: spaced
      // set-ups keep one spell from owning the median.
      if (serving) stop_serving(r, std::move(serving));
      spin_for(kSetupGapNs);
    }
    const std::int64_t t0 = now_ns();
    if (spec.serve) {
      // C source -> knowledge bases -> a server with every tenant primed.
      Campaign campaign = run_campaign(r, "", traced);
      serving = make_serving(r, campaign.knowledge, tenants, spec.drift, options.seed);
    } else {
      // A first campaign warms the process (cold) or fills the disk
      // tier (warm); its knowledge bases are the reference every
      // measured campaign must reproduce bit for bit.
      cache_dir = spec.warm ? (dir / ("cache." + std::to_string(i))).string() : "";
      Campaign campaign = run_campaign(r, cache_dir, false);
      knowledge = std::move(campaign.knowledge);
    }
    res.setup_samples_s.push_back(seconds_between(t0, now_ns()));
  }
  res.end_to_end.set("setup_s", median_of(res.setup_samples_s), "s");

  // ---- measured window ------------------------------------------------------
  // Per-layer metrics describe where each layer does this workload's
  // work: a serve workload's toolchain and create_tenant numbers come
  // from its set-up, a toolchain workload's from the measured campaigns
  // (its server numbers from the serve check after them).
  r.tracer.begin_window(/*reset_histograms=*/!spec.serve);
  if (spec.serve) {
    const CounterSnapshot before;
    const ClosedLoop closed = closed_loop(r, *serving, seconds / 2);
    const OpenLoop open = open_loop(r, *serving, spec.open_rate_per_s, seconds / 2);
    r.tracer.end_window();
    const std::uint64_t invocations = closed.invocations + open.completed;
    serve_layer_metrics(r, before, invocations);
    // The median tenth, so a short disturbance of the shared host does
    // not move the run's number.
    res.end_to_end.set("throughput_per_s", median_of(closed.segment_rates), "1/s");
    res.end_to_end.set("latency_p50_us", open.latency_us.quantile(0.5), "us");
    res.extra.set("closed.mean_per_s",
                  static_cast<double>(closed.invocations) / closed.seconds, "1/s");
    res.extra.set("closed.invocations", static_cast<double>(closed.invocations), "count");
    res.extra.set("closed.batch_p50_us", closed.batch_ns.quantile(0.5) * 1e-3, "us");
    res.extra.set("open.rate_per_s", spec.open_rate_per_s, "1/s");
    res.extra.set("open.offered", static_cast<double>(open.offered), "count");
    res.extra.set("open.completed", static_cast<double>(open.completed), "count");
    res.extra.set("invocation_p99_us", open.latency_us.quantile(0.99), "us");
    res.extra.set("invocation.samples", static_cast<double>(open.latency_us.count()), "count");
    res.extra.set("generator.late_us.p99", r.late_ns.quantile(0.99) * 1e-3, "us");
    res.extra.set("generator.busy_fraction", open.busy_seconds / open.seconds, "ratio");
    verify_serving(r, *serving);
    stop_serving(r, std::move(serving));
  } else {
    std::vector<double> campaign_s;
    std::vector<double> build_s;
    std::size_t max_events = 0;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      // A traced window ends before the library's span ring could wrap.
      const std::size_t recorded = Tracer::global().recorded();
      if (traced && recorded + 2 * max_events > kLibraryTraceCapacity) break;
      Campaign campaign = run_campaign(r, cache_dir, true);
      max_events = std::max(max_events, Tracer::global().recorded() - recorded);
      campaign_s.push_back(campaign.seconds);
      build_s.insert(build_s.end(), campaign.build_s.begin(), campaign.build_s.end());
      Span span(r.tracer, kCheck);
      for (std::size_t k = 0; k < knowledge.size(); ++k)
        res.checks.record(spec.warm ? "warm_knowledge_equals_cold" : "knowledge_equals_first",
                          same_knowledge(campaign.knowledge[k], knowledge[k]));
    } while (now_ns() < end);
    r.tracer.end_window();
    // Builds per second of the median campaign: COBAYN training counts,
    // a short disturbance of the shared host does not.
    const double kernels = static_cast<double>(knowledge.size());
    res.end_to_end.set("throughput_per_s", kernels / median_of(campaign_s), "1/s");
    res.end_to_end.set("latency_p50_us", median_of(build_s) * 1e6, "us");
    double total_s = 0.0;
    for (const double c : campaign_s) total_s += c;
    res.extra.set("builds_mean_per_s", static_cast<double>(build_s.size()) / total_s, "1/s");
    res.extra.set("campaigns", static_cast<double>(campaign_s.size()), "count");
    res.extra.set("campaign_p50_ms", median_of(campaign_s) * 1e3, "ms");
    res.extra.set("build_p99_ms", quantile(build_s, 0.99) * 1e3, "ms");
    res.extra.set("build.samples", static_cast<double>(build_s.size()), "count");

    // The served half: the campaign's knowledge bases, one tenant each.
    auto s = make_serving(r, knowledge, knowledge.size(), false, options.seed);
    const CounterSnapshot before;
    const ClosedLoop closed = closed_loop(r, *s, 0.0, kCheckRounds);
    serve_layer_metrics(r, before, closed.invocations);
    verify_serving(r, *s);
    stop_serving(r, std::move(s));
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  res.end_to_end.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");

  if (traced) {
    Tracer& library = Tracer::global();
    library.set_enabled(false);
    const BenchTracer& t = r.tracer;
    MetricList& m = res.per_layer;
    const auto p50_ms = [&](Layer layer) { return t.histogram(layer).quantile(0.5) * 1e-6; };
    m.set("ir.parse_ms", p50_ms(kParse), "ms");
    m.set("features.extract_ms", p50_ms(kFeatures), "ms");
    m.set("cobayn.predict_ms", p50_ms(kCobaynPredict), "ms");
    m.set("dse.explore_ms", p50_ms(kDse), "ms");
    m.set("weaver.weave_ms", p50_ms(kWeave), "ms");
    m.set("margot.knowledge_ms", p50_ms(kKnowledge), "ms");
    m.set("pipeline.unattributed_ms", median_of(r.unattributed_ms), "ms");
    m.set("cobayn.train_ms", p50_ms(kCobaynTrain), "ms");
    const double campaigns = static_cast<double>(std::max<std::size_t>(r.campaigns, 1));
    m.set("dse.points_profiled", r.points_profiled / campaigns, "count");
    m.set("cache.hit_ratio",
          r.cache_lookups > 0
              ? static_cast<double>(r.cache_hits) / static_cast<double>(r.cache_lookups)
              : 0.0,
          "ratio");
    m.set("cache.bytes_loaded", r.bytes_loaded / campaigns, "bytes");
    m.set("support.taskpool_tasks", r.taskpool_tasks / campaigns, "count");
    m.set("server.submit_ns.p50", t.histogram(kSubmit).quantile(0.5), "ns");
    m.set("server.submit_ns.p99", t.histogram(kSubmit).quantile(0.99), "ns");
    m.set("server.decide_batch_us.p50", t.histogram(kDecideBatch).quantile(0.5) * 1e-3, "us");
    m.set("server.decide_batch_us.p99", t.histogram(kDecideBatch).quantile(0.99) * 1e-3, "us");
    m.set("server.update_goal_us.p50", t.histogram(kUpdateGoal).quantile(0.5) * 1e-3, "us");
    m.set("server.create_tenant_ms.p50", p50_ms(kCreateTenant), "ms");
    m.set("server.drain_s", res.extra.find("server.drain_s")->value, "s");
    m.set("trace.coverage", t.coverage(), "ratio");
    m.set("trace.dropped_spans", static_cast<double>(library.dropped()), "count");
    res.extra.set("trace.bench_spans", static_cast<double>(t.spans()), "count");
    res.extra.set("trace.library_spans", static_cast<double>(library.recorded()), "count");
    for (std::size_t l = 0; l < kLayerCount; ++l)
      res.self_ms[kLayerNames[l]] = t.self_ms(static_cast<Layer>(l));
    res.checks.record("trace_no_dropped_spans", library.dropped() == 0);

    // Several workloads in one process get one trace file each.
    fs::path trace_path(options.trace_path);
    if (options.workloads.size() > 1)
      trace_path.replace_filename(trace_path.stem().string() + "." + spec.name +
                                  trace_path.extension().string());
    if (trace_path.has_parent_path()) fs::create_directories(trace_path.parent_path());
    std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
    t.write_chrome_trace(out, library.snapshot());
    out.flush();
    res.checks.record("trace_written", static_cast<bool>(out));
    library.clear();
  }
  fs::remove_all(dir);
  return std::move(run->result);
}

/// One workload: the untraced run, plus the traced run when asked for.
/// A traced workload splits --seconds between the two.
RunResult run_workload(const WorkloadSpec& spec, const Options& options) {
  const bool traced = !options.trace_path.empty();
  std::printf("== %s: seed %llu, %.1f s%s ==\n", spec.name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              traced ? ", traced" : "");
  std::fflush(stdout);
  RunResult plain = execute(spec, options, traced ? options.seconds / 2 : options.seconds, false);
  if (!traced) return plain;
  RunResult result = execute(spec, options, options.seconds / 2, true);
  for (const char* name : {"throughput_per_s", "latency_p50_us"}) {
    const double base = plain.end_to_end.find(name)->value;
    result.per_layer.set(std::string("trace_overhead.") + name,
                         base > 0 ? result.end_to_end.find(name)->value / base : 0.0, "ratio");
  }
  // End-to-end numbers always come from the untraced run.
  result.end_to_end = plain.end_to_end;
  result.checks.merge(plain.checks);
  result.operations += plain.operations;
  result.failed_operations += plain.failed_operations;
  return result;
}

// ---- output -----------------------------------------------------------------------

void write_metrics(JsonWriter& w, const char* key, const MetricList& metrics) {
  w.key(key).begin_object();
  for (const Metric& m : metrics.items()) {
    w.key(m.name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

void write_run(JsonWriter& w, const WorkloadSpec& spec, const Options& options,
               const RunResult& r) {
  w.key(spec.name).begin_object();
  w.kv("seed", options.seed);
  w.kv("seconds", options.seconds);
  w.kv("quick", options.quick);
  w.kv("traced", !options.trace_path.empty());
  w.kv("correct", r.failed() == 0);
  w.kv("attempted", r.attempted());
  w.kv("failed", r.failed());
  w.kv("failed_fraction",
       static_cast<double>(r.failed()) / static_cast<double>(std::max<std::uint64_t>(r.attempted(), 1)));
  w.key("checks").begin_object();
  for (const auto& [name, result] : r.checks.results()) {
    w.key(name).begin_object();
    w.kv("passed", result.first);
    w.kv("failed", result.second);
    w.end_object();
  }
  w.end_object();
  write_metrics(w, "end_to_end", r.end_to_end);
  if (!r.per_layer.items().empty()) write_metrics(w, "per_layer", r.per_layer);
  write_metrics(w, "extra", r.extra);
  if (!r.self_ms.empty()) {
    w.key("self_ms").begin_object();
    for (const auto& [name, ms] : r.self_ms) w.kv(name, ms);
    w.end_object();
  }
  w.key("setup_samples_s").begin_array();
  for (const double s : r.setup_samples_s) w.value(s);
  w.end_array();
  w.end_object();
}

void print_run(const RunResult& r) {
  const auto table = [](const char* title, const MetricList& metrics) {
    if (metrics.items().empty()) return;
    std::printf("   -- %s --\n", title);
    for (const Metric& m : metrics.items())
      std::printf("   %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  };
  table("end to end", r.end_to_end);
  table("per layer", r.per_layer);
  table("other", r.extra);
  if (!r.self_ms.empty()) {
    std::printf("   -- self time in the measured window --\n");
    for (const auto& [layer, ms] : r.self_ms)
      if (ms > 0) std::printf("   %-34s %16.3f ms\n", layer.c_str(), ms);
  }
  std::printf("   %s: %llu of %llu operations and checks failed\n",
              r.failed() == 0 ? "PASS" : "FAIL", static_cast<unsigned long long>(r.failed()),
              static_cast<unsigned long long>(r.attempted()));
}

bool write_file(const std::string& path, const std::string& text) {
  const fs::path target(path);
  if (target.has_parent_path()) fs::create_directories(target.parent_path());
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << text << '\n';
    out.flush();
    if (!out) return false;
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  return !ec;
}

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(const std::vector<std::pair<const WorkloadSpec*, RunResult>>& runs,
                        bool traced) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& [spec, r] : runs) {
    attempted += r.attempted();
    failed += r.failed();
  }
  JsonWriter w;
  w.begin_object();
  w.kv("correct", failed == 0);
  w.kv("attempted", attempted);
  w.kv("failed", failed);
  w.key("metrics").begin_object();
  if (runs.size() == 1) {
    const RunResult& r = runs.front().second;
    const MetricList& source = traced ? r.per_layer : r.end_to_end;
    const auto emit = [&](const MetricDef& def) {
      const Metric* m = source.find(def.name);
      w.key(def.name).begin_object();
      w.kv("value", m != nullptr ? m->value : std::nan(""));
      w.kv("unit", def.unit);
      w.end_object();
    };
    if (traced) {
      for (const auto& def : kPerLayer) emit(def);
    } else {
      for (const auto& def : kEndToEnd) emit(def);
    }
  }
  w.end_object();
  w.end_object();
  return w.str();
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload <name> [--seed N] [--seconds S]\n"
               "                 [--trace <file>] [--json <file>] [--work-dir <dir>]\n"
               "       bench_e2e --quick [--trace <file>] ...   (all workloads, small)\n"
               "workloads: toolchain-cold toolchain-warm serve-steady serve-drift\n",
               message);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--workload") {
      const std::string name = next();
      const WorkloadSpec* found = nullptr;
      for (const auto& spec : kWorkloads)
        if (name == spec.name) found = &spec;
      if (found == nullptr) usage(("unknown workload " + name).c_str());
      options.workloads.push_back(found);
    } else if (arg == "--seed") {
      const auto v = parse_strict_double(next());
      if (!v || *v < 0 || *v != std::floor(*v)) usage("--seed takes a whole number");
      options.seed = static_cast<std::uint64_t>(*v);
    } else if (arg == "--seconds") {
      const auto v = parse_strict_double(next());
      if (!v || *v <= 0 || *v > 3600) usage("--seconds takes a number in (0, 3600]");
      options.seconds = *v;
      seconds_given = true;
    } else if (arg == "--trace") {
      options.trace_path = next();
    } else if (arg == "--json") {
      options.json_path = next();
    } else if (arg == "--work-dir") {
      options.work_dir = next();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workloads.empty()) {
    if (!options.quick) usage("--workload is required without --quick");
    for (const auto& spec : kWorkloads) options.workloads.push_back(&spec);
  }
  if (options.quick && !seconds_given) options.seconds = 2.0;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  // Nothing from the environment may change what runs (injected faults,
  // tracing, jobs, DSE strategy, server knobs): the library reads its
  // SOCRATES_* variables lazily, so clearing them first is enough.
  std::vector<std::string> inherited;
  for (char** env = environ; *env != nullptr; ++env)
    if (std::strncmp(*env, "SOCRATES_", 9) == 0)
      inherited.emplace_back(*env, std::strcspn(*env, "="));
  for (const std::string& name : inherited) ::unsetenv(name.c_str());

  const Options options = parse_options(argc, argv);
  Log::set_level(LogLevel::kWarn);

  std::vector<std::pair<const WorkloadSpec*, RunResult>> runs;
  try {
    for (const WorkloadSpec* spec : options.workloads) {
      runs.emplace_back(spec, run_workload(*spec, options));
      print_run(runs.back().second);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }

  JsonWriter w;
  w.begin_object();
  w.key("runs").begin_object();
  for (const auto& [spec, r] : runs) write_run(w, *spec, options, r);
  w.end_object();
  w.end_object();
  if (!write_file(options.json_path, w.str())) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", options.json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", options.json_path.c_str());

  bool correct = true;
  for (const auto& [spec, r] : runs) correct = correct && r.failed() == 0;
  std::printf("%s\n", result_line(runs, !options.trace_path.empty()).c_str());
  return correct ? 0 : 1;
}
