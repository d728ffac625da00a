// Scenario: a batch pipeline whose requirements change per phase — the
// generalization of Figure 5 to several applications.
//
// Three Polybench workloads (compute-bound syrk, bandwidth-bound
// gemver, branchy nussinov) run back to back.  During "interactive
// hours" the pipeline must hit a throughput SLA at minimum power
// (constraint + minimize-power-style rank); overnight it switches to an
// energy-efficient Thr/W^2 policy.  Each application carries its own
// knowledge base, so the same policy lands on different knobs per
// kernel — the per-kernel autotuning granularity SOCRATES argues for.
//
// Each application also records its MAPE-K decision journal, and the
// example queries it after both phases: every knob change is printed
// with the requirement change (or drift) that triggered it.
//
// The closing section shows crash-safe knowledge: the runtime state a
// long-running pipeline learns (feedback corrections, quarantine, the
// active phase) is journaled by a CheckpointStore, so a killed process
// resumes at its pre-crash operating point instead of re-learning the
// platform from scratch.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "margot/checkpoint.hpp"
#include "margot/state_manager.hpp"
#include "socrates/adaptive_app.hpp"
#include "socrates/pipeline.hpp"
#include "support/statistics.hpp"

namespace {

using namespace socrates;
using M = margot::ContextMetrics;

void report(const char* phase, const char* bench, const std::vector<TraceSample>& trace) {
  RunningStats power;
  RunningStats thr;
  for (const auto& s : trace) {
    power.add(s.power_w);
    thr.add(1.0 / s.exec_time_s);
  }
  const auto& last = trace.back();
  std::printf("  %-12s %-9s avg %6.1f W  %7.2f runs/s  [%s, %zu threads, %s]\n", phase,
              bench, power.mean(), thr.mean(), last.config_name.c_str(), last.threads,
              platform::to_string(last.binding));
}

}  // namespace

int main() {
  const auto model = platform::PerformanceModel::paper_platform();
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 3;
  opts.work_scale = 0.02;
  Pipeline pipeline(model, opts);

  std::printf("== phase-aware pipeline: per-kernel policies ==\n\n");

  for (const char* name : {"syrk", "gemver", "nussinov"}) {
    AdaptiveApplication app(pipeline.build(name), model, opts.work_scale);
    app.asrtm().enable_decision_journal();

    // Interactive phase: meet an SLA of 60% of this kernel's peak
    // throughput, and among the points that do, burn the least power.
    // (Rank: minimize power == maximize power^-1.)
    double peak_thr = 0.0;
    for (const auto& op : app.binary().knowledge.points())
      peak_thr = std::max(peak_thr, op.metrics[M::kThroughput].mean);
    app.asrtm().set_rank(margot::Rank{margot::RankDirection::kMinimize,
                                      {{M::kPower, 1.0}}});
    const auto sla = app.asrtm().add_constraint(
        {M::kThroughput, margot::ComparisonOp::kGreaterEqual, 0.6 * peak_thr, 0, 0.0});

    std::vector<TraceSample> interactive;
    app.run_until(app.now_s() + 30.0, interactive);
    report("interactive", name, interactive);

    // Overnight phase: drop the SLA, maximize Thr/W^2.
    app.asrtm().clear_constraints();
    (void)sla;
    app.asrtm().set_rank(
        margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower));
    std::vector<TraceSample> overnight;
    app.run_until(app.now_s() + 30.0, overnight);
    report("overnight", name, overnight);

    const double j_inter = interactive.back().power_w / (1.0 / interactive.back().exec_time_s);
    const double j_night = overnight.back().power_w / (1.0 / overnight.back().exec_time_s);
    std::printf("  %-12s %-9s energy/run: %5.2f J -> %5.2f J\n", "(J per run)", name,
                j_inter, j_night);

    // Why did the knobs move?  Query the MAPE-K decision journal.
    // Noisy feedback can produce hundreds of drift switches, so print
    // only the first and last few records.
    const auto& journal = app.asrtm().decision_journal();
    std::printf("  %-12s %-9s %zu operating-point switch(es):\n", "(journal)", name,
                journal.total_decisions());
    const auto& records = journal.records();
    const std::size_t n = records.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (n > 6 && i == 3) {
        std::printf("    ... %zu more ...\n", n - 6);
        i = n - 4;
        continue;
      }
      const auto& r = records[i];
      std::printf("    t=%6.1fs  op %-4zu <- %s\n", r.timestamp_s, r.chosen,
                  r.trigger.c_str());
    }
    std::printf("\n");
  }

  std::printf("Same policies, different knobs per kernel: that is the kernel-level\n"
              "granularity SOCRATES automates.\n\n");

  // ---- crash-safe knowledge: kill the process, keep the learning --------
  std::printf("== kill-and-resume: the overnight phase survives a crash ==\n");
  namespace fs = std::filesystem;
  // One directory per process, so concurrent runs never share it.
  const auto ckpt_dir = fs::temp_directory_path() /
                        ("socrates_phase_aware_ckpt." + std::to_string(::getpid()));
  fs::remove_all(ckpt_dir);
  fs::create_directories(ckpt_dir);
  const std::string ckpt = (ckpt_dir / "syrk.ckpt").string();

  const auto knowledge = pipeline.build("syrk").knowledge;  // artifact-cache hit
  const auto define_phases = [](margot::StateManager& states) {
    states.define_state("interactive", {},
                        margot::Rank{margot::RankDirection::kMinimize,
                                     {{M::kPower, 1.0}}});
    states.define_state("overnight", {},
                        margot::Rank::maximize_throughput_per_watt2(M::kThroughput,
                                                                    M::kPower));
  };

  std::size_t best_before = 0;
  {
    margot::Asrtm live(knowledge);
    margot::CheckpointStore store(ckpt);
    store.attach(live);
    margot::StateManager states(live);
    define_phases(states);
    states.switch_to("overnight");
    // A stretch of overnight operation: the platform runs ~15% slower
    // than the design-time knowledge promised, and the AS-RTM learns it.
    for (int i = 0; i < 20; ++i) {
      const auto op = live.find_best_operating_point();
      live.send_feedback(op, M::kExecTime,
                         knowledge[op].metrics[M::kExecTime].mean * 1.15);
    }
    best_before = live.find_best_operating_point();
    std::printf("  before the crash: phase '%s', operating point %zu, "
                "exec-time correction %.3f\n",
                states.active_state().c_str(), best_before,
                live.correction(M::kExecTime));
    // Scope exit without detach(): the process "dies" here — no final
    // snapshot, only the append-only journal survives.
  }

  margot::Asrtm resumed(knowledge);
  margot::CheckpointStore store(ckpt);
  const auto restore = store.attach(resumed);
  // Requirements are application-owned: re-create the phases, then
  // re-activate the journaled one.
  margot::StateManager states(resumed);
  define_phases(states);
  if (!restore.active_state.empty()) states.switch_to(restore.active_state);
  std::printf("  after restart:    %s -> phase '%s', operating point %zu, "
              "exec-time correction %.3f\n",
              restore.note.c_str(), states.active_state().c_str(),
              resumed.find_best_operating_point(), resumed.correction(M::kExecTime));
  std::printf("  %s\n", resumed.find_best_operating_point() == best_before
                            ? "The restarted runtime resumed exactly where it was killed."
                            : "MISMATCH: the replayed state diverged!");
  store.detach();
  fs::remove_all(ckpt_dir);
  return 0;
}
