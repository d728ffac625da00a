// Reproduces Figure 4 of the paper:
// "Static analysis of the proposed approach, that aims at minimizing
//  execution time given a constraint on power budget (x-axis)."
//
// The 2mm knowledge base (full-factorial DSE over the paper space) is
// handed to the AS-RTM with the requirement
//     minimize exec_time  s.t.  power <= budget
// and the budget is swept from 45 W to 140 W in 5 W steps, printing the
// selected execution time, compiler configuration, OpenMP thread count
// and binding policy — the four stacked panels of the figure.
// Expected shapes (paper): execution time is monotone non-increasing in
// the budget with a flat infeasible floor at the left edge; threads
// broadly grow; the compiler-flag and binding rows show no clear trend.
//
// Those shapes (DESIGN.md section 6) also land in BENCH_fig4.json, which
// bench/baselines/fig4.json gates: no budget step where the chosen time
// rises, no feasible choice above its budget, the 45 W / 140 W time
// ratio (~14 in the paper), the thread growth across the sweep and the
// number of distinct compiler configurations chosen.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>

#include "dse/dse.hpp"
#include "margot/asrtm.hpp"
#include "margot/context.hpp"
#include "socrates/pipeline.hpp"
#include "support/bench_json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

int main() {
  using namespace socrates;
  using M = margot::ContextMetrics;

  std::printf("== Figure 4: min exec time under a power budget (2mm) ==\n\n");

  const auto model = platform::PerformanceModel::paper_platform();
  const auto space = dse::DesignSpace::paper_space(model.topology());
  Pipeline pipeline(model);
  const auto points =
      pipeline.profile_space("2mm", space, /*repetitions=*/5, /*seed=*/2018);

  margot::Asrtm asrtm(dse::to_knowledge_base(points));
  asrtm.set_rank(margot::Rank::minimize_exec_time(M::kExecTime));
  const auto budget_constraint = asrtm.add_constraint(
      {M::kPower, margot::ComparisonOp::kLessEqual, 0.0, /*priority=*/0,
       /*confidence=*/0.0});

  TextTable table({"Budget [W]", "Exec time [ms]", "Power [W]", "Compiler flags",
                   "Threads", "Bind", "Feasible"});

  std::uint64_t budgets = 0;
  std::uint64_t time_rises = 0;         // steps where the chosen time went up
  std::uint64_t over_budget_rows = 0;   // feasible choices above their budget
  double prev_exec_s = std::numeric_limits<double>::infinity();
  double first_exec_s = 0.0, last_exec_s = 0.0;
  std::size_t first_threads = 0, last_threads = 0;
  std::set<int> configs_chosen;
  for (double budget = 45.0; budget <= 140.0 + 1e-9; budget += 5.0) {
    asrtm.set_constraint_goal(budget_constraint, budget);
    const auto& op = asrtm.best_operating_point();
    const auto config = dse::decode_knobs(space, op.knobs);
    const double exec_s = op.metrics[M::kExecTime].mean;
    const double power_w = op.metrics[M::kPower].mean;
    const bool feasible = asrtm.last_selection_feasible();
    table.add_row({format_double(budget, 0), format_double(exec_s * 1e3, 0),
                   format_double(power_w, 1),
                   space.configs[static_cast<std::size_t>(op.knobs[0])].name,
                   std::to_string(config.threads),
                   platform::to_string(config.binding), feasible ? "yes" : "no"});

    if (budgets++ == 0) {
      first_exec_s = exec_s;
      first_threads = config.threads;
    }
    last_exec_s = exec_s;
    last_threads = config.threads;
    if (exec_s > prev_exec_s) ++time_rises;
    prev_exec_s = exec_s;
    if (feasible && power_w > budget) ++over_budget_rows;
    configs_chosen.insert(op.knobs[0]);
  }

  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nPaper reference: exec time spans ~1.1 s (140 W) to ~15.3 s (floor),\n"
      "with non-monotone flag/binding choices across budgets.\n");

  JsonWriter json;
  json.begin_object();
  json.kv("benchmark", "2mm");
  json.kv("budgets", budgets);
  json.kv("exec_time_rises", time_rises);
  json.kv("over_budget_feasible_rows", over_budget_rows);
  json.kv("exec_ratio_45w_over_140w", first_exec_s / last_exec_s);
  json.kv("threads_ratio_140w_over_45w", static_cast<double>(last_threads) /
                                             static_cast<double>(first_threads));
  json.kv("distinct_configs", static_cast<std::uint64_t>(configs_chosen.size()));
  json.end_object();
  return write_bench_json("fig4", json.str()) ? 0 : 1;
}
