# Bench binaries land in build/bench/ with nothing else, so
# `for b in build/bench/*; do $b; done` runs exactly the benches.
function(socrates_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    socrates_core socrates_cobayn socrates_dse socrates_weaver
    socrates_server socrates_margot socrates_kernels socrates_features
    socrates_bayes socrates_ir socrates_platform socrates_support
    benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

socrates_bench(table1_weaving_metrics)
socrates_bench(fig3_pareto_distribution)
socrates_bench(fig4_power_budget_sweep)
socrates_bench(fig5_runtime_trace)
socrates_bench(ablation_cobayn_vs_random)
socrates_bench(ablation_cobayn_crossval)
socrates_bench(ablation_input_aware)
socrates_bench(ablation_dse_strategies)
socrates_bench(ablation_feedback_adaptation)
socrates_bench(ablation_margot_overhead)
socrates_bench(ablation_fault_tolerance)
socrates_bench(bench_server)
socrates_bench(bench_decision_sweep)
socrates_bench(bench_warm_start)

# Compares a BENCH_*.json artifact against a committed baseline
# (bench/baselines/*.json); paired with each smoke run via fixtures.
add_executable(bench_baseline_check ${CMAKE_SOURCE_DIR}/bench/bench_baseline_check.cpp)
target_link_libraries(bench_baseline_check PRIVATE socrates_support)
set_target_properties(bench_baseline_check PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# The incremental-decision pin: runs only the synthetic-KB benchmarks
# (the filter skips the fixtures that profile the real 2mm space) and
# the bench's built-in steady-vs-cold assertion, which prints PASS/FAIL
# and exits non-zero on a regression of the O(1) decision path.  The
# run also emits BENCH_margot_overhead.json, which the *_baseline test
# gates against the committed bounds.  The doctored tests feed the
# checker artifacts that each break one bound — dirty decisions that
# score every point under the cap, a quadratic knowledge-base build, a
# copy that does not share its storage — and must fail, which shows
# that each gate can fail.
add_test(NAME decision_bench_smoke
  COMMAND ablation_margot_overhead
          --benchmark_filter=AsrtmDecide
          --benchmark_min_time=0.05)
set_tests_properties(decision_bench_smoke PROPERTIES
  LABELS "bench;smoke"
  PASS_REGULAR_EXPRESSION "PASS: steady-state decision"
  FAIL_REGULAR_EXPRESSION "FAIL:"
  ENVIRONMENT "SOCRATES_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench"
  FIXTURES_SETUP bench_margot_overhead_json)
add_test(NAME decision_bench_baseline
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/margot_overhead.json
          ${CMAKE_BINARY_DIR}/bench/BENCH_margot_overhead.json)
set_tests_properties(decision_bench_baseline PROPERTIES
  LABELS "bench;smoke"
  FIXTURES_REQUIRED bench_margot_overhead_json)
add_test(NAME margot_overhead_bench_baseline_rejects_doctored
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/margot_overhead.json
          ${CMAKE_SOURCE_DIR}/bench/baselines/margot_overhead_doctored.json)
set_tests_properties(margot_overhead_bench_baseline_rejects_doctored PROPERTIES
  LABELS "bench;smoke"
  WILL_FAIL TRUE)
foreach(bound build_ratio copy)
  add_test(NAME margot_overhead_bench_baseline_rejects_doctored_${bound}
    COMMAND bench_baseline_check
            ${CMAKE_SOURCE_DIR}/bench/baselines/margot_overhead.json
            ${CMAKE_SOURCE_DIR}/bench/baselines/margot_overhead_doctored_${bound}.json)
  set_tests_properties(margot_overhead_bench_baseline_rejects_doctored_${bound} PROPERTIES
    LABELS "bench;smoke"
    WILL_FAIL TRUE)
endforeach()

# The DSE-strategy pin (quick mode for CTest): two-stage seed -> polish
# exploration on a two-kernel subset at the default (tiny) budget, with
# the bench's built-in assertions — >= 10x fewer evaluations than the
# full factorial at an undiminished Pareto hypervolume, pruned clone set
# below the 16-clone cross product — and the BENCH_dse.json artifact
# gated by the committed bounds.  The doctored tests feed the checker
# artifacts that each break one bound — a pruned true-metric
# hypervolume below the full factorial's, and a profile that costs 98
# bytes a point in the artifact cache (the text format) — and must
# fail, which shows that each gate can fail.
add_test(NAME dse_bench_smoke
  COMMAND ablation_dse_strategies --quick)
set_tests_properties(dse_bench_smoke PROPERTIES
  LABELS "bench;smoke"
  PASS_REGULAR_EXPRESSION "PASS: two-stage exploration"
  FAIL_REGULAR_EXPRESSION "FAIL:"
  ENVIRONMENT "SOCRATES_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench"
  FIXTURES_SETUP bench_dse_json
  TIMEOUT 600)
add_test(NAME dse_bench_baseline
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/dse.json
          ${CMAKE_BINARY_DIR}/bench/BENCH_dse.json)
set_tests_properties(dse_bench_baseline PROPERTIES
  LABELS "bench;smoke"
  FIXTURES_REQUIRED bench_dse_json)
add_test(NAME dse_bench_baseline_rejects_doctored
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/dse.json
          ${CMAKE_SOURCE_DIR}/bench/baselines/dse_doctored.json)
set_tests_properties(dse_bench_baseline_rejects_doctored PROPERTIES
  LABELS "bench;smoke"
  WILL_FAIL TRUE)
add_test(NAME dse_bench_baseline_rejects_doctored_profile_bytes
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/dse.json
          ${CMAKE_SOURCE_DIR}/bench/baselines/dse_doctored_profile_bytes.json)
set_tests_properties(dse_bench_baseline_rejects_doctored_profile_bytes PROPERTIES
  LABELS "bench;smoke"
  WILL_FAIL TRUE)

# The Figure 4 pin: the 2mm power-budget sweep writes the DESIGN.md
# section 6 shape to BENCH_fig4.json — the chosen time never rises with
# the budget, no feasible choice exceeds its budget, the 45 W / 140 W
# time ratio, the thread growth and the distinct compiler configs — and
# the *_baseline test gates it against the committed bounds.  The third
# test feeds the checker a doctored artifact whose chosen time rises at
# one budget step; it must fail, which shows that the gate can fail.
add_test(NAME fig4_bench_smoke
  COMMAND fig4_power_budget_sweep)
set_tests_properties(fig4_bench_smoke PROPERTIES
  LABELS "bench;smoke"
  ENVIRONMENT "SOCRATES_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench"
  FIXTURES_SETUP bench_fig4_json)
add_test(NAME fig4_bench_baseline
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/fig4.json
          ${CMAKE_BINARY_DIR}/bench/BENCH_fig4.json)
set_tests_properties(fig4_bench_baseline PROPERTIES
  LABELS "bench;smoke"
  FIXTURES_REQUIRED bench_fig4_json)
add_test(NAME fig4_bench_baseline_rejects_doctored
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/fig4.json
          ${CMAKE_SOURCE_DIR}/bench/baselines/fig4_doctored.json)
set_tests_properties(fig4_bench_baseline_rejects_doctored PROPERTIES
  LABELS "bench;smoke"
  WILL_FAIL TRUE)

# The fault-tolerance pin: the full (deterministic, seeded) hostile-
# machine ablation with the bench's built-in assertions — the hardened
# stack strictly beats raw with zero surviving corrupted observations,
# and kill-and-resume replays to the exact pre-crash state — and the
# BENCH_fault_tolerance.json artifact gated by the committed bounds.
# The third test feeds the checker a doctored artifact whose checkpoint
# kill-and-resume is not exact; it must fail, which shows that the gate
# can fail.
add_test(NAME fault_tolerance_bench_smoke
  COMMAND ablation_fault_tolerance)
set_tests_properties(fault_tolerance_bench_smoke PROPERTIES
  LABELS "bench;smoke"
  PASS_REGULAR_EXPRESSION "PASS: the hardened stack"
  FAIL_REGULAR_EXPRESSION "FAIL:"
  ENVIRONMENT "SOCRATES_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench"
  FIXTURES_SETUP bench_fault_tolerance_json
  TIMEOUT 600)
add_test(NAME fault_tolerance_bench_baseline
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/fault_tolerance.json
          ${CMAKE_BINARY_DIR}/bench/BENCH_fault_tolerance.json)
set_tests_properties(fault_tolerance_bench_baseline PROPERTIES
  LABELS "bench;smoke"
  FIXTURES_REQUIRED bench_fault_tolerance_json)
add_test(NAME fault_tolerance_bench_baseline_rejects_doctored
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/fault_tolerance.json
          ${CMAKE_SOURCE_DIR}/bench/baselines/fault_tolerance_doctored.json)
set_tests_properties(fault_tolerance_bench_baseline_rejects_doctored PROPERTIES
  LABELS "bench;smoke"
  WILL_FAIL TRUE)

# The batched-decision pin (quick mode for CTest): 1024 tenants x 256
# operating points, per-call decide() vs decide_batch() in steady
# state, with the bench's built-in assertions — >= 5x batch throughput,
# zero steady-state allocations on either path, identical results, a
# fully lock-free sweep — and the BENCH_decision_sweep.json artifact
# gated by the committed bounds.  The third test feeds the checker a
# doctored artifact whose batched sweep is only 4.9x the per-call path;
# it must fail, which shows that the gate can fail.
add_test(NAME decision_sweep_bench_smoke
  COMMAND bench_decision_sweep --quick)
set_tests_properties(decision_sweep_bench_smoke PROPERTIES
  LABELS "bench;smoke"
  PASS_REGULAR_EXPRESSION "PASS: batched sweep"
  FAIL_REGULAR_EXPRESSION "FAIL:"
  ENVIRONMENT "SOCRATES_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench"
  FIXTURES_SETUP bench_decision_sweep_json
  TIMEOUT 600)
add_test(NAME decision_sweep_bench_baseline
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/decision_sweep.json
          ${CMAKE_BINARY_DIR}/bench/BENCH_decision_sweep.json)
set_tests_properties(decision_sweep_bench_baseline PROPERTIES
  LABELS "bench;smoke"
  FIXTURES_REQUIRED bench_decision_sweep_json)
add_test(NAME decision_sweep_bench_baseline_rejects_doctored
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/decision_sweep.json
          ${CMAKE_SOURCE_DIR}/bench/baselines/decision_sweep_doctored.json)
set_tests_properties(decision_sweep_bench_baseline_rejects_doctored PROPERTIES
  LABELS "bench;smoke"
  WILL_FAIL TRUE)

# The online-adaptation pin: the seeded co-runner episode with the
# bench's built-in invariant — the adaptive AS-RTM holds the power cap
# through the episode while frozen design-time knowledge violates it —
# and the BENCH_feedback_adaptation.json artifact gated by the
# committed bounds.  The third test feeds the checker a doctored
# artifact whose adaptive run violates the cap 6% of the co-runner
# episode; it must fail, which shows that the gate can fail.
add_test(NAME feedback_adaptation_bench_smoke
  COMMAND ablation_feedback_adaptation)
set_tests_properties(feedback_adaptation_bench_smoke PROPERTIES
  LABELS "bench;smoke"
  PASS_REGULAR_EXPRESSION "PASS: online adaptation"
  FAIL_REGULAR_EXPRESSION "FAIL:"
  ENVIRONMENT "SOCRATES_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench"
  FIXTURES_SETUP bench_feedback_adaptation_json
  TIMEOUT 600)
add_test(NAME feedback_adaptation_bench_baseline
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/feedback_adaptation.json
          ${CMAKE_BINARY_DIR}/bench/BENCH_feedback_adaptation.json)
set_tests_properties(feedback_adaptation_bench_baseline PROPERTIES
  LABELS "bench;smoke"
  FIXTURES_REQUIRED bench_feedback_adaptation_json)
add_test(NAME feedback_adaptation_bench_baseline_rejects_doctored
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/feedback_adaptation.json
          ${CMAKE_SOURCE_DIR}/bench/baselines/feedback_adaptation_doctored.json)
set_tests_properties(feedback_adaptation_bench_baseline_rejects_doctored PROPERTIES
  LABELS "bench;smoke"
  WILL_FAIL TRUE)

# The cross-tenant warm-start pin (quick mode for CTest): a converged
# donor's pooled knowledge must let a similar tenant reach the true
# optimum with >= 3x fewer feedback rounds at a <= 5% rank gap, with
# sharing-off runs bit-identical to the pre-pool behaviour, and the
# warm-seeded DSE at least matching the cold search at an equal budget
# — the BENCH_warm_start.json artifact gated by the committed bounds.
# The third test feeds the checker a doctored artifact whose warm-seeded
# DSE loses to the cold one; it must fail, which shows that the gate can
# fail.
add_test(NAME warm_start_bench_smoke
  COMMAND bench_warm_start --quick)
set_tests_properties(warm_start_bench_smoke PROPERTIES
  LABELS "bench;smoke"
  PASS_REGULAR_EXPRESSION "PASS: warm-started tenants"
  FAIL_REGULAR_EXPRESSION "FAIL:"
  ENVIRONMENT "SOCRATES_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench"
  FIXTURES_SETUP bench_warm_start_json
  TIMEOUT 600)
add_test(NAME warm_start_bench_baseline
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/warm_start.json
          ${CMAKE_BINARY_DIR}/bench/BENCH_warm_start.json)
set_tests_properties(warm_start_bench_baseline PROPERTIES
  LABELS "bench;smoke"
  FIXTURES_REQUIRED bench_warm_start_json)
add_test(NAME warm_start_bench_baseline_rejects_doctored
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/warm_start.json
          ${CMAKE_SOURCE_DIR}/bench/baselines/warm_start_doctored.json)
set_tests_properties(warm_start_bench_baseline_rejects_doctored PROPERTIES
  LABELS "bench;smoke"
  WILL_FAIL TRUE)

# The multi-tenant server pin (quick mode for CTest): clean / overload /
# chaos regimes, kill-and-resume exactness, BENCH_server.json artifact
# gated by machine-stable bounds.  The doctored tests feed the checker
# artifacts that each break one bound — the overload p99 ratio, and
# tenants that each read their own copy of the knowledge — and must
# fail, which shows that each gate can fail.
add_test(NAME server_bench_smoke
  COMMAND bench_server --quick)
set_tests_properties(server_bench_smoke PROPERTIES
  LABELS "bench;smoke"
  FAIL_REGULAR_EXPRESSION "FAIL:"
  ENVIRONMENT "SOCRATES_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench"
  FIXTURES_SETUP bench_server_json
  TIMEOUT 600)
add_test(NAME server_bench_baseline
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/server.json
          ${CMAKE_BINARY_DIR}/bench/BENCH_server.json)
set_tests_properties(server_bench_baseline PROPERTIES
  LABELS "bench;smoke"
  FIXTURES_REQUIRED bench_server_json)
add_test(NAME server_bench_baseline_rejects_doctored
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/server.json
          ${CMAKE_SOURCE_DIR}/bench/baselines/server_doctored.json)
set_tests_properties(server_bench_baseline_rejects_doctored PROPERTIES
  LABELS "bench;smoke"
  WILL_FAIL TRUE)
add_test(NAME server_bench_baseline_rejects_doctored_storage_blocks
  COMMAND bench_baseline_check
          ${CMAKE_SOURCE_DIR}/bench/baselines/server.json
          ${CMAKE_SOURCE_DIR}/bench/baselines/server_doctored_storage_blocks.json)
set_tests_properties(server_bench_baseline_rejects_doctored_storage_blocks PROPERTIES
  LABELS "bench;smoke"
  WILL_FAIL TRUE)
