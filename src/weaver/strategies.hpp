// The two LARA strategies of SOCRATES (Section II, Figure 2).
//
// Multiversioning: clones every kernel once per (compiler config,
// binding policy) pair, tagging each clone with "#pragma GCC optimize"
// and rewriting its OpenMP pragmas to the target proc_bind policy and
// to a runtime-controlled num_threads; generates a wrapper that
// dispatches on control variables; retargets every original call site
// to the wrapper.
//
// Autotuner: integrates mARGOt — inserts the header and the
// initialization call in main, and surrounds each wrapper call with
// margot_update / margot_start_monitors / margot_stop_monitors.
//
// Both strategies operate exclusively through the metered Weaver
// interface, so Table I's Att/Act counters reflect their real work.
#pragma once

#include <string>
#include <vector>

#include "ir/ast.hpp"
#include "platform/design_space.hpp"
#include "weaver/weaver.hpp"

namespace socrates::weaver {

/// One generated kernel version.
struct VersionInfo {
  int id = 0;                      ///< value of the version control variable
  std::string function_name;      ///< name of the clone
  std::string config_name;        ///< "O2", "CF1", ...
  platform::FlagConfig flags;
  platform::BindingPolicy binding = platform::BindingPolicy::kClose;
};

/// Everything later stages need to know about one multiversioned kernel.
struct MultiversionedKernel {
  std::string kernel_name;   ///< original function name
  std::string wrapper_name;  ///< dispatch function
  std::string version_var;   ///< control variable selecting the version
  std::string threads_var;   ///< control variable for num_threads
  std::vector<VersionInfo> versions;
};

/// Names of the control variables the strategies introduce — one pair
/// per kernel, so a multi-phase application tunes each phase
/// independently (e.g. "__margot_version_kernel_2mm").
std::string version_variable(const std::string& kernel_name);
std::string threads_variable(const std::string& kernel_name);

/// Applies Multiversioning to every "kernel_*" function of the unit,
/// one clone per entry of `clones` (num_threads stays dynamic, as in
/// the paper).  Version ids follow the list order —
/// platform::DesignSpace::clones() gives the full space or a pruned
/// representative set.  Returns one entry per kernel.
std::vector<MultiversionedKernel> apply_multiversioning(
    Weaver& weaver, const std::vector<platform::CloneSpec>& clones);

/// Applies the Autotuner strategy: margot.h include, margot_init() in
/// main, update/start/stop calls around every wrapper call site.
void apply_autotuner(Weaver& weaver, const std::vector<MultiversionedKernel>& kernels);

}  // namespace socrates::weaver
