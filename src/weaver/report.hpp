// End-to-end weaving of one benchmark + the Table I metrics row.
#pragma once

#include <string>
#include <vector>

#include "ir/ast.hpp"
#include "platform/design_space.hpp"
#include "weaver/strategies.hpp"

namespace socrates::weaver {

/// One row of Table I.
struct WeaveReport {
  std::string benchmark;
  std::size_t attributes = 0;    ///< Att
  std::size_t actions = 0;       ///< Act
  std::size_t original_loc = 0;  ///< O-LOC (logical)
  std::size_t weaved_loc = 0;    ///< W-LOC (logical)
  std::size_t strategy_loc = 0;  ///< LARA aspect logical LOC (Bloat denominator)

  std::size_t delta_loc() const { return weaved_loc - original_loc; }  ///< D-LOC
  double bloat() const {
    return static_cast<double>(delta_loc()) / static_cast<double>(strategy_loc);
  }
};

/// A fully woven benchmark: the adaptive source plus its metrics.
struct WovenBenchmark {
  ir::TranslationUnit unit;
  std::vector<MultiversionedKernel> kernels;
  WeaveReport report;
};

/// Weaves a clone of the parsed `unit` (which stays untouched):
/// applies Multiversioning over `clones` (e.g.
/// platform::DesignSpace::clones()) then Autotuner, and collects the
/// Table I metrics.
WovenBenchmark weave_benchmark(const std::string& name, const ir::TranslationUnit& unit,
                               const std::vector<platform::CloneSpec>& clones);

}  // namespace socrates::weaver
