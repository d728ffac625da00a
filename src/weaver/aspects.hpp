// The LARA aspect sources of the two strategies.
//
// In SOCRATES the strategies are written in LARA (an aspect-oriented
// DSL) and executed by the MANET weaver.  Our C++ strategies in
// strategies.cpp are the execution engine; the equivalent LARA sources
// are embedded here both as documentation of the weaving logic and as
// the denominator of Table I's Bloat metric:
//     Bloat = D-LOC / (logical LOC of the complete LARA strategy)
// i.e. how many lines of C are woven into the application per line of
// aspect code (the paper reports 265 strategy lines and an average
// Bloat of 4.10).
#pragma once

#include <cstddef>
#include <string>

namespace socrates::weaver {

/// LARA source of the Multiversioning strategy.
const std::string& multiversioning_aspect();

/// LARA source of the Autotuner strategy.
const std::string& autotuner_aspect();

/// Logical lines of code of a LARA source: non-blank lines that are not
/// pure comments ("//" or block comments) and not lone braces/end.
std::size_t lara_logical_loc(const std::string& source);

/// Total logical LOC of the complete strategy (both aspects) — the
/// Bloat denominator.  Counted once, on the first call.
std::size_t strategy_logical_loc();

}  // namespace socrates::weaver
