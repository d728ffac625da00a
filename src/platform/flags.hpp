// Compiler-option knob space (the paper's CO knob).
//
// The space matches Section II of the paper: the four GCC standard
// levels -Os/-O1/-O2/-O3 plus the six specific transformation flags
// taken from Chen et al. ("Deconstructing iterative optimization"):
//   -funsafe-math-optimizations  -fno-guess-branch-probability
//   -fno-ivopts                  -fno-tree-loop-optimize
//   -fno-inline-functions        -funroll-all-loops
// COBAYN explores the 128-point space {O2,O3} x 2^6 (the size quoted
// in the paper) and reduces it to four custom configurations CF1-CF4.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace socrates::platform {

enum class OptLevel { kOs, kO1, kO2, kO3 };

const char* to_string(OptLevel level);

/// The six boolean transformation flags, bit positions in FlagConfig.
enum class Flag : std::size_t {
  kUnsafeMath = 0,         ///< -funsafe-math-optimizations
  kNoGuessBranchProb = 1,  ///< -fno-guess-branch-probability
  kNoIvopts = 2,           ///< -fno-ivopts
  kNoTreeLoopOptimize = 3, ///< -fno-tree-loop-optimize
  kNoInline = 4,           ///< -fno-inline-functions
  kUnrollAllLoops = 5,     ///< -funroll-all-loops
};

inline constexpr std::size_t kFlagCount = 6;

/// Spelling used inside "#pragma GCC optimize(...)" strings.
const char* flag_spelling(Flag flag);

/// One point of the compiler-option space.
class FlagConfig {
 public:
  FlagConfig() = default;
  explicit FlagConfig(OptLevel level, unsigned flag_bits = 0);

  OptLevel level() const { return level_; }
  bool has(Flag flag) const { return (bits_ & (1u << static_cast<std::size_t>(flag))) != 0; }
  unsigned flag_bits() const { return bits_; }

  FlagConfig with(Flag flag) const;
  FlagConfig without(Flag flag) const;

  /// Comma-separated option string as it appears in the GCC pragma,
  /// e.g. "O2,no-inline-functions,unroll-all-loops".
  std::string pragma_options() const;

  /// Parses the pragma_options() format back.  Throws on unknown names.
  static FlagConfig parse(const std::string& options);

  bool operator==(const FlagConfig& other) const = default;

 private:
  OptLevel level_ = OptLevel::kO2;
  unsigned bits_ = 0;
};

/// Named configuration (a row of the reduced design space).
struct NamedConfig {
  std::string name;  ///< "O3", "CF1", ...
  FlagConfig config;
};

/// The four GCC standard levels, named "Os","O1","O2","O3".
std::vector<NamedConfig> standard_levels();

/// The paper's COBAYN-suggested configurations (Section III):
///   CF1: O3, no-guess-branch-probability, no-ivopts,
///        no-tree-loop-optimize, no-inline
///   CF2: O2, no-inline, unroll-all-loops
///   CF3: O2, unsafe-math-optimizations, no-ivopts,
///        no-tree-loop-optimize, unroll-all-loops
///   CF4: O2, no-inline
std::vector<NamedConfig> paper_custom_configs();

/// The full iterative-compilation space COBAYN searches: {O2, O3} x
/// all 64 subsets of the six flags = 128 configurations.
std::vector<FlagConfig> cobayn_search_space();

}  // namespace socrates::platform
