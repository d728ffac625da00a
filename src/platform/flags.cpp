#include "platform/flags.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace socrates::platform {

const char* to_string(OptLevel level) {
  switch (level) {
    case OptLevel::kOs: return "Os";
    case OptLevel::kO1: return "O1";
    case OptLevel::kO2: return "O2";
    case OptLevel::kO3: return "O3";
  }
  return "?";
}

const char* flag_spelling(Flag flag) {
  switch (flag) {
    case Flag::kUnsafeMath: return "unsafe-math-optimizations";
    case Flag::kNoGuessBranchProb: return "no-guess-branch-probability";
    case Flag::kNoIvopts: return "no-ivopts";
    case Flag::kNoTreeLoopOptimize: return "no-tree-loop-optimize";
    case Flag::kNoInline: return "no-inline-functions";
    case Flag::kUnrollAllLoops: return "unroll-all-loops";
  }
  return "?";
}

FlagConfig::FlagConfig(OptLevel level, unsigned flag_bits)
    : level_(level), bits_(flag_bits) {
  SOCRATES_REQUIRE_MSG(flag_bits < (1u << kFlagCount), "flag bits out of range");
}

FlagConfig FlagConfig::with(Flag flag) const {
  FlagConfig out = *this;
  out.bits_ |= 1u << static_cast<std::size_t>(flag);
  return out;
}

FlagConfig FlagConfig::without(Flag flag) const {
  FlagConfig out = *this;
  out.bits_ &= ~(1u << static_cast<std::size_t>(flag));
  return out;
}

std::string FlagConfig::pragma_options() const {
  std::string out = to_string(level_);
  for (std::size_t i = 0; i < kFlagCount; ++i) {
    const auto flag = static_cast<Flag>(i);
    if (has(flag)) out += std::string(",") + flag_spelling(flag);
  }
  return out;
}

FlagConfig FlagConfig::parse(const std::string& options) {
  const auto parts = split(options, ',');
  SOCRATES_REQUIRE(!parts.empty());

  OptLevel level = OptLevel::kO2;
  const std::string level_text = trim(parts.front());
  if (level_text == "Os") level = OptLevel::kOs;
  else if (level_text == "O1") level = OptLevel::kO1;
  else if (level_text == "O2") level = OptLevel::kO2;
  else if (level_text == "O3") level = OptLevel::kO3;
  else SOCRATES_REQUIRE_MSG(false, "unknown optimization level '" << level_text << "'");

  FlagConfig out(level);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string name = trim(parts[i]);
    bool found = false;
    for (std::size_t f = 0; f < kFlagCount; ++f) {
      if (name == flag_spelling(static_cast<Flag>(f))) {
        out = out.with(static_cast<Flag>(f));
        found = true;
        break;
      }
    }
    // Accept the paper's abbreviated spellings ("no-inline").
    if (!found && name == "no-inline") {
      out = out.with(Flag::kNoInline);
      found = true;
    }
    SOCRATES_REQUIRE_MSG(found, "unknown flag '" << name << "'");
  }
  return out;
}

std::vector<NamedConfig> standard_levels() {
  return {
      {"Os", FlagConfig(OptLevel::kOs)},
      {"O1", FlagConfig(OptLevel::kO1)},
      {"O2", FlagConfig(OptLevel::kO2)},
      {"O3", FlagConfig(OptLevel::kO3)},
  };
}

std::vector<NamedConfig> paper_custom_configs() {
  const FlagConfig cf1 = FlagConfig(OptLevel::kO3)
                             .with(Flag::kNoGuessBranchProb)
                             .with(Flag::kNoIvopts)
                             .with(Flag::kNoTreeLoopOptimize)
                             .with(Flag::kNoInline);
  const FlagConfig cf2 =
      FlagConfig(OptLevel::kO2).with(Flag::kNoInline).with(Flag::kUnrollAllLoops);
  const FlagConfig cf3 = FlagConfig(OptLevel::kO2)
                             .with(Flag::kUnsafeMath)
                             .with(Flag::kNoIvopts)
                             .with(Flag::kNoTreeLoopOptimize)
                             .with(Flag::kUnrollAllLoops);
  const FlagConfig cf4 = FlagConfig(OptLevel::kO2).with(Flag::kNoInline);
  return {{"CF1", cf1}, {"CF2", cf2}, {"CF3", cf3}, {"CF4", cf4}};
}

std::vector<FlagConfig> cobayn_search_space() {
  std::vector<FlagConfig> out;
  out.reserve(2u << kFlagCount);
  for (const OptLevel level : {OptLevel::kO2, OptLevel::kO3}) {
    for (unsigned bits = 0; bits < (1u << kFlagCount); ++bits) {
      out.emplace_back(level, bits);
    }
  }
  return out;
}

}  // namespace socrates::platform
