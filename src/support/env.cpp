#include "support/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>

#include "support/log.hpp"
#include "support/number.hpp"

namespace socrates::env {

namespace {

std::mutex g_warned_mu;
std::set<std::string>& warned_set() {
  static std::set<std::string> kWarned;
  return kWarned;
}

/// True the first time `name` warns in this process.
bool first_warning(const char* name) {
  std::lock_guard<std::mutex> lock(g_warned_mu);
  return warned_set().insert(name).second;
}

void warn_once(const char* name, const std::string& value, const std::string& why,
               std::size_t used) {
  if (!first_warning(name)) return;
  log_warn() << name << "='" << value << "' " << why << "; using " << used;
}

void warn_once_real(const char* name, const std::string& value, const std::string& why,
                    double used) {
  if (!first_warning(name)) return;
  log_warn() << name << "='" << value << "' " << why << "; using " << used;
}

}  // namespace

std::optional<std::string> raw(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

std::size_t parse_size(const char* name, const std::string& value,
                       std::size_t fallback, std::size_t lo, std::size_t hi) {
  if (value.empty()) return fallback;
  const char* text = value.c_str();
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    warn_once(name, value, "is not a number", fallback);
    return fallback;
  }
  if (parsed < 0 || static_cast<unsigned long long>(parsed) < lo) {
    warn_once(name, value, "is below the minimum", lo);
    return lo;
  }
  if (errno == ERANGE || static_cast<unsigned long long>(parsed) > hi) {
    warn_once(name, value, "exceeds the maximum", hi);
    return hi;
  }
  return static_cast<std::size_t>(parsed);
}

std::size_t size_or(const char* name, std::size_t fallback, std::size_t lo,
                    std::size_t hi) {
  const auto value = raw(name);
  if (!value) return fallback;
  return parse_size(name, *value, fallback, lo, hi);
}

double parse_real(const char* name, const std::string& value, double fallback,
                  double lo, double hi) {
  if (value.empty()) return fallback;
  // Strict locale-independent grammar, not strtod: under a
  // comma-decimal locale strtod reads "0.25" as 0, silently changing
  // every real-valued knob.
  const auto strict = parse_strict_double(value);
  if (!strict || !std::isfinite(*strict)) {
    warn_once_real(name, value, "is not a finite number", fallback);
    return fallback;
  }
  const double parsed = *strict;
  if (parsed < lo) {
    warn_once_real(name, value, "is below the minimum", lo);
    return lo;
  }
  if (parsed > hi) {
    warn_once_real(name, value, "exceeds the maximum", hi);
    return hi;
  }
  return parsed;
}

double real_or(const char* name, double fallback, double lo, double hi) {
  const auto value = raw(name);
  if (!value) return fallback;
  return parse_real(name, *value, fallback, lo, hi);
}

std::string string_or(const char* name, std::string fallback) {
  const auto value = raw(name);
  return value ? *value : std::move(fallback);
}

std::string parse_choice(const char* name, const std::string& value,
                         const std::string& fallback,
                         const std::vector<std::string>& choices) {
  if (value.empty()) return fallback;
  for (const auto& choice : choices)
    if (value == choice) return choice;
  if (first_warning(name)) {
    std::string allowed;
    for (const auto& choice : choices) {
      if (!allowed.empty()) allowed += '/';
      allowed += choice;
    }
    log_warn() << name << "='" << value << "' is not one of " << allowed
               << "; using " << fallback;
  }
  return fallback;
}

std::string choice_or(const char* name, const std::string& fallback,
                      const std::vector<std::string>& choices) {
  const auto value = raw(name);
  if (!value) return fallback;
  return parse_choice(name, *value, fallback, choices);
}

bool flag(const char* name) {
  const auto value = raw(name);
  return value && !value->empty() && *value != "0";
}

bool flag_or(const char* name, bool fallback) {
  const auto value = raw(name);
  if (!value || value->empty()) return fallback;
  return *value != "0";
}

void reset_warnings() {
  std::lock_guard<std::mutex> lock(g_warned_mu);
  warned_set().clear();
}

}  // namespace socrates::env
