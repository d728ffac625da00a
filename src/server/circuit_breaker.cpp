#include "server/circuit_breaker.hpp"

#include <algorithm>

#include "observability/metrics.hpp"

namespace socrates::server {

const char* to_string(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed: return "closed";
    case CircuitBreaker::State::kOpen: return "open";
    case CircuitBreaker::State::kHalfOpen: return "half-open";
  }
  return "?";
}

double CircuitBreaker::cooldown_s() const {
  // Exponential backoff on consecutive trips, like the AS-RTM's
  // variant quarantine: 2^(trips-1) * base, capped.
  const std::size_t shift =
      std::min<std::size_t>(consecutive_trips_ > 0 ? consecutive_trips_ - 1 : 0, 32);
  const double cooldown =
      options_.base_cooldown_s * static_cast<double>(std::size_t{1} << shift);
  return std::min(cooldown, options_.max_cooldown_s);
}

void CircuitBreaker::trip(double now_s) {
  set_state(State::kOpen);
  opened_at_s_ = now_s;
  ++consecutive_trips_;
  ++trips_;
  window_errors_ = 0;
  probe_successes_ = 0;
  MetricsRegistry::global().counter("server.breaker_trips").add(1);
}

bool CircuitBreaker::allow(double now_s) {
  switch (state()) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_s - opened_at_s_ >= cooldown_s()) {
        set_state(State::kHalfOpen);
        probe_successes_ = 0;
        MetricsRegistry::global().counter("server.breaker_half_opens").add(1);
        return true;
      }
      return false;
    case State::kHalfOpen:
      return true;
  }
  return true;
}

void CircuitBreaker::record_error(double now_s) {
  if (state() == State::kHalfOpen) {
    // A probe failed: straight back to open with a doubled cooldown.
    trip(now_s);
    return;
  }
  if (state() == State::kOpen) return;  // already quarantined
  if (now_s - window_start_s_ >= options_.window_s) {
    window_start_s_ = now_s;
    window_errors_ = 0;
  }
  if (++window_errors_ >= options_.error_threshold) trip(now_s);
}

void CircuitBreaker::force_open(double now_s) {
  if (state() == State::kOpen) return;
  trip(now_s);
}

void CircuitBreaker::record_ok(double now_s) {
  (void)now_s;
  if (state() != State::kHalfOpen) return;
  if (++probe_successes_ >= options_.probe_quota) {
    set_state(State::kClosed);
    consecutive_trips_ = 0;  // healthy again: backoff resets
    window_errors_ = 0;
    MetricsRegistry::global().counter("server.breaker_closes").add(1);
  }
}

}  // namespace socrates::server
