// Per-tenant circuit breaker.
//
// A tenant that misbehaves — floods non-finite feedback, flaps its
// goals hundreds of times a second — burns shard CPU on work the
// AS-RTM will reject or churn on.  The breaker quarantines such a
// tenant with classic closed → open → half-open semantics:
//
//   closed     requests pass; errors inside a sliding window are
//              counted, and `error_threshold` of them trip the breaker.
//   open       every request is rejected for a cooldown that grows
//              exponentially (base_cooldown * 2^consecutive_trips,
//              capped at max_cooldown) — the same backoff discipline as
//              the AS-RTM's variant quarantine and the supervisor's
//              retry schedule.
//   half-open  after the cooldown a probe trickle is admitted:
//              `probe_quota` consecutive successes close the breaker
//              (and reset the backoff); a single error re-opens it with
//              a doubled cooldown.
//
// Time is injected (seconds, caller's clock), so tests drive the state
// machine deterministically; there is no internal clock and no thread.
// The caller serializes every call that may transition (the server
// holds the tenant's ingress mutex).  The state itself is a relaxed
// atomic that only those transitions write, so state() may be read
// without the lock: the server's ingress admits a closed tenant's
// well-formed feedback on that one load.
#pragma once

#include <atomic>
#include <cstddef>

namespace socrates::server {

class CircuitBreaker {
 public:
  struct Options {
    std::size_t error_threshold = 32;  ///< errors in window to trip
    double window_s = 1.0;             ///< sliding error-count window
    double base_cooldown_s = 0.25;     ///< first open cooldown
    double max_cooldown_s = 8.0;       ///< backoff ceiling
    std::size_t probe_quota = 4;       ///< half-open successes to close
  };

  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() = default;
  explicit CircuitBreaker(Options options) : options_(options) {}
  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  const Options& options() const { return options_; }

  /// True when a request may pass at `now_s`.  Drives the
  /// open → half-open transition when the cooldown has elapsed.
  bool allow(double now_s);

  /// Records a misbehaviour observation (non-finite feedback, goal
  /// flood).  May trip closed → open or re-open a half-open breaker.
  void record_error(double now_s);

  /// Records a healthy, accepted request.  In half-open, counts toward
  /// the probe quota that closes the breaker.
  void record_ok(double now_s);

  /// Trips the breaker immediately, regardless of the error window —
  /// used when the server itself decides a tenant must be quarantined
  /// (an exception escaped its AS-RTM, a rebuild failed).  No-op when
  /// already open.
  void force_open(double now_s);

  /// Safe without the caller's lock; a reader racing a transition sees
  /// the state before or after it.
  State state() const { return state_.load(std::memory_order_relaxed); }
  /// Lifetime closed/half-open → open transitions.
  std::size_t trips() const { return trips_; }
  double cooldown_s() const;

 private:
  void trip(double now_s);
  void set_state(State state) { state_.store(state, std::memory_order_relaxed); }

  Options options_;
  std::atomic<State> state_{State::kClosed};
  double window_start_s_ = 0.0;
  std::size_t window_errors_ = 0;
  double opened_at_s_ = 0.0;
  std::size_t consecutive_trips_ = 0;  ///< resets when the breaker closes
  std::size_t probe_successes_ = 0;
  std::size_t trips_ = 0;
};

const char* to_string(CircuitBreaker::State state);

}  // namespace socrates::server
