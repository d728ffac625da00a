// Synchronous reference for the sharded server's decisions (test-only).
//
// server::Server applies feedback on shard threads, re-decides on the
// write path and serves decide_batch/decide_shard from a published
// decision.  This header restates the same semantics in the most direct
// form: one margot::Asrtm per tenant, every call applied at once on the
// caller's thread, and an in-memory journal of every learned-state
// event.  A restart rebuilds a tenant from its knowledge base and
// configure functor and replays that journal, which is what the
// server's checkpoint recovery does when group_commit = 1 (no buffered
// batch to lose): learned corrections survive, and requirements set
// since registration (goal updates, a rank set through with_tenant) do
// not.  server_test drives both with one seeded trace and asserts that
// they decide and correct bit-identically.
//
// ReferenceAdmission restates the server's ingress admission the same
// way: every call takes the locked path, reading the clock once and
// checking the breaker, then validity, then the bucket (and, for a goal
// update, the flap window).  The server skips the lock and the clock
// when those checks cannot refuse; server_test asserts on seeded traces
// that it still admits exactly what this model admits.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "margot/asrtm.hpp"
#include "margot/operating_point.hpp"
#include "server/circuit_breaker.hpp"
#include "server/server.hpp"
#include "server/token_bucket.hpp"

namespace socrates::server::reference {

class ReferenceServer {
 public:
  using Configure = std::function<void(margot::Asrtm&)>;

  /// Registers a tenant; handles are dense and in registration order,
  /// as the server's are.
  std::size_t add_tenant(margot::KnowledgeBase knowledge, Configure configure) {
    auto tenant = std::make_unique<Tenant>(std::move(knowledge), std::move(configure));
    build(*tenant);
    tenants_.push_back(std::move(tenant));
    return tenants_.size() - 1;
  }

  /// Applies one observation at once.  Pass only what the server's
  /// ingress accepts; the AS-RTM may still reject it (a ratio that
  /// overflows), exactly as on a shard.
  void submit_feedback(std::size_t handle, std::size_t op, std::size_t metric,
                       double observed) {
    tenants_[handle]->asrtm->send_feedback(op, metric, observed);
  }

  void update_goal(std::size_t handle, std::size_t constraint, double goal) {
    tenants_[handle]->asrtm->set_constraint_goal(constraint, goal);
  }

  void with_tenant(std::size_t handle, const std::function<void(margot::Asrtm&)>& fn) {
    fn(*tenants_[handle]->asrtm);
  }

  /// What a shard restart does to one of its tenants.
  void restart(std::size_t handle) { build(*tenants_[handle]); }

  const margot::Asrtm& asrtm(std::size_t handle) const { return *tenants_[handle]->asrtm; }

 private:
  struct Tenant {
    Tenant(margot::KnowledgeBase kb, Configure fn)
        : knowledge(std::move(kb)), configure(std::move(fn)) {}
    margot::KnowledgeBase knowledge;
    Configure configure;
    std::vector<margot::RuntimeEvent> journal;  ///< every learned-state event
    std::unique_ptr<margot::Asrtm> asrtm;
  };

  static void build(Tenant& tenant) {
    auto asrtm = std::make_unique<margot::Asrtm>(tenant.knowledge);
    if (tenant.configure) tenant.configure(*asrtm);
    for (const margot::RuntimeEvent& event : tenant.journal) asrtm->replay(event);
    // Tenants live behind unique_ptr, so the captured reference stays
    // valid as tenants_ grows.
    asrtm->set_event_sink(
        [&tenant](const margot::RuntimeEvent& event) { tenant.journal.push_back(event); });
    tenant.asrtm = std::move(asrtm);
  }

  std::vector<std::unique_ptr<Tenant>> tenants_;
};

class ReferenceAdmission {
 public:
  /// The Server::Stats fields that admission decides.
  struct Counts {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rate_limited = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t invalid = 0;
    std::uint64_t breaker_trips = 0;
  };

  ReferenceAdmission(ServerOptions options, std::function<double()> now)
      : options_(std::move(options)), now_(std::move(now)) {}

  /// Handles are dense and in registration order, as the server's are.
  std::size_t add_tenant(std::size_t ops, std::size_t metrics) {
    auto tenant = std::make_unique<Tenant>(options_);
    tenant->ops = ops;
    tenant->metrics = metrics;
    tenants_.push_back(std::move(tenant));
    return tenants_.size() - 1;
  }

  /// Admission of one submit_feedback under a ring that never sheds.
  Admission submit_feedback(std::size_t handle, std::size_t op, std::size_t metric,
                            double observed) {
    Tenant& tenant = *tenants_[handle];
    ++counts_.submitted;
    const double now = now_();
    if (!tenant.breaker.allow(now)) {
      ++counts_.quarantined;
      return Admission::kQuarantined;
    }
    if (op >= tenant.ops || metric >= tenant.metrics || !std::isfinite(observed) ||
        observed <= 0.0) {
      tenant.breaker.record_error(now);
      ++counts_.invalid;
      return Admission::kInvalid;
    }
    if (!tenant.bucket.admit(now)) {
      ++counts_.rate_limited;
      return Admission::kRateLimited;
    }
    tenant.breaker.record_ok(now);
    ++counts_.accepted;
    return Admission::kAccepted;
  }

  Admission update_goal(std::size_t handle) {
    Tenant& tenant = *tenants_[handle];
    const double now = now_();
    if (!tenant.breaker.allow(now)) {
      ++counts_.quarantined;
      return Admission::kQuarantined;
    }
    if (now - tenant.goal_window_start_s >= options_.goal_window_s) {
      tenant.goal_window_start_s = now;
      tenant.goal_updates_in_window = 0;
    }
    if (++tenant.goal_updates_in_window > options_.goal_update_threshold) {
      tenant.breaker.record_error(now);
      return Admission::kInvalid;
    }
    tenant.breaker.record_ok(now);
    return Admission::kAccepted;
  }

  Counts counts() const {
    Counts out = counts_;
    for (const auto& tenant : tenants_) out.breaker_trips += tenant->breaker.trips();
    return out;
  }

 private:
  struct Tenant {
    explicit Tenant(const ServerOptions& options)
        : bucket(options.rate_limit_per_s > 0.0
                     ? TokenBucket(options.rate_limit_per_s, options.rate_burst)
                     : TokenBucket()),
          breaker(options.breaker) {}
    std::size_t ops = 0;
    std::size_t metrics = 0;
    TokenBucket bucket;
    CircuitBreaker breaker;
    double goal_window_start_s = 0.0;
    std::size_t goal_updates_in_window = 0;
  };

  ServerOptions options_;
  std::function<double()> now_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  Counts counts_;
};

}  // namespace socrates::server::reference
