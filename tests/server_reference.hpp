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
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "margot/asrtm.hpp"
#include "margot/operating_point.hpp"

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

}  // namespace socrates::server::reference
