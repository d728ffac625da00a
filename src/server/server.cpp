#include "server/server.hpp"

#include <cmath>
#include <filesystem>
#include <thread>

#include "cobayn/cobayn.hpp"
#include "observability/metrics.hpp"
#include "support/chaos.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace socrates::server {

namespace {

void sleep_s(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Supervisor-style exponential backoff between restarts of one shard.
double restart_backoff_s(const ServerOptions& options, std::uint64_t restarts) {
  if (options.restart_backoff_base_s <= 0.0) return 0.0;
  const std::uint64_t shift = restarts < 16 ? restarts : 16;
  const double backoff =
      options.restart_backoff_base_s * static_cast<double>(std::uint64_t{1} << shift);
  return backoff < options.restart_backoff_max_s ? backoff
                                                 : options.restart_backoff_max_s;
}

/// Tenant names become checkpoint file names; anything exotic maps to '_'.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

const char* to_string(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kDropOldest: return "drop-oldest";
    case BackpressurePolicy::kReject: return "reject";
  }
  return "?";
}

const char* to_string(Admission admission) {
  switch (admission) {
    case Admission::kAccepted: return "accepted";
    case Admission::kShed: return "shed";
    case Admission::kRateLimited: return "rate-limited";
    case Admission::kQuarantined: return "quarantined";
    case Admission::kInvalid: return "invalid";
  }
  return "?";
}

ServerOptions ServerOptions::from_env() {
  ServerOptions o;
  o.shards = env::size_or("SOCRATES_SERVER_SHARDS", o.shards, 1, 64);
  o.ring_capacity = env::size_or("SOCRATES_SERVER_RING", o.ring_capacity, 2, 1u << 20);
  o.batch_drain = env::size_or("SOCRATES_SERVER_BATCH", o.batch_drain, 1, 1u << 16);
  o.max_tenants = env::size_or("SOCRATES_SERVER_MAX_TENANTS", o.max_tenants, 1, 1u << 20);
  o.checkpoint.group_commit =
      env::size_or("SOCRATES_SERVER_GROUP_COMMIT", o.checkpoint.group_commit, 1, 1u << 16);
  o.checkpoint.journal_capacity = env::size_or("SOCRATES_SERVER_JOURNAL_CAP",
                                               o.checkpoint.journal_capacity, 1, 1u << 24);
  const std::string policy = env::choice_or(
      "SOCRATES_SERVER_POLICY", "block", {"block", "drop-oldest", "reject"});
  if (policy == "drop-oldest") {
    o.policy = BackpressurePolicy::kDropOldest;
  } else if (policy == "reject") {
    o.policy = BackpressurePolicy::kReject;
  } else {
    o.policy = BackpressurePolicy::kBlock;
  }
  o.share_knowledge = env::flag_or("SOCRATES_SERVER_SHARE_KNOWLEDGE", o.share_knowledge);
  o.pool_distance_threshold = env::real_or("SOCRATES_SERVER_POOL_DISTANCE",
                                           o.pool_distance_threshold, 0.0, 10.0);
  o.pool_publish_after =
      env::size_or("SOCRATES_SERVER_POOL_PUBLISH", o.pool_publish_after, 1, 1u << 24);
  o.pool_max_representatives =
      env::size_or("SOCRATES_SERVER_POOL_REPS", o.pool_max_representatives, 1, 4096);
  o.pool_max_entries =
      env::size_or("SOCRATES_SERVER_POOL_ENTRIES", o.pool_max_entries, 1, 1u << 20);
  // Storage-resilience knobs ride the checkpoint layer's own env
  // (SOCRATES_CHECKPOINT_GENERATIONS / _FSYNC / _PROBE_MS) so embedded
  // and served AS-RTMs are governed by one setting.
  o.checkpoint = margot::CheckpointStore::Options::from_env(o.checkpoint);
  return o;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), anchor_(std::chrono::steady_clock::now()) {
  SOCRATES_REQUIRE(options_.shards >= 1);
  SOCRATES_REQUIRE(options_.ring_capacity >= 2);
  SOCRATES_REQUIRE(options_.batch_drain >= 1);
  SOCRATES_REQUIRE(options_.max_tenants >= 1);
  SOCRATES_REQUIRE(options_.checkpoint.group_commit >= 1);
  // Fixed-size slot array: the hot path indexes it lock-free, gated
  // only on tenant_count_, and the array itself never reallocates or
  // mutates once a slot is published.
  tenants_ = std::make_unique<std::unique_ptr<Tenant>[]>(options_.max_tenants);
  if (!options_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
    if (ec) {
      log_warn() << "server: cannot create checkpoint dir " << options_.checkpoint_dir
                 << ": " << ec.message() << " — persistence disabled";
      options_.checkpoint_dir.clear();
    }
  }
  if (options_.share_knowledge) {
    KnowledgePool::Options popts;
    popts.distance_threshold = options_.pool_distance_threshold;
    popts.max_entries = options_.pool_max_entries;
    popts.max_representatives = options_.pool_max_representatives;
    popts.generations = options_.checkpoint.generations;
    // The pool persists next to the tenant checkpoints (memory-only
    // when persistence is off) and shares their generation policy.
    if (!options_.checkpoint_dir.empty())
      popts.path = options_.checkpoint_dir + "/knowledge_pool.kp";
    pool_ = std::make_unique<KnowledgePool>(std::move(popts));
  }
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ring = std::make_unique<MpscRing<FeedbackEvent>>(options_.ring_capacity);
    shards_.push_back(std::move(shard));
  }
  for (std::size_t i = 0; i < options_.shards; ++i) start_shard(i);
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

Server::~Server() {
  shutdown_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& shard : shards_) {
    shard->stop.store(true, std::memory_order_release);
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Tenants (and their CheckpointStores) now destruct crash-equivalently:
  // no final snapshot, buffered group-commit batches dropped.
}

double Server::steady_now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - anchor_)
      .count();
}

double Server::now_s() const { return now_ ? now_() : steady_now_s(); }

void Server::set_time_source(std::function<double()> now) { now_ = std::move(now); }

std::string Server::checkpoint_path(const std::string& name) const {
  return options_.checkpoint_dir + "/" + sanitize(name) + ".ckpt";
}

void Server::publish_decision(Tenant& tenant, const margot::Asrtm& asrtm) {
  static Counter& published_c =
      MetricsRegistry::global().counter("server.decisions_published");
  tenant.pub_best.store(asrtm.find_best_operating_point(), std::memory_order_release);
  published_c.add(1);
}

template <typename Fn>
void Server::mutate(Tenant& tenant, Fn&& fn) {
  const std::uint64_t epoch = tenant.asrtm->decision_epoch();
  try {
    fn();
  } catch (...) {
    if (tenant.asrtm->decision_epoch() != epoch) publish_decision(tenant, *tenant.asrtm);
    throw;
  }
  if (tenant.asrtm->decision_epoch() != epoch) publish_decision(tenant, *tenant.asrtm);
}

void Server::build_tenant_runtime(Tenant& tenant) {
  // Build the replacement runtime off to the side first: a throwing
  // Asrtm constructor or tenant configure functor must leave the live
  // runtime untouched so the caller can quarantine instead of crash.
  auto asrtm = std::make_unique<margot::Asrtm>(tenant.knowledge);
  if (tenant.configure) tenant.configure(*asrtm);
  // Commit point.  Order matters: the old store holds a pointer into
  // the old AS-RTM as its event sink (and the journal file open), so it
  // dies first; only then may the new store replay that journal into
  // the new AS-RTM.  The old store's buffered batch is dropped,
  // crash-equivalently.
  tenant.store.reset();
  if (!options_.checkpoint_dir.empty()) {
    auto store = std::make_unique<margot::CheckpointStore>(
        checkpoint_path(tenant.name), options_.checkpoint);
    store->attach(*asrtm);
    tenant.store = std::move(store);
  }
  // The new runtime's epoch says nothing about the old one's, so a
  // build always decides, before the swap.
  publish_decision(tenant, *asrtm);
  tenant.asrtm = std::move(asrtm);
}

bool Server::register_tenant(const std::string& name, margot::KnowledgeBase knowledge,
                             std::function<void(margot::Asrtm&)> configure,
                             TenantHandle* out_handle) {
  const CreateResult result =
      create_tenant(name, std::move(knowledge), std::move(configure), {});
  if (result.created && out_handle != nullptr) *out_handle = result.handle;
  return result.created;
}

std::size_t Server::seed_knowledge(margot::KnowledgeBase& knowledge,
                                   const margot::KnowledgeBase& donor) {
  // Transfer requires an identical schema: knob/metric name lists must
  // match exactly, or a donor metric would land in the wrong column.
  if (knowledge.knob_names() != donor.knob_names() ||
      knowledge.metric_names() != donor.metric_names())
    return 0;
  // Rebuild rather than patch in place: a donor point whose knob
  // configuration exists in the design-time KB replaces that point's
  // metrics (the donor's are feedback-corrected measurements, the
  // tenant's are design-time estimates); unseen configurations append.
  margot::KnowledgeBase seeded(knowledge.knob_names(), knowledge.metric_names());
  std::size_t merged = 0;
  for (std::size_t i = 0; i < knowledge.size(); ++i) {
    margot::OperatingPoint op = knowledge[i];
    if (const auto hit = donor.find(op.knobs)) {
      op = donor[*hit];
      ++merged;
    }
    seeded.add(std::move(op));
  }
  for (std::size_t i = 0; i < donor.size(); ++i) {
    margot::OperatingPoint op = donor[i];
    if (!knowledge.find(op.knobs)) {
      seeded.add(std::move(op));
      ++merged;
    }
  }
  knowledge = std::move(seeded);
  return merged;
}

CreateResult Server::create_tenant(const std::string& name,
                                   margot::KnowledgeBase knowledge,
                                   std::function<void(margot::Asrtm&)> configure,
                                   const TenantProfile& profile) {
  SOCRATES_REQUIRE(!knowledge.empty());
  CreateResult result;
  std::lock_guard<std::mutex> lock(registration_mu_);
  const std::size_t slot = tenant_count_.load(std::memory_order_relaxed);
  if (slot >= options_.max_tenants) {
    MetricsRegistry::global().counter("server.tenants_rejected").add(1);
    return result;
  }
  // Probe the pool before the AS-RTM is built so a warm start seeds the
  // knowledge the runtime is constructed from.
  if (pool_ && profile.features) {
    if (const auto match = pool_->lookup(*profile.features)) {
      const std::size_t seeded =
          seed_knowledge(knowledge, match->entry.representatives);
      if (seeded > 0) {
        result.warm_started = true;
        result.donor = match->entry.donor;
        result.pool_distance = match->distance;
        result.seeded_points = seeded;
        MetricsRegistry::global().counter("server.pool_seeded_points").add(seeded);
        // Warm DSE posterior: donor ⊕ own, weight-proportional.  A
        // donor posterior of a different size is a model-schema
        // mismatch — keep the tenant's own.
        if (profile.posterior.empty()) {
          result.warm_posterior = match->entry.posterior;
        } else if (match->entry.posterior.empty()) {
          result.warm_posterior = profile.posterior;
        } else if (profile.posterior.size() == match->entry.posterior.size()) {
          result.warm_posterior = cobayn::CobaynModel::merge_posterior(
              profile.posterior, profile.posterior_weight, match->entry.posterior,
              match->entry.posterior_weight);
        } else {
          MetricsRegistry::global().counter("server.pool_schema_mismatches").add(1);
          result.warm_posterior = profile.posterior;
        }
      } else {
        // Matched on features but the knob/metric schema differs: the
        // donor's points cannot be mapped — cold start.
        MetricsRegistry::global().counter("server.pool_schema_mismatches").add(1);
      }
    }
  }
  auto tenant = std::make_unique<Tenant>(
      std::move(knowledge),
      options_.rate_limit_per_s > 0.0
          ? TokenBucket(options_.rate_limit_per_s, options_.rate_burst)
          : TokenBucket(),
      options_.breaker);
  tenant->name = name;
  tenant->slot = static_cast<std::uint32_t>(slot);
  tenant->shard = tenant->slot % options_.shards;
  tenant->configure = std::move(configure);
  tenant->op_count = tenant->knowledge.size();
  tenant->metric_count = tenant->knowledge.metric_names().size();
  tenant->has_features = profile.features.has_value();
  if (profile.features) tenant->features = *profile.features;
  tenant->posterior = profile.posterior;
  tenant->posterior_weight = profile.posterior_weight;
  tenant->warm_started = result.warm_started;
  // Slot-boundary exception safety: the slot is occupied only between
  // the two statements below, and tenant_count_ is published last —
  // if the runtime build (AS-RTM ctor, configure functor, checkpoint
  // attach) throws, the catch releases the slot so the next
  // registration reuses it and the max_tenants cap never erodes.
  tenants_[slot] = std::move(tenant);
  try {
    build_tenant_runtime(*tenants_[slot]);
  } catch (const std::exception& e) {
    log_warn() << "server: tenant " << name << " rejected, runtime build failed: "
               << e.what();
    tenants_[slot].reset();
    MetricsRegistry::global().counter("server.tenants_rejected").add(1);
    result.warm_started = false;
    result.warm_posterior.clear();
    return result;
  }
  // Publish after the entry is fully built and its first decision
  // published: readers gate on tenant_count_.
  tenant_count_.store(slot + 1, std::memory_order_release);
  MetricsRegistry::global().gauge("server.tenants").set(
      static_cast<double>(slot + 1));
  if (result.warm_started) {
    warm_started_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter("server.warm_tenants").add(1);
  }
  result.created = true;
  result.handle = slot;
  return result;
}

std::size_t Server::shard_of(TenantHandle handle) const {
  SOCRATES_REQUIRE(handle < tenant_count());
  return tenants_[handle]->shard;
}

Admission Server::submit_feedback(TenantHandle handle, std::size_t op_index,
                                  std::size_t metric, double observed) {
  SOCRATES_REQUIRE(handle < tenant_count());
  Tenant& tenant = *tenants_[handle];
  submitted_.fetch_add(1, std::memory_order_relaxed);
  static Counter& quarantined_c = MetricsRegistry::global().counter("server.quarantined");
  static Counter& invalid_c = MetricsRegistry::global().counter("server.invalid_feedback");
  static Counter& limited_c = MetricsRegistry::global().counter("server.rate_limited");
  static Counter& accepted_c = MetricsRegistry::global().counter("server.accepted");
  static Counter& shed_c = MetricsRegistry::global().counter("server.shed");
  static Counter& locked_c = MetricsRegistry::global().counter("server.ingress_locked");

  const bool well_formed = op_index < tenant.op_count && metric < tenant.metric_count &&
                           std::isfinite(observed) && observed > 0.0;
  // Fast path: for a closed breaker and an unlimited bucket, allow()
  // and admit() return true and record_ok() does nothing, so a
  // well-formed event is admitted without the lock or the clock.  A
  // submit racing a trip may read the state before it and is admitted,
  // ordered before the trip.
  if (!well_formed || !tenant.bucket.unlimited() ||
      tenant.breaker.state() != CircuitBreaker::State::kClosed) {
    locked_c.add(1);
    const double now = now_s();
    std::lock_guard<std::mutex> lock(tenant.ingress_mu);
    if (!tenant.breaker.allow(now)) {
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      quarantined_c.add(1);
      return Admission::kQuarantined;
    }
    if (!well_formed) {
      // Malformed requests never reach the shard worker: an
      // out-of-range op/metric would trip Asrtm::send_feedback's
      // contract there (terminating the whole server from the worker
      // thread), and a non-finite value would be rejected after costing
      // ring space.  The ingress refuses both, and a flood of them
      // trips the breaker.
      tenant.breaker.record_error(now);
      invalid_.fetch_add(1, std::memory_order_relaxed);
      invalid_c.add(1);
      return Admission::kInvalid;
    }
    if (!tenant.bucket.admit(now)) {
      rate_limited_.fetch_add(1, std::memory_order_relaxed);
      limited_c.add(1);
      return Admission::kRateLimited;
    }
    tenant.breaker.record_ok(now);
  }

  FeedbackEvent event;
  event.slot = tenant.slot;
  event.metric = static_cast<std::uint32_t>(metric);
  event.op = static_cast<std::uint32_t>(op_index);
  event.value = observed;

  Shard& shard = *shards_[tenant.shard];
  std::size_t copies = 1;
  auto& chaos = ChaosEngine::global();
  if (chaos.enabled() && chaos.flood_ingest("server.ingest")) {
    // An injected flood amplifies this event; the extra copies are
    // harmless duplicates whose purpose is to exercise shedding.
    copies += static_cast<std::size_t>(chaos.spec().flood_burst);
  }

  bool accepted = false;
  for (std::size_t i = 0; i < copies; ++i) {
    const PushResult result =
        push_with_policy(*shard.ring, event, options_.policy, &shutdown_);
    if (result.shed > 0) {
      evicted_.fetch_add(result.shed, std::memory_order_relaxed);
      shed_.fetch_add(result.shed, std::memory_order_relaxed);
      shed_c.add(result.shed);
    }
    if (result.accepted) {
      accepted = true;
      accepted_c.add(1);
    } else if (options_.policy == BackpressurePolicy::kReject) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      shed_c.add(1);
    }
  }
  if (accepted) return Admission::kAccepted;
  // kReject with a full ring (or kBlock aborted by shutdown).
  return Admission::kShed;
}

std::size_t Server::decide(TenantHandle handle) {
  SOCRATES_REQUIRE(handle < tenant_count());
  Tenant& tenant = *tenants_[handle];
  static Counter& decisions_c = MetricsRegistry::global().counter("server.decisions");
  decisions_c.add(1);
  std::lock_guard<std::mutex> lock(tenant.mu);
  return tenant.asrtm->find_best_operating_point();
}

std::size_t Server::decide_batch(std::span<const TenantHandle> handles,
                                 std::span<std::size_t> out) {
  SOCRATES_REQUIRE_MSG(out.size() >= handles.size(),
                       "decide_batch output span holds "
                           << out.size() << " slots, need " << handles.size());
  const std::size_t count = tenant_count();
  static Counter& sweeps_c = MetricsRegistry::global().counter("server.batch_sweeps");
  static Counter& decisions_c =
      MetricsRegistry::global().counter("server.batch_decisions");
  static Counter& lockfree_c =
      MetricsRegistry::global().counter("server.batch_lockfree");
  for (std::size_t i = 0; i < handles.size(); ++i) {
    SOCRATES_REQUIRE(handles[i] < count);
    out[i] = tenants_[handles[i]]->pub_best.load(std::memory_order_acquire);
  }
  sweeps_c.add(1);
  decisions_c.add(handles.size());
  lockfree_c.add(handles.size());
  return handles.size();
}

std::size_t Server::decide_shard(std::size_t shard,
                                 std::span<TenantHandle> out_handles,
                                 std::span<std::size_t> out_best) {
  SOCRATES_REQUIRE(shard < options_.shards);
  const std::size_t count = tenant_count();
  static Counter& sweeps_c = MetricsRegistry::global().counter("server.batch_sweeps");
  static Counter& decisions_c =
      MetricsRegistry::global().counter("server.batch_decisions");
  static Counter& lockfree_c =
      MetricsRegistry::global().counter("server.batch_lockfree");
  std::size_t written = 0;
  for (std::size_t slot = 0; slot < count; ++slot) {
    Tenant& tenant = *tenants_[slot];
    if (tenant.shard != shard) continue;
    SOCRATES_REQUIRE_MSG(
        written < out_handles.size() && written < out_best.size(),
        "decide_shard output spans too small for shard " << shard);
    out_handles[written] = slot;
    out_best[written] = tenant.pub_best.load(std::memory_order_acquire);
    ++written;
  }
  sweeps_c.add(1);
  decisions_c.add(written);
  lockfree_c.add(written);
  return written;
}

Admission Server::update_goal(TenantHandle handle, std::size_t constraint_handle,
                              double goal) {
  SOCRATES_REQUIRE(handle < tenant_count());
  Tenant& tenant = *tenants_[handle];
  static Counter& floods_c = MetricsRegistry::global().counter("server.goal_floods");
  static Counter& quarantined_c = MetricsRegistry::global().counter("server.quarantined");
  const double now = now_s();
  {
    std::lock_guard<std::mutex> lock(tenant.ingress_mu);
    if (!tenant.breaker.allow(now)) {
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      quarantined_c.add(1);
      return Admission::kQuarantined;
    }
    if (now - tenant.goal_window_start_s >= options_.goal_window_s) {
      tenant.goal_window_start_s = now;
      tenant.goal_updates_in_window = 0;
    }
    if (++tenant.goal_updates_in_window > options_.goal_update_threshold) {
      // Goal flapping: every update past the threshold is a breaker
      // error, so a tenant rewriting its requirements hundreds of times
      // a second quarantines itself instead of thrashing the decision
      // cache for everyone on its shard.
      tenant.breaker.record_error(now);
      floods_c.add(1);
      return Admission::kInvalid;
    }
    tenant.breaker.record_ok(now);
  }
  std::lock_guard<std::mutex> lock(tenant.mu);
  // The re-decision consumes the goal's trigger note, so a decision
  // journal labels the switch with this update.
  mutate(tenant, [&] { tenant.asrtm->set_constraint_goal(constraint_handle, goal); });
  return Admission::kAccepted;
}

void Server::start_shard(std::size_t index) {
  Shard& shard = *shards_[index];
  shard.stop.store(false, std::memory_order_release);
  shard.worker = std::thread([this, index] { shard_worker(index); });
}

void Server::shard_worker(std::size_t index) {
  Shard& shard = *shards_[index];
  std::vector<FeedbackEvent> batch(options_.batch_drain);
  const std::string site = "server.shard" + std::to_string(index);
  auto& chaos = ChaosEngine::global();
  static Counter& drained_c = MetricsRegistry::global().counter("server.drained");
  static Counter& stalls_c = MetricsRegistry::global().counter("server.stalls_injected");

  while (!shard.stop.load(std::memory_order_acquire)) {
    shard.heartbeat.fetch_add(1, std::memory_order_relaxed);

    // Stall injection (test hook or chaos).  The stall is a bounded
    // sleep taken while holding NO tenant lock, so the watchdog can
    // always join this thread and recovery never deadlocks on a lock
    // the stalled worker holds.
    double stall = shard.injected_stall_s.exchange(0.0, std::memory_order_acq_rel);
    if (stall <= 0.0 && chaos.enabled() && chaos.stall_shard(site)) {
      stall = chaos.spec().stall_ms / 1000.0;
    }
    if (stall > 0.0) {
      stalls_c.add(1);
      sleep_s(stall);
    }

    const std::size_t n = shard.ring->pop_batch(batch.data(), batch.size());
    if (n == 0) {
      // Idle: a short sleep instead of a pure yield keeps N shard
      // workers from monopolizing a small core count while still
      // bumping the heartbeat ~tens of thousands of times a second.
      sleep_s(0.00005);
      continue;
    }
    // Apply events grouped by tenant: consecutive same-tenant events
    // share one lock acquisition (feedback arrives in per-tenant bursts,
    // so this collapses most locking on the drain path).
    std::size_t i = 0;
    while (i < n) {
      const std::uint32_t slot = batch[i].slot;
      std::size_t j = i;
      while (j < n && batch[j].slot == slot) ++j;
      Tenant& tenant = *tenants_[slot];
      std::size_t applied = 0;
      // Defense in depth: ingress validation should make a throwing
      // apply unreachable, but an exception escaping this thread body
      // would std::terminate the whole server — quarantine the one
      // tenant instead and keep draining everyone else's events.
      const auto quarantine = [&](const char* what) {
        log_warn() << "server: tenant " << tenant.name << " feedback apply failed ("
                   << what << ") — quarantined";
        MetricsRegistry::global().counter("server.apply_failures").add(1);
        std::lock_guard<std::mutex> ingress(tenant.ingress_mu);
        tenant.breaker.force_open(now_s());
      };
      try {
        // One re-decision per group that moved the epoch, made here on
        // the shard thread; a partial (quarantined) apply republishes
        // too.
        std::lock_guard<std::mutex> lock(tenant.mu);
        mutate(tenant, [&] {
          for (std::size_t k = i; k < j; ++k) {
            tenant.asrtm->send_feedback(batch[k].op, batch[k].metric, batch[k].value);
            ++applied;
          }
        });
      } catch (const std::exception& e) {
        quarantine(e.what());
      } catch (...) {
        quarantine("non-standard exception");
      }
      const std::uint64_t total =
          tenant.applied.fetch_add(applied, std::memory_order_relaxed) + applied;
      // Convergence donation: once enough feedback has been applied the
      // tenant's corrections are trustworthy — publish its knowledge to
      // the pool exactly once (checkpoint_all refreshes it later).  The
      // exchange makes the one-shot race-free against a concurrent
      // checkpoint_all.
      if (pool_ && tenant.has_features && total >= options_.pool_publish_after &&
          !tenant.pool_published.exchange(true, std::memory_order_relaxed)) {
        publish_to_pool(tenant);
      }
      i = j;
    }
    shard.drained.fetch_add(n, std::memory_order_relaxed);
    drained_c.add(n);
  }
}

void Server::publish_to_pool(Tenant& tenant) {
  if (!pool_ || !tenant.has_features) return;
  PoolEntry entry;
  entry.donor = tenant.name;
  entry.features = tenant.features;
  entry.posterior = tenant.posterior;
  entry.posterior_weight = tenant.posterior_weight;
  entry.feedback_updates = tenant.applied.load(std::memory_order_relaxed);
  // What transfers is the *corrected* knowledge: the design-time metric
  // columns scaled by the AS-RTM's learned per-metric correction (the
  // EWMA ratio of observed to predicted), i.e. the server's best
  // current estimate of what this kernel actually measures.
  margot::KnowledgeBase corrected(tenant.knowledge.knob_names(),
                                  tenant.knowledge.metric_names());
  {
    std::lock_guard<std::mutex> lock(tenant.mu);
    const std::size_t metrics = tenant.knowledge.metric_names().size();
    std::vector<double> factor(metrics, 1.0);
    for (std::size_t m = 0; m < metrics; ++m)
      factor[m] = tenant.asrtm->correction(m);
    for (std::size_t i = 0; i < tenant.knowledge.size(); ++i) {
      margot::OperatingPoint op = tenant.knowledge[i];
      for (std::size_t m = 0; m < metrics; ++m) {
        op.metrics[m].mean *= factor[m];
        op.metrics[m].stddev *= std::abs(factor[m]);
      }
      corrected.add(std::move(op));
    }
  }
  entry.representatives = std::move(corrected);
  pool_->publish(std::move(entry));
}

std::size_t Server::count_durability_degraded() const {
  const std::size_t count = tenant_count();
  std::size_t degraded = 0;
  for (std::size_t t = 0; t < count; ++t) {
    Tenant& tenant = *tenants_[t];
    std::lock_guard<std::mutex> lock(tenant.mu);
    if (tenant.store && tenant.store->degraded()) ++degraded;
  }
  return degraded;
}

void Server::watchdog_loop() {
  static Counter& restarts_c = MetricsRegistry::global().counter("server.shard_restarts");
  static Gauge& degraded_g =
      MetricsRegistry::global().gauge("server.durability_degraded_tenants");
  while (!shutdown_.load(std::memory_order_acquire)) {
    sleep_s(options_.watchdog_period_s);
    // Disk-health supervision: surface how many tenants are currently
    // riding in-memory degraded mode (each re-probes on its own
    // exponential backoff — the watchdog only reports).
    degraded_g.set(static_cast<double>(count_durability_degraded()));
    const double now = steady_now_s();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const std::uint64_t beat = shard.heartbeat.load(std::memory_order_relaxed);
      if (beat != shard.last_heartbeat_seen) {
        shard.last_heartbeat_seen = beat;
        shard.silent_since_s = now;
        continue;
      }
      if (now - shard.silent_since_s < options_.shard_stall_deadline_s) continue;
      log_warn() << "server: shard " << i << " heartbeat silent for "
                 << (now - shard.silent_since_s) << "s — restarting";
      restarts_c.add(1);
      restart_shard(i);
      shard.last_heartbeat_seen = shard.heartbeat.load(std::memory_order_relaxed);
      shard.silent_since_s = steady_now_s();
    }
  }
}

void Server::restart_shard(std::size_t index) {
  Shard& shard = *shards_[index];
  const double started = steady_now_s();
  shard.stop.store(true, std::memory_order_release);
  // Injected stalls are bounded sleeps, so the join always returns.
  if (shard.worker.joinable()) shard.worker.join();
  const std::uint64_t restarts = shard.restarts.fetch_add(1, std::memory_order_relaxed);
  sleep_s(restart_backoff_s(options_, restarts));

  // Rebuild every tenant on this shard from its checkpoint.  The old
  // store's buffered batch is dropped (crash-equivalent), which is
  // exactly the "at most one uncommitted batch" loss the overload
  // contract allows; everything committed replays.
  const std::size_t count = tenant_count();
  for (std::size_t t = 0; t < count; ++t) {
    Tenant& tenant = *tenants_[t];
    if (tenant.shard != index) continue;
    // A throwing rebuild (buggy configure functor, bad checkpoint I/O)
    // must not escape the watchdog thread and take the server down:
    // quarantine this tenant — it keeps its pre-restart runtime for
    // reads — and keep recovering the others.
    const auto quarantine = [&](const char* what) {
      log_warn() << "server: tenant " << tenant.name << " rebuild failed ("
                 << what << ") — quarantined";
      MetricsRegistry::global().counter("server.rebuild_failures").add(1);
      std::lock_guard<std::mutex> ingress(tenant.ingress_mu);
      tenant.breaker.force_open(now_s());
    };
    try {
      std::lock_guard<std::mutex> lock(tenant.mu);
      build_tenant_runtime(tenant);
    } catch (const std::exception& e) {
      quarantine(e.what());
    } catch (...) {
      quarantine("non-standard exception");
    }
  }
  start_shard(index);
  MetricsRegistry::global()
      .histogram("server.recovery_seconds")
      .observe(steady_now_s() - started);
}

std::uint64_t Server::accepted() const {
  std::uint64_t accepted = 0;
  for (const auto& shard : shards_) accepted += shard->ring->enqueued();
  return accepted;
}

bool Server::drain(double timeout_s) {
  const double deadline = steady_now_s() + timeout_s;
  while (true) {
    const std::uint64_t accepted = this->accepted();
    std::uint64_t drained = 0;
    bool empty = true;
    for (const auto& shard : shards_) {
      drained += shard->drained.load(std::memory_order_acquire);
      empty = empty && shard->ring->empty();
    }
    // Counting kReject refusals here would let drain() return while a
    // shard still holds popped but unapplied events.
    const std::uint64_t evicted = evicted_.load(std::memory_order_acquire);
    if (empty && drained + evicted >= accepted) return true;
    if (steady_now_s() >= deadline) return false;
    sleep_s(0.0001);
  }
}

void Server::checkpoint_all() {
  const std::size_t count = tenant_count();
  std::size_t degraded = 0;
  for (std::size_t t = 0; t < count; ++t) {
    Tenant& tenant = *tenants_[t];
    std::lock_guard<std::mutex> lock(tenant.mu);
    if (!tenant.store) continue;
    // A full disk (ENOSPC) or failing device must not turn the clean
    // shutdown point into a crash: checkpoint() absorbs write failures
    // into degraded mode, and any unexpected escape is contained to the
    // one tenant.
    try {
      tenant.store->checkpoint();
    } catch (const std::exception& e) {
      log_warn() << "server: tenant " << tenant.name
                 << " checkpoint failed (" << e.what() << ") — still serving";
      MetricsRegistry::global().counter("server.checkpoint_failures").add(1);
    }
    if (tenant.store->degraded()) ++degraded;
  }
  MetricsRegistry::global()
      .gauge("server.durability_degraded_tenants")
      .set(static_cast<double>(degraded));
  // Clean-shutdown point: every featured tenant donates its current
  // corrected knowledge (convergence threshold waived — whatever was
  // learned is worth persisting), then the pool snapshots next to the
  // tenant checkpoints.
  if (pool_) {
    for (std::size_t t = 0; t < count; ++t) {
      Tenant& tenant = *tenants_[t];
      if (!tenant.has_features) continue;
      tenant.pool_published.store(true, std::memory_order_relaxed);
      publish_to_pool(tenant);
    }
    pool_->save();
  }
}

Server::Stats Server::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted();
  s.shed = shed_.load(std::memory_order_relaxed);
  s.rate_limited = rate_limited_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.tenants = tenant_count();
  for (const auto& shard : shards_) {
    s.drained += shard->drained.load(std::memory_order_relaxed);
    s.shard_restarts += shard->restarts.load(std::memory_order_relaxed);
  }
  for (std::size_t t = 0; t < s.tenants; ++t) {
    std::lock_guard<std::mutex> lock(tenants_[t]->ingress_mu);
    s.breaker_trips += tenants_[t]->breaker.trips();
  }
  s.durability_degraded = count_durability_degraded();
  s.pool_entries = pool_ ? pool_->size() : 0;
  s.warm_started = warm_started_.load(std::memory_order_relaxed);
  return s;
}

Server::TenantStatus Server::tenant_status(TenantHandle handle) {
  SOCRATES_REQUIRE(handle < tenant_count());
  Tenant& tenant = *tenants_[handle];
  TenantStatus status;
  status.applied = tenant.applied.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(tenant.ingress_mu);
    status.breaker = tenant.breaker.state();
    status.breaker_trips = tenant.breaker.trips();
  }
  std::lock_guard<std::mutex> lock(tenant.mu);
  if (tenant.store) {
    status.buffered_events = tenant.store->buffered_events();
    status.journaled_events = tenant.store->journaled_events();
    status.snapshots = tenant.store->snapshots_written();
    const auto disk = tenant.store->disk_status();
    status.durability_degraded = disk.degraded;
    status.disk_io_errors = disk.io_errors;
    status.disk_recoveries = disk.recoveries;
    status.disk_events_dropped = disk.events_dropped;
    status.disk_last_error = disk.last_error;
  }
  return status;
}

void Server::with_tenant(TenantHandle handle,
                         const std::function<void(margot::Asrtm&)>& fn) {
  SOCRATES_REQUIRE(handle < tenant_count());
  SOCRATES_REQUIRE(fn != nullptr);
  Tenant& tenant = *tenants_[handle];
  std::lock_guard<std::mutex> lock(tenant.mu);
  mutate(tenant, [&] { fn(*tenant.asrtm); });
}

void Server::inject_stall(std::size_t shard, double seconds) {
  SOCRATES_REQUIRE(shard < shards_.size());
  SOCRATES_REQUIRE(seconds >= 0.0);
  shards_[shard]->injected_stall_s.store(seconds, std::memory_order_release);
}

}  // namespace socrates::server
