// Overload-safe multi-tenant AS-RTM server.
//
// SOCRATES as a *service*: many applications (tenants) share one
// autotuning runtime instead of linking their own.  Each tenant brings
// a design-time knowledge base and its requirements; the server owns a
// margot::Asrtm per tenant, shards tenants across supervised worker
// threads, and keeps the two runtime paths of the paper's MAPE-K loop
// fast and safe under overload:
//
//   feedback (write) — submit_feedback() is admission-controlled
//       (token bucket, circuit breaker), then enqueued on the owning
//       shard's bounded lock-free ring (server/mpsc_ring.hpp) under the
//       configured backpressure policy.  The shard worker batch-drains
//       the ring and applies events to the AS-RTM, where group-commit
//       checkpointing (margot/checkpoint.hpp) journals them.
//
//   decision (read) — every writer of a tenant's AS-RTM re-decides
//       under the tenant lock whenever the decision epoch moved and
//       publishes the result, so decide_batch/decide_shard serve each
//       tenant with one lock-free load.  decide() takes the lock and
//       asks the AS-RTM, which answers from its O(1) epoch cache.
//
// Robustness mechanisms (contract in docs/SERVER.md):
//   - per-tenant TokenBucket rate limiting and a max_tenants admission
//     cap: a noisy tenant is rejected at the door;
//   - per-tenant CircuitBreaker: non-finite feedback and goal-flapping
//     trip it, quarantining the tenant with exponential-backoff
//     half-open probing;
//   - a watchdog thread monitors per-shard heartbeats; a stalled shard
//     (chaos-injected or real) is restarted with supervisor backoff and
//     its tenants are rebuilt from their checkpoints;
//   - destruction is crash-equivalent (no final snapshot): a new server
//     pointed at the same checkpoint directory recovers every tenant,
//     losing at most one uncommitted journal batch each.
//
// Observability: every path bumps `server.*` metrics in the PR 3
// registry; docs/OBSERVABILITY.md lists them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "features/features.hpp"
#include "margot/asrtm.hpp"
#include "margot/checkpoint.hpp"
#include "margot/operating_point.hpp"
#include "server/circuit_breaker.hpp"
#include "server/knowledge_pool.hpp"
#include "server/mpsc_ring.hpp"
#include "server/token_bucket.hpp"

namespace socrates::server {

struct ServerOptions {
  std::size_t shards = 2;            ///< worker threads / rings, >= 1
  std::size_t ring_capacity = 4096;  ///< per-shard ring slots (rounded to 2^k)
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  std::size_t batch_drain = 128;     ///< max events a worker drains per wakeup
  std::size_t max_tenants = 1024;    ///< admission cap; registration beyond it fails

  // Per-tenant ingress contract.
  double rate_limit_per_s = 0.0;     ///< token-bucket refill; 0 = unlimited
  double rate_burst = 256.0;         ///< token-bucket ceiling
  CircuitBreaker::Options breaker;   ///< quarantine policy
  std::size_t goal_update_threshold = 64;  ///< goal updates per window before
                                           ///< flapping counts as breaker errors
  double goal_window_s = 1.0;

  // Shard supervision.
  double shard_stall_deadline_s = 0.5;  ///< heartbeat silence that counts as a stall
  double watchdog_period_s = 0.05;
  double restart_backoff_base_s = 0.01; ///< supervisor-style backoff between restarts
  double restart_backoff_max_s = 0.5;

  // Crash safety ("" disables persistence).
  std::string checkpoint_dir;
  /// Every tenant's CheckpointStore options (margot/checkpoint.hpp):
  /// snapshot cadence, group commit, generations, fsync, degraded-mode
  /// re-probe backoff and journal quota.  The server batches harder
  /// than an embedded store: 4096 events between automatic snapshots
  /// and 64 journal lines per write+flush.  `generations` also sets the
  /// knowledge pool's generation count.
  margot::CheckpointStore::Options checkpoint{.journal_capacity = 4096,
                                              .group_commit = 64};

  // Cross-tenant knowledge sharing (server/knowledge_pool.hpp;
  // docs/SERVER.md, "Cross-tenant knowledge sharing").  When enabled, a
  // tenant registered through create_tenant() with a feature vector is
  // warm-started from the nearest converged donor within
  // pool_distance_threshold, and publishes its own corrected knowledge
  // back once pool_publish_after feedback events have been applied.
  bool share_knowledge = true;
  double pool_distance_threshold = 0.25;    ///< normalized feature distance
  std::size_t pool_publish_after = 64;      ///< applied events before a tenant donates
  std::size_t pool_max_representatives = 16;
  std::size_t pool_max_entries = 256;

  /// Reads the SOCRATES_SERVER_* knobs (docs/SERVER.md) over these
  /// defaults through support/env (clamped, warn-once):
  ///   SOCRATES_SERVER_SHARDS, _RING, _BATCH, _MAX_TENANTS,
  ///   _GROUP_COMMIT, _JOURNAL_CAP (checkpoint.group_commit and
  ///   .journal_capacity), _POLICY
  ///   ("block" | "drop-oldest" | "reject"),
  ///   _SHARE_KNOWLEDGE ("0" disables the pool),
  ///   _POOL_DISTANCE, _POOL_PUBLISH, _POOL_REPS, _POOL_ENTRIES.
  /// The storage-resilience knobs come from the checkpoint layer's own
  /// environment (SOCRATES_CHECKPOINT_GENERATIONS, _FSYNC, _PROBE_MS —
  /// see CheckpointStore::Options::from_env), so one setting governs
  /// embedded and served AS-RTMs alike.
  static ServerOptions from_env();
};

/// One feedback observation in flight between submit and apply.
struct FeedbackEvent {
  std::uint32_t slot = 0;    ///< tenant index
  std::uint32_t metric = 0;
  std::uint32_t op = 0;
  double value = 0.0;
};

/// Outcome of an ingress call (submit_feedback / update_goal).
enum class Admission {
  kAccepted,     ///< enqueued (or applied, for goals)
  kShed,         ///< ring full under kReject: the event was refused
  kRateLimited,  ///< token bucket empty
  kQuarantined,  ///< circuit breaker open
  kInvalid,      ///< malformed request: non-finite / non-positive
                 ///< observation or out-of-range op/metric index
                 ///< (each counts as a breaker error)
};

const char* to_string(Admission admission);

/// Optional per-tenant context handed to Server::create_tenant.  A
/// tenant with a feature vector participates in cross-tenant knowledge
/// sharing: it can be warm-started from a similar converged donor at
/// registration and donates its own corrected knowledge back once it
/// converges.  A tenant without features (the default) always cold
/// starts and never donates — byte-identical to register_tenant.
struct TenantProfile {
  std::optional<features::FeatureVector> features;
  /// The tenant's own COBAYN posterior over compiler configurations
  /// (CobaynModel::export_posterior), merged with a matched donor's at
  /// warm start.  Empty = adopt the donor's posterior unweighted.
  std::vector<double> posterior;
  double posterior_weight = 0.0;
};

/// What Server::create_tenant did.
struct CreateResult {
  bool created = false;        ///< false: cap reached or runtime build threw
  std::uint64_t handle = 0;    ///< valid only when created
  bool warm_started = false;   ///< knowledge was seeded from a pool donor
  std::string donor;           ///< donor tenant name when warm_started
  double pool_distance = 0.0;  ///< feature distance to the donor
  std::size_t seeded_points = 0;  ///< donor points merged into the KB
  /// Merged posterior (donor ⊕ own, weight-proportional) for
  /// warm-starting a DSE run (TwoStageExplorer::Params::warm_flat_seeds
  /// via CobaynModel::top_configs); empty on a cold start.
  std::vector<double> warm_posterior;
};

class Server {
 public:
  using TenantHandle = std::uint64_t;

  explicit Server(ServerOptions options);
  /// Crash-equivalent: workers are stopped and joined, but no final
  /// snapshot is written — buffered journal batches are dropped exactly
  /// as a kill would drop them.  Call checkpoint_all() first for a
  /// clean shutdown.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const ServerOptions& options() const { return options_; }

  // ---- tenant lifecycle ------------------------------------------------
  /// Registers a tenant: its AS-RTM is built from `knowledge`,
  /// `configure` (may be empty) applies requirements, and — when the
  /// server persists — a CheckpointStore attaches, restoring any prior
  /// state for this tenant name.  `configure` is retained and re-run
  /// when a shard restart rebuilds the tenant.  Returns false (and
  /// counts server.tenants_rejected) when max_tenants are registered or
  /// when the AS-RTM build / configure functor throws.
  bool register_tenant(const std::string& name, margot::KnowledgeBase knowledge,
                       std::function<void(margot::Asrtm&)> configure,
                       TenantHandle* out_handle);

  /// register_tenant plus cross-tenant knowledge sharing.  When the
  /// pool is enabled and `profile` carries a feature vector, the pool
  /// is probed for a converged donor within the distance threshold:
  /// on a hit, donor representatives overwrite matching knob
  /// configurations in `knowledge` (their metrics are
  /// feedback-corrected, hence more trustworthy than design-time
  /// estimates), new configurations are appended, and the result's
  /// warm_posterior carries the donor⊕own merged COBAYN posterior.  A
  /// donor whose knob/metric schema differs is skipped
  /// (server.pool_schema_mismatches) — the tenant cold-starts.
  ///
  /// Exception safety at the slot boundary: a registration that fails
  /// after admission (runtime build or configure throws) releases its
  /// reserved slot, so the next create_tenant can reuse it and the
  /// max_tenants cap is never eroded by failed attempts.
  CreateResult create_tenant(const std::string& name, margot::KnowledgeBase knowledge,
                             std::function<void(margot::Asrtm&)> configure,
                             const TenantProfile& profile = {});

  /// The pool, or nullptr when sharing is disabled (tests, benches).
  KnowledgePool* knowledge_pool() { return pool_.get(); }

  std::size_t tenant_count() const { return tenant_count_.load(std::memory_order_acquire); }

  // ---- the two runtime paths ------------------------------------------
  /// Admission-controlled, policy-mediated enqueue of one observation.
  /// Malformed requests — op_index/metric outside the tenant's
  /// knowledge base, non-finite or non-positive observations — are
  /// refused at ingress with kInvalid and count as breaker errors, so
  /// a flood of them quarantines the sender instead of reaching (and
  /// tripping contracts inside) the shard worker.  A well-formed event
  /// for a tenant whose breaker is closed and whose bucket is unlimited
  /// skips the ingress lock and the clock (the checks would pass);
  /// every other call takes the locked path (server.ingress_locked).
  Admission submit_feedback(TenantHandle handle, std::size_t op_index,
                            std::size_t metric, double observed);

  /// Best operating point for the tenant right now (the O(1) cached
  /// decision path when nothing moved).
  std::size_t decide(TenantHandle handle);

  /// Batched decision sweep: writes the best operating point of
  /// handles[i] to out[i] (out must be at least handles.size() long).
  /// Each tenant costs one atomic load of its published decision — no
  /// tenant lock, no AS-RTM call, no allocation — because the write
  /// path already re-decided under the lock whenever the decision
  /// inputs moved.  That is what makes per-invocation decision overhead
  /// affordable for short-running kernels.  Returns the number of
  /// tenants served lock-free, which is always handles.size(); bumps
  /// the server.batch_* metrics.  Safe to call concurrently with
  /// feedback, goal updates and shard restarts.
  std::size_t decide_batch(std::span<const TenantHandle> handles,
                           std::span<std::size_t> out);

  /// Whole-shard sweep: decides every tenant living on `shard` (in
  /// slot order), writing its handle and best point to the parallel
  /// output spans.  Returns the number of tenants written; throws when
  /// either span is too small.  Same lock-free path and metrics as
  /// decide_batch.
  std::size_t decide_shard(std::size_t shard, std::span<TenantHandle> out_handles,
                           std::span<std::size_t> out_best);

  /// Changes a constraint goal.  Goal updates beyond
  /// goal_update_threshold per goal_window_s count as breaker errors
  /// (oscillating-tenant quarantine) and are rejected.
  Admission update_goal(TenantHandle handle, std::size_t constraint_handle,
                        double goal);

  // ---- flow control / persistence -------------------------------------
  /// Blocks until every accepted event has been applied or evicted
  /// (kDropOldest) and the rings are empty, or `timeout_s` elapses.
  /// True on full drain.
  bool drain(double timeout_s);

  /// Snapshots every tenant's checkpoint now (clean-shutdown point).
  /// Also republishes every featured tenant's corrected knowledge into
  /// the pool — convergence threshold waived at the clean-shutdown
  /// point — and persists the pool alongside the checkpoints.
  void checkpoint_all();

  // ---- introspection ---------------------------------------------------
  struct Stats {
    std::uint64_t submitted = 0;     ///< submit_feedback calls
    std::uint64_t accepted = 0;      ///< events enqueued (incl. flood copies)
    std::uint64_t shed = 0;          ///< evicted (kDropOldest) or refused (kReject)
    std::uint64_t rate_limited = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t invalid = 0;
    std::uint64_t drained = 0;       ///< events applied by shard workers
    std::uint64_t shard_restarts = 0;
    std::uint64_t breaker_trips = 0; ///< over all tenants
    std::size_t tenants = 0;
    std::size_t durability_degraded = 0;  ///< tenants serving from memory only
    // Cross-tenant knowledge sharing (0 when the pool is disabled).
    std::size_t pool_entries = 0;    ///< donors currently in the pool
    std::size_t warm_started = 0;    ///< tenants seeded from a donor
  };
  Stats stats() const;

  struct TenantStatus {
    std::uint64_t applied = 0;         ///< feedback events applied to the AS-RTM
    CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
    std::uint64_t breaker_trips = 0;
    std::size_t buffered_events = 0;   ///< journal lines a crash now would lose
    std::uint64_t journaled_events = 0;
    std::uint64_t snapshots = 0;
    // Disk health (margot::CheckpointStore::DiskStatus).  A degraded
    // tenant still serves decisions and applies feedback in memory; it
    // re-establishes durability with a full snapshot at the next
    // successful re-probe.
    bool durability_degraded = false;
    std::uint64_t disk_io_errors = 0;
    std::uint64_t disk_recoveries = 0;
    std::uint64_t disk_events_dropped = 0;
    std::string disk_last_error;
  };
  TenantStatus tenant_status(TenantHandle handle);

  /// Runs `fn` with the tenant's AS-RTM under its lock (tests, benches).
  void with_tenant(TenantHandle handle, const std::function<void(margot::Asrtm&)>& fn);

  // ---- test hooks ------------------------------------------------------
  /// Replaces the ingress clock (seconds; token bucket, breaker, goal
  /// window).  Install before traffic; default is the steady clock
  /// relative to server construction.
  void set_time_source(std::function<double()> now);

  /// Parks shard `shard` for `seconds` at its next loop iteration —
  /// deterministic stand-in for the chaos shard-stall site.
  void inject_stall(std::size_t shard, double seconds);

  std::size_t shard_of(TenantHandle handle) const;

 private:
  struct Tenant {
    std::string name;
    std::uint32_t slot = 0;
    std::size_t shard = 0;
    margot::KnowledgeBase knowledge;                 ///< retained for rebuilds
    std::function<void(margot::Asrtm&)> configure;   ///< re-applied on rebuild
    // Ingress-validation bounds cached from the (immutable) knowledge
    // base so submit_feedback can range-check without any lock.
    std::size_t op_count = 0;
    std::size_t metric_count = 0;

    // Knowledge-sharing profile (immutable after registration).  A
    // tenant only donates to / draws from the pool when has_features.
    bool has_features = false;
    features::FeatureVector features;
    std::vector<double> posterior;    ///< own COBAYN posterior (may be empty)
    double posterior_weight = 0.0;
    bool warm_started = false;        ///< seeded from a donor at creation
    /// Set by the shard worker once this tenant's corrected knowledge
    /// has been donated (one automatic publish per tenant; a later
    /// checkpoint_all refreshes it).
    std::atomic<bool> pool_published{false};

    std::mutex mu;  ///< guards asrtm + store (shard worker vs. decide/goal)
    std::unique_ptr<margot::Asrtm> asrtm;
    std::unique_ptr<margot::CheckpointStore> store;  ///< null when not persisting
    /// The served decision.  Invariant: whenever mu is free, pub_best
    /// equals asrtm->find_best_operating_point().  Every writer of the
    /// AS-RTM stores it (release) under mu before unlocking; sweeps
    /// load it (acquire) without mu and never touch the asrtm pointer,
    /// so a concurrent rebuild swap cannot be observed mid-free.
    std::atomic<std::size_t> pub_best{0};

    /// Guards bucket/breaker/goal window (submitters).  Two reads skip
    /// it: breaker.state() (a relaxed atomic only transitions write)
    /// and bucket.unlimited() (fixed here, at registration), which is
    /// what lets submit_feedback admit a closed, unlimited tenant's
    /// well-formed events without the lock or the clock.
    std::mutex ingress_mu;
    TokenBucket bucket;
    CircuitBreaker breaker;
    double goal_window_start_s = 0.0;
    std::size_t goal_updates_in_window = 0;

    std::atomic<std::uint64_t> applied{0};

    Tenant(margot::KnowledgeBase kb, TokenBucket limiter,
           CircuitBreaker::Options breaker_options)
        : knowledge(std::move(kb)), bucket(limiter), breaker(breaker_options) {}
  };

  struct Shard {
    std::unique_ptr<MpscRing<FeedbackEvent>> ring;
    std::thread worker;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> heartbeat{0};      ///< bumped each worker loop
    std::atomic<double> injected_stall_s{0.0};    ///< consumed at loop top
    std::atomic<std::uint64_t> drained{0};
    std::atomic<std::uint64_t> restarts{0};
    // Watchdog-side bookkeeping (watchdog thread only).
    std::uint64_t last_heartbeat_seen = 0;
    double silent_since_s = 0.0;
  };

  double now_s() const;
  double steady_now_s() const;  ///< real clock (watchdog), never overridden
  /// Tenants currently in checkpoint degraded (in-memory) mode.
  std::size_t count_durability_degraded() const;
  /// Events enqueued over every shard (incl. flood copies): the sum of
  /// the rings' enqueue cursors, which each successful push advances
  /// exactly once.
  std::uint64_t accepted() const;
  void start_shard(std::size_t index);
  void shard_worker(std::size_t index);
  void watchdog_loop();
  /// Stops, recovers and respawns a stalled shard: every tenant on it
  /// is rebuilt from its knowledge base + configure functor and its
  /// checkpoint replayed (the stalled store's buffered batch is lost,
  /// crash-equivalently).  A tenant whose rebuild throws (e.g. a buggy
  /// configure functor) is quarantined — breaker forced open, old
  /// runtime kept for reads — and the remaining tenants still recover;
  /// the watchdog thread never sees the exception.
  void restart_shard(std::size_t index);
  /// Builds a fresh AS-RTM (+ checkpoint store) for `tenant`, publishes
  /// its first decision and swaps it in.  Strong-ish exception safety:
  /// if the AS-RTM construction or configure functor throws, the
  /// tenant's previous runtime and decision are left untouched; only a
  /// throwing checkpoint attach or first decision can leave it on the
  /// old runtime without persistence.
  void build_tenant_runtime(Tenant& tenant);
  std::string checkpoint_path(const std::string& name) const;
  /// Decides on `asrtm` and stores the result as `tenant`'s published
  /// decision (server.decisions_published).  Caller holds tenant.mu,
  /// or owns a tenant that no reader can see yet.
  static void publish_decision(Tenant& tenant, const margot::Asrtm& asrtm);
  /// Runs `fn` (a mutation of tenant.asrtm; caller holds tenant.mu)
  /// and republishes when it moved the decision epoch — also when `fn`
  /// throws, so the invariant on Tenant::pub_best holds at the unlock.
  template <typename Fn>
  static void mutate(Tenant& tenant, Fn&& fn);
  /// Merges a pool donor's representatives into `knowledge` (same knob
  /// config → metrics replaced, new config → appended).  Returns the
  /// number of donor points merged; 0 on schema mismatch.
  static std::size_t seed_knowledge(margot::KnowledgeBase& knowledge,
                                    const margot::KnowledgeBase& donor);
  /// Donates `tenant`'s feedback-corrected knowledge to the pool: each
  /// metric column scaled by the AS-RTM's current correction factor.
  /// Takes tenant.mu; no-op when the pool is off or the tenant has no
  /// features.
  void publish_to_pool(Tenant& tenant);

  ServerOptions options_;
  std::function<double()> now_;  ///< ingress clock (test-overridable)
  std::chrono::steady_clock::time_point anchor_;

  // Fixed-size slot array (max_tenants entries, allocated once in the
  // constructor).  Slots are filled in order under registration_mu_ and
  // published by the tenant_count_ release store; lock-free readers on
  // the hot path index only slots below their acquire-loaded count, so
  // no container ever mutates under them.
  std::unique_ptr<std::unique_ptr<Tenant>[]> tenants_;
  std::atomic<std::size_t> tenant_count_{0};
  std::mutex registration_mu_;

  /// Cross-tenant knowledge pool; null when options_.share_knowledge is
  /// off (create_tenant then behaves exactly like register_tenant).
  std::unique_ptr<KnowledgePool> pool_;
  std::atomic<std::size_t> warm_started_{0};

  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread watchdog_;
  std::atomic<bool> shutdown_{false};  ///< aborts blocked producers + watchdog

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  /// The kDropOldest part of shed_; drain() counts it, never a kReject
  /// refusal, which was never accepted.
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> rate_limited_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> invalid_{0};
};

}  // namespace socrates::server
