// Pipeline-level fault injection ("chaos engineering" for the
// toolchain).
//
// PR 1 made the *sensors* lie; this layer makes the *pipeline itself*
// fail: stages throw, hang past their supervisor deadline or run slow,
// and ArtifactCache disk I/O suffers ENOSPC-style short writes, read
// corruption and stale temp files left behind by a "killed" process.
// The injector is driven by the SOCRATES_CHAOS environment variable (or
// installed programmatically by tests) and every decision is drawn from
// a deterministic seeded schedule, so a chaotic run is byte-reproducible
// and the supervisor (support/supervisor.hpp) is testable in-tree.
//
// Spec grammar (documented in docs/ROBUSTNESS.md):
//
//   SOCRATES_CHAOS = <entry>("," <entry>)* [":" <seed>]
//   entry          = key "=" value
//   key            = stage-fail | stage-hang | stage-slow
//                  | cache-read | cache-write | cache-tmp
//                  | shard-stall | ingest-flood | journal-fail
//                  | disk-full | pool-corrupt | crash-at
//                  | hang-ms | slow-ms | stall-ms | flood-burst
//
// The fault keys take per-call probabilities in [0, 1]; hang-ms /
// slow-ms / stall-ms set the injected sleep durations and flood-burst
// the amplification factor of an ingest flood.  The server-side sites
// (docs/SERVER.md): `shard-stall` parks a shard worker past its
// watchdog deadline (exercising restart + checkpoint recovery),
// `ingest-flood` duplicates a submitted feedback event flood-burst
// times (exercising backpressure shedding), and `journal-fail` makes a
// checkpoint group-commit flush fail (the batch is lost, exactly like
// a crash between commits), and `pool-corrupt` makes a knowledge-pool
// lookup behave as if the matched entry were damaged (the tenant falls
// back to a cold start — docs/SERVER.md).  Example:
//
//   SOCRATES_CHAOS="stage-fail=0.2,cache-write=0.1:2024"
//
// Storage-resilience keys (docs/ROBUSTNESS.md §6): `disk-full` makes
// every CheckpointStore disk operation (journal open/append, snapshot
// write, rename) fail as if the device returned ENOSPC, driving the
// store into its degraded in-memory mode; `crash-at=<site>[:<n>]`
// simulates a process death at the n-th arrival (default: the first)
// at one of the checkpoint write boundaries
//
//   journal-append | journal-flush | snapshot-header | snapshot-body
//   | snapshot-rename | journal-truncate
//
// — the bytes written before the boundary stay on disk (torn exactly
// as a power cut would tear them) and the store goes permanently dead,
// so a test can restore from the surviving files and assert the loss
// bound.  Because the crash-at value itself contains ':', a trailing
// ":<n>" on the *last* entry binds to crash-at, not the seed; append
// an explicit seed (`crash-at=snapshot-rename:2:99`) to set both.
//
// Determinism: each injection site (a short string like "stage.Parse"
// or "cache.write") owns a call counter; the n-th decision at a site
// draws from Rng(derive_stream(hash(seed, site), n)) — independent of
// every other site, of thread scheduling and of the measurement-noise
// streams.  Parallel call sites (DSE points) pass an explicit index
// instead of using the counter.
//
// Cost when disabled (the default): ChaosEngine::global().enabled() is
// a single relaxed atomic load, and call sites gate on it — pinned by
// ablation_margot_overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace socrates {

/// Thrown by an injected stage failure.  The supervisor's default
/// classifier treats it as *transient* (retryable).
class ChaosFault : public std::runtime_error {
 public:
  explicit ChaosFault(const std::string& what) : std::runtime_error(what) {}
};

struct ChaosSpec {
  double stage_fail = 0.0;   ///< P(stage throws ChaosFault on entry)
  double stage_hang = 0.0;   ///< P(stage sleeps `hang_ms` before running)
  double stage_slow = 0.0;   ///< P(stage sleeps `slow_ms` before running)
  double cache_read = 0.0;   ///< P(disk artifact read is corrupted)
  double cache_write = 0.0;  ///< P(disk artifact write is cut short)
  double cache_tmp = 0.0;    ///< P(writer "dies" between tmp write and rename)
  double shard_stall = 0.0;  ///< P(server shard worker parks past its deadline)
  double ingest_flood = 0.0; ///< P(a submitted feedback event is amplified)
  double journal_fail = 0.0; ///< P(a checkpoint group-commit flush fails)
  double disk_full = 0.0;    ///< P(a checkpoint disk operation hits ENOSPC)
  double pool_corrupt = 0.0; ///< P(a knowledge-pool lookup sees a corrupt entry)
  double hang_ms = 50.0;
  double slow_ms = 5.0;
  double stall_ms = 80.0;    ///< duration of an injected shard stall
  double flood_burst = 8.0;  ///< extra copies an ingest flood pushes
  /// Crash-point injection: at arrival number `crash_after` (1-based)
  /// at the named checkpoint write boundary, the store "dies" — see
  /// the crash-at grammar above.  Empty = disarmed.
  std::string crash_site;
  std::uint64_t crash_after = 1;
  std::uint64_t seed = 1;

  bool any() const {
    return stage_fail > 0 || stage_hang > 0 || stage_slow > 0 || cache_read > 0 ||
           cache_write > 0 || cache_tmp > 0 || shard_stall > 0 ||
           ingest_flood > 0 || journal_fail > 0 || disk_full > 0 ||
           pool_corrupt > 0 || !crash_site.empty();
  }

  /// The six checkpoint write boundaries crash-at accepts.
  static bool is_crash_site(std::string_view site);

  /// Parses the SOCRATES_CHAOS grammar above.  Throws socrates::Error
  /// on unknown keys, non-numeric values, probabilities outside [0,1]
  /// or an unknown crash-at site.
  static ChaosSpec parse(std::string_view text);
};

class ChaosEngine {
 public:
  ChaosEngine() = default;  ///< disabled: every hook is a no-op

  /// Arms the engine with `spec` (disarms when spec.any() is false).
  void install(const ChaosSpec& spec);
  void disarm();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A consistent copy of the armed spec.  By value: install() may run
  /// concurrently (a test arming chaos while shard workers poll their
  /// sites), so readers must never alias the mutable spec_.
  ChaosSpec spec() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spec_;
  }

  /// Stage-entry hook: may throw ChaosFault or sleep (hang/slow),
  /// according to the site's deterministic schedule.  `site` should be
  /// "stage.<Name>".
  void on_stage(std::string_view site);

  /// Cache hooks: true = inject the fault at this call.
  bool corrupt_read(std::string_view site);
  bool fail_write(std::string_view site);
  bool drop_rename(std::string_view site);

  /// Server hooks (sites "server.shard<i>", "server.ingest",
  /// "checkpoint.journal"): true = inject the fault at this call.  The
  /// caller performs the effect (park the worker for spec().stall_ms,
  /// push spec().flood_burst extra copies, drop the journal batch).
  bool stall_shard(std::string_view site);
  bool flood_ingest(std::string_view site);
  bool fail_journal(std::string_view site);

  /// Disk-full hook for CheckpointStore I/O (site "checkpoint.disk"):
  /// true = this disk operation fails as if the device were full.
  bool fail_disk(std::string_view site);

  /// Knowledge-pool hook (site "server.pool"): true = the entry a
  /// lookup matched must be treated as corrupt (caller degrades the
  /// tenant to a cold start).
  bool corrupt_pool(std::string_view site);

  /// Crash-point hook: true exactly once, at the spec's crash_after-th
  /// arrival at the armed crash site (`site` is the short boundary
  /// name, e.g. "snapshot-rename").  The caller simulates the death —
  /// leaves its partial bytes on disk and stops touching the disk.
  bool crash_now(std::string_view site);

  /// Deterministic indexed draw for parallel sites (DSE points): fires
  /// with probability `stage_fail` for the given (site, index) pair,
  /// independent of call order.  Throws nothing; callers throw.
  bool fire_indexed(std::string_view site, std::uint64_t index) const;

  /// Total injections performed since construction / install().
  std::uint64_t injected() const { return injected_.load(std::memory_order_relaxed); }

  /// Process-wide engine, armed at first use from SOCRATES_CHAOS (when
  /// set and parseable; a malformed spec warns and disables).  Tests
  /// re-install programmatically.
  static ChaosEngine& global();

 private:
  /// The site's next uniform draw in [0,1) (advances its counter).
  double draw(std::string_view site);
  bool decide(std::string_view site, double probability, const char* counter_name);

  std::atomic<bool> enabled_{false};
  ChaosSpec spec_;
  mutable std::atomic<std::uint64_t> injected_{0};
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> site_counters_;
};

}  // namespace socrates
