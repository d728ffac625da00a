// Crash-safe persistence of the AS-RTM's learned state.
//
// The design-time knowledge base is a file the application can always
// reload, but everything the AS-RTM *learns* at runtime — feedback
// corrections, quarantine health, the active optimization state — dies
// with the process.  SOCRATES targets long-running HPC applications
// (Section IV runs span hours), where a node reboot otherwise means
// re-learning the platform from scratch and re-discovering every
// faulty clone the hard way.
//
// CheckpointStore persists that state with a classic snapshot+journal
// scheme, hardened against real storage failures:
//
//   <path>            newest snapshot, a sealed file tagged with its
//                     epoch (support/sealed_file.hpp), published by
//                     rename — readers never see a torn snapshot;
//   <path>.<g>        older snapshot *generations* (g = 1..K-1),
//                     rotated at every publish so one corrupted
//                     snapshot never costs all learned knowledge;
//   <path>.journal    append-only log of RuntimeEvents since the last
//                     snapshot, one self-checksummed line each; a
//                     partial trailing line (the crash happened
//                     mid-append) is simply skipped;
//   <path>.journal.<g> the journal generations matching snapshot
//                     generation g, kept so an older-generation
//                     restore can replay forward.
//
// Every journal line carries the snapshot *epoch* it applies to, so a
// crash between "write new snapshot" and "rotate journal" cannot
// double-apply events: stale-epoch lines are ignored on restore.  The
// journal is bounded — after `journal_capacity` events (or
// `journal_max_bytes` bytes) the store snapshots automatically and
// rotates it.
//
// Restore walks a **recovery ladder**, newest rung first, and reports
// which rung it landed on (RestoreResult::rung, named reason in
// `note`, `checkpoint.recovery_rung` metric):
//
//   kNewestSnapshot   newest snapshot valid → replay the live journal;
//   kOlderGeneration  newest corrupt, an older generation is valid →
//                     restore it and replay the journal chain forward
//                     (knowledge retained, the corrupted tail lost);
//   kJournalOnly      no snapshot was ever written → replay the
//                     epoch-0 journal onto the fresh AS-RTM;
//   kFreshStart       every snapshot generation is corrupt → discard
//                     everything, start clean (never a crash, never a
//                     partially-applied restore).
//
// Disk-health supervision: an I/O failure anywhere on the write path
// (ENOSPC, EIO, a failed rename, a short write, a journal that will
// not open) is classified and drops the store into a breaker-style
// **degraded in-memory mode** — the AS-RTM keeps learning and serving
// decisions, nothing touches the disk, and the store re-probes the
// device with exponential backoff.  The probe that succeeds writes a
// *full* snapshot (so nothing learned while degraded is lost) and
// resumes journaling.  Set SOCRATES_CHECKPOINT_FSYNC=1 to fsync the
// journal on every commit and the snapshot + directory on publish.
//
// Group commit: with `group_commit` > 1 journal lines are batched in
// memory and written + flushed once per batch instead of once per
// event.  This is what lets crash-safety survive the server's feedback
// rates (docs/SERVER.md): the per-event cost drops to formatting one
// line, and the durability contract weakens only to "a crash loses at
// most the one uncommitted batch" — the bound the crash-point torture
// harness (tests/checkpoint_crash_test.cpp) pins at *every* write
// boundary.  The default of 1 keeps the original flush-per-event
// behaviour.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>

#include "margot/asrtm.hpp"
#include "support/sealed_file.hpp"

namespace socrates::margot {

/// Which rung of the recovery ladder a restore landed on.
enum class RecoveryRung {
  kNewestSnapshot = 0,  ///< newest snapshot valid
  kOlderGeneration = 1, ///< fell back to an older snapshot generation
  kJournalOnly = 2,     ///< no snapshot ever existed; journal replay only
  kFreshStart = 3,      ///< every generation corrupt; clean slate
};

const char* to_string(RecoveryRung rung);

class CheckpointStore {
 public:
  struct Options {
    /// Journal events between automatic snapshots (bounds both journal
    /// size and replay time after a crash).
    std::size_t journal_capacity = 256;
    /// Journal lines per write+flush (group commit).  1 = flush every
    /// event (the strongest durability, the original behaviour); N > 1
    /// trades "a crash loses at most N-1 buffered events" for an N-fold
    /// reduction in journal I/O — required at server feedback rates.
    std::size_t group_commit = 1;
    /// Snapshot generations kept on disk (newest + generations-1 older,
    /// with their matching journal generations).  1 = the pre-PR-9
    /// single-snapshot layout; >= 2 survives a corrupted newest
    /// snapshot with knowledge retained.
    std::size_t generations = 2;
    /// Disk quota for the live journal file: when it grows past this
    /// many bytes the store snapshots and rotates, independent of the
    /// event count.  0 = unbounded (journal_capacity still applies).
    std::size_t journal_max_bytes = 0;
    /// fsync the journal after every group commit and the snapshot +
    /// containing directory on publish.  Defaults from the
    /// SOCRATES_CHECKPOINT_FSYNC environment flag.
    bool fsync_on_commit = false;
    /// Degraded-mode re-probe backoff: first probe after
    /// `probe_base_s`, doubling up to `probe_max_s`.  Probes piggyback
    /// on event traffic and explicit checkpoint() calls.
    double probe_base_s = 0.05;
    double probe_max_s = 2.0;

    /// `base` with the SOCRATES_CHECKPOINT_* environment knobs applied
    /// (clamped, warn-once via support/env):
    ///   SOCRATES_CHECKPOINT_GENERATIONS  in [1, 8]
    ///   SOCRATES_CHECKPOINT_PROBE_MS     in [1, 60000]
    ///   SOCRATES_CHECKPOINT_FSYNC        flag
    static Options from_env(Options base);
    static Options from_env() { return from_env(Options{}); }
  };

  /// `path` is the newest snapshot file; older generations live at
  /// `path`.<g> and the journal chain at `path`.journal[.<g>].  Stale
  /// `path`.tmp.<pid> files left by dead processes are swept here.
  explicit CheckpointStore(std::string path) : CheckpointStore(std::move(path), Options{}) {}
  CheckpointStore(std::string path, Options options);
  /// Uninstalls the sink WITHOUT a final snapshot: destruction is
  /// crash-equivalent, the journal carries the state.  Call detach()
  /// for a clean shutdown.
  ~CheckpointStore();

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  struct RestoreResult {
    bool restored = false;        ///< a valid snapshot was applied
    std::size_t replayed = 0;     ///< journal events replayed on top
    std::size_t skipped = 0;      ///< corrupt / stale-epoch lines skipped
    RecoveryRung rung = RecoveryRung::kJournalOnly;  ///< ladder rung taken
    std::size_t generation = 0;   ///< snapshot generation restored (rungs 0/1)
    std::string active_state;     ///< last activated state name ("" = none)
    std::string note;             ///< human-readable outcome summary
  };

  /// Restores `asrtm` from disk down the recovery ladder (snapshot
  /// generations + journal replay), then installs this store as the
  /// AS-RTM's event sink so every later mutation is journaled.  A
  /// missing checkpoint yields a journal-only (or empty) start; a fully
  /// corrupted one a clean fresh start: the AS-RTM is left untouched,
  /// stale files are discarded, and journaling begins from a clean
  /// slate.  The caller re-activates `active_state` through its
  /// StateManager (requirements are application-owned, see
  /// Asrtm::replay).
  RestoreResult attach(Asrtm& asrtm);

  /// Writes a snapshot now (atomically, rotating generations) and
  /// rotates the journal.  Requires a prior attach().  In degraded
  /// mode this doubles as a disk re-probe; it never throws on I/O
  /// failure.
  void checkpoint();

  /// Uninstalls the event sink (a final snapshot is written first, so
  /// a clean shutdown restores instantly with an empty journal).
  void detach();

  const std::string& path() const { return path_; }
  /// Snapshot file of generation g (0 = newest = path()).
  std::string snapshot_path(std::size_t generation) const {
    return sealed::generation_path(path_, generation);
  }
  /// Journal file of generation g (0 = the live journal).
  std::string journal_path(std::size_t generation = 0) const {
    return sealed::generation_path(path_ + ".journal", generation);
  }
  std::size_t journaled_events() const { return journaled_; }
  std::size_t snapshots_written() const { return snapshots_; }
  /// Events formatted but not yet committed to disk — the amount a
  /// crash right now would lose (always < Options::group_commit).
  std::size_t buffered_events() const { return batch_lines_; }
  /// Epoch of the newest published snapshot (0 = none yet).
  std::uint64_t epoch() const { return epoch_; }

  /// True once an injected crash-at chaos site fired: the store
  /// simulates a dead process and never touches the disk again.
  bool crashed() const { return crashed_; }

  // ---- disk health ------------------------------------------------------
  struct DiskStatus {
    bool degraded = false;            ///< in-memory mode, no disk writes
    std::uint64_t io_errors = 0;      ///< classified write-path failures
    std::uint64_t degraded_entries = 0;  ///< healthy→degraded transitions
    std::uint64_t recoveries = 0;     ///< degraded→healthy (full snapshot)
    std::uint64_t journal_reopens = 0;   ///< journal reopened after a failure
    std::uint64_t events_dropped = 0; ///< events not journaled while degraded
    std::string last_error;           ///< classification of the last failure
  };
  DiskStatus disk_status() const;
  bool degraded() const { return degraded_; }

  /// Replaces the clock the degraded-mode probe backoff runs on
  /// (seconds, monotone).  Tests only; default is the steady clock.
  void set_time_source(std::function<double()> now);

 private:
  enum class IoError { kNoSpace, kIo, kRename, kShortWrite, kOpen };

  void on_event(const RuntimeEvent& event);
  void open_journal(bool truncate);
  /// Writes + flushes the buffered group-commit batch.  An injected
  /// journal-fail chaos fault (or a real I/O failure) drops the batch —
  /// exactly the events a crash between commits would have lost.
  void flush_batch();
  /// Empties the batch; `dropped` counts its events as never journaled.
  void discard_batch(bool dropped);
  /// Publishes the snapshot for `epoch` as a sealed file (tmp+rename,
  /// rotating generations); returns success.  Failure classifies the
  /// error and enters (or stays in) degraded mode.
  bool write_snapshot(std::uint64_t epoch);
  /// Shifts <path>.journal -> .journal.1 -> ... (generations deep) and
  /// opens a fresh truncated live journal.
  void rotate_journals();
  static IoError classify_errno(int err, IoError fallback);
  /// Classified I/O failure: log once, count, enter degraded mode.
  void enter_degraded(IoError kind, const std::string& what);
  /// In degraded mode: if the backoff elapsed, try to re-establish
  /// durability (full snapshot + fresh journal).  True on recovery.
  bool maybe_probe();
  bool probe_now();
  double now_s() const;
  /// An injected crash-at fired at `site`: freeze the disk from now on.
  void die(const char* site, const std::string& file);

  std::string path_;
  Options options_;
  Asrtm* asrtm_ = nullptr;
  std::ofstream journal_;
  std::uint64_t epoch_ = 0;        ///< epoch of the on-disk snapshot
  std::size_t pending_ = 0;        ///< journal lines since last snapshot
  std::size_t journaled_ = 0;      ///< lifetime journaled events
  std::size_t snapshots_ = 0;
  std::size_t journal_bytes_ = 0;  ///< live journal size (quota tracking)
  std::string batch_;              ///< buffered group-commit lines
  std::size_t batch_lines_ = 0;    ///< lines currently in batch_
  std::string active_state_;       ///< last activation seen (for snapshots)
  bool crashed_ = false;           ///< injected crash: disk is frozen

  // Disk-health supervision (breaker-style degraded mode).
  bool degraded_ = false;
  bool journal_open_failed_ = false;  ///< last open failed (reopen counting)
  double backoff_s_ = 0.0;
  double next_probe_s_ = 0.0;
  std::uint64_t io_errors_ = 0;
  std::uint64_t degraded_entries_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t journal_reopens_ = 0;
  std::uint64_t events_dropped_ = 0;
  std::string last_error_;
  std::function<double()> now_;    ///< test-overridable probe clock
  std::chrono::steady_clock::time_point anchor_;
};

}  // namespace socrates::margot
