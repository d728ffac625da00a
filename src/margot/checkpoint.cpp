#include "margot/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <limits>
#include <sstream>
#include <utility>

#include "observability/metrics.hpp"
#include "support/chaos.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/sealed_file.hpp"

namespace socrates::margot {

namespace {

constexpr const char* kMagic = "socrates-checkpoint";
// v2: payload gained the "depoch" (decision epoch) line.  An old v1
// snapshot fails the version check and walks down the recovery ladder,
// the same path any unrecognized checkpoint takes.
constexpr const char* kVersion = "v2";

std::string format_double(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

/// Serializes the learned state (plus the active state name) into the
/// checksummed snapshot payload.  Text on purpose: a human can inspect
/// what their run had learned before it died.
std::string serialize_payload(const Asrtm::Snapshot& snap,
                              const std::string& active_state) {
  std::ostringstream os;
  os << "alpha " << format_double(snap.feedback_alpha) << '\n';
  os << "quarantine " << snap.quarantine.failure_threshold << ' '
     << snap.quarantine.base_cooldown << ' ' << snap.quarantine.max_cooldown << '\n';
  os << "events " << snap.quarantine_events << '\n';
  os << "depoch " << snap.decision_epoch << '\n';
  os << "state " << active_state << '\n';
  os << "corrections " << snap.corrections.size();
  for (const double c : snap.corrections) os << ' ' << format_double(c);
  os << '\n';
  os << "health " << snap.health.size() << '\n';
  for (const auto& h : snap.health)
    os << h.consecutive_failures << ' ' << h.times_quarantined << ' ' << h.cooldown
       << ' ' << (h.probing ? 1 : 0) << '\n';
  return os.str();
}

bool expect_word(std::istream& in, const char* word) {
  std::string got;
  return static_cast<bool>(in >> got) && got == word;
}

/// Parses a payload produced by serialize_payload.  Returns false on
/// any malformation (the caller moves down the ladder).  The vectors
/// grow as values arrive, so a count that claims more values than the
/// payload holds fails at the first missing value instead of sizing an
/// allocation.
bool parse_payload(const std::string& payload, Asrtm::Snapshot& snap,
                   std::string& active_state) {
  std::istringstream in(payload);
  if (!expect_word(in, "alpha") || !(in >> snap.feedback_alpha)) return false;
  if (!expect_word(in, "quarantine") ||
      !(in >> snap.quarantine.failure_threshold >> snap.quarantine.base_cooldown >>
        snap.quarantine.max_cooldown))
    return false;
  if (!expect_word(in, "events") || !(in >> snap.quarantine_events)) return false;
  if (!expect_word(in, "depoch") || !(in >> snap.decision_epoch)) return false;
  if (!expect_word(in, "state")) return false;
  in.get();  // the separator space
  if (!std::getline(in, active_state)) return false;
  std::size_t n = 0;
  if (!expect_word(in, "corrections") || !(in >> n)) return false;
  snap.corrections.clear();
  for (std::size_t i = 0; i < n; ++i) {
    double correction = 0.0;
    if (!(in >> correction)) return false;
    snap.corrections.push_back(correction);
  }
  if (!expect_word(in, "health") || !(in >> n)) return false;
  snap.health.clear();
  for (std::size_t i = 0; i < n; ++i) {
    Asrtm::OpHealth health;
    int probing = 0;
    if (!(in >> health.consecutive_failures >> health.times_quarantined >>
          health.cooldown >> probing))
      return false;
    health.probing = probing != 0;
    snap.health.push_back(health);
  }
  return true;
}

/// Reads + verifies a snapshot file (envelope, checksum, payload shape)
/// WITHOUT applying it.  On kCorrupt `reason` names the defect.
sealed::File::Status load_snapshot(const std::string& file, Asrtm::Snapshot& snap,
                                   std::string& active_state, std::uint64_t& epoch,
                                   std::string& reason) {
  const sealed::File sealed_snapshot = sealed::read(file, kMagic, kVersion);
  if (sealed_snapshot.status != sealed::File::Status::kOk) {
    reason = "checkpoint " + sealed_snapshot.reason;
    return sealed_snapshot.status;
  }
  epoch = std::strtoull(sealed_snapshot.tag.c_str(), nullptr, 10);
  if (std::to_string(epoch) != sealed_snapshot.tag ||
      !parse_payload(sealed_snapshot.payload, snap, active_state)) {
    reason = "malformed checkpoint payload";
    return sealed::File::Status::kCorrupt;
  }
  return sealed::File::Status::kOk;
}

/// Journal line body: epoch, kind, op, metric, value, then the state
/// name as the rest of the line (it may contain spaces or be empty).
/// snprintf, not an ostringstream: at server feedback rates this path
/// runs a million times a second and stream construction dominates;
/// %.17g round-trips doubles exactly like the old max_digits10 format.
/// Returns the body length, or 0 when `buf` is too small (the caller
/// falls back to a heap string for oversized state names).
std::size_t serialize_event_fast(char* buf, std::size_t cap, std::uint64_t epoch,
                                 const RuntimeEvent& event) {
  const int head = std::snprintf(
      buf, cap, "%llu %d %llu %llu %.17g ",
      static_cast<unsigned long long>(epoch), static_cast<int>(event.kind),
      static_cast<unsigned long long>(event.op),
      static_cast<unsigned long long>(event.metric), event.value);
  if (head <= 0 || static_cast<std::size_t>(head) >= cap) return 0;
  const std::size_t total = static_cast<std::size_t>(head) + event.name.size();
  if (total >= cap) return 0;
  std::memcpy(buf + head, event.name.data(), event.name.size());
  return total;
}

/// Appends "<hex-hash> <body>\n" to `out`.
void append_journal_line(std::string& out, std::string_view body) {
  char hex[24];
  const int n = std::snprintf(hex, sizeof hex, "%llx",
                              static_cast<unsigned long long>(stable_hash64(body)));
  out.append(hex, static_cast<std::size_t>(n));
  out += ' ';
  out.append(body);
  out += '\n';
}

bool parse_event(const std::string& body, std::uint64_t& epoch, RuntimeEvent& event) {
  std::istringstream in(body);
  int kind = 0;
  if (!(in >> epoch >> kind >> event.op >> event.metric >> event.value)) return false;
  if (kind < 0 || kind > static_cast<int>(RuntimeEvent::Kind::kFeedbackRejected))
    return false;
  event.kind = static_cast<RuntimeEvent::Kind>(kind);
  in.get();  // the separator space
  std::getline(in, event.name);  // empty name -> eof, fine
  return true;
}

/// Replays one journal file onto the AS-RTM.  A line applies when its
/// checksum verifies, it parses, and its epoch passes the filter:
/// `exact` demands line_epoch == epoch_min (the healthy single-journal
/// restore), otherwise line_epoch >= epoch_min (the older-generation
/// chain replay, where each rotated journal carries the next epoch
/// up).  Everything else — a torn final line, a stale epoch, an event
/// the AS-RTM rejects — is skipped, never fatal.
void replay_journal_file(Asrtm& asrtm, const std::string& file,
                         std::uint64_t epoch_min, bool exact,
                         CheckpointStore::RestoreResult& result,
                         std::uint64_t& max_epoch) {
  std::ifstream jin(file, std::ios::binary);
  std::string line;
  while (jin && std::getline(jin, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    bool ok = space != std::string::npos;
    std::uint64_t line_epoch = 0;
    RuntimeEvent event;
    if (ok) {
      const std::string body = line.substr(space + 1);
      const std::uint64_t hash =
          std::strtoull(line.substr(0, space).c_str(), nullptr, 16);
      ok = stable_hash64(body) == hash && parse_event(body, line_epoch, event) &&
           (exact ? line_epoch == epoch_min : line_epoch >= epoch_min);
    }
    if (!ok) {
      ++result.skipped;
      continue;
    }
    try {
      asrtm.replay(event);
      if (event.kind == RuntimeEvent::Kind::kStateActivation)
        result.active_state = event.name;
      if (line_epoch > max_epoch) max_epoch = line_epoch;
      ++result.replayed;
    } catch (const std::exception&) {
      // A checksum-valid line the AS-RTM rejects (e.g. op index out
      // of range after a shape-preserving KB edit): skip, don't die.
      ++result.skipped;
    }
  }
}

}  // namespace

const char* to_string(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kNewestSnapshot: return "newest-snapshot";
    case RecoveryRung::kOlderGeneration: return "older-generation";
    case RecoveryRung::kJournalOnly: return "journal-only";
    case RecoveryRung::kFreshStart: return "fresh-start";
  }
  return "unknown";
}

CheckpointStore::Options CheckpointStore::Options::from_env(Options base) {
  base.generations =
      env::size_or("SOCRATES_CHECKPOINT_GENERATIONS", base.generations, 1, 8);
  base.fsync_on_commit =
      base.fsync_on_commit || env::flag("SOCRATES_CHECKPOINT_FSYNC");
  const double probe_ms = env::real_or("SOCRATES_CHECKPOINT_PROBE_MS",
                                       base.probe_base_s * 1000.0, 1.0, 60000.0);
  base.probe_base_s = probe_ms / 1000.0;
  if (base.probe_max_s < base.probe_base_s) base.probe_max_s = base.probe_base_s;
  return base;
}

CheckpointStore::CheckpointStore(std::string path, Options options)
    : path_(std::move(path)),
      options_(options),
      anchor_(std::chrono::steady_clock::now()) {
  SOCRATES_REQUIRE(!path_.empty());
  SOCRATES_REQUIRE(options_.journal_capacity >= 1);
  SOCRATES_REQUIRE(options_.group_commit >= 1);
  if (options_.generations < 1) options_.generations = 1;
  options_.fsync_on_commit =
      options_.fsync_on_commit || env::flag("SOCRATES_CHECKPOINT_FSYNC");
  if (options_.probe_base_s <= 0.0) options_.probe_base_s = 0.05;
  if (options_.probe_max_s < options_.probe_base_s)
    options_.probe_max_s = options_.probe_base_s;
  // The store is single-owner, so any <path>.tmp.<pid> is garbage a dead
  // process left between its temp write and its rename.
  if (const std::size_t swept = sealed::sweep_stale_tmps(path_); swept > 0) {
    log_info() << "checkpoint: swept " << swept
               << " stale tmp snapshot(s) next to " << path_;
    MetricsRegistry::global().counter("checkpoint.tmp_files_swept").add(swept);
  }
}

CheckpointStore::~CheckpointStore() {
  // No final snapshot here: destruction without detach() behaves like a
  // crash, and the journal alone must carry the state — which is
  // exactly what the kill-and-resume tests verify.  The buffered
  // group-commit batch is dropped for the same reason: a crash loses
  // the uncommitted batch, so destruction must too.
  if (asrtm_ != nullptr) {
    asrtm_->set_event_sink(nullptr);
    asrtm_ = nullptr;
  }
  journal_.close();
}

void CheckpointStore::die(const char* site, const std::string& file) {
  crashed_ = true;
  journal_.close();
  journal_.clear();
  log_warn() << "checkpoint: injected crash at " << site << " on " << file;
}

double CheckpointStore::now_s() const {
  if (now_) return now_();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - anchor_)
      .count();
}

void CheckpointStore::set_time_source(std::function<double()> now) {
  now_ = std::move(now);
}

CheckpointStore::DiskStatus CheckpointStore::disk_status() const {
  DiskStatus status;
  status.degraded = degraded_;
  status.io_errors = io_errors_;
  status.degraded_entries = degraded_entries_;
  status.recoveries = recoveries_;
  status.journal_reopens = journal_reopens_;
  status.events_dropped = events_dropped_;
  status.last_error = last_error_;
  return status;
}

CheckpointStore::IoError CheckpointStore::classify_errno(int err, IoError fallback) {
  if (err == ENOSPC || err == EDQUOT) return IoError::kNoSpace;
  if (err == EIO) return IoError::kIo;
  return fallback;
}

void CheckpointStore::enter_degraded(IoError kind, const std::string& what) {
  const char* kind_name = "io";
  switch (kind) {
    case IoError::kNoSpace: kind_name = "enospc"; break;
    case IoError::kIo: kind_name = "eio"; break;
    case IoError::kRename: kind_name = "rename"; break;
    case IoError::kShortWrite: kind_name = "short-write"; break;
    case IoError::kOpen: kind_name = "open"; break;
  }
  ++io_errors_;
  last_error_ = std::string(kind_name) + ": " + what;
  auto& metrics = MetricsRegistry::global();
  metrics.counter("checkpoint.io_errors").add(1);
  metrics.counter(std::string("checkpoint.io_errors.") + kind_name).add(1);
  // The whole device is suspect, not just the file that failed: close
  // the journal so recovery reopens it from a clean descriptor.
  journal_.close();
  journal_.clear();
  journal_open_failed_ = true;
  if (!degraded_) {
    degraded_ = true;
    ++degraded_entries_;
    backoff_s_ = options_.probe_base_s;
    next_probe_s_ = now_s() + backoff_s_;
    log_warn() << "checkpoint: disk unhealthy (" << last_error_
               << "); degraded in-memory mode on " << path_ << ", re-probe in "
               << backoff_s_ << "s";
    metrics.counter("checkpoint.degraded_entries").add(1);
    metrics.gauge("checkpoint.degraded").set(1.0);
  } else {
    // A failed probe: back off exponentially up to the cap.
    backoff_s_ = std::min(backoff_s_ * 2.0, options_.probe_max_s);
    next_probe_s_ = now_s() + backoff_s_;
  }
}

bool CheckpointStore::maybe_probe() {
  if (!degraded_ || crashed_) return false;
  if (now_s() < next_probe_s_) return false;
  return probe_now();
}

bool CheckpointStore::probe_now() {
  // The probe IS the recovery: a full snapshot captures everything
  // learned while degraded, so the events the journal missed are not
  // lost unless the process dies before the disk heals.
  if (!write_snapshot(epoch_ + 1)) return false;  // enter_degraded backed off
  ++epoch_;
  ++snapshots_;
  MetricsRegistry::global().counter("checkpoint.snapshots").add(1);
  degraded_ = false;
  // Anything buffered is inside the snapshot now (its lines carry the
  // pre-recovery epoch and would be skipped on restore regardless).
  batch_.clear();
  batch_lines_ = 0;
  rotate_journals();
  if (degraded_) return false;  // the journal reopen failed: still unhealthy
  pending_ = 0;
  ++recoveries_;
  auto& metrics = MetricsRegistry::global();
  metrics.counter("checkpoint.disk_recoveries").add(1);
  metrics.gauge("checkpoint.degraded").set(0.0);
  log_info() << "checkpoint: disk recovered; full snapshot written at epoch "
             << epoch_ << ", journaling resumed on " << path_;
  return true;
}

CheckpointStore::RestoreResult CheckpointStore::attach(Asrtm& asrtm) {
  SOCRATES_REQUIRE_MSG(asrtm_ == nullptr, "CheckpointStore is already attached");
  RestoreResult result;
  auto& metrics = MetricsRegistry::global();

  // Walk the generation ladder newest-first until a snapshot loads AND
  // applies.  Rejected generations are removed — they are unreadable,
  // and leaving them would resurrect garbage on a later restore.
  std::string snap_state;
  std::uint64_t snap_epoch = 0;
  std::size_t chosen_gen = 0;
  bool have_snapshot = false;
  bool any_snapshot_file = false;
  std::string first_reason;
  for (std::size_t g = 0; g < options_.generations && !have_snapshot; ++g) {
    const std::string file = snapshot_path(g);
    std::string reason;
    Asrtm::Snapshot cand;
    std::string cand_state;
    std::uint64_t cand_epoch = 0;
    const auto loaded = load_snapshot(file, cand, cand_state, cand_epoch, reason);
    if (loaded == sealed::File::Status::kMissing) continue;
    any_snapshot_file = true;
    if (loaded == sealed::File::Status::kOk) {
      try {
        asrtm.restore(cand);
        snap_state = cand_state;
        snap_epoch = cand_epoch;
        chosen_gen = g;
        have_snapshot = true;
        break;
      } catch (const std::exception& e) {
        // Shape mismatch: the knowledge base changed since this
        // checkpoint was taken.  The old learned state no longer
        // applies — and neither will any older generation of it, but
        // the ladder costs nothing and reports precisely.
        reason = std::string("checkpoint incompatible: ") + e.what();
      }
    }
    if (first_reason.empty()) first_reason = reason;
    log_warn() << "checkpoint: generation " << g << " rejected (" << reason
               << "), trying the next rung";
    metrics.counter("checkpoint.corrupt_snapshots").add(1);
    std::error_code ec;
    std::filesystem::remove(file, ec);
  }

  std::uint64_t max_epoch = 0;
  if (have_snapshot && chosen_gen == 0) {
    // Rung 0: the healthy path.  Replay the live journal on top; only
    // lines of the snapshot's epoch apply, anything else is stale or
    // torn.
    result.rung = RecoveryRung::kNewestSnapshot;
    result.restored = true;
    result.generation = 0;
    epoch_ = snap_epoch;
    result.active_state = snap_state;
    replay_journal_file(asrtm, journal_path(0), epoch_, /*exact=*/true, result,
                        max_epoch);
    active_state_ = result.active_state;
    pending_ = result.replayed;
    std::ostringstream note;
    note << "restored epoch " << epoch_ << ", replayed " << result.replayed
         << " event(s)";
    if (result.skipped > 0) note << ", skipped " << result.skipped;
    result.note = note.str();
    open_journal(/*truncate=*/false);
  } else if (have_snapshot) {
    // Rung 1: the newest snapshot was corrupt but an older generation
    // survived.  Chain-replay the journal generations oldest-first —
    // each rotated journal carries the epoch that produced the next
    // (lost) snapshot — so the knowledge climbs back as close to the
    // head as the surviving files allow.
    result.rung = RecoveryRung::kOlderGeneration;
    result.restored = true;
    result.generation = chosen_gen;
    epoch_ = snap_epoch;
    max_epoch = snap_epoch;
    result.active_state = snap_state;
    for (std::size_t k = chosen_gen + 1; k-- > 0;)
      replay_journal_file(asrtm, journal_path(k), snap_epoch, /*exact=*/false,
                          result, max_epoch);
    active_state_ = result.active_state;
    std::ostringstream note;
    note << "restored older generation " << chosen_gen << " at epoch "
         << snap_epoch << ", chain-replayed " << result.replayed << " event(s)";
    if (result.skipped > 0) note << ", skipped " << result.skipped;
    note << " (newest snapshot was " << (first_reason.empty() ? "missing" : first_reason)
         << ")";
    result.note = note.str();
  } else if (any_snapshot_file) {
    // Rung 3: every generation was rejected.  Clean fresh start —
    // discard the journal chain too so a later restore cannot mix
    // epochs, and report why.
    result.rung = RecoveryRung::kFreshStart;
    for (std::size_t g = 0; g < options_.generations; ++g) {
      std::error_code ec;
      std::filesystem::remove(snapshot_path(g), ec);
      if (g > 0) std::filesystem::remove(journal_path(g), ec);
    }
    epoch_ = 0;
    active_state_.clear();
    result.note = "fresh start: " + first_reason;
    metrics.counter("checkpoint.fresh_starts").add(1);
    open_journal(/*truncate=*/true);
  } else {
    // Rung 2: no snapshot was ever written — a process killed before
    // its first checkpoint() leaves only the journal; epoch-0 lines
    // replay onto the freshly constructed AS-RTM.
    result.rung = RecoveryRung::kJournalOnly;
    epoch_ = 0;
    replay_journal_file(asrtm, journal_path(0), 0, /*exact=*/true, result,
                        max_epoch);
    active_state_ = result.active_state;
    pending_ = result.replayed;
    std::ostringstream note;
    note << "no snapshot; replayed journal at epoch 0, replayed "
         << result.replayed << " event(s)";
    if (result.skipped > 0) note << ", skipped " << result.skipped;
    result.note = note.str();
    open_journal(/*truncate=*/false);
  }

  log_info() << "checkpoint: " << result.note << " [rung "
             << to_string(result.rung) << "]";
  metrics.counter(std::string("checkpoint.recovery_rung.") + to_string(result.rung))
      .add(1);
  metrics.gauge("checkpoint.recovery_rung").set(static_cast<double>(result.rung));
  if (result.rung != RecoveryRung::kFreshStart) {
    metrics.counter("checkpoint.restores").add(1);
    metrics.counter("checkpoint.replayed_events").add(result.replayed);
    if (result.skipped > 0)
      metrics.counter("checkpoint.skipped_records").add(result.skipped);
  }

  asrtm_ = &asrtm;
  asrtm.set_event_sink([this](const RuntimeEvent& event) { on_event(event); });

  if (result.rung == RecoveryRung::kOlderGeneration) {
    // Collapse immediately to a fresh known-good newest snapshot, with
    // an epoch past everything seen on disk — the journal chain
    // restarts coherent and the rung-1 state survives even if the next
    // crash comes soon.
    epoch_ = std::max(snap_epoch, max_epoch);
    if (write_snapshot(epoch_ + 1)) {
      ++epoch_;
      ++snapshots_;
      rotate_journals();
      pending_ = 0;
      metrics.counter("checkpoint.snapshots").add(1);
    }
    // On failure enter_degraded already took over: the state lives in
    // memory and the probe will write the collapse snapshot when the
    // disk heals.
  }
  return result;
}

void CheckpointStore::open_journal(bool truncate) {
  journal_.close();
  journal_.clear();
  if (crashed_) return;
  auto& chaos = ChaosEngine::global();
  if (chaos.enabled() && chaos.fail_disk("checkpoint.disk")) {
    enter_degraded(IoError::kNoSpace,
                   "injected disk-full opening " + journal_path());
    return;
  }
  errno = 0;
  const auto mode =
      std::ios::binary | (truncate ? std::ios::trunc : std::ios::app);
  journal_.open(journal_path(), mode);
  if (!journal_) {
    enter_degraded(classify_errno(errno, IoError::kOpen),
                   "cannot open journal " + journal_path());
    return;
  }
  if (journal_open_failed_) {
    // The bug this fixes: the old store latched a failed open forever.
    // A successful open after any failure is a reopen — durability is
    // back, count it.
    journal_open_failed_ = false;
    ++journal_reopens_;
    MetricsRegistry::global().counter("checkpoint.journal_reopens").add(1);
  }
  if (truncate) {
    journal_bytes_ = 0;
  } else {
    std::error_code ec;
    const auto size = std::filesystem::file_size(journal_path(), ec);
    journal_bytes_ = ec ? 0 : static_cast<std::size_t>(size);
  }
}

void CheckpointStore::rotate_journals() {
  // The journal rotates WITH its snapshot: journal.<g> holds exactly
  // the events that carried snapshot generation <g> forward to
  // generation <g-1>, which is what an older-generation restore
  // chain-replays.
  journal_.close();
  journal_.clear();
  sealed::rotate_generations(journal_path(), options_.generations);
  open_journal(/*truncate=*/true);
}

bool CheckpointStore::write_snapshot(std::uint64_t epoch) {
  if (crashed_) return false;
  auto& chaos = ChaosEngine::global();
  const std::string bytes = sealed::seal(
      kMagic, kVersion, std::to_string(epoch),
      serialize_payload(asrtm_->snapshot(), active_state_));
  const std::string tmp = sealed::tmp_path(path_);
  if (chaos.enabled() && chaos.fail_disk("checkpoint.disk")) {
    enter_degraded(IoError::kNoSpace, "injected disk-full writing " + tmp);
    return false;
  }
  // Death mid-write tears the tmp file to a prefix of the sealed bytes:
  // half the header, or the header plus half the payload.  The torn tmp
  // is never published; the sweep removes it on the next construction.
  const std::size_t header = bytes.find('\n') + 1;
  for (const auto& [site, torn] :
       {std::pair{"snapshot-header", header / 2},
        std::pair{"snapshot-body", header + (bytes.size() - header) / 2}}) {
    if (chaos.enabled() && chaos.crash_now(site)) {
      (void)sealed::write_tmp(path_, std::string_view(bytes).substr(0, torn), false);
      die(site, tmp);
      return false;
    }
  }
  if (const auto written = sealed::write_tmp(path_, bytes, options_.fsync_on_commit);
      !written) {
    const bool open = written.failed == sealed::WriteStatus::Step::kOpen;
    enter_degraded(
        classify_errno(written.error, open ? IoError::kOpen : IoError::kShortWrite),
        (open ? "cannot write " : "short write on ") + tmp);
    return false;
  }
  if (chaos.enabled() && chaos.crash_now("snapshot-rename")) {
    // Death between write and publish: a complete, valid tmp exists but
    // the previous snapshot is still the newest — restore must land on
    // it, and the sweep collects the orphan.
    die("snapshot-rename", tmp);
    return false;
  }
  if (const auto published =
          sealed::publish_tmp(path_, options_.generations, options_.fsync_on_commit);
      !published) {
    enter_degraded(IoError::kRename,
                   "cannot publish " + path_ + ": " + published.message());
    return false;
  }
  return true;
}

void CheckpointStore::checkpoint() {
  SOCRATES_REQUIRE_MSG(asrtm_ != nullptr, "checkpoint() requires a prior attach()");
  if (crashed_) return;
  if (degraded_) {
    // A checkpoint request in degraded mode is a re-probe opportunity;
    // probe_now() writes the full snapshot when the disk answers.
    maybe_probe();
    return;
  }
  auto& chaos = ChaosEngine::global();
  const std::uint64_t next_epoch = epoch_ + 1;
  if (!write_snapshot(next_epoch)) {
    // The failure was classified (degraded or injected crash); commit
    // or account for the buffered batch accordingly.
    flush_batch();
    return;
  }
  epoch_ = next_epoch;
  ++snapshots_;
  // The snapshot captured the live state, so the buffered (and the
  // already-written) journal lines are superseded: discard both.
  batch_.clear();
  batch_lines_ = 0;
  if (chaos.enabled() && chaos.crash_now("journal-truncate")) {
    // Death between publishing the new snapshot and rotating the
    // journal: the live journal still holds old-epoch lines.  The next
    // restore must skip every one of them (epoch tag mismatch).
    die("journal-truncate", path_);
    return;
  }
  // A real crash exactly here leaves old-epoch journal lines behind;
  // the next restore ignores them (epoch tag mismatch).
  rotate_journals();
  pending_ = 0;
  MetricsRegistry::global().counter("checkpoint.snapshots").add(1);
}

void CheckpointStore::detach() {
  if (asrtm_ == nullptr) return;
  checkpoint();  // clean shutdown: next restore replays nothing
  asrtm_->set_event_sink(nullptr);
  asrtm_ = nullptr;
  journal_.close();
}

void CheckpointStore::on_event(const RuntimeEvent& event) {
  if (event.kind == RuntimeEvent::Kind::kStateActivation)
    active_state_ = event.name;
  if (crashed_) return;  // simulated dead process: the disk is frozen
  if (degraded_) {
    // The recovery probe piggybacks on event traffic.  Either way this
    // event does NOT go to the journal: the AS-RTM already applied it,
    // so a successful probe's full snapshot captures it (journaling it
    // too would double-apply on restore), and while still degraded it
    // lives in memory only.
    if (maybe_probe()) return;
    ++events_dropped_;
    static Counter& dropped =
        MetricsRegistry::global().counter("checkpoint.events_dropped");
    dropped.add(1);
    return;
  }
  char buf[160];
  if (const std::size_t len = serialize_event_fast(buf, sizeof buf, epoch_, event);
      len > 0) {
    append_journal_line(batch_, std::string_view(buf, len));
  } else {
    // Oversized state name: rebuild the body on the heap (cold path).
    std::ostringstream os;
    os << epoch_ << ' ' << static_cast<int>(event.kind) << ' ' << event.op << ' '
       << event.metric << ' ' << format_double(event.value) << ' ' << event.name;
    append_journal_line(batch_, os.str());
  }
  ++batch_lines_;
  ++journaled_;
  ++pending_;
  static Counter& journal_events =
      MetricsRegistry::global().counter("checkpoint.journal_events");
  journal_events.add(1);
  if (batch_lines_ >= options_.group_commit) flush_batch();
  const bool over_quota =
      options_.journal_max_bytes > 0 &&
      journal_bytes_ + batch_.size() > options_.journal_max_bytes;
  if (pending_ >= options_.journal_capacity || over_quota) checkpoint();
}

void CheckpointStore::flush_batch() {
  if (batch_lines_ == 0) return;
  if (crashed_) {
    discard_batch(false);
    return;
  }
  auto& chaos = ChaosEngine::global();
  if (chaos.enabled() && chaos.fail_journal("checkpoint.journal")) {
    // Injected journal I/O failure: the batch is lost, exactly like a
    // crash between group commits.  Count it and keep running — the
    // next restore simply misses these events.
    static Counter& lost =
        MetricsRegistry::global().counter("checkpoint.journal_batches_lost");
    lost.add(1);
    discard_batch(false);
    return;
  }
  if (degraded_) {
    // A successful probe's full snapshot already holds these events
    // (they were serialized with the pre-recovery epoch anyway); while
    // still degraded they are dropped and counted.  Either way the
    // batch never reaches the journal.
    discard_batch(!maybe_probe());
    return;
  }
  if (chaos.enabled() && chaos.fail_disk("checkpoint.disk")) {
    enter_degraded(IoError::kNoSpace,
                   "injected disk-full appending to " + journal_path());
    discard_batch(true);
    return;
  }
  if (chaos.enabled() && chaos.crash_now("journal-append")) {
    // Torn append: half the batch reaches the disk — the final line is
    // cut mid-byte exactly as a power cut would cut it — then death.
    if (journal_) {
      journal_.write(batch_.data(),
                     static_cast<std::streamsize>(batch_.size() / 2));
      journal_.flush();
    }
    die("journal-append", journal_path());
    discard_batch(false);
    return;
  }
  errno = 0;
  bool wrote = false;
  if (journal_) {
    journal_.write(batch_.data(), static_cast<std::streamsize>(batch_.size()));
    journal_.flush();
    wrote = static_cast<bool>(journal_);
  }
  if (wrote && options_.fsync_on_commit) sealed::fsync_path(journal_path());
  if (chaos.enabled() && chaos.crash_now("journal-flush")) {
    // Death just after the commit boundary: the whole batch is durable,
    // nothing after it is.
    die("journal-flush", journal_path());
    discard_batch(false);
    return;
  }
  if (!wrote) {
    enter_degraded(classify_errno(errno, IoError::kIo),
                   "journal append failed on " + journal_path());
  } else {
    journal_bytes_ += batch_.size();
    static Counter& batches =
        MetricsRegistry::global().counter("checkpoint.journal_batches");
    batches.add(1);
  }
  discard_batch(!wrote);
}

void CheckpointStore::discard_batch(bool dropped) {
  if (dropped) {
    events_dropped_ += batch_lines_;
    MetricsRegistry::global().counter("checkpoint.events_dropped").add(batch_lines_);
  }
  batch_.clear();
  batch_lines_ = 0;
}

}  // namespace socrates::margot
