// Tests for crash-safe persistence of the AS-RTM's learned state:
// snapshot round trips, kill-and-resume journal replay, corruption
// tolerance (always a clean fresh start, never a crash), the epoch
// guard against double-apply, and the bounded auto-snapshotting
// journal.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>

#include "margot/asrtm.hpp"
#include "margot/checkpoint.hpp"
#include "margot/state_manager.hpp"
#include "observability/metrics.hpp"
#include "support/chaos.hpp"
#include "support/hash.hpp"

namespace socrates::margot {
namespace {

namespace fs = std::filesystem;

KnowledgeBase make_kb(std::size_t points = 4) {
  KnowledgeBase kb({"threads"}, {"exec_time_s", "power_w"});
  for (std::size_t i = 0; i < points; ++i) {
    OperatingPoint op;
    op.knobs = {static_cast<int>(i + 1)};
    op.metrics = {{1.0 + 0.1 * static_cast<double>(i), 0.01},
                  {50.0 + static_cast<double>(i), 0.5}};
    kb.add(std::move(op));
  }
  return kb;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("socrates_ckpt." + std::to_string(::getpid()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "asrtm.ckpt").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The pre-crash workload every resume test replays: feedback drift
  /// on both metrics plus a quarantine of point 1.
  void mutate(Asrtm& asrtm) {
    asrtm.send_feedback(0, 0, 1.3);
    asrtm.send_feedback(0, 0, 1.4);
    asrtm.send_feedback(2, 1, 60.0);
    asrtm.report_variant_failure(1);
    asrtm.report_variant_failure(1);  // threshold 2 -> quarantined
    asrtm.advance_quarantine();
  }

  void expect_same_learned_state(const Asrtm& a, const Asrtm& b) {
    EXPECT_DOUBLE_EQ(b.correction(0), a.correction(0));
    EXPECT_DOUBLE_EQ(b.correction(1), a.correction(1));
    EXPECT_EQ(b.quarantined_count(), a.quarantined_count());
    EXPECT_EQ(b.quarantine_events(), a.quarantine_events());
    for (std::size_t i = 0; i < a.knowledge().size(); ++i)
      EXPECT_EQ(b.is_quarantined(i), a.is_quarantined(i)) << "point " << i;
    EXPECT_EQ(b.find_best_operating_point(), a.find_best_operating_point());
  }

  /// Rewrites the newest snapshot through `edit`, which may change the
  /// payload and returns the payload size the header is to claim.  The
  /// checksum always matches the payload written.
  void rewrite_snapshot(const std::function<std::uint64_t(std::string&)>& edit) {
    std::ifstream in(path_, std::ios::binary);
    std::string magic, version, epoch, size, hash;
    in >> magic >> version >> epoch >> size >> hash;
    in.get();
    std::string payload((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    const std::uint64_t claimed = edit(payload);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << magic << ' ' << version << ' ' << epoch << ' ' << claimed << ' ' << std::hex
        << stable_hash64(payload) << std::dec << '\n' << payload;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(CheckpointTest, FirstAttachIsACleanSlate) {
  Asrtm asrtm(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(asrtm);
  EXPECT_FALSE(result.restored);
  EXPECT_EQ(result.replayed, 0u);
  EXPECT_DOUBLE_EQ(asrtm.correction(0), 1.0);
}

TEST_F(CheckpointTest, CleanShutdownRestoresFromTheSnapshot) {
  Asrtm before(make_kb());
  {
    CheckpointStore store(path_);
    store.attach(before);
    mutate(before);
    store.detach();  // clean shutdown: final snapshot, empty journal
    EXPECT_GE(store.snapshots_written(), 1u);
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(after);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.replayed, 0u);  // everything was in the snapshot
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, KillAndResumeReplaysTheJournal) {
  Asrtm before(make_kb());
  {
    CheckpointStore store(path_);
    store.attach(before);
    mutate(before);
    // Scope exit without detach(): crash-equivalent — no snapshot was
    // ever written, the journal alone must restore the state.
  }
  EXPECT_FALSE(fs::exists(path_));

  Asrtm after(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(after);
  EXPECT_FALSE(result.restored);  // no snapshot existed
  EXPECT_EQ(result.replayed, 6u);
  EXPECT_EQ(result.skipped, 0u);
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, KillAfterACheckpointReplaysOnlyTheTail) {
  Asrtm before(make_kb());
  {
    CheckpointStore store(path_);
    store.attach(before);
    mutate(before);
    store.checkpoint();
    // Post-checkpoint tail, lost from no snapshot but present in the
    // journal when the process dies here.
    before.send_feedback(3, 0, 2.0);
    before.report_variant_success(2);
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(after);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.replayed, 2u);
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, CorruptedSnapshotIsACleanFreshStart) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "not a checkpoint at all\njust garbage\n";
  }
  Asrtm asrtm(make_kb());
  CheckpointStore store(path_);
  CheckpointStore::RestoreResult result;
  ASSERT_NO_THROW(result = store.attach(asrtm));
  EXPECT_FALSE(result.restored);
  EXPECT_NE(result.note.find("fresh start"), std::string::npos) << result.note;
  EXPECT_DOUBLE_EQ(asrtm.correction(0), 1.0);  // untouched
  EXPECT_FALSE(fs::exists(path_));             // stale file discarded
}

TEST_F(CheckpointTest, TruncatedSnapshotIsACleanFreshStart) {
  {
    Asrtm asrtm(make_kb());
    CheckpointStore store(path_);
    store.attach(asrtm);
    mutate(asrtm);
    store.detach();
  }
  // Cut the snapshot mid-payload (a crash during a torn copy, a full
  // disk...): the checksum cannot match.
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  Asrtm asrtm(make_kb());
  CheckpointStore store(path_);
  CheckpointStore::RestoreResult result;
  ASSERT_NO_THROW(result = store.attach(asrtm));
  EXPECT_FALSE(result.restored);
  EXPECT_NE(result.note.find("fresh start"), std::string::npos) << result.note;
  EXPECT_DOUBLE_EQ(asrtm.correction(0), 1.0);
}

TEST_F(CheckpointTest, KnowledgeShapeMismatchIsACleanFreshStart) {
  {
    Asrtm asrtm(make_kb(4));
    CheckpointStore store(path_);
    store.attach(asrtm);
    mutate(asrtm);
    store.detach();
  }
  // The design space changed between runs: 3 points now.
  Asrtm smaller(make_kb(3));
  CheckpointStore store(path_);
  CheckpointStore::RestoreResult result;
  ASSERT_NO_THROW(result = store.attach(smaller));
  EXPECT_FALSE(result.restored);
  EXPECT_NE(result.note.find("fresh start"), std::string::npos) << result.note;
  EXPECT_DOUBLE_EQ(smaller.correction(0), 1.0);
}

TEST_F(CheckpointTest, CorruptJournalLinesAreSkippedNotFatal) {
  Asrtm before(make_kb());
  {
    CheckpointStore store(path_);
    store.attach(before);
    mutate(before);
  }
  {
    // A torn trailing append plus a bit-flipped line.
    std::ofstream out(path_ + ".journal", std::ios::binary | std::ios::app);
    out << "deadbeef 0 0 0 0 1.5 \n";  // checksum does not match body
    out << "fffff";                    // torn mid-append
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_);
  CheckpointStore::RestoreResult result;
  ASSERT_NO_THROW(result = store.attach(after));
  EXPECT_EQ(result.replayed, 6u);
  EXPECT_EQ(result.skipped, 2u);
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, StaleEpochJournalLinesAreIgnored) {
  Asrtm before(make_kb());
  {
    CheckpointStore store(path_);
    store.attach(before);
    mutate(before);
    store.checkpoint();  // epoch 1, journal truncated
  }
  {
    // Simulate the crash window where an epoch-0 line survived the
    // truncation: checksum-valid, but stamped with the old epoch.
    const std::string body = "0 0 0 0 9.5 ";
    std::ofstream out(path_ + ".journal", std::ios::binary | std::ios::app);
    out << std::hex << stable_hash64(body) << std::dec << ' ' << body << '\n';
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(after);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.replayed, 0u);
  EXPECT_EQ(result.skipped, 1u);  // the stale line must not double-apply
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, JournalIsBoundedByAutoSnapshots) {
  Asrtm before(make_kb());
  CheckpointStore::Options options;
  options.journal_capacity = 4;
  {
    CheckpointStore store(path_, options);
    store.attach(before);
    for (int i = 0; i < 11; ++i) before.send_feedback(0, 0, 1.2);
    EXPECT_EQ(store.journaled_events(), 11u);
    EXPECT_EQ(store.snapshots_written(), 2u);  // after events 4 and 8
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_, options);
  const auto result = store.attach(after);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.replayed, 3u);  // only the post-snapshot tail
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, GroupCommitBoundsKillLossToOneBatch) {
  Asrtm before(make_kb());
  CheckpointStore::Options options;
  options.journal_capacity = 1024;  // no auto-snapshot in this test
  options.group_commit = 8;
  {
    CheckpointStore store(path_, options);
    store.attach(before);
    // 20 events = two committed batches of 8 plus 4 buffered in memory.
    for (int i = 0; i < 20; ++i) before.send_feedback(0, 0, 1.2);
    EXPECT_EQ(store.journaled_events(), 20u);
    EXPECT_EQ(store.buffered_events(), 4u);
    // Crash here: the buffered tail is lost, the committed batches are not.
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_, options);
  const auto result = store.attach(after);
  EXPECT_EQ(result.replayed, 16u);  // exactly the committed prefix
  EXPECT_GE(result.replayed + options.group_commit, 20u)
      << "a crash may lose at most one uncommitted batch";

  // The restored state matches a run that only ever saw the committed
  // prefix — the loss is a clean truncation, not corruption.
  Asrtm reference(make_kb());
  for (int i = 0; i < 16; ++i) reference.send_feedback(0, 0, 1.2);
  expect_same_learned_state(reference, after);
}

TEST_F(CheckpointTest, CheckpointSupersedesTheBufferedBatch) {
  Asrtm before(make_kb());
  CheckpointStore::Options options;
  options.group_commit = 8;
  {
    CheckpointStore store(path_, options);
    store.attach(before);
    before.send_feedback(0, 0, 1.3);
    before.send_feedback(0, 1, 55.0);
    EXPECT_EQ(store.buffered_events(), 2u);
    store.checkpoint();  // snapshot covers the buffered events
    EXPECT_EQ(store.buffered_events(), 0u);
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_, options);
  const auto result = store.attach(after);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.replayed, 0u);
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, GroupCommitOfOneFlushesEveryEvent) {
  Asrtm asrtm(make_kb());
  CheckpointStore store(path_);  // default group_commit = 1
  store.attach(asrtm);
  asrtm.send_feedback(0, 0, 1.3);
  EXPECT_EQ(store.buffered_events(), 0u);  // nothing a crash could lose
}

TEST_F(CheckpointTest, JournalFailChaosDropsExactlyTheFailedBatch) {
  Asrtm before(make_kb());
  CheckpointStore::Options options;
  options.journal_capacity = 1024;
  options.group_commit = 4;
  {
    CheckpointStore store(path_, options);
    store.attach(before);
    ChaosSpec spec;
    spec.journal_fail = 1.0;  // every flush fails while armed
    ChaosEngine::global().install(spec);
    for (int i = 0; i < 4; ++i) before.send_feedback(0, 0, 1.2);  // batch lost
    ChaosEngine::global().disarm();
    for (int i = 0; i < 4; ++i) before.send_feedback(0, 0, 1.2);  // batch lands
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_, options);
  const auto result = store.attach(after);
  EXPECT_EQ(result.replayed, 4u);  // only the healthy batch survives
}

TEST_F(CheckpointTest, ActiveStateSurvivesKillAndResume) {
  Asrtm before(make_kb());
  const auto define_states = [](StateManager& sm) {
    sm.define_state("performance", {},
                    Rank{RankDirection::kMinimize, {{0, 1.0}}});
    sm.define_state("energy", {}, Rank{RankDirection::kMinimize, {{1, 1.0}}});
  };
  {
    CheckpointStore store(path_);
    store.attach(before);
    StateManager sm(before);
    define_states(sm);
    sm.switch_to("energy");
    before.send_feedback(0, 1, 55.0);
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(after);
  EXPECT_EQ(result.active_state, "energy");

  // The application re-creates its states and re-activates the journaled
  // one — requirements are application-owned, not replayed blindly.
  StateManager sm(after);
  define_states(sm);
  if (!result.active_state.empty()) sm.switch_to(result.active_state);
  EXPECT_EQ(sm.active_state(), "energy");
  EXPECT_EQ(after.find_best_operating_point(), before.find_best_operating_point());
}

TEST_F(CheckpointTest, DecisionEpochSurvivesSnapshotRoundTrip) {
  Asrtm before(make_kb());
  {
    CheckpointStore store(path_);
    store.attach(before);
    mutate(before);
    (void)before.find_best_operating_point();
    store.detach();
  }
  const std::uint64_t epoch_at_snapshot = before.decision_epoch();

  Asrtm after(make_kb());
  (void)after.find_best_operating_point();  // warm the fresh cache first
  CheckpointStore store(path_);
  const auto result = store.attach(after);
  EXPECT_TRUE(result.restored);
  // Monotonic across the kill-and-resume, and strictly past the
  // snapshot: the restored state must never serve a pre-restore cache.
  EXPECT_GT(after.decision_epoch(), epoch_at_snapshot);
  EXPECT_EQ(after.find_best_operating_point(), before.find_best_operating_point());
  EXPECT_FALSE(after.last_decision_was_cached());
  (void)after.find_best_operating_point();
  EXPECT_TRUE(after.last_decision_was_cached());
}

TEST_F(CheckpointTest, TornFinalJournalLineDropsOnlyThatLine) {
  Asrtm before(make_kb());
  {
    CheckpointStore store(path_);
    store.attach(before);
    mutate(before);  // 6 events, each flushed (group_commit = 1)
  }
  // Cut the final journal line mid-byte — the write the crash tore.
  std::ifstream in(path_ + ".journal", std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 4u);
  {
    std::ofstream out(path_ + ".journal", std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 4));
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(after);
  EXPECT_EQ(result.replayed, 5u);  // the valid prefix, nothing less
  EXPECT_EQ(result.skipped, 1u);   // exactly the torn line

  // The restored state matches a run that only saw the first 5 events.
  Asrtm reference(make_kb());
  reference.send_feedback(0, 0, 1.3);
  reference.send_feedback(0, 0, 1.4);
  reference.send_feedback(2, 1, 60.0);
  reference.report_variant_failure(1);
  reference.report_variant_failure(1);
  expect_same_learned_state(reference, after);
}

TEST_F(CheckpointTest, CrashMidCheckpointLeavesMixedEpochsRestoredExactly) {
  Asrtm before(make_kb());
  {
    CheckpointStore store(path_);
    store.attach(before);
    mutate(before);  // 6 epoch-0 journal lines
    ChaosSpec spec;
    spec.crash_site = "journal-truncate";
    ChaosEngine::global().install(spec);
    store.checkpoint();  // snapshot published, death before the rotation
    EXPECT_TRUE(store.crashed());
    ChaosEngine::global().disarm();
  }
  // On disk: an epoch-1 snapshot holding all six events, next to six
  // stale epoch-0 journal lines that must not double-apply.
  Asrtm after(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(after);
  EXPECT_EQ(result.rung, RecoveryRung::kNewestSnapshot);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.replayed, 0u);
  EXPECT_EQ(result.skipped, 6u);
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, CorruptedNewestSnapshotFallsBackToAnOlderGeneration) {
  Asrtm before(make_kb());
  {
    CheckpointStore store(path_);  // default generations = 2
    store.attach(before);
    mutate(before);
    store.checkpoint();  // epoch 1 published
    before.send_feedback(3, 0, 2.0);
    before.send_feedback(3, 1, 58.0);
    store.checkpoint();  // epoch 2 published; epoch 1 rotates to .1
    before.send_feedback(1, 0, 1.7);
  }
  ASSERT_TRUE(fs::exists(path_ + ".1"));
  {
    // Flip the newest snapshot into garbage (a torn copy, bad sectors).
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << "zzzz garbage zzzz\n";
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(after);
  EXPECT_EQ(result.rung, RecoveryRung::kOlderGeneration);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.generation, 1u);
  // Generation 1 (epoch 1, six events) + chain replay of the epoch-1
  // journal (2 events) and the live epoch-2 journal (1 event): nothing
  // learned is lost even though the newest snapshot is gone.
  EXPECT_EQ(result.replayed, 3u);
  expect_same_learned_state(before, after);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::global().gauge("checkpoint.recovery_rung").value(), 1.0);
  // The restore collapsed to a fresh newest snapshot past every epoch
  // seen on disk.
  EXPECT_GT(store.epoch(), 2u);
  EXPECT_TRUE(fs::exists(path_));
}

// A newest snapshot whose checksum verifies but whose payload claims
// 10^11 corrections: the loader grows the vector as values arrive, so
// the count fails at the first missing value and the ladder restores
// the intact older generation instead of throwing bad_alloc.
TEST_F(CheckpointTest, OversizedCountInAValidSnapshotFallsBackToAnOlderGeneration) {
  Asrtm before(make_kb());
  {
    CheckpointStore store(path_);  // default generations = 2
    store.attach(before);
    mutate(before);
    store.checkpoint();  // epoch 1 published
    before.send_feedback(3, 0, 2.0);
    store.checkpoint();  // epoch 2 published; epoch 1 rotates to .1
  }
  ASSERT_TRUE(fs::exists(path_ + ".1"));
  rewrite_snapshot([](std::string& payload) -> std::uint64_t {
    const std::size_t at = payload.find("corrections 2 ");
    if (at != std::string::npos) payload.replace(at, 14, "corrections 100000000000 ");
    return payload.size();
  });

  Asrtm after(make_kb());
  CheckpointStore store(path_);
  CheckpointStore::RestoreResult result;
  ASSERT_NO_THROW(result = store.attach(after));
  EXPECT_EQ(result.rung, RecoveryRung::kOlderGeneration) << result.note;
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.generation, 1u);
  expect_same_learned_state(before, after);
}

// A header that claims 10^15 payload bytes is refused before anything
// is allocated: with no older generation the restore is a fresh start.
TEST_F(CheckpointTest, PayloadSizeBeyondTheFileIsACleanFreshStart) {
  {
    Asrtm asrtm(make_kb());
    CheckpointStore store(path_, {.generations = 1});
    store.attach(asrtm);
    mutate(asrtm);
    store.detach();
  }
  rewrite_snapshot([](std::string&) -> std::uint64_t { return 1'000'000'000'000'000; });

  Asrtm asrtm(make_kb());
  CheckpointStore store(path_, {.generations = 1});
  CheckpointStore::RestoreResult result;
  ASSERT_NO_THROW(result = store.attach(asrtm));
  EXPECT_FALSE(result.restored);
  EXPECT_EQ(result.rung, RecoveryRung::kFreshStart) << result.note;
  EXPECT_NE(result.note.find("fresh start"), std::string::npos) << result.note;
  EXPECT_DOUBLE_EQ(asrtm.correction(0), 1.0);
}

// A snapshot exactly as the checkpoint writer put it on disk before it
// moved onto the sealed-file module (support/sealed_file.hpp), for the
// mutate() workload and a clean detach().  Learned state on disk must
// keep restoring on the newest rung, and today's writer must still
// produce these bytes.
constexpr std::string_view kGoldenSnapshot =
    "socrates-checkpoint v2 1 162 298a2dc44de2d0cb\n"
    "alpha 0.29999999999999999\n"
    "quarantine 2 8 512\n"
    "events 1\n"
    "depoch 6\n"
    "state \n"
    "corrections 2 1.1829999999999998 1.046153846153846\n"
    "health 4\n"
    "0 0 0 0\n"
    "0 1 7 0\n"
    "0 0 0 0\n"
    "0 0 0 0\n";

TEST_F(CheckpointTest, GoldenSnapshotRestoresOnTheNewestRungAndIsWrittenByteForByte) {
  const std::string_view payload = kGoldenSnapshot.substr(kGoldenSnapshot.find('\n') + 1);
  EXPECT_EQ(stable_hash64(payload), 0x298a2dc44de2d0cbULL);
  std::ofstream(path_, std::ios::binary) << kGoldenSnapshot;

  Asrtm reference(make_kb());
  mutate(reference);
  Asrtm after(make_kb());
  {
    CheckpointStore store(path_);
    const auto result = store.attach(after);
    EXPECT_EQ(result.rung, RecoveryRung::kNewestSnapshot) << result.note;
    EXPECT_TRUE(result.restored);
    EXPECT_EQ(result.replayed, 0u);
    EXPECT_EQ(store.epoch(), 1u);
    expect_same_learned_state(reference, after);
  }

  const std::string fresh = (dir_ / "fresh.ckpt").string();
  {
    Asrtm asrtm(make_kb());
    CheckpointStore store(fresh);
    store.attach(asrtm);
    mutate(asrtm);
    store.detach();
  }
  std::ifstream in(fresh, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, kGoldenSnapshot);
}

TEST_F(CheckpointTest, DiskFullEntersDegradedModeThenRecoversWithAFullSnapshot) {
  Asrtm before(make_kb());
  double now = 0.0;
  {
    CheckpointStore store(path_);
    store.set_time_source([&now] { return now; });
    store.attach(before);
    before.send_feedback(0, 0, 1.3);  // journaled while healthy

    ChaosSpec spec;
    spec.disk_full = 1.0;  // the device is full until further notice
    ChaosEngine::global().install(spec);
    before.send_feedback(0, 0, 1.4);  // the flush hits injected ENOSPC
    EXPECT_TRUE(store.degraded());
    const auto sick = store.disk_status();
    EXPECT_GE(sick.io_errors, 1u);
    EXPECT_EQ(sick.degraded_entries, 1u);
    EXPECT_NE(sick.last_error.find("enospc"), std::string::npos)
        << sick.last_error;

    // Learning continues in memory; the journal misses these events.
    before.send_feedback(2, 1, 60.0);
    before.report_variant_success(2);
    EXPECT_GE(store.disk_status().events_dropped, 2u);
    EXPECT_TRUE(store.degraded()) << "backoff must gate the re-probe";

    // The disk heals.  The first event past the backoff probes, writes
    // a FULL snapshot (nothing learned while degraded is lost), and
    // resumes journaling.
    ChaosEngine::global().disarm();
    now = 10.0;  // well past the first backoff interval
    before.send_feedback(3, 0, 2.0);
    EXPECT_FALSE(store.degraded());
    const auto healed = store.disk_status();
    EXPECT_EQ(healed.recoveries, 1u);
    // Regression: the old store latched a journal failure forever; a
    // recovered disk must count a reopen and journal again.
    EXPECT_GE(healed.journal_reopens, 1u);
    before.send_feedback(3, 1, 59.0);  // journaled after recovery
  }

  Asrtm after(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(after);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.replayed, 1u);  // only the post-recovery journal line
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, StaleTmpSnapshotsAreSweptAtConstruction) {
  {
    std::ofstream out(path_ + ".tmp.99999", std::ios::binary);
    out << "torn snapshot a dead process left behind";
  }
  {
    std::ofstream out(path_ + ".tmp.4242", std::ios::binary);
    out << "another one";
  }
  Asrtm asrtm(make_kb());
  CheckpointStore store(path_);
  EXPECT_FALSE(fs::exists(path_ + ".tmp.99999"));
  EXPECT_FALSE(fs::exists(path_ + ".tmp.4242"));
  // And the store works normally afterwards.
  store.attach(asrtm);
  asrtm.send_feedback(0, 0, 1.2);
  store.checkpoint();
  EXPECT_TRUE(fs::exists(path_));
}

TEST_F(CheckpointTest, OptionsFromEnvParseAndClamp) {
  ::setenv("SOCRATES_CHECKPOINT_GENERATIONS", "3", 1);
  ::setenv("SOCRATES_CHECKPOINT_FSYNC", "1", 1);
  ::setenv("SOCRATES_CHECKPOINT_PROBE_MS", "250", 1);
  const auto options = CheckpointStore::Options::from_env();
  EXPECT_EQ(options.generations, 3u);
  EXPECT_TRUE(options.fsync_on_commit);
  EXPECT_DOUBLE_EQ(options.probe_base_s, 0.25);
  ::setenv("SOCRATES_CHECKPOINT_GENERATIONS", "99", 1);  // clamps to 8
  EXPECT_EQ(CheckpointStore::Options::from_env().generations, 8u);
  ::unsetenv("SOCRATES_CHECKPOINT_GENERATIONS");
  ::unsetenv("SOCRATES_CHECKPOINT_FSYNC");
  ::unsetenv("SOCRATES_CHECKPOINT_PROBE_MS");
}

TEST_F(CheckpointTest, FsyncOnCommitRoundTrips) {
  Asrtm before(make_kb());
  CheckpointStore::Options options;
  options.fsync_on_commit = true;
  {
    CheckpointStore store(path_, options);
    store.attach(before);
    mutate(before);
    store.checkpoint();
    before.send_feedback(3, 0, 2.0);
  }
  Asrtm after(make_kb());
  CheckpointStore store(path_, options);
  const auto result = store.attach(after);
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.replayed, 1u);
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, JournalQuotaForcesASnapshotRotation) {
  Asrtm before(make_kb());
  CheckpointStore::Options options;
  options.journal_capacity = 1 << 20;  // the byte quota must trigger first
  options.journal_max_bytes = 256;
  {
    CheckpointStore store(path_, options);
    store.attach(before);
    for (int i = 0; i < 64; ++i) before.send_feedback(0, 0, 1.2);
    EXPECT_GE(store.snapshots_written(), 2u)
        << "the quota never rotated the journal";
    EXPECT_LE(fs::file_size(path_ + ".journal"), 512u)
        << "the live journal must stay near the quota";
  }
  Asrtm after(make_kb());
  CheckpointStore store(path_, options);
  store.attach(after);
  expect_same_learned_state(before, after);
}

TEST_F(CheckpointTest, ResumedRunKeepsJournalingAfterRestore) {
  Asrtm first(make_kb());
  {
    CheckpointStore store(path_);
    store.attach(first);
    mutate(first);
  }
  Asrtm second(make_kb());
  {
    CheckpointStore store(path_);
    store.attach(second);
    second.send_feedback(0, 0, 1.6);  // post-resume drift, journaled too
  }
  Asrtm third(make_kb());
  CheckpointStore store(path_);
  const auto result = store.attach(third);
  EXPECT_EQ(result.replayed, 7u);  // 6 pre-crash + 1 post-resume
  expect_same_learned_state(second, third);
}

}  // namespace
}  // namespace socrates::margot
