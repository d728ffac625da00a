// Crash-point torture harness for CheckpointStore (CrashMonkey-style,
// in-process).  For every write boundary the store crosses —
//
//   journal-append     torn mid-batch append (half the bytes land)
//   journal-flush      death just after a committed batch
//   snapshot-header    torn tmp snapshot, header half-written
//   snapshot-body      torn tmp snapshot, payload half-written
//   snapshot-rename    complete tmp, never published
//   journal-truncate   snapshot published, old-epoch journal left behind
//
// × the first 3 occurrences each, the harness injects a simulated
// process death via SOCRATES_CHAOS `crash-at=<site>:<n>`, restores
// from whatever survived on disk, and asserts the durability contract:
//
//   1. the restore NEVER lands on the fresh-start rung — some prefix
//      of the learned state always survives;
//   2. the restored state is bit-exact equal to a reference run that
//      saw exactly the first k events, for some k with
//      applied - k <= group_commit (loss bounded by one uncommitted
//      batch);
//   3. the epoch never moves backwards across the crash, and advances
//      strictly once the resumed run checkpoints;
//   4. no stale tmp snapshot survives the restart sweep.
//
// Every event in the workload changes an EWMA correction with a
// distinct value, so distinct prefixes have distinct fingerprints and
// k is uniquely identified.  The enumeration is the `crash-smoke`
// CTest preset's payload (ASan + fixed seed).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "margot/asrtm.hpp"
#include "margot/checkpoint.hpp"
#include "support/chaos.hpp"

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

/// Event i of the deterministic workload.  Each event feeds back a
/// value no other event uses, so every prefix of the stream produces a
/// unique (correction(0), correction(1)) pair — the fingerprint below
/// identifies exactly how many events survived a crash.
void apply_event(Asrtm& asrtm, int i) {
  const std::size_t op = static_cast<std::size_t>(i) % 4;
  if (i % 2 == 0)
    asrtm.send_feedback(op, 0, 1.0 + 0.013 * static_cast<double>(i + 1));
  else
    asrtm.send_feedback(op, 1, 48.0 + 0.7 * static_cast<double>(i + 1));
}

/// The learned state, exactly.  Doubles print at max_digits10 so the
/// comparison is bit-exact round-trip equality, not approximation.
std::string fingerprint(const Asrtm& asrtm) {
  std::ostringstream os;
  os << std::setprecision(17) << asrtm.correction(0) << '|' << asrtm.correction(1)
     << '|' << asrtm.quarantined_count() << '|' << asrtm.quarantine_events();
  return os.str();
}

constexpr const char* kSites[] = {
    "journal-append",  "journal-flush",   "snapshot-header",
    "snapshot-body",   "snapshot-rename", "journal-truncate",
};

class CheckpointCrashTortureTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {
 protected:
  void SetUp() override {
    ChaosEngine::global().disarm();
    // A parameterized test's name holds a '/', which would nest the
    // directory one level below the one TearDown removes.
    std::string name = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = fs::temp_directory_path() /
           ("socrates_crash." + std::to_string(::getpid()) + "." + name);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "asrtm.ckpt").string();
  }
  void TearDown() override {
    ChaosEngine::global().disarm();
    fs::remove_all(dir_);
  }

  fs::path dir_;
  std::string path_;
};

TEST_P(CheckpointCrashTortureTest, LossIsBoundedAndEpochMonotone) {
  const auto& [site, occurrence] = GetParam();

  // Small capacities so every boundary fires several times within a
  // short workload: a group commit every 2 events, a snapshot every 5.
  CheckpointStore::Options options;
  options.journal_capacity = 5;
  options.group_commit = 2;
  options.generations = 2;

  ChaosSpec spec;
  spec.crash_site = site;
  spec.crash_after = static_cast<std::uint64_t>(occurrence);
  spec.seed = 1234;  // fixed seed: the crash-smoke run is reproducible
  ChaosEngine::global().install(spec);

  // ---- phase 1: run until the injected death -------------------------------
  constexpr int kMaxEvents = 64;
  int applied = 0;
  std::uint64_t published_epoch = 0;
  std::vector<std::string> prefix_fp;  // fingerprint after each prefix
  Asrtm live(make_kb());
  prefix_fp.push_back(fingerprint(live));  // prefix of 0 events
  {
    CheckpointStore store(path_, options);
    store.attach(live);
    for (int i = 0; i < kMaxEvents && !store.crashed(); ++i) {
      apply_event(live, i);
      ++applied;
      prefix_fp.push_back(fingerprint(live));
    }
    ASSERT_TRUE(store.crashed())
        << "site " << site << " occurrence " << occurrence
        << " never fired within " << kMaxEvents << " events";
    published_epoch = store.epoch();
  }
  ChaosEngine::global().disarm();

  // ---- phase 2: restore from the surviving files ---------------------------
  Asrtm restored(make_kb());
  CheckpointStore store(path_, options);
  CheckpointStore::RestoreResult result;
  ASSERT_NO_THROW(result = store.attach(restored)) << "site " << site;

  // (1) Never a silent total loss.
  EXPECT_NE(result.rung, RecoveryRung::kFreshStart)
      << "rung " << to_string(result.rung) << ": " << result.note;

  // (4) The restart swept every stale tmp snapshot.
  for (const auto& entry : fs::directory_iterator(dir_))
    EXPECT_EQ(entry.path().filename().string().find(".tmp."), std::string::npos)
        << "stale tmp survived the sweep: " << entry.path();

  // (2) The surviving state is a bit-exact prefix of the applied
  // events, missing at most one uncommitted batch.
  const std::string got = fingerprint(restored);
  int survived = -1;
  for (int k = applied; k >= 0; --k) {
    if (prefix_fp[static_cast<std::size_t>(k)] == got) {
      survived = k;
      break;
    }
  }
  ASSERT_GE(survived, 0) << "restored state is not a prefix of the applied "
                            "events (corruption, not truncation): "
                         << result.note;
  EXPECT_LE(applied - survived, static_cast<int>(options.group_commit))
      << "lost " << (applied - survived)
      << " events; the contract allows at most one uncommitted batch ("
      << options.group_commit << ") — " << result.note;

  // (3) Epoch monotone across the crash, strictly advancing afterwards.
  EXPECT_GE(store.epoch(), published_epoch) << result.note;
  const std::uint64_t resumed_epoch = store.epoch();
  apply_event(restored, 1000);
  store.checkpoint();
  EXPECT_GT(store.epoch(), resumed_epoch);
  EXPECT_GE(store.epoch(), published_epoch + 1);
  EXPECT_FALSE(store.degraded()) << "a crash site must not poison disk health";
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<const char*, int>>& info) {
  std::string name = std::get<0>(info.param);
  for (auto& c : name)
    if (c == '-') c = '_';
  return name + "_x" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    EveryWriteBoundary, CheckpointCrashTortureTest,
    ::testing::Combine(::testing::ValuesIn(kSites), ::testing::Values(1, 2, 3)),
    case_name);

}  // namespace
}  // namespace socrates::margot
