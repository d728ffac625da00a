// Tests for the pipeline-level fault injector: spec grammar, the
// deterministic per-site schedules, and the ArtifactCache disk-fault
// hooks (short writes, read corruption, stale temp files).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "observability/metrics.hpp"
#include "support/artifact_cache.hpp"
#include "support/chaos.hpp"
#include "support/error.hpp"
#include "support/sealed_file.hpp"

namespace socrates {
namespace {

namespace fs = std::filesystem;

/// Disarms the global engine around each test: chaos must neither leak
/// into other tests of this binary nor leak *in* from a SOCRATES_CHAOS
/// environment (the chaos-smoke preset) — these tests install their own
/// specs.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { ChaosEngine::global().disarm(); }
  void TearDown() override { ChaosEngine::global().disarm(); }
};

TEST(ChaosSpecParse, FullGrammarRoundTrips) {
  const auto spec = ChaosSpec::parse(
      "stage-fail=0.2, stage-hang=0.1,stage-slow=0.3,cache-read=0.4,"
      "cache-write=0.5,cache-tmp=0.6,hang-ms=120,slow-ms=7:2024");
  EXPECT_DOUBLE_EQ(spec.stage_fail, 0.2);
  EXPECT_DOUBLE_EQ(spec.stage_hang, 0.1);
  EXPECT_DOUBLE_EQ(spec.stage_slow, 0.3);
  EXPECT_DOUBLE_EQ(spec.cache_read, 0.4);
  EXPECT_DOUBLE_EQ(spec.cache_write, 0.5);
  EXPECT_DOUBLE_EQ(spec.cache_tmp, 0.6);
  EXPECT_DOUBLE_EQ(spec.hang_ms, 120.0);
  EXPECT_DOUBLE_EQ(spec.slow_ms, 7.0);
  EXPECT_EQ(spec.seed, 2024u);
  EXPECT_TRUE(spec.any());
}

TEST(ChaosSpecParse, EmptyAndSeedlessSpecs) {
  EXPECT_FALSE(ChaosSpec::parse("").any());
  const auto spec = ChaosSpec::parse("stage-fail=1");
  EXPECT_DOUBLE_EQ(spec.stage_fail, 1.0);
  EXPECT_EQ(spec.seed, 1u);  // default seed
}

TEST(ChaosSpecParse, ServerFaultSitesParse) {
  const auto spec = ChaosSpec::parse(
      "shard-stall=0.25,ingest-flood=0.5,journal-fail=0.75,"
      "stall-ms=120,flood-burst=16:7");
  EXPECT_DOUBLE_EQ(spec.shard_stall, 0.25);
  EXPECT_DOUBLE_EQ(spec.ingest_flood, 0.5);
  EXPECT_DOUBLE_EQ(spec.journal_fail, 0.75);
  EXPECT_DOUBLE_EQ(spec.stall_ms, 120.0);
  EXPECT_DOUBLE_EQ(spec.flood_burst, 16.0);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_TRUE(spec.any());
}

TEST(ChaosSpecParse, ServerFaultValuesAreValidated) {
  EXPECT_THROW(ChaosSpec::parse("shard-stall=1.5"), Error);
  EXPECT_THROW(ChaosSpec::parse("ingest-flood=-0.1"), Error);
  EXPECT_THROW(ChaosSpec::parse("journal-fail=nope"), Error);
  EXPECT_THROW(ChaosSpec::parse("flood-burst=0"), Error);     // count >= 1
  EXPECT_THROW(ChaosSpec::parse("flood-burst=99999"), Error); // count <= 4096
  EXPECT_THROW(ChaosSpec::parse("stall-ms=999999"), Error);
}

TEST(ChaosEngineBasics, ServerHooksFollowTheirProbabilities) {
  ChaosEngine engine;
  ChaosSpec spec;
  spec.shard_stall = 1.0;
  spec.journal_fail = 1.0;
  spec.ingest_flood = 0.0;
  engine.install(spec);
  EXPECT_TRUE(engine.stall_shard("server.shard0"));
  EXPECT_TRUE(engine.fail_journal("checkpoint.journal"));
  for (int i = 0; i < 32; ++i)
    EXPECT_FALSE(engine.flood_ingest("server.ingest")) << "p=0 must never fire";
}

TEST(ChaosEngineBasics, ServerSiteSchedulesAreDeterministic) {
  ChaosSpec spec;
  spec.ingest_flood = 0.5;
  spec.seed = 42;
  ChaosEngine a;
  ChaosEngine b;
  a.install(spec);
  b.install(spec);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.flood_ingest("server.ingest"), b.flood_ingest("server.ingest"))
        << "draw " << i;
  }
}

TEST(ChaosSpecParse, StorageResilienceKeysParse) {
  const auto spec =
      ChaosSpec::parse("disk-full=0.25,crash-at=snapshot-rename:2:99");
  EXPECT_DOUBLE_EQ(spec.disk_full, 0.25);
  EXPECT_EQ(spec.crash_site, "snapshot-rename");
  EXPECT_EQ(spec.crash_after, 2u);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_TRUE(spec.any());
}

TEST(ChaosSpecParse, CrashAtOccurrenceBindsBeforeTheSeed) {
  // A single trailing colon on a crash-at last entry is the occurrence
  // count, not the seed — the documented grammar disambiguation.
  const auto spec = ChaosSpec::parse("crash-at=journal-append:3");
  EXPECT_EQ(spec.crash_site, "journal-append");
  EXPECT_EQ(spec.crash_after, 3u);
  EXPECT_EQ(spec.seed, 1u);  // default: the colon bound to the count

  const auto bare = ChaosSpec::parse("crash-at=journal-flush");
  EXPECT_EQ(bare.crash_site, "journal-flush");
  EXPECT_EQ(bare.crash_after, 1u);  // default: the first arrival
}

TEST(ChaosSpecParse, StorageResilienceValuesAreValidated) {
  EXPECT_THROW(ChaosSpec::parse("disk-full=1.5"), Error);
  EXPECT_THROW(ChaosSpec::parse("crash-at=not-a-site"), Error);
  EXPECT_THROW(ChaosSpec::parse("crash-at=journal-append:0"), Error);
  EXPECT_THROW(ChaosSpec::parse("crash-at=journal-append:nope"), Error);
}

TEST(ChaosEngineBasics, CrashPointFiresExactlyAtTheNthArrival) {
  ChaosEngine engine;
  ChaosSpec spec;
  spec.crash_site = "snapshot-rename";
  spec.crash_after = 3;
  engine.install(spec);
  EXPECT_FALSE(engine.crash_now("snapshot-rename"));  // arrival 1
  EXPECT_FALSE(engine.crash_now("journal-append"));   // other site: inert
  EXPECT_FALSE(engine.crash_now("snapshot-rename"));  // arrival 2
  EXPECT_TRUE(engine.crash_now("snapshot-rename"));   // arrival 3: death
  EXPECT_FALSE(engine.crash_now("snapshot-rename"));  // fires exactly once
  EXPECT_EQ(engine.injected(), 1u);
}

TEST(ChaosEngineBasics, DiskFullHookFollowsItsProbability) {
  ChaosEngine engine;
  ChaosSpec spec;
  spec.disk_full = 1.0;
  engine.install(spec);
  EXPECT_TRUE(engine.fail_disk("checkpoint.disk"));
  engine.disarm();
  EXPECT_FALSE(engine.fail_disk("checkpoint.disk"));
}

TEST(ChaosSpecParse, MalformedSpecsThrowSocratesError) {
  EXPECT_THROW(ChaosSpec::parse("unknown-key=0.5"), Error);
  EXPECT_THROW(ChaosSpec::parse("stage-fail"), Error);
  EXPECT_THROW(ChaosSpec::parse("stage-fail=nope"), Error);
  EXPECT_THROW(ChaosSpec::parse("stage-fail=1.5"), Error);
  EXPECT_THROW(ChaosSpec::parse("stage-fail=-0.1"), Error);
  EXPECT_THROW(ChaosSpec::parse("hang-ms=999999"), Error);
  EXPECT_THROW(ChaosSpec::parse("stage-fail=0.5:notaseed"), Error);
  EXPECT_THROW(ChaosSpec::parse("dse-explore=0.5"), Error);
}

TEST(ChaosEngineBasics, DisabledEngineInjectsNothing) {
  ChaosEngine engine;
  EXPECT_FALSE(engine.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_NO_THROW(engine.on_stage("stage.Parse"));
    EXPECT_FALSE(engine.corrupt_read("cache.read"));
    EXPECT_FALSE(engine.fail_write("cache.write"));
    EXPECT_FALSE(engine.drop_rename("cache.tmp"));
    EXPECT_FALSE(engine.fire_indexed("dse.point", i));
  }
  EXPECT_EQ(engine.injected(), 0u);
}

TEST(ChaosEngineBasics, CertainFaultAlwaysFires) {
  ChaosEngine engine;
  ChaosSpec spec;
  spec.stage_fail = 1.0;
  engine.install(spec);
  EXPECT_TRUE(engine.enabled());
  EXPECT_THROW(engine.on_stage("stage.Parse"), ChaosFault);
  EXPECT_THROW(engine.on_stage("stage.Parse"), ChaosFault);
  EXPECT_EQ(engine.injected(), 2u);
  engine.disarm();
  EXPECT_NO_THROW(engine.on_stage("stage.Parse"));
}

TEST(ChaosEngineBasics, ScheduleIsDeterministicPerSite) {
  ChaosSpec spec;
  spec.cache_write = 0.5;
  spec.seed = 7;

  const auto pattern_of = [&spec](const char* site) {
    ChaosEngine engine;
    engine.install(spec);
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) pattern.push_back(engine.fail_write(site));
    return pattern;
  };

  const auto first = pattern_of("cache.write");
  const auto second = pattern_of("cache.write");
  EXPECT_EQ(first, second);  // re-install resets the site counters
  EXPECT_NE(first, pattern_of("cache.other"));  // sites are independent

  ChaosSpec reseeded = spec;
  reseeded.seed = 8;
  ChaosEngine engine;
  engine.install(reseeded);
  std::vector<bool> pattern;
  for (int i = 0; i < 64; ++i) pattern.push_back(engine.fail_write("cache.write"));
  EXPECT_NE(first, pattern);
}

TEST(ChaosEngineBasics, IndexedDrawIsIndependentOfCallOrder) {
  ChaosSpec spec;
  spec.stage_fail = 0.5;
  spec.seed = 11;
  ChaosEngine engine;
  engine.install(spec);

  std::vector<bool> forward, backward(100);
  for (int i = 0; i < 100; ++i) forward.push_back(engine.fire_indexed("dse.point", i));
  for (int i = 99; i >= 0; --i) backward[i] = engine.fire_indexed("dse.point", i);
  EXPECT_EQ(forward, backward);
}

// ---- ArtifactCache disk-fault hooks ---------------------------------------------

class ChaosCacheTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    dir_ = fs::temp_directory_path() /
           ("socrates_chaos_cache." + std::to_string(::getpid()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    ChaosTest::TearDown();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(ChaosCacheTest, InjectedShortWritePublishesNothing) {
  ChaosSpec spec;
  spec.cache_write = 1.0;
  ChaosEngine::global().install(spec);

  Counter& failures = MetricsRegistry::global().counter("cache.store_failures");
  const std::uint64_t failures_before = failures.value();
  ArtifactCache cache(dir_.string());
  cache.store(1, "thing", "payload-bytes");
  ChaosEngine::global().disarm();
  EXPECT_EQ(failures.value(), failures_before + 1);

  // Nothing was published to disk, and no temp file was left behind;
  // only the memory tier has it.
  cache.clear_memory();
  EXPECT_FALSE(cache.load(1, "thing").has_value());
  for (const auto& entry : fs::directory_iterator(dir_))
    FAIL() << "unexpected file " << entry.path();
}

TEST_F(ChaosCacheTest, InjectedReadCorruptionIsAMissNotAnError) {
  ArtifactCache cache(dir_.string());
  cache.store(2, "thing", "payload-bytes");
  cache.clear_memory();

  ChaosSpec spec;
  spec.cache_read = 1.0;
  ChaosEngine::global().install(spec);
  EXPECT_FALSE(cache.load(2, "thing").has_value());
  ChaosEngine::global().disarm();

  // The file itself is intact: without chaos the read succeeds.
  const auto hit = cache.load(2, "thing");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-bytes");
}

TEST_F(ChaosCacheTest, DroppedRenameLeavesATmpFileTheNextCacheSweeps) {
  ChaosSpec spec;
  spec.cache_tmp = 1.0;
  ChaosEngine::global().install(spec);

  ArtifactCache cache(dir_.string());
  cache.store(3, "thing", "payload-bytes");
  ChaosEngine::global().disarm();

  // The writer "died" before the rename: a stale temp file remains and
  // the artifact was never published.
  std::size_t tmp_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().find(".artifact.tmp.") == std::string::npos)
      continue;
    ++tmp_files;
    // The temp file is complete — only the rename never happened.
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, sealed::seal("socrates-artifact", "v2", "3", "payload-bytes"));
  }
  EXPECT_EQ(tmp_files, 1u);
  cache.clear_memory();
  EXPECT_FALSE(cache.load(3, "thing").has_value());

  // A new cache on the same directory (the restarted process) sweeps it.
  ArtifactCache restarted(dir_.string());
  EXPECT_EQ(restarted.stats().swept_tmp_files, 1u);
  for (const auto& entry : fs::directory_iterator(dir_))
    FAIL() << "stale file survived the sweep: " << entry.path();
}

}  // namespace
}  // namespace socrates
