// Tests for the content-keyed artifact cache and the serialized
// artifact formats it stores: memory/disk tiers, corruption tolerance,
// key invalidation, exact round trips, and cache reuse through the
// Pipeline.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cobayn/cobayn.hpp"
#include "dse/dse.hpp"
#include "dse/explorer.hpp"
#include "dse/two_stage.hpp"
#include "kernels/registry.hpp"
#include "kernels/sources.hpp"
#include "observability/metrics.hpp"
#include "socrates/pipeline.hpp"
#include "support/artifact_cache.hpp"
#include "support/error.hpp"

namespace socrates {
namespace {

namespace fs = std::filesystem;

const platform::PerformanceModel& model() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  return kModel;
}

/// A per-test on-disk cache directory, removed on teardown.
class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("socrates_cache_test." + std::to_string(::getpid()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST(ArtifactCacheMemory, StoreThenLoadHits) {
  ArtifactCache cache;  // memory-only
  EXPECT_FALSE(cache.load(42, "thing").has_value());
  cache.store(42, "thing", "payload");
  const auto hit = cache.load(42, "thing");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload");
  EXPECT_FALSE(cache.load(43, "thing").has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.memory_hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST_F(DiskCacheTest, SurvivesMemoryDropViaDiskTier) {
  ArtifactCache cache(dir_.string());
  cache.store(7, "dse-profile", "the artifact body");
  cache.clear_memory();
  const auto hit = cache.load(7, "dse-profile");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "the artifact body");
  EXPECT_EQ(cache.stats().disk_hits, 1u);

  // A second cache instance on the same directory (a later process)
  // sees the artifact too.
  ArtifactCache other(dir_.string());
  const auto cross = other.load(7, "dse-profile");
  ASSERT_TRUE(cross.has_value());
  EXPECT_EQ(*cross, "the artifact body");
}

TEST_F(DiskCacheTest, CorruptedDiskFileIsAMissNotAnError) {
  ArtifactCache cache(dir_.string());
  cache.store(9, "cobayn-model", "good payload");
  cache.clear_memory();

  // Scribble over every stored file: checksum validation must turn the
  // damage into a plain miss.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "vandalized";
  }
  EXPECT_FALSE(cache.load(9, "cobayn-model").has_value());

  // Truncated-to-empty files as well.
  cache.store(9, "cobayn-model", "good payload");
  cache.clear_memory();
  for (const auto& entry : fs::directory_iterator(dir_))
    std::ofstream(entry.path(), std::ios::trunc);
  EXPECT_FALSE(cache.load(9, "cobayn-model").has_value());
}

TEST_F(DiskCacheTest, TruncatedPayloadIsAMissAndAStoreRepairsIt) {
  // Simulate a writer that died mid-payload *after* the header went out
  // (the failure mode the tmp+rename publish protects against): the
  // header promises more bytes than the file holds.
  ArtifactCache cache(dir_.string());
  cache.store(11, "dse-profile", "twelve bytes!");
  cache.clear_memory();

  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string header;
    std::getline(in, header);
    in.close();
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << header << "\ntwelve";  // half the promised payload
  }
  EXPECT_FALSE(cache.load(11, "dse-profile").has_value());

  // Re-storing replaces the damaged file and the next load hits disk.
  cache.store(11, "dse-profile", "twelve bytes!");
  cache.clear_memory();
  const auto hit = cache.load(11, "dse-profile");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "twelve bytes!");
}

TEST_F(DiskCacheTest, HeaderClaimingMoreBytesThanTheFileIsACorruptedMiss) {
  // A damaged size field claims 10^15 payload bytes.  The claim is
  // checked against the bytes left in the file before anything is
  // allocated, so the load is a corrupted-file miss, not bad_alloc.
  ArtifactCache cache(dir_.string());
  cache.store(12, "dse-profile", "twelve bytes!");
  cache.clear_memory();

  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string magic, version, key, size, hash;
    in >> magic >> version >> key >> size >> hash;
    in.get();
    const std::string payload((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << magic << ' ' << version << ' ' << key << " 1000000000000000 " << hash
        << '\n' << payload;
  }
  Counter& corrupted = MetricsRegistry::global().counter("cache.corrupted_files");
  const std::uint64_t corrupted_before = corrupted.value();
  std::optional<std::string> loaded;
  ASSERT_NO_THROW(loaded = cache.load(12, "dse-profile"));
  EXPECT_FALSE(loaded.has_value());
  EXPECT_EQ(corrupted.value(), corrupted_before + 1);

  // The stage recomputes and stores again, which repairs the file.
  cache.store(12, "dse-profile", "twelve bytes!");
  cache.clear_memory();
  EXPECT_EQ(cache.load(12, "dse-profile"), std::optional<std::string>("twelve bytes!"));
}

TEST_F(DiskCacheTest, VersionOneFileIsACorruptedMissThatTheNextStoreOverwrites) {
  // The header before artifacts became sealed files: v1, the key in hex.
  fs::create_directories(dir_);
  const fs::path file = dir_ / "dse-profile-e.artifact";
  std::ofstream(file, std::ios::binary) << "socrates-artifact v1 e 4 0\nbody";
  ArtifactCache cache(dir_.string());
  Counter& corrupted = MetricsRegistry::global().counter("cache.corrupted_files");
  const std::uint64_t corrupted_before = corrupted.value();
  EXPECT_FALSE(cache.load(14, "dse-profile").has_value());
  EXPECT_EQ(corrupted.value(), corrupted_before + 1);

  cache.store(14, "dse-profile", "body");
  std::ifstream in(file, std::ios::binary);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("socrates-artifact v2 14 4 ", 0), 0u) << header;
  cache.clear_memory();
  EXPECT_EQ(cache.load(14, "dse-profile"), std::optional<std::string>("body"));
}

TEST_F(DiskCacheTest, FileUnderAnotherKeyIsACorruptedMiss) {
  // A sealed artifact whose tag names another key (a renamed or copied
  // file): the envelope verifies, the key check refuses it.
  ArtifactCache cache(dir_.string());
  cache.store(15, "dse-profile", "fifteen");
  fs::copy_file(dir_ / "dse-profile-f.artifact", dir_ / "dse-profile-10.artifact");
  cache.clear_memory();
  EXPECT_FALSE(cache.load(16, "dse-profile").has_value());
  EXPECT_EQ(cache.load(15, "dse-profile"), std::optional<std::string>("fifteen"));
}

TEST_F(DiskCacheTest, LeftoverTempFilesAreHarmless) {
  // A crashed writer leaves its per-pid temp file behind; loads must
  // ignore it and later stores must still publish the real name.
  ArtifactCache cache(dir_.string());
  cache.store(13, "cobayn-model", "real");
  std::ofstream(dir_ / "cobayn-model-d.artifact.tmp.99999") << "garbage";

  cache.clear_memory();
  const auto hit = cache.load(13, "cobayn-model");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "real");
}

TEST(ArtifactCacheDegraded, UnwritableDiskDirFallsBackToMemory) {
  // Point the disk tier at a path whose parent is a regular file:
  // create_directories must fail (even for root, unlike a chmod), and
  // the cache must degrade to the memory tier with a warning, not crash.
  const fs::path blocker = fs::temp_directory_path() /
                           ("socrates_cache_blocker." + std::to_string(::getpid()));
  std::ofstream(blocker) << "not a directory";
  ArtifactCache cache((blocker / "sub").string());
  cache.store(17, "dse-profile", "memory only");
  const auto hit = cache.load(17, "dse-profile");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "memory only");

  cache.clear_memory();
  EXPECT_FALSE(cache.load(17, "dse-profile").has_value());  // disk never happened
  fs::remove(blocker);
}

// ---- Artifact keys --------------------------------------------------------------

TEST(ArtifactKeys, CobaynKeyTracksEveryInput) {
  const cobayn::TrainOptions train;
  const auto base = cobayn_artifact_key(model(), 48, 2018, train);
  EXPECT_EQ(cobayn_artifact_key(model(), 48, 2018, train), base);

  EXPECT_NE(cobayn_artifact_key(model(), 32, 2018, train), base);
  EXPECT_NE(cobayn_artifact_key(model(), 48, 2019, train), base);

  cobayn::TrainOptions other = train;
  other.feature_bins = train.feature_bins + 1;
  EXPECT_NE(cobayn_artifact_key(model(), 48, 2018, other), base);

  // Bumping the stage version invalidates previously stored artifacts.
  EXPECT_NE(cobayn_artifact_key(model(), 48, 2018, train, kCobaynStageVersion + 1),
            base);
}

TEST(ArtifactKeys, DseKeyTracksEveryInput) {
  const auto space = platform::DesignSpace::paper_space(model().topology());
  const auto& bench = kernels::find_benchmark("2mm");
  const std::string source = kernels::benchmark_source("2mm");
  const dse::FullFactorialExplorer full;

  const auto base =
      dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.0, full);
  EXPECT_EQ(dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.0, full),
            base);

  EXPECT_NE(
      dse_artifact_key(model(), source + "\n", bench.model, space, 5, 2018, 1.0, full),
      base);
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, space, 4, 2018, 1.0, full),
            base);
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, space, 5, 2019, 1.0, full),
            base);
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.5, full),
            base);
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.0, full,
                             kDseStageVersion + 1),
            base);
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.0,
                             dse::TwoStageExplorer({})),
            base);

  auto other = space;
  other.thread_counts.pop_back();
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, other, 5, 2018, 1.0, full),
            base);
  other = space;
  other.configs[4].name = "CFx";
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, other, 5, 2018, 1.0, full),
            base);
  other = space;
  other.bindings = {platform::BindingPolicy::kSpread, platform::BindingPolicy::kClose};
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, other, 5, 2018, 1.0, full),
            base);
}

// The keys earlier builds stored their artifacts under.  A change that
// moves one byte in or out of a key orphans every on-disk cache, so a
// pin changes only on purpose, together with the stage version.  The
// DSE pins are the keys at kDseStageVersion 3 (binary profile records).
TEST(ArtifactKeys, DseKeysArePinned) {
  const auto space = platform::DesignSpace::paper_space(model().topology());
  const auto& bench = kernels::find_benchmark("2mm");
  const std::string source = kernels::benchmark_source("2mm");
  dse::TwoStageExplorer::Params two_stage;
  two_stage.seed_configs = {4, 5, 6, 7};
  EXPECT_EQ(dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.0,
                             dse::FullFactorialExplorer()),
            0x163e0929746c4041ULL);
  EXPECT_EQ(dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.0,
                             dse::TwoStageExplorer(two_stage)),
            0xdfac0a365368c34eULL);
}

TEST(ArtifactKeys, CobaynKeyIsPinned) {
  EXPECT_EQ(cobayn_artifact_key(model(), 48, 2018, cobayn::TrainOptions{}),
            0x4e5a9b911e110fadULL);
}

// ---- Serialized artifact formats ------------------------------------------------

TEST(ArtifactFormats, ProfileRoundTripsExactly) {
  const auto space = platform::DesignSpace::paper_space(model().topology());
  const auto points =
      dse::FullFactorialExplorer()
          .explore({model(), kernels::find_benchmark("mvt").model, space, 2, 11})
          .points;

  const std::string first = dse::save_profile(points);
  EXPECT_EQ(first.size(), 4 + points.size() * dse::kProfileRecordBytes);
  const auto reloaded = dse::load_profile(space, first);
  ASSERT_EQ(reloaded.size(), points.size());
  EXPECT_EQ(dse::save_profile(reloaded), first);  // every double keeps its bits

  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(reloaded[i].flat, points[i].flat);
    EXPECT_EQ(reloaded[i].exec_time_mean_s, points[i].exec_time_mean_s);
    EXPECT_EQ(reloaded[i].power_mean_w, points[i].power_mean_w);
  }
}

TEST(ArtifactFormats, MalformedProfileThrows) {
  // The text profiles of stage version 2 and payloads too short for
  // their record count: the loader must fail on the size, not on
  // allocating for the claim.
  const auto space = platform::DesignSpace::paper_space(model().topology());
  for (const std::string& bad :
       {std::string(), std::string("\x01\x00\x00", 3), std::string("\x01\x00\x00\x00", 4),
        std::string("profile v1 notanumber"), std::string("profile v1 1\n0 cfg 9 0 1 0"),
        std::string("profile v1 100000000000"), std::string("\xff\xff\xff\xff", 4)}) {
    EXPECT_THROW(dse::load_profile(space, bad), ContractViolation) << bad;
  }
}

TEST(ArtifactFormats, CobaynModelRoundTripsExactly) {
  const auto corpus = cobayn::make_corpus(20, 3);
  const auto trained = cobayn::CobaynModel::train(corpus, model());

  std::ostringstream first;
  trained.save(first);
  std::istringstream in(first.str());
  const auto reloaded = cobayn::CobaynModel::load(in);
  EXPECT_EQ(reloaded.training_rows(), trained.training_rows());
  std::ostringstream second;
  reloaded.save(second);
  EXPECT_EQ(second.str(), first.str());

  // The reloaded model predicts exactly what the trained one does.
  const auto fv =
      cobayn::kernel_features_of_source(kernels::benchmark_source("atax"));
  const auto a = trained.predict(fv, 4);
  const auto b = reloaded.predict(fv, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config.flag_bits(), b[i].config.flag_bits());
    EXPECT_EQ(a[i].probability, b[i].probability);
  }
}

TEST(ArtifactFormats, MalformedCobaynModelThrows) {
  // 64 binary parents give the last variable a 2^65-entry CPT, a size
  // that wraps to 0 in a size_t: its empty CPT must not pass as that.
  std::ostringstream wrapped;
  wrapped << "cobayn v1 10 1\ndiscretizer v1 0\nbayesnet v1 65 1\n";
  for (int v = 0; v < 65; ++v) wrapped << 'v' << v << " 2\n";
  for (int v = 0; v < 64; ++v) wrapped << "0\n";
  wrapped << 64;
  for (int p = 0; p < 64; ++p) wrapped << ' ' << p;
  wrapped << '\n';
  for (int v = 0; v < 64; ++v) wrapped << "2 0x1p-1 0x1p-1\n";
  wrapped << "0\n";

  // Before `wrapped`, four payloads claim huge discretizer columns, cut
  // lists, network variables and CPTs that the stream never delivers.
  for (const std::string& bad : std::vector<std::string>{
           "", "not a model", "cobayn v2 0 0", "cobayn v1 10 5",
           "cobayn v1 10 0\ndiscretizer v1 100000000000",
           "cobayn v1 10 0\ndiscretizer v1 1\n100000000000",
           "cobayn v1 10 1\ndiscretizer v1 0\nbayesnet v1 100000000000 0",
           "cobayn v1 10 1\ndiscretizer v1 0\nbayesnet v1 1 1\nx 100000000000\n0\n"
           "100000000000",
           wrapped.str()}) {
    std::istringstream in(bad);
    EXPECT_THROW(cobayn::CobaynModel::load(in), ContractViolation) << bad;
  }
}

// ---- Cache reuse through the Pipeline -------------------------------------------

ToolchainOptions small_options() {
  ToolchainOptions opts;
  opts.corpus_size = 16;
  opts.dse_repetitions = 2;
  opts.jobs = 2;
  return opts;
}

TEST(PipelineCache, SecondBuildHitsBothExpensiveStages) {
  ArtifactCache cache;
  Pipeline pipeline(model(), small_options(), &cache);

  const auto cold = pipeline.build("gemm");
  const auto* cold_dse = pipeline.last_report().stage("Dse");
  ASSERT_NE(cold_dse, nullptr);
  EXPECT_FALSE(cold_dse->cache_hit);

  const auto warm = pipeline.build("gemm");
  const auto* warm_dse = pipeline.last_report().stage("Dse");
  const auto* warm_cobayn = pipeline.last_report().stage("CobaynPredict");
  ASSERT_NE(warm_dse, nullptr);
  ASSERT_NE(warm_cobayn, nullptr);
  EXPECT_TRUE(warm_dse->cache_hit);
  EXPECT_TRUE(warm_cobayn->cache_hit);

  // The cached profile is the recomputed profile, byte for byte.
  EXPECT_EQ(dse::save_profile(warm.profile), dse::save_profile(cold.profile));
}

TEST(PipelineCache, FreshPipelineReusesASharedCache) {
  ArtifactCache cache;
  Pipeline first(model(), small_options(), &cache);
  const auto cold = first.build("bicg");

  // A second pipeline (another driver in the same process) on the same
  // cache: both the model and the profile come from artifacts.
  Pipeline second(model(), small_options(), &cache);
  const auto warm = second.build("bicg");
  EXPECT_TRUE(second.last_report().stage("Dse")->cache_hit);
  EXPECT_TRUE(second.last_report().stage("CobaynPredict")->cache_hit);
  EXPECT_EQ(dse::save_profile(warm.profile), dse::save_profile(cold.profile));
}

TEST(PipelineCache, DifferentWorkScaleOrSeedMissesTheCache) {
  ArtifactCache cache;
  Pipeline pipeline(model(), small_options(), &cache);
  pipeline.build("syrk");

  // Same benchmark at another dataset scale: the DSE key changes.
  pipeline.build("syrk", 1.5);
  EXPECT_FALSE(pipeline.last_report().stage("Dse")->cache_hit);

  // Another pipeline with a different master seed: both keys change.
  auto opts = small_options();
  opts.seed = 4242;
  Pipeline reseeded(model(), opts, &cache);
  reseeded.build("syrk");
  EXPECT_FALSE(reseeded.last_report().stage("Dse")->cache_hit);
  EXPECT_FALSE(reseeded.last_report().stage("CobaynPredict")->cache_hit);
}

TEST(PipelineCache, SecondProfileSpaceCallHitsTheDseCache) {
  ArtifactCache cache;
  Pipeline pipeline(model(), small_options(), &cache);
  const auto space = platform::DesignSpace::paper_space(model().topology());

  const auto cold = pipeline.profile_space("atax", space, 2, 2018);
  ASSERT_NE(pipeline.last_report().stage("Dse"), nullptr);
  EXPECT_FALSE(pipeline.last_report().stage("Dse")->cache_hit);
  EXPECT_EQ(cold.size(), space.size());

  const auto warm = pipeline.profile_space("atax", space, 2, 2018);
  EXPECT_TRUE(pipeline.last_report().stage("Dse")->cache_hit);
  EXPECT_EQ(dse::save_profile(warm), dse::save_profile(cold));
}

TEST(PipelineCache, UnusableStoredArtifactTriggersRecomputeNotCrash) {
  ArtifactCache cache;
  const auto opts = small_options();

  // Plant garbage under the exact keys the pipeline will compute.  The
  // payloads parse as neither a model nor a profile; the stages must
  // fall back to recomputation.
  cobayn::TrainOptions train;
  cache.store(cobayn_artifact_key(model(), opts.corpus_size, opts.seed, train),
              "cobayn-model", "cobayn v1 oops");

  Pipeline pipeline(model(), opts, &cache);
  const auto binary = pipeline.build("3mm");
  EXPECT_FALSE(pipeline.last_report().stage("CobaynPredict")->cache_hit);
  EXPECT_EQ(binary.profile.size(), binary.space.size());
  EXPECT_TRUE(pipeline.cobayn_ready());

  // A profile that claims more points than it holds is unusable too:
  // the Dse stage re-profiles on its first attempt instead of failing
  // on an allocation for the claimed count.
  const auto space = platform::DesignSpace::paper_space(model().topology());
  cache.store(dse_artifact_key(model(), kernels::benchmark_source("atax"),
                               kernels::find_benchmark("atax").model, space, 2, 2018,
                               1.0, dse::FullFactorialExplorer()),
              "dse-profile", "profile v1 100000000000");
  const auto points = pipeline.profile_space("atax", space, 2, 2018);
  EXPECT_FALSE(pipeline.last_report().stage("Dse")->cache_hit);
  EXPECT_EQ(pipeline.last_report().stage("Dse")->attempts, 1u);
  EXPECT_EQ(points.size(), space.size());
}

}  // namespace
}  // namespace socrates
