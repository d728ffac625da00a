// The DSE profile codec: fixed-size little-endian records behind a
// record count.  A stored profile either decodes to exactly the points
// that were saved or is refused with a ContractViolation, and a refused
// artifact is re-explored to the same knowledge.  The mutations are
// drawn from a seeded Rng, so a failure replays from its seed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "dse/dse.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"
#include "kernels/sources.hpp"
#include "margot/kb_io.hpp"
#include "socrates/pipeline.hpp"
#include "support/artifact_cache.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace socrates {
namespace {

namespace fs = std::filesystem;

const platform::PerformanceModel& model() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  return kModel;
}

const platform::DesignSpace& space() {
  static const platform::DesignSpace kSpace =
      platform::DesignSpace::paper_space(model().topology());
  return kSpace;
}

constexpr const char* kBench = "atax";
constexpr std::size_t kRepetitions = 2;
constexpr std::uint64_t kSeed = 2018;

/// The atax full-factorial profile the pipeline stores.
const std::vector<dse::ProfiledPoint>& original() {
  static const std::vector<dse::ProfiledPoint> kPoints =
      dse::FullFactorialExplorer()
          .explore({model(), kernels::find_benchmark(kBench).model, space(), kRepetitions,
                    kSeed})
          .points;
  return kPoints;
}

std::uint64_t profile_key() {
  return dse_artifact_key(model(), kernels::benchmark_source(kBench),
                          kernels::find_benchmark(kBench).model, space(), kRepetitions,
                          kSeed, 1.0, dse::FullFactorialExplorer());
}

std::string knowledge_csv(const std::vector<dse::ProfiledPoint>& points) {
  return margot::knowledge_to_string(dse::to_knowledge_base(space(), points));
}

/// Overwrites the u32 at `offset` of `bytes`, little-endian.
void put_u32(std::string& bytes, std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[offset + i] = static_cast<char>(v >> (8 * i));
}

/// Offset of record `k`.
std::size_t record_at(std::size_t k) { return 4 + k * dse::kProfileRecordBytes; }

/// A seeded draw from [lo, hi).
std::size_t draw(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi) - 1));
}

TEST(ProfileCodec, RecordsAreLittleEndianFieldByField) {
  dse::ProfiledPoint p;
  p.flat = 258;
  p.exec_time_mean_s = 1.0;      // 0x3ff0000000000000
  p.exec_time_stddev_s = 0.5;    // 0x3fe0000000000000
  p.power_mean_w = 2.0;          // 0x4000000000000000
  p.power_stddev_w = 0.25;       // 0x3fd0000000000000
  const std::string expected(
      "\x01\x00\x00\x00"                  // one record
      "\x02\x01\x00\x00"                  // flat 258
      "\x00\x00\x00\x00\x00\x00\xf0\x3f"  // 1.0
      "\x00\x00\x00\x00\x00\x00\xe0\x3f"  // 0.5
      "\x00\x00\x00\x00\x00\x00\x00\x40"  // 2.0
      "\x00\x00\x00\x00\x00\x00\xd0\x3f",  // 0.25
      4 + dse::kProfileRecordBytes);
  EXPECT_EQ(dse::save_profile({p}), expected);
  const auto back = dse::load_profile(space(), expected);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].flat, 258u);
  EXPECT_EQ(back[0].power_stddev_w, 0.25);
  EXPECT_EQ(dse::save_profile({}), std::string(4, '\0'));
  EXPECT_TRUE(dse::load_profile(space(), std::string(4, '\0')).empty());
}

TEST(ProfileCodec, MutatedPayloadsDecodeExactlyOrThrow) {
  const std::string good = dse::save_profile(original());
  const std::size_t n = original().size();
  ASSERT_EQ(good.size(), record_at(n));
  ASSERT_EQ(dse::save_profile(dse::load_profile(space(), good)), good);

  std::vector<std::string> bad;
  // Cut at every record boundary (the count still claims n records) and
  // at seeded offsets inside the count and inside records.
  for (std::size_t k = 0; k < n; ++k) bad.push_back(good.substr(0, record_at(k)));
  Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    const std::size_t cut = draw(rng, 0, good.size());
    if (cut < 4 || (cut - 4) % dse::kProfileRecordBytes != 0)
      bad.push_back(good.substr(0, cut));
  }
  // A size that disagrees with the count: trailing bytes, one record
  // too many, and counts one off either way.
  for (std::size_t extra = 1; extra <= dse::kProfileRecordBytes; ++extra)
    bad.push_back(good + std::string(extra, '\0'));
  for (const std::uint32_t count : {static_cast<std::uint32_t>(n - 1),
                                    static_cast<std::uint32_t>(n + 1), 0xffffffffu}) {
    bad.push_back(good);
    put_u32(bad.back(), 0, count);
  }
  // A flat index just past the space, and the largest u32, in seeded
  // records.
  for (const std::uint32_t flat :
       {static_cast<std::uint32_t>(space().size()), 0xffffffffu}) {
    for (int i = 0; i < 8; ++i) {
      bad.push_back(good);
      put_u32(bad.back(), record_at(draw(rng, 0, n)), flat);
    }
  }
  // Flipping any bit of the count, or a bit of a flat index that puts it
  // at or past 512, changes what the payload claims.
  for (int bit = 0; bit < 32; ++bit) {
    bad.push_back(good);
    bad.back()[bit / 8] = static_cast<char>(bad.back()[bit / 8] ^ (1 << (bit % 8)));
  }
  for (int i = 0; i < 64; ++i) {
    const std::size_t bit = draw(rng, 9, 32);
    bad.push_back(good);
    char& byte = bad.back()[record_at(draw(rng, 0, n)) + bit / 8];
    byte = static_cast<char>(byte ^ (1 << (bit % 8)));
  }
  // A stage-version-2 text profile.
  bad.push_back(
      "profile v1 2\n"
      "0 Os 0 0 1 0 0x1.2p+0 0x1p-8 0x1.4p+6 0x1p-2\n"
      "1 Os 0 0 1 1 0x1.2p+0 0x1p-8 0x1.5p+6 0x1p-2\n");

  for (std::size_t i = 0; i < bad.size(); ++i)
    EXPECT_THROW(dse::load_profile(space(), bad[i]), ContractViolation)
        << "mutation " << i << " (" << bad[i].size() << " bytes) decoded";
}

TEST(ProfileCodec, UndecodableStoredProfileIsReexploredToIdenticalKnowledge) {
  const std::string good = dse::save_profile(original());
  const std::string reference = knowledge_csv(original());
  std::string wrong_flat = good;
  put_u32(wrong_flat, record_at(100), static_cast<std::uint32_t>(space().size()));
  const std::vector<std::string> planted = {
      good.substr(0, record_at(original().size() - 1)),  // a record short
      good.substr(0, good.size() - 5),                   // cut inside a record
      good + '\0',                                       // a stray byte
      wrong_flat,
      "profile v1 512\n",
  };
  for (std::size_t i = 0; i < planted.size(); ++i) {
    ArtifactCache cache;
    cache.store(profile_key(), "dse-profile", planted[i]);
    ToolchainOptions options;
    options.jobs = 2;
    Pipeline pipeline(model(), options, &cache);
    const auto points = pipeline.profile_space(kBench, space(), kRepetitions, kSeed);
    const StageReport* dse = pipeline.last_report().stage("Dse");
    ASSERT_NE(dse, nullptr);
    EXPECT_FALSE(dse->cache_hit) << "planted payload " << i;
    EXPECT_EQ(dse->attempts, 1u) << "planted payload " << i;
    EXPECT_EQ(knowledge_csv(points), reference) << "planted payload " << i;
    // The re-exploration replaced the unusable artifact.
    EXPECT_EQ(cache.load(profile_key(), "dse-profile"), good) << "planted payload " << i;
  }
}

TEST(ProfileCodec, BitFlippedProfileFileIsReexploredToIdenticalKnowledge) {
  // A flip inside one of the doubles decodes to another valid double;
  // the sealed envelope's payload hash is what refuses it.  Every flip
  // of the stored file must still end in the original profile: either
  // the file verifies and decodes to it, or the load misses and the Dse
  // stage re-explores it.
  const fs::path dir = fs::temp_directory_path() /
                       ("socrates_profile_codec." + std::to_string(::getpid()));
  fs::remove_all(dir);
  ToolchainOptions options;
  options.jobs = 2;
  {
    ArtifactCache cache(dir.string());
    Pipeline(model(), options, &cache).profile_space(kBench, space(), kRepetitions, kSeed);
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) files.push_back(entry.path());
  ASSERT_EQ(files.size(), 1u);
  std::string stored;
  {
    std::ifstream in(files[0], std::ios::binary);
    stored.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string good = dse::save_profile(original());
  ASSERT_GT(stored.size(), good.size());
  ASSERT_EQ(stored.substr(stored.size() - good.size()), good);
  const std::string reference = knowledge_csv(original());

  Rng rng(2021);
  std::size_t misses = 0;
  for (int i = 0; i < 48; ++i) {
    // Half the flips land in the header line, half in the payload.
    const std::size_t header = stored.size() - good.size();
    const std::size_t at =
        i % 2 == 0 ? draw(rng, 0, header) : draw(rng, header, stored.size());
    std::string flipped = stored;
    flipped[at] = static_cast<char>(flipped[at] ^ (1 << draw(rng, 0, 8)));
    {
      std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
      out << flipped;
    }
    ArtifactCache cache(dir.string());
    Pipeline pipeline(model(), options, &cache);
    const auto points = pipeline.profile_space(kBench, space(), kRepetitions, kSeed);
    if (!pipeline.last_report().stage("Dse")->cache_hit) ++misses;
    EXPECT_EQ(dse::save_profile(points), good) << "flip at byte " << at;
    EXPECT_EQ(knowledge_csv(points), reference) << "flip at byte " << at;
  }
  EXPECT_GT(misses, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace socrates
