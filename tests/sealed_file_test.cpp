// Tests for the sealed-file module (support/sealed_file.hpp): the one
// envelope, verifier and atomic publish behind artifact-cache entries,
// checkpoint snapshots, the knowledge pool and the BENCH files.
//
// Besides hand-written cases, a seeded mutation test feeds the verifier
// thousands of damaged files — bit flips, truncations, appended bytes and
// rewritten header fields — and requires each to read back as corrupt or
// with exactly the sealed payload and the tag on disk (see Mutant).  A
// failure prints its seed, and the seed alone replays it.  The
// `crash-smoke` preset runs this file under ASan.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/sealed_file.hpp"

namespace socrates::sealed {
namespace {

namespace fs = std::filesystem;
using Status = File::Status;

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

class SealedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("socrates_sealed." + std::to_string(::getpid()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "thing.sealed").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  File read_back() const { return read(path_, "socrates-test", "v2"); }

  fs::path dir_;
  std::string path_;
};

TEST_F(SealedFileTest, RoundTripKeepsTagAndBinaryPayload) {
  const std::string payload = std::string("line one\nline two\n\0\xff tail", 23);
  ASSERT_TRUE(publish(path_, seal("socrates-test", "v2", "42", payload), 1, false));
  const File file = read_back();
  ASSERT_EQ(file.status, Status::kOk) << file.reason;
  EXPECT_EQ(file.tag, "42");
  EXPECT_EQ(file.payload, payload);
  EXPECT_FALSE(fs::exists(tmp_path(path_)));
}

TEST_F(SealedFileTest, HeaderIsTheDocumentedEnvelope) {
  // stable_hash64("abc") in lower-case hex, no leading zeros.
  EXPECT_EQ(seal("m", "v2", "7", "abc"), "m v2 7 3 e71fa2190541574b\nabc");
  EXPECT_EQ(seal("m", "v2", "0", ""), "m v2 0 0 cbf29ce484222325\n");
  ASSERT_TRUE(publish(path_, seal("socrates-test", "v2", "0", ""), 1, false));
  EXPECT_EQ(read_back().status, Status::kOk);
}

TEST_F(SealedFileTest, MissingFileIsMissingNotCorrupt) {
  EXPECT_EQ(read_back().status, Status::kMissing);
}

TEST_F(SealedFileTest, EachDefectReadsAsCorruptWithItsReason) {
  const std::string good = seal("socrates-test", "v2", "9", "the payload");
  const std::string header = good.substr(0, good.find('\n') + 1);
  const struct {
    std::string bytes;
    const char* reason;
  } cases[] = {
      {"socrates-other v2 9 11 0\nthe payload", "bad magic"},
      {"socrates-test v1 9 11 0\nthe payload", "bad version"},
      {good.substr(0, good.size() - 3), "payload size does not match the file"},
      {good + "x", "payload size does not match the file"},
      {header + "the paylaod", "payload checksum mismatch"},
      {"socrates-test v2 9 1000000000000000 0\nthe payload",
       "payload size does not match the file"},
      {"socrates-test v2 9 011 0\nthe payload", "malformed header"},
      {"socrates-test v2  9 11 0\nthe payload", "malformed header"},
      {"socrates-test v2 9 11\nthe payload", "malformed header"},
      {"socrates-test v2 9 11 0 extra\nthe payload", "malformed header"},
      {"no newline at all", "no header line"},
      {"", "no header line"},
  };
  for (const auto& c : cases) {
    write_bytes(path_, c.bytes);
    const File file = read_back();
    EXPECT_EQ(file.status, Status::kCorrupt) << c.bytes;
    EXPECT_EQ(file.reason, c.reason) << c.bytes;
  }
  // An upper-case hash of the right value is still not the canonical form.
  std::string upper = good;
  for (std::size_t i = header.rfind(' ') + 1; i + 1 < header.size(); ++i)
    upper[i] = static_cast<char>(std::toupper(static_cast<unsigned char>(upper[i])));
  if (upper != good) {
    write_bytes(path_, upper);
    EXPECT_EQ(read_back().reason, "malformed header");
  }
}

TEST_F(SealedFileTest, PublishRotatesExactlyTheRequestedDepth) {
  for (int i = 1; i <= 5; ++i)
    ASSERT_TRUE(publish(path_, seal("socrates-test", "v2", std::to_string(i), "p"), 3,
                        false));
  EXPECT_EQ(read_back().tag, "5");
  EXPECT_EQ(read(generation_path(path_, 1), "socrates-test", "v2").tag, "4");
  EXPECT_EQ(read(generation_path(path_, 2), "socrates-test", "v2").tag, "3");
  EXPECT_FALSE(fs::exists(generation_path(path_, 3)));
  EXPECT_EQ(generation_path(path_, 0), path_);
  EXPECT_EQ(generation_path(path_, 2), path_ + ".2");
}

TEST_F(SealedFileTest, FailedOpenRotatesNothingAndLeavesNoTempFile) {
  ASSERT_TRUE(publish(path_, seal("socrates-test", "v2", "1", "old"), 2, false));
  ASSERT_TRUE(publish(path_, seal("socrates-test", "v2", "2", "new"), 2, false));
  const std::string newest = read_bytes(path_);
  const std::string older = read_bytes(generation_path(path_, 1));
  // A non-empty directory where the temp file goes: the open fails.
  fs::create_directories(fs::path(tmp_path(path_)) / "occupied");
  const WriteStatus status = publish(path_, seal("socrates-test", "v2", "3", "x"), 2, false);
  EXPECT_FALSE(status);
  EXPECT_EQ(status.failed, WriteStatus::Step::kOpen);
  EXPECT_NE(status.error, 0);
  EXPECT_EQ(read_bytes(path_), newest);
  EXPECT_EQ(read_bytes(generation_path(path_, 1)), older);
  EXPECT_TRUE(fs::is_directory(tmp_path(path_)));  // not ours: left alone
}

TEST_F(SealedFileTest, FailedWriteRemovesItsTempFileAndReportsErrno) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ASSERT_TRUE(publish(path_, seal("socrates-test", "v2", "1", "old"), 2, false));
  const std::string newest = read_bytes(path_);
  // The temp name points at a device that fails every write with ENOSPC.
  fs::create_symlink("/dev/full", tmp_path(path_));
  const WriteStatus status = publish(path_, seal("socrates-test", "v2", "2", "new"), 2, false);
  EXPECT_EQ(status.failed, WriteStatus::Step::kWrite);
  EXPECT_EQ(status.error, ENOSPC) << status.message();
  EXPECT_FALSE(fs::exists(fs::symlink_status(tmp_path(path_))));
  EXPECT_EQ(read_bytes(path_), newest);
  EXPECT_FALSE(fs::exists(generation_path(path_, 1)));  // nothing rotated
}

TEST_F(SealedFileTest, SweepRemovesOnlyTheOwnersTemps) {
  for (const char* name : {"a.ckpt", "a.ckpt.tmp.123", "a.ckpt.tmp.9", "xa.ckpt.tmp.123",
                           "a.ckpt.tmp.x.ckpt", "a.ckpt.journal.tmp.5", "p.artifact.tmp.7",
                           "q.artifact.tmp.8", "q.artifact", "notes.tmp.3"})
    write_bytes(dir_ / name, "bytes");
  fs::create_directories(dir_ / "a.ckpt.tmp.77");  // not a regular file
  EXPECT_EQ(sweep_stale_tmps((dir_ / "a.ckpt").string()), 2u);
  EXPECT_EQ(sweep_stale_tmps((dir_ / "*.artifact").string()), 2u);
  std::vector<std::string> left;
  for (const auto& entry : fs::directory_iterator(dir_))
    left.push_back(entry.path().filename().string());
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<std::string>{"a.ckpt", "a.ckpt.journal.tmp.5", "a.ckpt.tmp.77",
                                            "a.ckpt.tmp.x.ckpt", "notes.tmp.3", "q.artifact",
                                            "xa.ckpt.tmp.123"}));
}

// ---- seeded mutation test ---------------------------------------------------

/// One damaged copy of a sealed file, plus the tag an ok read of it must
/// report.  The checksum covers the payload only (the envelope the
/// checkpoint has always written), so an edit confined to the tag's own
/// bytes can read back ok — with the edited tag, which is why callers
/// check tags themselves.  Any other edit must read as corrupt.
struct Mutant {
  std::string bytes;
  std::string tag;     ///< the tag on disk after the mutation
  bool tag_only;       ///< the mutation touched nothing but the tag
};

Mutant mutate(const std::string& sealed, const std::string& tag, Rng& rng) {
  const std::size_t tag_begin = sealed.find(' ', sealed.find(' ') + 1) + 1;
  const std::size_t tag_end = tag_begin + tag.size();
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  Mutant m{sealed, tag, false};
  switch (pick(5)) {
    case 0: {  // flip 1-3 bits anywhere
      for (std::size_t k = 1 + pick(3); k-- > 0;) {
        const std::size_t at = pick(m.bytes.size());
        m.bytes[at] = static_cast<char>(m.bytes[at] ^ (1 << pick(8)));
      }
      m.tag_only = true;
      for (std::size_t i = 0; i < sealed.size(); ++i)
        if (m.bytes[i] != sealed[i] && (i < tag_begin || i >= tag_end)) m.tag_only = false;
      m.tag = m.bytes.substr(tag_begin, tag.size());
      break;
    }
    case 1:  // truncate
      m.bytes.resize(pick(m.bytes.size()));
      break;
    case 2:  // append 1-8 random bytes
      for (std::size_t k = 1 + pick(8); k-- > 0;) m.bytes.push_back(static_cast<char>(pick(256)));
      break;
    case 3: {  // rewrite the size field, sometimes with a 10^15-byte claim
      const std::size_t size_begin = tag_end + 1;
      const std::size_t size_end = m.bytes.find(' ', size_begin);
      const std::string claim =
          pick(2) == 0 ? "1000000000000000" : std::to_string(pick(4096));
      m.bytes.replace(size_begin, size_end - size_begin, claim);
      break;
    }
    default: {  // rewrite one of magic, version, tag or hash
      const std::size_t field = pick(4);
      std::size_t begin = 0;
      const std::size_t header_end = m.bytes.find('\n');
      for (std::size_t f = 0; f < (field == 3 ? 4 : field); ++f)
        begin = m.bytes.find(' ', begin) + 1;
      const std::size_t end = std::min(m.bytes.find(' ', begin), header_end);
      const std::string value = std::to_string(pick(1u << 20));
      m.bytes.replace(begin, end - begin, value);
      if (field == 2) {
        m.tag = value;
        m.tag_only = true;
      }
      break;
    }
  }
  if (m.bytes == sealed) m.tag_only = true;  // the edit changed nothing
  return m;
}

TEST_F(SealedFileTest, MutatedFilesReadAsCorruptOrExactlyAsSealed) {
  constexpr std::uint64_t kSeeds = 3000;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    std::string payload(static_cast<std::size_t>(rng.uniform_int(0, 300)), '\0');
    for (char& c : payload) c = static_cast<char>(rng.uniform_int(0, 255));
    const std::string tag = std::to_string(rng.uniform_int(0, 1LL << 62));
    const std::string sealed = seal("socrates-test", "v2", tag, payload);
    const Mutant m = mutate(sealed, tag, rng);
    write_bytes(path_, m.bytes);
    File file;
    try {
      file = read_back();
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": read threw " << e.what();
    }
    ASSERT_NE(file.status, Status::kMissing) << "seed " << seed;
    if (file.status == Status::kCorrupt) continue;
    EXPECT_TRUE(m.tag_only) << "seed " << seed << ": a damaged file read as ok";
    EXPECT_EQ(file.tag, m.tag) << "seed " << seed;
    EXPECT_EQ(file.payload, payload) << "seed " << seed;
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace socrates::sealed
