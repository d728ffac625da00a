// Tests for the knowledge base's storage: hashed find() and duplicate
// rejection against a linear-scan reference, copies that share one
// storage block with copy-on-write add(), moved-from bases, and
// concurrent copies of one shared base (run under the tsan preset).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "margot/operating_point.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace socrates::margot {
namespace {

constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();

KnowledgeBase empty_base(std::size_t knobs) {
  std::vector<std::string> names;
  for (std::size_t k = 0; k < knobs; ++k) names.push_back("k" + std::to_string(k));
  return KnowledgeBase(names, {"time", "power"});
}

/// A point whose metrics encode `tag`, so a test can tell points apart.
OperatingPoint point(std::vector<int> knobs, double tag) {
  return OperatingPoint{std::move(knobs), {{tag, 0.5}, {-tag, 1.0 + tag}}};
}

/// `n` points on a two-knob schema, point i tagged i.
KnowledgeBase sample(std::size_t n) {
  KnowledgeBase kb = empty_base(2);
  for (std::size_t i = 0; i < n; ++i) {
    const int v = static_cast<int>(i);
    kb.add(point({v % 7, v / 7}, static_cast<double>(i)));
  }
  return kb;
}

/// The lookup the hash index replaced: compare against every row.
std::optional<std::size_t> linear_find(const std::vector<std::vector<int>>& rows,
                                       const std::vector<int>& knobs) {
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (rows[i] == knobs) return i;
  return std::nullopt;
}

/// Knob values that stress the hash: the int extremes, values spread
/// over the whole range, and a small pool that makes rows collide and
/// differ in one knob only.
int draw_value(Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0: return kIntMin;
    case 1: return kIntMax;
    case 2:
    case 3:
    case 4: return static_cast<int>(rng.uniform_int(kIntMin, kIntMax));
    default: return static_cast<int>(rng.uniform_int(-3, 3));
  }
}

std::vector<int> draw_row(Rng& rng, const std::vector<std::vector<int>>& rows,
                          std::size_t knobs) {
  if (!rows.empty() && rng.uniform_int(0, 1) == 0) {
    // A stored row with one knob redrawn.
    auto row = rows[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1))];
    row[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(knobs) - 1))] =
        draw_value(rng);
    return row;
  }
  std::vector<int> row(knobs);
  for (int& v : row) v = draw_value(rng);
  return row;
}

TEST(KnowledgeBase, FindAndDuplicateRejectionMatchALinearScan) {
  const std::size_t sizes[] = {1, 2, 3, 15, 16, 17, 64, 255, 513, 1024, 4096};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const std::size_t knobs = 1 + seed % 5;
    const std::size_t target = sizes[seed % std::size(sizes)];
    SCOPED_TRACE(testing::Message() << "seed " << seed << ": " << knobs << " knobs, "
                                    << target << " points");
    Rng rng(seed);
    KnowledgeBase kb = empty_base(knobs);
    std::vector<std::vector<int>> rows;
    for (std::size_t attempt = 0; rows.size() < target && attempt < 20 * target + 100;
         ++attempt) {
      auto row = draw_row(rng, rows, knobs);
      const auto expected = linear_find(rows, row);
      ASSERT_EQ(kb.find(row), expected);
      if (expected) {
        ASSERT_THROW(kb.add(point(row, -1.0)), ContractViolation);
        ASSERT_EQ(kb.size(), rows.size());
      } else {
        kb.add(point(row, static_cast<double>(rows.size())));
        rows.push_back(std::move(row));
      }
    }
    ASSERT_EQ(rows.size(), target) << "the generator ran out of distinct rows";
    ASSERT_EQ(kb.size(), target);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(kb.find(rows[i]), i);
      ASSERT_EQ(std::vector<int>(kb[i].knobs), rows[i]);
      ASSERT_EQ(kb.metric_means(0)[i], static_cast<double>(i));
    }
    for (std::size_t probe = 0; probe < 2 * target; ++probe) {
      const auto row = draw_row(rng, rows, knobs);
      ASSERT_EQ(kb.find(row), linear_find(rows, row));
    }
    ASSERT_EQ(kb.find(std::vector<int>(knobs + 1, 0)), std::nullopt);
  }
}

TEST(KnowledgeBase, CopiesShareOneStorageBlock) {
  const KnowledgeBase original = sample(64);
  const KnowledgeBase copy = original;
  for (std::size_t m = 0; m < 2; ++m) {
    EXPECT_EQ(copy.metric_means(m), original.metric_means(m));
    EXPECT_EQ(copy.metric_stddevs(m), original.metric_stddevs(m));
  }
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(copy.knob_row(i), original.knob_row(i));
  EXPECT_EQ(copy.arena_bytes(), original.arena_bytes());
  EXPECT_EQ(copy.find({3, 5}), original.find({3, 5}));
}

/// Checks that `kb` still holds exactly sample(n)'s points.
void expect_sample(const KnowledgeBase& kb, std::size_t n) {
  ASSERT_EQ(kb.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const int v = static_cast<int>(i);
    EXPECT_EQ(kb.find({v % 7, v / 7}), i);
    EXPECT_EQ(kb.metric_means(0)[i], static_cast<double>(i));
    EXPECT_EQ(kb.metric_stddevs(1)[i], 1.0 + static_cast<double>(i));
  }
}

TEST(KnowledgeBase, AddOnEitherSideOfACopyLeavesTheOtherUnchanged) {
  // 64 points fill the block exactly and 40 leave room, so both the
  // growing add and the in-place copy-on-write add are covered.
  for (const std::size_t n : {std::size_t{40}, std::size_t{64}}) {
    SCOPED_TRACE(testing::Message() << n << " points");
    KnowledgeBase original = sample(n);
    KnowledgeBase copy = original;
    copy.add(point({100, 100}, 1000.0));
    expect_sample(original, n);
    EXPECT_EQ(original.find({100, 100}), std::nullopt);
    EXPECT_EQ(copy.size(), n + 1);
    EXPECT_EQ(copy.find({100, 100}), n);
    EXPECT_NE(copy.metric_means(0), original.metric_means(0));

    KnowledgeBase second = original;
    original.add(point({200, 200}, 2000.0));
    expect_sample(second, n);
    EXPECT_EQ(second.find({200, 200}), std::nullopt);
    EXPECT_EQ(original.find({200, 200}), n);
    EXPECT_EQ(original.find({100, 100}), std::nullopt);
    EXPECT_EQ(original.metric_means(0)[n], 2000.0);
  }
}

TEST(KnowledgeBase, ACopyOutlivesItsOriginal) {
  auto original = std::make_unique<KnowledgeBase>(sample(48));
  KnowledgeBase copy = *original;
  const double* means = copy.metric_means(0);
  original.reset();
  EXPECT_EQ(copy.metric_means(0), means);
  expect_sample(copy, 48);
  copy.add(point({100, 100}, 1000.0));
  EXPECT_EQ(copy.find({100, 100}), 48u);
  EXPECT_EQ(copy.find({5, 6}), 47u);
}

TEST(KnowledgeBase, CopyAssignOverANonEmptyBaseAndSelfAssign) {
  const KnowledgeBase source = sample(30);
  KnowledgeBase target = empty_base(3);
  target.add(point({1, 2, 3}, 7.0));
  target = source;
  EXPECT_EQ(target.knob_names(), source.knob_names());
  EXPECT_EQ(target.metric_means(0), source.metric_means(0));
  expect_sample(target, 30);
  EXPECT_EQ(target.find({1, 2, 3}), std::nullopt);
  target.add(point({100, 100}, 1000.0));
  expect_sample(source, 30);

  const KnowledgeBase& alias = target;
  target = alias;
  EXPECT_EQ(target.size(), 31u);
  EXPECT_EQ(target.find({100, 100}), 30u);
  target.add(point({101, 101}, 1001.0));
  EXPECT_EQ(target.find({101, 101}), 31u);
  expect_sample(source, 30);
}

TEST(KnowledgeBase, AMovedFromBaseIsEmpty) {
  KnowledgeBase original = sample(20);
  const double* means = original.metric_means(0);
  KnowledgeBase moved = std::move(original);
  EXPECT_EQ(moved.metric_means(0), means);
  expect_sample(moved, 20);
  EXPECT_EQ(original.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(original.empty());
  EXPECT_EQ(original.find({0, 0}), std::nullopt);

  KnowledgeBase target = sample(5);
  target = std::move(moved);
  expect_sample(target, 20);
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.find({0, 0}), std::nullopt);
}

/// Sum of sample(n)'s metric-0 column: 0 + 1 + ... + (n - 1).
double sample_sum(std::size_t n) { return static_cast<double>(n * (n - 1) / 2); }

/// Reads every column entry and a spread of rows of a sample(n) copy;
/// returns the number of values that differ from sample(n)'s.
int read_sample(const KnowledgeBase& kb, std::size_t n, std::size_t offset) {
  int mismatches = kb.size() == n ? 0 : 1;
  double sum = 0.0;
  for (std::size_t i = 0; i < kb.size(); ++i) sum += kb.metric_means(0)[i];
  if (sum != sample_sum(n)) ++mismatches;
  for (std::size_t i = offset % 7; i < kb.size(); i += 37) {
    const int v = static_cast<int>(i);
    if (kb.find({v % 7, v / 7}) != i) ++mismatches;
  }
  return mismatches;
}

// Readers on several threads copy one shared base, read its columns,
// look rows up and drop their copies, while the owner builds and
// extends a separate base.  Each reader also holds a copy of the
// owner's base, reads it (including the index slot of the row the owner
// will add) and drops it; once every reader has dropped that copy the
// owner adds that row to its base, whose block has room.  Nothing
// orders the drops before the add (the readers count themselves done
// with a relaxed increment), so a base that decided from its reference
// count would write in place into memory the readers read, and the
// tsan preset would report the race; the sticky shared mark re-packs.
TEST(KnowledgeBase, ConcurrentCopiesOfASharedBaseWhileTheOwnerExtends) {
  constexpr std::size_t kPoints = 500;  // the 512-point block keeps room
  constexpr int kReaders = 3;
  constexpr int kRounds = 200;
  const KnowledgeBase shared = sample(kPoints);
  KnowledgeBase owner = sample(kPoints);

  std::atomic<int> mismatches{0};
  std::atomic<int> done{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    auto held = std::make_unique<KnowledgeBase>(owner);
    readers.emplace_back([&, r, held = std::move(held)]() mutable {
      for (int round = 0; round < kRounds; ++round) {
        const KnowledgeBase copy = shared;
        mismatches += read_sample(copy, kPoints, static_cast<std::size_t>(round + r));
      }
      mismatches += read_sample(*held, kPoints, static_cast<std::size_t>(r));
      // The row the owner adds later: this probe reads the index slot
      // that an in-place add would write.
      if (held->find({-1, -1})) ++mismatches;
      held.reset();
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }

  KnowledgeBase separate = empty_base(2);
  for (int round = 0; round < kRounds; ++round) {
    separate.add(point({round, round}, static_cast<double>(round)));
    const KnowledgeBase snapshot = separate;
    separate.add(point({round, -round - 1}, 0.0));
    if (snapshot.size() + 1 != separate.size()) ++mismatches;
  }
  while (done.load(std::memory_order_relaxed) < kReaders) std::this_thread::yield();
  owner.add(point({-1, -1}, -1.0));
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  expect_sample(shared, kPoints);
  EXPECT_EQ(separate.size(), 2u * kRounds);
  ASSERT_EQ(owner.size(), kPoints + 1);
  EXPECT_EQ(owner.find({-1, -1}), kPoints);
  EXPECT_EQ(owner.find({3, 5}), 38u);
}

}  // namespace
}  // namespace socrates::margot
