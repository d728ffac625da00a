// Tests for the server's bounded lock-free feedback ring
// (server/mpsc_ring.hpp): FIFO semantics, batch drain, the three
// backpressure policies at the full-ring boundary, and multi-producer
// stress runs whose accounting invariants also run under the TSan
// preset (CMakePresets.json, `tsan`).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "server/mpsc_ring.hpp"
#include "support/error.hpp"

namespace socrates::server {
namespace {

TEST(MpscRing, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(100).capacity(), 128u);
  EXPECT_EQ(MpscRing<int>(1024).capacity(), 1024u);
  EXPECT_THROW(MpscRing<int>(1), ContractViolation);
}

TEST(MpscRing, FifoOrderSingleThread) {
  MpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_EQ(ring.approx_size(), 5u);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, FullRingRefusesPush) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(99));  // space freed, push works again
}

TEST(MpscRing, BatchDrainPreservesOrder) {
  MpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.try_push(i));
  int batch[6];
  ASSERT_EQ(ring.pop_batch(batch, 6), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(batch[i], i);
  ASSERT_EQ(ring.pop_batch(batch, 6), 4u);  // only 4 left
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch[i], i + 6);
}

TEST(MpscRing, WrapAroundKeepsFifo) {
  MpscRing<int> ring(4);
  int out = -1;
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(ring.try_push(2 * round));
    ASSERT_TRUE(ring.try_push(2 * round + 1));
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, 2 * round);
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, 2 * round + 1);
  }
}

// ---- backpressure policies at the full-ring boundary -------------------------------

TEST(MpscRing, RejectPolicyFailsWithoutShedding) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  const PushResult result = push_with_policy(ring, 99, BackpressurePolicy::kReject);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.shed, 0u);
  EXPECT_EQ(ring.enqueued(), 4u);  // a refused push does not move the cursor
  EXPECT_EQ(ring.approx_size(), 4u);  // untouched
}

TEST(MpscRing, DropOldestPolicyEvictsTheOldestEntry) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  const PushResult result = push_with_policy(ring, 99, BackpressurePolicy::kDropOldest);
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.shed, 1u);
  // Five pushes landed; the eviction is a pop, so the cursor counts 5.
  EXPECT_EQ(ring.enqueued(), 5u);
  // 0 (the oldest) is gone; 1, 2, 3, 99 remain in order.
  int out = -1;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
}

TEST(MpscRing, BlockPolicyWaitsForSpace) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  std::thread consumer([&ring] {
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));  // frees one slot; the push unblocks
  });
  const PushResult result = push_with_policy(ring, 99, BackpressurePolicy::kBlock);
  consumer.join();
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.shed, 0u);
}

TEST(MpscRing, BlockPolicyAbortsOnShutdown) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  std::atomic<bool> abort{true};
  const PushResult result =
      push_with_policy(ring, 99, BackpressurePolicy::kBlock, &abort);
  EXPECT_FALSE(result.accepted);  // bailed out instead of spinning forever
}

// ---- concurrency stress (run these under the tsan preset) --------------------------

TEST(MpscRing, ConcurrentProducersAccountForEveryPush) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 5000;
  MpscRing<std::uint64_t> ring(256);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> drained{0};
  std::vector<std::uint64_t> per_producer_max(kProducers, 0);

  std::thread consumer([&] {
    std::uint64_t batch[64];
    while (!stop.load(std::memory_order_acquire) || !ring.empty()) {
      const std::size_t n = ring.pop_batch(batch, 64);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t producer = batch[i] >> 32;
        const std::uint64_t seq = batch[i] & 0xffffffffu;
        // Per-producer order must survive interleaving: the consumer is
        // single, so each producer's values arrive strictly increasing.
        EXPECT_GT(seq + 1, per_producer_max[producer]);
        per_producer_max[producer] = seq + 1;
      }
      drained.fetch_add(n, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t value = (static_cast<std::uint64_t>(p) << 32) | i;
        push_with_policy(ring, value, BackpressurePolicy::kBlock);
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(drained.load(), kProducers * kPerProducer);  // block loses nothing
}

TEST(MpscRing, ConcurrentDropOldestConservesEvents) {
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 4000;
  MpscRing<std::uint64_t> ring(64);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> drained{0};

  std::thread consumer([&] {
    std::uint64_t batch[32];
    while (!stop.load(std::memory_order_acquire) || !ring.empty()) {
      const std::size_t n = ring.pop_batch(batch, 32);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      drained.fetch_add(n, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const PushResult result =
            push_with_policy(ring, i, BackpressurePolicy::kDropOldest);
        ASSERT_TRUE(result.accepted);  // drop-oldest always lands eventually
        shed.fetch_add(result.shed, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  consumer.join();
  // Conservation: every accepted push was either drained or shed.
  EXPECT_EQ(drained.load() + shed.load(), kProducers * kPerProducer);
  EXPECT_EQ(ring.enqueued(), kProducers * kPerProducer);
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, ConcurrentRejectNeverLosesAcceptedEvents) {
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 4000;
  MpscRing<std::uint64_t> ring(64);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> drained{0};

  std::thread consumer([&] {
    std::uint64_t batch[32];
    while (!stop.load(std::memory_order_acquire) || !ring.empty()) {
      const std::size_t n = ring.pop_batch(batch, 32);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      drained.fetch_add(n, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const PushResult result =
            push_with_policy(ring, i, BackpressurePolicy::kReject);
        if (result.accepted) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(drained.load(), accepted.load());  // accepted events all arrive
  EXPECT_EQ(ring.enqueued(), accepted.load());
}

TEST(MpscRing, SeededBatchDrainOrderIsDeterministic) {
  // A single producer pushing a seeded sequence must drain back in
  // exactly that sequence, run after run — the shard worker relies on
  // this to keep replayed feedback byte-identical across reruns.
  const auto run = [] {
    MpscRing<std::uint64_t> ring(128);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;  // fixed seed
    std::vector<std::uint64_t> drained;
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 100; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        push_with_policy(ring, x, BackpressurePolicy::kBlock);
      }
      std::uint64_t batch[100];
      const std::size_t n = ring.pop_batch(batch, 100);
      drained.insert(drained.end(), batch, batch + n);
    }
    return drained;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace socrates::server
