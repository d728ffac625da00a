// Bounded lock-free ring buffer for the server's feedback ingest.
//
// The multi-tenant server (docs/SERVER.md) funnels feedback updates
// from many client threads into one worker per shard.  The queue in
// the middle must be bounded (overload may not grow memory without
// limit), lock-free (a million pushes a second cannot share a mutex)
// and *sheddable* (when the ring is full, the configured backpressure
// policy decides who loses).
//
// The ring is Vyukov's bounded MPMC queue: each cell carries a
// sequence number; producers claim a slot with one CAS on the enqueue
// cursor and publish with a release store of the cell sequence;
// consumers mirror the dance on the dequeue cursor.  Although the
// server uses it as an MPSC queue (one drain thread per shard), full
// MPMC semantics are load-bearing: the *drop-oldest* backpressure
// policy has the producer dequeue the oldest entry to make room, which
// is only safe because any thread may legally consume.
//
// Backpressure policies (the overload contract of docs/SERVER.md):
//   kBlock      — spin/yield until space frees; no loss, producers pay.
//   kDropOldest — evict the oldest queued event and retry; bounded
//                 staleness, newest data wins (telemetry-style).
//   kReject     — fail the push; the caller counts and the client is
//                 told to back off (admission-control style).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>

#include "support/error.hpp"

namespace socrates::server {

enum class BackpressurePolicy { kBlock, kDropOldest, kReject };

const char* to_string(BackpressurePolicy policy);

template <typename T>
class MpscRing {
 public:
  /// Capacity is rounded up to the next power of two (cursor masking).
  explicit MpscRing(std::size_t capacity) {
    SOCRATES_REQUIRE(capacity >= 2);
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i <= mask_; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Lock-free push; false when the ring is full.
  bool try_push(const T& value) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    while (true) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          cell.value = value;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Lock-free pop; false when the ring is empty.
  bool try_pop(T& out) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    while (true) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          out = cell.value;
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Pops up to `max` entries into `out`; returns how many (the
  /// shard's batch-drain primitive).
  std::size_t pop_batch(T* out, std::size_t max) {
    std::size_t n = 0;
    while (n < max && try_pop(out[n])) ++n;
    return n;
  }

  bool empty() const { return approx_size() == 0; }

  /// The enqueue cursor: successful pushes over the ring's life.  Each
  /// try_push that returns true advances it exactly once; pops (and so
  /// drop-oldest evictions) never move it.
  std::size_t enqueued() const { return head_.load(std::memory_order_acquire); }

  /// Instantaneous occupancy; exact only when producers and the
  /// consumer are quiescent (used for gauges and tests).
  std::size_t approx_size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? head - tail : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< enqueue cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< dequeue cursor
};

/// Outcome of a policy-mediated push.
struct PushResult {
  bool accepted = false;
  std::size_t shed = 0;  ///< entries evicted to make room (kDropOldest)
};

/// Pushes under the given backpressure policy.  `abort` (optional) lets
/// a kBlock producer bail out on server shutdown instead of spinning
/// forever.
template <typename T>
PushResult push_with_policy(MpscRing<T>& ring, const T& value,
                            BackpressurePolicy policy,
                            const std::atomic<bool>* abort = nullptr) {
  PushResult result;
  switch (policy) {
    case BackpressurePolicy::kBlock:
      while (!ring.try_push(value)) {
        if (abort != nullptr && abort->load(std::memory_order_relaxed)) return result;
        std::this_thread::yield();
      }
      result.accepted = true;
      return result;
    case BackpressurePolicy::kDropOldest:
      while (!ring.try_push(value)) {
        T evicted;
        if (ring.try_pop(evicted)) ++result.shed;
      }
      result.accepted = true;
      return result;
    case BackpressurePolicy::kReject:
      result.accepted = ring.try_push(value);
      return result;
  }
  return result;
}

}  // namespace socrates::server
