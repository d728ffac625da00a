// A single aligned heap block with bump allocation.
//
// Backs the structure-of-arrays knowledge-base geometry: every column
// (per-metric means, per-metric stddevs, the flat knob block) lives in
// one contiguous allocation, each sub-block starting on a cache-line /
// SIMD-lane boundary so the branchless decision sweeps stream over
// aligned doubles.  The arena is move-only, because a raw byte copy
// would not fix up the typed pointers previously handed out; an owner
// that needs copies shares it instead (KnowledgeBase keeps it in a
// reference-counted block that its copies point into).
#pragma once

#include <cstddef>
#include <new>

#include "support/error.hpp"

namespace socrates::support {

class Arena {
 public:
  static constexpr std::size_t kAlignment = 64;

  Arena() = default;

  explicit Arena(std::size_t bytes) : capacity_(round_up(bytes)) {
    if (capacity_ > 0)
      block_ = static_cast<std::byte*>(
          ::operator new(capacity_, std::align_val_t{kAlignment}));
  }

  Arena(Arena&& other) noexcept
      : block_(other.block_), capacity_(other.capacity_), used_(other.used_) {
    other.block_ = nullptr;
    other.capacity_ = 0;
    other.used_ = 0;
  }

  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      capacity_ = other.capacity_;
      used_ = other.used_;
      other.block_ = nullptr;
      other.capacity_ = 0;
      other.used_ = 0;
    }
    return *this;
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() { release(); }

  /// Carves out `count` default-initialized T slots, starting on a
  /// kAlignment boundary.  The arena never grows: callers size it up
  /// front (see bytes_for) and rebuild into a fresh arena to expand.
  template <typename T>
  T* allocate(std::size_t count) {
    static_assert(alignof(T) <= kAlignment);
    const std::size_t bytes = round_up(count * sizeof(T));
    SOCRATES_REQUIRE_MSG(used_ + bytes <= capacity_,
                         "arena overflow: " << used_ << "+" << bytes << " > "
                                            << capacity_);
    T* out = reinterpret_cast<T*>(block_ + used_);
    used_ += bytes;
    return out;
  }

  /// Bytes to reserve so `counts_in_bytes` individually aligned blocks
  /// all fit (each block is padded up to the alignment boundary).
  template <typename... Sizes>
  static std::size_t bytes_for(Sizes... counts_in_bytes) {
    return (round_up(static_cast<std::size_t>(counts_in_bytes)) + ... + 0u);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }

 private:
  static constexpr std::size_t round_up(std::size_t bytes) {
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }

  void release() {
    if (block_ != nullptr)
      ::operator delete(block_, std::align_val_t{kAlignment});
    block_ = nullptr;
  }

  std::byte* block_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

}  // namespace socrates::support
