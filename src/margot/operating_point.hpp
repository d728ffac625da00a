// Operating points and the application knowledge base.
//
// mARGOt's design-time knowledge is a list of *operating points*: one
// entry per explored software-knob configuration, carrying the measured
// distribution (mean / standard deviation) of every extra-functional
// property (EFP) of interest.  The AS-RTM selects among these at
// runtime.  Knob values are stored as integers (indices into the knob's
// value list) so the knowledge base stays application-agnostic; the
// SOCRATES layer maps them back to FlagConfig / thread count / binding.
//
// Storage is structure-of-arrays in one 64-byte-aligned block: each
// metric's means (and stddevs) form a contiguous column, knob rows sit
// in one flat int block, and an open-addressing index of point numbers
// (about two uint32 slots per point, keyed by a hash of the knob row)
// backs find() and add()'s duplicate check, so both probe a slot or two
// instead of comparing every row, and building n points is O(n).  The
// AS-RTM's branchless decision sweeps stream over the columns via
// metric_means() / metric_stddevs(); everything else goes through the
// view types below, which preserve the original `kb[i].knobs` /
// `kb[i].metrics[m].mean` accessor surface.  OperatingPoint itself
// survives as the value type used to build and materialize points.
//
// The block is reference-counted and shared: copying a KnowledgeBase
// (construct or assign) copies no bytes, so every AS-RTM, tenant and
// pool lookup built from one knowledge base reads the same columns,
// and a copy costs two small name vectors plus a count increment.  A
// block is never written while another KnowledgeBase can see it: the
// first copy marks it shared, and add() on a base whose block carries
// that mark first re-packs into a private block (copy-on-write).  The
// mark is sticky, so add() never decides from a reference count that a
// reader on another thread may be dropping at that moment: copies may
// be read, copied and dropped on any threads while the owner of one of
// them adds to it.  A moved-from base is empty.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/arena.hpp"

namespace socrates::margot {

/// Distribution of one metric over the profiling runs of one point.
struct MetricStats {
  double mean = 0.0;
  double stddev = 0.0;
};

/// One explored configuration with its measured EFPs.  Used as the
/// input/value type for KnowledgeBase; the KB does not store these.
struct OperatingPoint {
  std::vector<int> knobs;          ///< one value per knob, KB-defined order
  std::vector<MetricStats> metrics;///< one entry per metric, KB-defined order
};

/// Schema + data of the design-time knowledge.
class KnowledgeBase {
 public:
  /// Read-only window onto one point's knob row (contiguous ints).
  /// Invalidated by any mutation of the owning KnowledgeBase.
  class KnobsView {
   public:
    KnobsView(const int* data, std::size_t count) : data_(data), count_(count) {}

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    int operator[](std::size_t k) const { return data_[k]; }
    const int* begin() const { return data_; }
    const int* end() const { return data_ + count_; }

    operator std::vector<int>() const { return {data_, data_ + count_}; }

    friend bool operator==(const KnobsView& a, const KnobsView& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
    friend bool operator==(const KnobsView& a, const std::vector<int>& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
    friend bool operator==(const std::vector<int>& a, const KnobsView& b) {
      return b == a;
    }

   private:
    const int* data_;
    std::size_t count_;
  };

  /// Read-only window onto one point's metric stats, gathered from the
  /// per-metric columns on access.  Invalidated by any KB mutation.
  class MetricsView {
   public:
    MetricsView(const KnowledgeBase* kb, std::size_t point)
        : kb_(kb), point_(point) {}

    std::size_t size() const { return kb_->metric_names_.size(); }
    MetricStats operator[](std::size_t m) const {
      return {kb_->means_[m * kb_->capacity_ + point_],
              kb_->stddevs_[m * kb_->capacity_ + point_]};
    }

    class iterator {
     public:
      iterator(const MetricsView* view, std::size_t m) : view_(view), m_(m) {}
      MetricStats operator*() const { return (*view_)[m_]; }
      iterator& operator++() { ++m_; return *this; }
      bool operator!=(const iterator& other) const { return m_ != other.m_; }
      bool operator==(const iterator& other) const { return m_ == other.m_; }

     private:
      const MetricsView* view_;
      std::size_t m_;
    };
    iterator begin() const { return {this, 0}; }
    iterator end() const { return {this, size()}; }

   private:
    const KnowledgeBase* kb_;
    std::size_t point_;
  };

  /// What kb[i] returns: a cheap value type whose .knobs / .metrics
  /// members keep the old AoS accessor syntax compiling.  Converts to
  /// OperatingPoint where a materialized copy is needed.
  struct PointView {
    KnobsView knobs;
    MetricsView metrics;

    operator OperatingPoint() const {
      OperatingPoint op;
      op.knobs = knobs;
      op.metrics.reserve(metrics.size());
      for (std::size_t m = 0; m < metrics.size(); ++m)
        op.metrics.push_back(metrics[m]);
      return op;
    }
  };

  /// Iterable view over all points (what points() returns).
  class PointRange {
   public:
    explicit PointRange(const KnowledgeBase* kb) : kb_(kb) {}
    std::size_t size() const { return kb_->size(); }
    bool empty() const { return kb_->empty(); }
    PointView operator[](std::size_t i) const { return (*kb_)[i]; }

    class iterator {
     public:
      iterator(const KnowledgeBase* kb, std::size_t i) : kb_(kb), i_(i) {}
      PointView operator*() const { return (*kb_)[i_]; }
      iterator& operator++() { ++i_; return *this; }
      bool operator!=(const iterator& other) const { return i_ != other.i_; }
      bool operator==(const iterator& other) const { return i_ == other.i_; }

     private:
      const KnowledgeBase* kb_;
      std::size_t i_;
    };
    iterator begin() const { return {kb_, 0}; }
    iterator end() const { return {kb_, kb_->size()}; }

   private:
    const KnowledgeBase* kb_;
  };

  KnowledgeBase(std::vector<std::string> knob_names,
                std::vector<std::string> metric_names);

  /// Shares `other`'s storage block (no bytes are copied) and marks it
  /// shared, so the next add() on either side re-packs first.
  KnowledgeBase(const KnowledgeBase& other);
  /// Leaves `other` empty: size 0, find() returns nullopt.
  KnowledgeBase(KnowledgeBase&& other) noexcept;
  /// Copy- and move-assignment (copy-and-swap; self-assignment is safe).
  KnowledgeBase& operator=(KnowledgeBase other) noexcept;

  const std::vector<std::string>& knob_names() const { return knob_names_; }
  const std::vector<std::string>& metric_names() const { return metric_names_; }

  std::size_t knob_index(const std::string& name) const;
  std::size_t metric_index(const std::string& name) const;

  /// Adds a point; its vectors must match the schema sizes.  Duplicate
  /// knob configurations are rejected.  O(1) expected, amortized; the
  /// first add() after a copy re-packs into a private block.
  void add(OperatingPoint op);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  PointView operator[](std::size_t i) const;
  PointRange points() const { return PointRange{this}; }

  /// Index of the point with exactly these knob values, if any: one
  /// hash-index probe, O(1) expected.
  std::optional<std::size_t> find(const std::vector<int>& knobs) const;

  // --- SoA hot-path accessors -------------------------------------------
  // Contiguous columns of size() entries, the same addresses in every
  // copy that shares the block; the pointers stay valid until the next
  // add() on this base (which may re-pack into a new block).

  const double* metric_means(std::size_t m) const {
    return means_ + m * capacity_;
  }
  const double* metric_stddevs(std::size_t m) const {
    return stddevs_ + m * capacity_;
  }
  /// Row of knob_names().size() ints for point i.
  const int* knob_row(std::size_t i) const {
    return knobs_ + i * knob_names_.size();
  }
  /// Bytes reserved by the storage block (observability); copies that
  /// share the block report the same bytes.
  std::size_t arena_bytes() const { return block_ ? block_->arena.capacity() : 0; }

 private:
  /// One storage block: the columns, the knob rows and the index.
  struct Block {
    support::Arena arena;
    std::atomic<bool> shared{false};  ///< set by the first copy; never cleared
  };

  /// Re-packs the columns into a fresh private block holding
  /// >= min_capacity points (capacity stays a power of two so columns
  /// stay aligned) and rehashes the index into it.
  void grow(std::size_t min_capacity);
  /// Index slot holding the point whose knob row equals `row`, or the
  /// empty slot where that row would go.  Needs capacity_ > 0.
  std::size_t probe(const int* row) const;
  void swap(KnowledgeBase& other) noexcept;

  std::vector<std::string> knob_names_;
  std::vector<std::string> metric_names_;
  std::shared_ptr<Block> block_;  ///< shared by copies; null while empty
  double* means_ = nullptr;    ///< metric-major: column m at means_ + m*capacity_
  double* stddevs_ = nullptr;  ///< metric-major, parallel to means_
  int* knobs_ = nullptr;       ///< point-major rows of knob_names_.size() ints
  std::uint32_t* slots_ = nullptr;  ///< 2*capacity_ slots: a point index or empty
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace socrates::margot
