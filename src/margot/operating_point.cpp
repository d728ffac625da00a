#include "margot/operating_point.hpp"

#include <cstring>
#include <limits>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace socrates::margot {

namespace {

/// Index slot that holds no point.
constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

}  // namespace

KnowledgeBase::KnowledgeBase(std::vector<std::string> knob_names,
                             std::vector<std::string> metric_names)
    : knob_names_(std::move(knob_names)), metric_names_(std::move(metric_names)) {
  SOCRATES_REQUIRE(!knob_names_.empty());
  SOCRATES_REQUIRE(!metric_names_.empty());
}

KnowledgeBase::KnowledgeBase(const KnowledgeBase& other)
    : knob_names_(other.knob_names_),
      metric_names_(other.metric_names_),
      block_(other.block_),
      means_(other.means_),
      stddevs_(other.stddevs_),
      knobs_(other.knobs_),
      slots_(other.slots_),
      size_(other.size_),
      capacity_(other.capacity_) {
  if (block_) block_->shared.store(true);
}

KnowledgeBase::KnowledgeBase(KnowledgeBase&& other) noexcept { swap(other); }

KnowledgeBase& KnowledgeBase::operator=(KnowledgeBase other) noexcept {
  swap(other);
  return *this;
}

void KnowledgeBase::swap(KnowledgeBase& other) noexcept {
  using std::swap;
  swap(knob_names_, other.knob_names_);
  swap(metric_names_, other.metric_names_);
  swap(block_, other.block_);
  swap(means_, other.means_);
  swap(stddevs_, other.stddevs_);
  swap(knobs_, other.knobs_);
  swap(slots_, other.slots_);
  swap(size_, other.size_);
  swap(capacity_, other.capacity_);
}

void KnowledgeBase::grow(std::size_t min_capacity) {
  std::size_t capacity = std::max<std::size_t>(capacity_, 16);
  while (capacity < min_capacity) capacity *= 2;
  SOCRATES_REQUIRE(capacity < kEmptySlot);  // every point index fits a slot

  const std::size_t metrics = metric_names_.size();
  const std::size_t knobs = knob_names_.size();
  const std::size_t column_bytes = capacity * sizeof(double);
  const std::size_t slot_count = 2 * capacity;
  auto block = std::make_shared<Block>();
  block->arena = support::Arena(support::Arena::bytes_for(
      metrics * column_bytes, metrics * column_bytes, capacity * knobs * sizeof(int),
      slot_count * sizeof(std::uint32_t)));
  double* means = block->arena.allocate<double>(metrics * capacity);
  double* stddevs = block->arena.allocate<double>(metrics * capacity);
  int* knob_block = block->arena.allocate<int>(capacity * knobs);
  std::uint32_t* slots = block->arena.allocate<std::uint32_t>(slot_count);
  std::fill_n(slots, slot_count, kEmptySlot);

  for (std::size_t m = 0; m < metrics && size_ > 0; ++m) {
    std::memcpy(means + m * capacity, means_ + m * capacity_,
                size_ * sizeof(double));
    std::memcpy(stddevs + m * capacity, stddevs_ + m * capacity_,
                size_ * sizeof(double));
  }
  if (size_ > 0)
    std::memcpy(knob_block, knobs_, size_ * knobs * sizeof(int));

  block_ = std::move(block);
  means_ = means;
  stddevs_ = stddevs;
  knobs_ = knob_block;
  slots_ = slots;
  capacity_ = capacity;
  for (std::size_t i = 0; i < size_; ++i)
    slots_[probe(knob_row(i))] = static_cast<std::uint32_t>(i);
}

std::size_t KnowledgeBase::probe(const int* row) const {
  const std::size_t count = knob_names_.size();
  // Fold the row into 64 bits, then let one splitmix finalizer
  // (hash_combine) spread it over the slot bits.
  std::uint64_t folded = 0;
  for (std::size_t k = 0; k < count; ++k)
    folded = folded * 0x9e3779b97f4a7c15ULL + static_cast<std::uint32_t>(row[k]);
  // Linear probing; the table is at most half full, so a probe ends.
  const std::size_t mask = 2 * capacity_ - 1;
  for (std::size_t s = hash_combine(count, folded) & mask;; s = (s + 1) & mask) {
    const std::uint32_t point = slots_[s];
    if (point == kEmptySlot ||
        std::memcmp(knob_row(point), row, count * sizeof(int)) == 0)
      return s;
  }
}

std::size_t KnowledgeBase::knob_index(const std::string& name) const {
  for (std::size_t i = 0; i < knob_names_.size(); ++i)
    if (knob_names_[i] == name) return i;
  SOCRATES_REQUIRE_MSG(false, "unknown knob '" << name << "'");
  return 0;  // unreachable
}

std::size_t KnowledgeBase::metric_index(const std::string& name) const {
  for (std::size_t i = 0; i < metric_names_.size(); ++i)
    if (metric_names_[i] == name) return i;
  SOCRATES_REQUIRE_MSG(false, "unknown metric '" << name << "'");
  return 0;  // unreachable
}

void KnowledgeBase::add(OperatingPoint op) {
  SOCRATES_REQUIRE_MSG(op.knobs.size() == knob_names_.size(),
                       "operating point has " << op.knobs.size() << " knobs, schema has "
                                              << knob_names_.size());
  SOCRATES_REQUIRE_MSG(op.metrics.size() == metric_names_.size(),
                       "operating point has " << op.metrics.size()
                                              << " metrics, schema has "
                                              << metric_names_.size());
  for (const auto& m : op.metrics) SOCRATES_REQUIRE(m.stddev >= 0.0);
  SOCRATES_REQUIRE_MSG(!find(op.knobs).has_value(), "duplicate operating point");

  // Copy-on-write: a block another KnowledgeBase can see is never
  // written, so a shared block is re-packed first.
  if (size_ == capacity_ || block_->shared.load()) grow(size_ + 1);
  const std::size_t i = size_;
  std::memcpy(knobs_ + i * knob_names_.size(), op.knobs.data(),
              op.knobs.size() * sizeof(int));
  for (std::size_t m = 0; m < op.metrics.size(); ++m) {
    means_[m * capacity_ + i] = op.metrics[m].mean;
    stddevs_[m * capacity_ + i] = op.metrics[m].stddev;
  }
  slots_[probe(knob_row(i))] = static_cast<std::uint32_t>(i);
  ++size_;
}

KnowledgeBase::PointView KnowledgeBase::operator[](std::size_t i) const {
  SOCRATES_REQUIRE(i < size_);
  return {KnobsView{knob_row(i), knob_names_.size()}, MetricsView{this, i}};
}

std::optional<std::size_t> KnowledgeBase::find(const std::vector<int>& knobs) const {
  if (size_ == 0 || knobs.size() != knob_names_.size()) return std::nullopt;
  const std::uint32_t point = slots_[probe(knobs.data())];
  if (point == kEmptySlot) return std::nullopt;
  return point;
}

}  // namespace socrates::margot
