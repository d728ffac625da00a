#include "margot/asrtm.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <utility>

#include "observability/metrics.hpp"
#include "support/error.hpp"

namespace socrates::margot {

#if SOCRATES_ASRTM_REENTRANCY_GUARD
namespace {
/// Debug-build detector for overlapping calls on one instance: the
/// first frame to enter wins the flag; a second, overlapping entry
/// (reentrant event sink, or a second thread sneaking past the owner's
/// lock) throws before it can corrupt the mutable scratch state.  The
/// throwing constructor never runs the destructor, so the owner frame
/// keeps the flag until it unwinds.
struct ReentrancyGuard {
  std::atomic<int>& flag;
  ReentrancyGuard(std::atomic<int>& f, const char* what) : flag(f) {
    SOCRATES_REQUIRE_MSG(flag.exchange(1, std::memory_order_acq_rel) == 0,
                         "AS-RTM reentrancy: " << what
                             << " called while another engine call is "
                                "in progress on this instance");
  }
  ~ReentrancyGuard() { flag.store(0, std::memory_order_release); }
};
}  // namespace
#define SOCRATES_ASRTM_GUARD(what) \
  ReentrancyGuard reentrancy_guard_(engine_busy_.flag, what)
#else
#define SOCRATES_ASRTM_GUARD(what) \
  do {                             \
  } while (false)
#endif

Asrtm::Asrtm(KnowledgeBase knowledge) : knowledge_(std::move(knowledge)) {
  SOCRATES_REQUIRE_MSG(!knowledge_.empty(),
                       "AS-RTM needs at least one operating point");
  corrections_.assign(knowledge_.metric_names().size(), 1.0);
  correction_versions_.assign(corrections_.size(), 0);
  health_.assign(knowledge_.size(), OpHealth{});
  scratch_alive_.assign(knowledge_.size(), 1);
  scratch_violations_.assign(knowledge_.size(), 0.0);
  // Default rank: minimize the first metric (callers normally override).
  rank_ = Rank{RankDirection::kMinimize, {{0, 1.0}}};
}

std::size_t Asrtm::add_constraint(Constraint constraint) {
  SOCRATES_ASRTM_GUARD("add_constraint");
  SOCRATES_REQUIRE(constraint.metric < knowledge_.metric_names().size());
  SOCRATES_REQUIRE(constraint.confidence >= 0.0);
  const std::size_t handle = constraints_.size();
  constraints_.push_back(constraint);
  columns_.emplace_back();
  // Keep the priority view sorted at mutation time (stable: a new
  // constraint goes after existing ones of the same priority), so a
  // decision never re-sorts.
  const auto pos = std::upper_bound(
      sorted_constraints_.begin(), sorted_constraints_.end(), constraint.priority,
      [this](int priority, std::size_t index) {
        return priority < constraints_[index].priority;
      });
  sorted_constraints_.insert(pos, handle);
  touch_decision();
  if (journal_) {
    std::ostringstream note;
    note << "constraint " << handle << " added on metric '"
         << knowledge_.metric_names()[constraint.metric] << "' goal "
         << constraint.goal;
    note_decision_trigger(note.str());
  }
  return handle;
}

void Asrtm::set_constraint_goal(std::size_t handle, double goal) {
  SOCRATES_ASRTM_GUARD("set_constraint_goal");
  SOCRATES_REQUIRE(handle < constraints_.size());
  constraints_[handle].goal = goal;
  // The cached column holds constraint_value (goal-independent): only
  // the epoch is dirtied, the column stays valid.
  touch_decision();
  if (journal_) {
    std::ostringstream note;
    note << "constraint " << handle << " goal -> " << goal;
    note_decision_trigger(note.str());
  }
}

void Asrtm::clear_constraints() {
  SOCRATES_ASRTM_GUARD("clear_constraints");
  constraints_.clear();
  columns_.clear();
  sorted_constraints_.clear();
  touch_decision();
  if (journal_) note_decision_trigger("constraints cleared");
}

void Asrtm::set_rank(Rank rank) {
  SOCRATES_ASRTM_GUARD("set_rank");
  for (const auto& term : rank.terms)
    SOCRATES_REQUIRE(term.metric < knowledge_.metric_names().size());
  rank_ = std::move(rank);
  rank_order_.built = false;
  touch_decision();
  if (journal_) note_decision_trigger("rank changed");
}

namespace {

/// Bounded best-first buffer: the chosen point plus up to kMaxRejected
/// runners-up, ordered by score and then by index, which is what a
/// stable sort of all scored candidates in index order puts first.
/// `keys` moves with the entries; the rank-order walk reads the key of
/// the last entry it must keep exact.
constexpr std::size_t kMaxRejected = 3;

struct TopCandidates {
  std::array<DecisionCandidate, kMaxRejected + 1> entries;
  std::array<double, kMaxRejected + 1> keys{};
  std::size_t count = 0;

  void insert(DecisionCandidate candidate, bool maximize, double key = 0.0) {
    std::size_t pos = count;
    while (pos > 0) {
      const DecisionCandidate& prev = entries[pos - 1];
      const bool prev_better =
          maximize ? prev.score > candidate.score : prev.score < candidate.score;
      if (prev_better ||
          (prev.score == candidate.score && prev.op_index < candidate.op_index))
        break;
      --pos;
    }
    if (pos >= entries.size()) return;  // worse than every kept entry
    const std::size_t last = std::min(count, entries.size() - 1);
    for (std::size_t j = last; j > pos; --j) {
      entries[j] = entries[j - 1];
      keys[j] = keys[j - 1];
    }
    entries[pos] = candidate;
    keys[pos] = key;
    if (count < entries.size()) ++count;
  }
};

/// +1 when a constraint's violation grows with its value (an upper
/// bound), -1 otherwise; the violation is max(sign * (value - goal), 0).
double violation_sign(const Constraint& c) {
  return c.op == ComparisonOp::kLess || c.op == ComparisonOp::kLessEqual ? 1.0 : -1.0;
}

/// Low mantissa bits of a rank-order entry that hold the point index:
/// as few as index n - 1 needs, so a key keeps 52 - bit_width(n - 1)
/// bits of mantissa (43 at 512 points).
std::uint64_t rank_order_index_mask(std::size_t n) {
  return (std::uint64_t{1} << std::bit_width(n - 1)) - 1;
}

}  // namespace

std::size_t Asrtm::find_best_operating_point() const {
  SOCRATES_ASRTM_GUARD("find_best_operating_point");
  if (decided_epoch_ == decision_epoch_) {
    // Nothing that feeds the decision changed: O(1), allocation-free.
    last_decision_cached_ = true;
    last_feasible_ = cached_feasible_;
    // A trigger note explains exactly one decision; a cached decision
    // cannot switch, so the note is consumed (discarded) here too.
    if (journal_) pending_trigger_.clear();
    static Counter& cached =
        MetricsRegistry::global().counter("asrtm.decisions_cached");
    cached.add(1);
    return cached_best_;
  }
  last_decision_cached_ = false;
  // The best-first walk when it can decide, the dense sweep otherwise.
  if (!rank_order_.built) build_rank_order();
  const double stop_factor =
      rank_order_.entries.empty() ? 0.0 : rank_stop_factor(/*corrected=*/true);
  std::size_t best = 0;
  if (stop_factor == 0.0 || !decide_by_walk(best, stop_factor)) best = decide_dense();
  decided_epoch_ = decision_epoch_;
  cached_best_ = best;
  cached_feasible_ = last_feasible_;
  return best;
}

std::size_t Asrtm::fallback_safest() const {
  // Every clone is quarantined: fall back to the historically safest
  // point (fewest quarantines, then shortest remaining cooldown) so
  // the application keeps making progress.
  std::size_t safest = 0;
  for (std::size_t i = 1; i < health_.size(); ++i) {
    const OpHealth& a = health_[i];
    const OpHealth& b = health_[safest];
    if (a.times_quarantined < b.times_quarantined ||
        (a.times_quarantined == b.times_quarantined && a.cooldown < b.cooldown))
      safest = i;
  }
  last_feasible_ = false;
  if (journal_)
    journal_switch(safest, rank_.evaluate(knowledge_, safest, corrections_), {});
  return safest;
}

const std::vector<double>& Asrtm::constraint_column(std::size_t handle) const {
  ConstraintColumn& column = columns_[handle];
  const Constraint& c = constraints_[handle];
  if (!column.valid || column.correction_version != correction_versions_[c.metric]) {
    const std::size_t n = knowledge_.size();
    column.values.resize(n);
    const double correction = corrections_[c.metric];
    const bool upper =
        c.op == ComparisonOp::kLess || c.op == ComparisonOp::kLessEqual;
    const double confidence = c.confidence;
    // Straight-line streaming over the SoA metric columns: both inputs
    // and the output are contiguous doubles, no per-point indirection.
    const double* means = knowledge_.metric_means(c.metric);
    const double* stddevs = knowledge_.metric_stddevs(c.metric);
    double* out = column.values.data();
    if (upper) {
      for (std::size_t i = 0; i < n; ++i) {
        const double mean = means[i] * correction;
        const double margin = confidence * stddevs[i] * correction;
        out[i] = mean + margin;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const double mean = means[i] * correction;
        const double margin = confidence * stddevs[i] * correction;
        out[i] = mean - margin;
      }
    }
    column.valid = true;
    column.correction_version = correction_versions_[c.metric];
    static Counter& recomputed =
        MetricsRegistry::global().counter("asrtm.columns_recomputed");
    recomputed.add(1);
    static Counter& rows =
        MetricsRegistry::global().counter("asrtm.simd_rows_evaluated");
    rows.add(n);
  }
  return column.values;
}

double Asrtm::rank_stop_factor(bool corrected) const {
  // Binade bounds of positive values: a mean of term t lies in
  // [2^min, 2^(max+1)) and a correction with exponent e in
  // [2^e, 2^(e+1)), so their product lies in [2^(min+e), 2^(max+e+2)).
  // Keeping every base, factor and partial product inside
  // +-kSafeExponent (the normal range is [-1022, 1024)) makes each
  // rounding relative, which is what the margin below bounds.  A key's
  // multiplied-out square lies between its base and its factor.
  constexpr double kSafeExponent = 1000.0;
  const bool linear = rank_.composition == RankComposition::kLinear;
  double product_low = 0.0;
  double product_high = 0.0;
  double error_units = 0.0;
  for (std::size_t t = 0; t < rank_.terms.size(); ++t) {
    const RankTerm& term = rank_.terms[t];
    const RankOrder::TermExponents& bounds = rank_order_.exponents[t];
    double base_low = bounds.min;
    double base_high = bounds.max + 1.0;
    if (corrected) {
      const double correction = corrections_[term.metric];
      if (!(correction > 0.0 && std::isnormal(correction))) return 0.0;
      const int e = std::ilogb(correction);
      base_low += e;
      base_high += e + 1.0;
    }
    double factor_low = 0.0;
    double factor_high = 0.0;
    if (linear) {
      // weight * metric: ilogb(0) and ilogb(NaN) fail the range test.
      const int e = std::ilogb(term.weight);
      factor_low = base_low + e;
      factor_high = base_high + e + 1.0;
    } else {
      factor_low = term.weight * base_low;
      factor_high = term.weight * base_high;
      if (factor_low > factor_high) std::swap(factor_low, factor_high);
    }
    product_low += factor_low;
    product_high += factor_high;
    for (const double exponent :
         {base_low, base_high, factor_low, factor_high, product_low, product_high})
      if (!(std::abs(exponent) <= kSafeExponent)) return 0.0;
    // A term costs a key and a score at most (|w| + 4) roundings each:
    // |w| from the rounded base raised to w, the rest from pow (or the
    // key's square), the product and the key's division.
    error_units += (linear ? 1.0 : std::abs(term.weight)) + 4.0;
  }
  // Truncating a key to make room for the index costs less than
  // 2^bits units.  Two points, each off by key and score rounding, then
  // compared once more: about 4 * error_units units of 2^-53 at most,
  // and 2^-40 per unit leaves a factor of 2048 of headroom.
  error_units += static_cast<double>(rank_order_index_mask(knowledge_.size())) + 1.0;
  return 1.0 + std::ldexp(error_units, -40);
}

void Asrtm::build_rank_order() const {
  RankOrder& order = rank_order_;
  order.built = true;
  order.tail_sorted = false;
  order.entries.clear();
  const bool linear = rank_.composition == RankComposition::kLinear;
  // A sum of several terms moves unevenly under corrections: no order.
  if (linear && rank_.terms.size() != 1) return;

  // key = product of mean^(+-w), oriented so a larger key ranks better;
  // a single linear term keeps only the sign of its weight (its
  // magnitude scales every score alike).  Squares are multiplied out:
  // the key only orders points and bounds the stop.  The keys go into
  // the dense path's violation scratch, a contiguous column.
  const std::size_t n = knowledge_.size();
  double* keys = scratch_violations_.data();
  std::fill(keys, keys + n, 1.0);
  order.exponents.resize(rank_.terms.size());
  const double orient = rank_.direction == RankDirection::kMaximize ? 1.0 : -1.0;
  for (std::size_t t = 0; t < rank_.terms.size(); ++t) {
    const RankTerm& term = rank_.terms[t];
    const double* means = knowledge_.metric_means(term.metric);
    double low = means[0];
    double high = means[0];
    for (std::size_t i = 1; i < n; ++i) {
      low = std::min(low, means[i]);
      high = std::max(high, means[i]);
    }
    if (!(low > 0.0 && std::isnormal(low) && std::isnormal(high))) return;
    order.exponents[t] = {std::ilogb(low), std::ilogb(high)};
    const double exponent =
        orient * (linear ? (term.weight > 0.0 ? 1.0 : -1.0) : term.weight);
    if (exponent == 1.0) {
      for (std::size_t i = 0; i < n; ++i) keys[i] *= means[i];
    } else if (exponent == -1.0) {
      for (std::size_t i = 0; i < n; ++i) keys[i] /= means[i];
    } else if (exponent == 2.0) {
      for (std::size_t i = 0; i < n; ++i) keys[i] *= means[i] * means[i];
    } else if (exponent == -2.0) {
      for (std::size_t i = 0; i < n; ++i) keys[i] /= means[i] * means[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) keys[i] *= std::pow(means[i], exponent);
    }
  }
  // Indices must leave the exponent and most of the mantissa alone.
  if (std::bit_width(n - 1) > 32) return;
  if (rank_stop_factor(/*corrected=*/false) == 0.0) return;
  bool all_normal = true;
  for (std::size_t i = 0; i < n; ++i)
    all_normal &= (keys[i] >= std::numeric_limits<double>::min()) &
                  (keys[i] <= std::numeric_limits<double>::max());
  if (!all_normal) return;

  const std::uint64_t mask = rank_order_index_mask(n);
  order.entries.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    order.entries[i] = (std::bit_cast<std::uint64_t>(keys[i]) & ~mask) | i;
  const auto head = order.entries.begin() +
                    static_cast<std::ptrdiff_t>(std::min(n, RankOrder::kSortedHead));
  std::nth_element(order.entries.begin(), head, order.entries.end(), std::greater<>());
  std::sort(order.entries.begin(), head, std::greater<>());
}

bool Asrtm::decide_by_walk(std::size_t& chosen, double stop_factor) const {
  // The walk tests the same constraint columns as the dense pass, with
  // the same expression, so both agree on every point.
  for (const std::size_t handle : sorted_constraints_) (void)constraint_column(handle);
  const auto feasible = [this](std::size_t i) {
    for (const std::size_t handle : sorted_constraints_) {
      const Constraint& c = constraints_[handle];
      const double value = columns_[handle].values[i];
      if (std::max(violation_sign(c) * (value - c.goal), 0.0) != 0.0) return false;
    }
    return health_[i].cooldown == 0;
  };

  RankOrder& order = rank_order_;
  const bool maximize = rank_.direction == RankDirection::kMaximize;
  // The leader must be exact; with the journal on, so must the three
  // runners-up.
  const std::size_t exact = journal_ ? kMaxRejected + 1 : 1;
  TopCandidates top;
  std::uint64_t scored = 0;
  const std::size_t n = order.entries.size();
  const std::uint64_t mask = rank_order_index_mask(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (pos == RankOrder::kSortedHead && !order.tail_sorted) {
      std::sort(order.entries.begin() + static_cast<std::ptrdiff_t>(pos),
                order.entries.end(), std::greater<>());
      order.tail_sorted = true;
    }
    const std::uint64_t entry = order.entries[pos];
    const double key = std::bit_cast<double>(entry & ~mask);
    // Keys only fall from here on.  Once this one trails the key of the
    // last candidate that must stay exact by more than rounding can
    // explain, every later point scores strictly worse than it.
    if (top.count >= exact && key * stop_factor < top.keys[exact - 1]) break;
    const std::size_t i = entry & mask;
    if (!feasible(i)) continue;
    top.insert({i, rank_.evaluate(knowledge_, i, corrections_)}, maximize, key);
    ++scored;
  }
  // No unquarantined point meets every constraint: relaxation (or the
  // all-quarantined fallback) is the dense path's job.
  if (top.count == 0) return false;

  static Counter& walks = MetricsRegistry::global().counter("asrtm.walk_decisions");
  walks.add(1);
  static Counter& scores = MetricsRegistry::global().counter("asrtm.scores_computed");
  scores.add(scored);
  last_feasible_ = true;
  chosen = top.entries[0].op_index;
  if (journal_)
    journal_switch(chosen, top.entries[0].score,
                   {top.entries.begin() + 1,
                    top.entries.begin() + static_cast<std::ptrdiff_t>(top.count)});
  return true;
}

std::size_t Asrtm::decide_dense() const {
  // Dense, branchless sweep: instead of compacting surviving candidate
  // indices per constraint, every pass streams all n points and folds
  // the result into an alive mask.  The per-element work is a handful
  // of arithmetic ops and compares over contiguous doubles, which the
  // compiler can vectorize; the differential fuzz in
  // asrtm_incremental_test proves it bit-identical to the brute-force
  // oracle in tests/asrtm_reference.hpp.
  const std::size_t n = knowledge_.size();
  std::vector<unsigned char>& alive = scratch_alive_;
  std::vector<double>& violations = scratch_violations_;
  alive.resize(n);
  violations.resize(n);

  std::size_t alive_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ok = health_[i].cooldown == 0;
    alive[i] = ok;
    alive_count += ok;
  }
  if (alive_count == 0) return fallback_safest();

  std::uint64_t rows_swept = n;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  last_feasible_ = true;
  for (const std::size_t handle : sorted_constraints_) {
    const Constraint& c = constraints_[handle];
    const double* column = constraint_column(handle).data();
    const double goal = c.goal;
    // v = max(sign * (value - goal), 0): identical to the oracle's
    // `compare(value, op, goal) ? 0 : abs(value - goal)` for all four
    // ComparisonOps — at value == goal both give exactly 0, and the
    // strict/non-strict distinction only moves points between "v == 0"
    // and "v == 0", never changes v.
    const double sign = violation_sign(c);
    for (std::size_t i = 0; i < n; ++i)
      violations[i] = std::max(sign * (column[i] - goal), 0.0);
    rows_swept += n;

    std::size_t satisfied = 0;
    for (std::size_t i = 0; i < n; ++i)
      satisfied += static_cast<std::size_t>(
          alive[i] & static_cast<unsigned char>(violations[i] == 0.0));
    if (satisfied != 0) {
      for (std::size_t i = 0; i < n; ++i)
        alive[i] = alive[i] & static_cast<unsigned char>(violations[i] == 0.0);
      alive_count = satisfied;
      continue;
    }
    // Infeasible under this constraint: keep the least-violating points
    // (mARGOt's graceful degradation) and continue with lower-priority
    // constraints among them.
    last_feasible_ = false;
    double min_violation = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = alive[i] ? violations[i] : kInf;
      min_violation = std::min(min_violation, v);
    }
    // Violations within 1e-12 relative (rounding in mean * correction)
    // plus 1e-15 absolute of the minimum tie with it: a purely relative
    // test collapses to exact equality once the minimum is tiny or
    // denormal and would drop ties that differ only by noise.
    const double tie_limit = min_violation + (1e-12 * min_violation + 1e-15);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned char keep =
          alive[i] & static_cast<unsigned char>(violations[i] <= tie_limit);
      alive[i] = keep;
      kept += keep;
    }
    alive_count = kept;
  }
  SOCRATES_ENSURE(alive_count != 0);

  // Rank among the survivors; the journal's runners-up come from a
  // bounded top-k pass.  The first alive index seeds the scan and
  // strictly-better comparison keeps the lowest index on ties, matching
  // the oracle exactly.
  const bool maximize = rank_.direction == RankDirection::kMaximize;
  std::size_t best = 0;
  while (alive[best] == 0) ++best;
  double best_value = rank_.evaluate(knowledge_, best, corrections_);
  TopCandidates top;
  if (journal_) top.insert({best, best_value}, maximize);
  for (std::size_t i = best + 1; i < n; ++i) {
    if (alive[i] == 0) continue;
    const double value = rank_.evaluate(knowledge_, i, corrections_);
    if (journal_) top.insert({i, value}, maximize);
    const bool better = maximize ? value > best_value : value < best_value;
    if (better) {
      best = i;
      best_value = value;
    }
  }
  static Counter& rows =
      MetricsRegistry::global().counter("asrtm.simd_rows_evaluated");
  rows.add(rows_swept);
  static Counter& scores = MetricsRegistry::global().counter("asrtm.scores_computed");
  scores.add(alive_count);
  if (journal_) {
    std::vector<DecisionCandidate> runners;
    runners.reserve(kMaxRejected);
    for (std::size_t j = 0; j < top.count; ++j)
      if (top.entries[j].op_index != best && runners.size() < kMaxRejected)
        runners.push_back(top.entries[j]);
    journal_switch(best, best_value, std::move(runners));
  }
  return best;
}

void Asrtm::invalidate_decision_cache() {
  for (std::size_t m = 0; m < correction_versions_.size(); ++m)
    ++correction_versions_[m];
  rank_order_.built = false;
  touch_decision();
}

// ---- decision journal ------------------------------------------------------

void Asrtm::enable_decision_journal(std::size_t max_records) {
  journal_ = std::make_unique<DecisionJournal>(max_records);
  pending_trigger_.clear();
  journal_has_last_ = false;
  // The next decision must run the full path so the "initial selection"
  // record is written even if the cache was already warm.
  touch_decision();
}

void Asrtm::disable_decision_journal() { journal_.reset(); }

const DecisionJournal& Asrtm::decision_journal() const {
  SOCRATES_REQUIRE_MSG(journal_ != nullptr,
                       "decision journal is not enabled (call "
                       "enable_decision_journal first)");
  return *journal_;
}

void Asrtm::set_decision_time(double seconds) { journal_now_ = seconds; }

void Asrtm::note_decision_trigger(std::string trigger) {
  pending_trigger_ = std::move(trigger);
}

void Asrtm::journal_switch(std::size_t chosen, double chosen_score,
                           std::vector<DecisionCandidate> others) const {
  // A trigger note explains exactly the decision that follows it.  It is
  // consumed here whether or not that decision switched — otherwise a
  // stale note would be attached to a later, unrelated switch record.
  std::string trigger = std::exchange(pending_trigger_, {});
  const bool switched = !journal_has_last_ || chosen != journal_last_op_;
  journal_last_op_ = chosen;
  journal_has_last_ = true;
  if (!switched) return;

  DecisionRecord record;
  record.timestamp_s = journal_now_;
  if (!trigger.empty())
    record.trigger = std::move(trigger);
  else if (journal_->total_decisions() == 0)
    record.trigger = "initial selection";
  else
    record.trigger = "feedback/quarantine drift";
  record.chosen = chosen;
  record.chosen_score = chosen_score;
  record.feasible = last_feasible_;
  record.epoch = decision_epoch_;

  // Runners-up arrive best-first from the bounded top-k, already
  // trimmed to the journal's limit.
  record.rejected = std::move(others);

  for (std::size_t i = 0; i < health_.size(); ++i)
    if (health_[i].cooldown > 0) record.quarantined.push_back(i);

  journal_->append(std::move(record));
  MetricsRegistry::global().counter("asrtm.journal_records").add(1);
}

void Asrtm::send_feedback(std::size_t op_index, std::size_t metric, double observed) {
  SOCRATES_ASRTM_GUARD("send_feedback");
  SOCRATES_REQUIRE(op_index < knowledge_.size());
  SOCRATES_REQUIRE(metric < corrections_.size());
  // A stalled kernel legitimately observes zero throughput; such a sample
  // is rejected like the monitors reject invalid samples instead of
  // aborting the process, and leaves the correction untouched.  So is a
  // ratio that overflows or underflows: one inf would pin the running
  // average at inf for good.
  bool valid = std::isfinite(observed) && observed > 0.0;
  double instant_ratio = 0.0;
  if (valid) {
    const double predicted = knowledge_.metric_means(metric)[op_index];
    SOCRATES_REQUIRE_MSG(predicted > 0.0, "cannot adapt a zero-mean metric");
    instant_ratio = observed / predicted;
    valid = std::isnormal(instant_ratio);  // both operands are positive
  }
  RuntimeEvent event;
  event.op = op_index;
  event.metric = metric;
  event.value = observed;
  if (valid) {
    const double updated =
        (1.0 - feedback_alpha_) * corrections_[metric] + feedback_alpha_ * instant_ratio;
    // Any change of value is a new decision input; bit-identical
    // feedback leaves the epoch clean and every column valid.
    if (updated != corrections_[metric]) {
      corrections_[metric] = updated;
      ++correction_versions_[metric];
      touch_decision();
    }
    event.kind = RuntimeEvent::Kind::kFeedback;
  } else {
    ++feedback_rejected_;
    static Counter& rejected =
        MetricsRegistry::global().counter("asrtm.feedback_rejected");
    rejected.add(1);
    event.kind = RuntimeEvent::Kind::kFeedbackRejected;
  }
  emit(event);
}

double Asrtm::correction(std::size_t metric) const {
  SOCRATES_REQUIRE(metric < corrections_.size());
  return corrections_[metric];
}

void Asrtm::reset_feedback() {
  SOCRATES_ASRTM_GUARD("reset_feedback");
  bool moved = false;
  for (std::size_t m = 0; m < corrections_.size(); ++m) {
    if (corrections_[m] != 1.0) {
      corrections_[m] = 1.0;
      ++correction_versions_[m];
      moved = true;
    }
  }
  if (moved) touch_decision();
}

void Asrtm::set_feedback_inertia(double alpha) {
  SOCRATES_REQUIRE(alpha > 0.0 && alpha <= 1.0);
  feedback_alpha_ = alpha;
}

// ---- variant-fault quarantine ----------------------------------------------

void Asrtm::set_quarantine_options(QuarantineOptions options) {
  SOCRATES_REQUIRE(options.failure_threshold >= 1);
  SOCRATES_REQUIRE(options.base_cooldown >= 1);
  SOCRATES_REQUIRE(options.max_cooldown >= options.base_cooldown);
  quarantine_ = options;
}

void Asrtm::quarantine_op(OpHealth& health) {
  // Exponential backoff: double the cooldown on every re-quarantine.
  const std::size_t shift = std::min<std::size_t>(health.times_quarantined, 32);
  const std::size_t cooldown = quarantine_.base_cooldown << shift;
  health.cooldown = std::min(cooldown, quarantine_.max_cooldown);
  ++health.times_quarantined;
  health.consecutive_failures = 0;
  health.probing = false;
  ++quarantine_events_;
  touch_decision();
  static Counter& quarantines =
      MetricsRegistry::global().counter("asrtm.quarantine_events");
  quarantines.add(1);
}

void Asrtm::report_variant_failure(std::size_t op_index) {
  SOCRATES_ASRTM_GUARD("report_variant_failure");
  SOCRATES_REQUIRE(op_index < health_.size());
  OpHealth& health = health_[op_index];
  ++health.consecutive_failures;
  // A failure during the post-cooldown probe re-quarantines at once.
  if (health.probing || health.consecutive_failures >= quarantine_.failure_threshold)
    quarantine_op(health);
  RuntimeEvent event;
  event.kind = RuntimeEvent::Kind::kVariantFailure;
  event.op = op_index;
  emit(event);
}

void Asrtm::report_variant_success(std::size_t op_index) {
  SOCRATES_ASRTM_GUARD("report_variant_success");
  SOCRATES_REQUIRE(op_index < health_.size());
  OpHealth& health = health_[op_index];
  health.consecutive_failures = 0;
  health.probing = false;
  RuntimeEvent event;
  event.kind = RuntimeEvent::Kind::kVariantSuccess;
  event.op = op_index;
  emit(event);
}

void Asrtm::advance_quarantine() {
  SOCRATES_ASRTM_GUARD("advance_quarantine");
  bool any_cooling = false;
  for (OpHealth& health : health_) {
    if (health.cooldown == 0) continue;
    any_cooling = true;
    if (--health.cooldown == 0) health.probing = true;
  }
  // With no active cooldowns the tick changes nothing the decision
  // reads, so the epoch stays clean and Context::update stays O(1).
  if (any_cooling) touch_decision();
  RuntimeEvent event;
  event.kind = RuntimeEvent::Kind::kQuarantineAdvance;
  emit(event);
}

// ---- crash-safe knowledge (checkpoint/restore) -----------------------------

void Asrtm::emit(const RuntimeEvent& event) const {
  if (event_sink_ && !replaying_) event_sink_(event);
}

Asrtm::Snapshot Asrtm::snapshot() const {
  Snapshot snap;
  snap.corrections = corrections_;
  snap.feedback_alpha = feedback_alpha_;
  snap.quarantine = quarantine_;
  snap.health = health_;
  snap.quarantine_events = quarantine_events_;
  snap.decision_epoch = decision_epoch_;
  return snap;
}

void Asrtm::restore(const Snapshot& snapshot) {
  SOCRATES_ASRTM_GUARD("restore");
  SOCRATES_REQUIRE_MSG(snapshot.corrections.size() == corrections_.size(),
                       "snapshot metric count does not match the knowledge base");
  SOCRATES_REQUIRE_MSG(snapshot.health.size() == health_.size(),
                       "snapshot operating-point count does not match the "
                       "knowledge base");
  SOCRATES_REQUIRE(snapshot.feedback_alpha > 0.0 && snapshot.feedback_alpha <= 1.0);
  SOCRATES_REQUIRE(snapshot.quarantine.failure_threshold >= 1);
  SOCRATES_REQUIRE(snapshot.quarantine.base_cooldown >= 1);
  SOCRATES_REQUIRE(snapshot.quarantine.max_cooldown >=
                   snapshot.quarantine.base_cooldown);
  corrections_ = snapshot.corrections;
  feedback_alpha_ = snapshot.feedback_alpha;
  quarantine_ = snapshot.quarantine;
  health_ = snapshot.health;
  quarantine_events_ = snapshot.quarantine_events;
  // Resume past both histories so the epoch stays monotonic, and land
  // dirty: the restored corrections/health must feed the next decision.
  decision_epoch_ = std::max(decision_epoch_, snapshot.decision_epoch) + 1;
  for (std::size_t m = 0; m < correction_versions_.size(); ++m)
    ++correction_versions_[m];
}

void Asrtm::set_event_sink(std::function<void(const RuntimeEvent&)> sink) {
  event_sink_ = std::move(sink);
}

void Asrtm::replay(const RuntimeEvent& event) {
  replaying_ = true;
  // The mutators validate their arguments; a corrupted journal line that
  // slipped past the checksum must not crash, so the caller (checkpoint
  // layer) catches ContractViolation and skips the record.
  struct Guard {
    bool& flag;
    ~Guard() { flag = false; }
  } guard{replaying_};
  switch (event.kind) {
    case RuntimeEvent::Kind::kFeedback:
      send_feedback(event.op, event.metric, event.value);
      break;
    case RuntimeEvent::Kind::kVariantFailure:
      report_variant_failure(event.op);
      break;
    case RuntimeEvent::Kind::kVariantSuccess:
      report_variant_success(event.op);
      break;
    case RuntimeEvent::Kind::kQuarantineAdvance:
      advance_quarantine();
      break;
    case RuntimeEvent::Kind::kStateActivation:
      // Requirements live in the StateManager; the checkpoint layer
      // tracks the last activation and returns it to the application.
      break;
    case RuntimeEvent::Kind::kFeedbackRejected:
      // The sample was rejected when recorded; replaying it changes
      // nothing (the rejection counter is process-local, not state).
      break;
  }
}

void Asrtm::record_state_activation(const std::string& name) {
  RuntimeEvent event;
  event.kind = RuntimeEvent::Kind::kStateActivation;
  event.name = name;
  emit(event);
}

bool Asrtm::is_quarantined(std::size_t op_index) const {
  SOCRATES_REQUIRE(op_index < health_.size());
  return health_[op_index].cooldown > 0;
}

std::size_t Asrtm::quarantined_count() const {
  std::size_t n = 0;
  for (const OpHealth& health : health_)
    if (health.cooldown > 0) ++n;
  return n;
}

// ---- OscillationWatchdog ---------------------------------------------------

OscillationWatchdog::OscillationWatchdog() : OscillationWatchdog(Options()) {}

OscillationWatchdog::OscillationWatchdog(Options options) : options_(options) {
  SOCRATES_REQUIRE(options.window >= 1);
  SOCRATES_REQUIRE(options.max_switches >= 1);
  SOCRATES_REQUIRE(options.hold_iterations >= 1);
  switch_ring_.assign(options.window, false);
}

std::size_t OscillationWatchdog::filter(std::size_t chosen) {
  if (!has_applied_) {
    has_applied_ = true;
    applied_ = chosen;
    return chosen;
  }
  if (hold_remaining_ > 0) {
    --hold_remaining_;
    switch_ring_[ring_next_] = false;
    ring_next_ = (ring_next_ + 1) % options_.window;
    return applied_;
  }
  const bool switched = chosen != applied_;
  switch_ring_[ring_next_] = switched;
  ring_next_ = (ring_next_ + 1) % options_.window;
  if (switched) {
    std::size_t switches = 0;
    for (const bool s : switch_ring_)
      if (s) ++switches;
    if (switches > options_.max_switches) {
      // Thrashing: suppress this switch and hold the applied point.
      ++trips_;
      hold_remaining_ = options_.hold_iterations;
      return applied_;
    }
  }
  applied_ = chosen;
  return chosen;
}

void OscillationWatchdog::reset() {
  switch_ring_.assign(options_.window, false);
  ring_next_ = 0;
  has_applied_ = false;
  hold_remaining_ = 0;
}

}  // namespace socrates::margot
