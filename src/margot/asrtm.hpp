// Application-Specific Run-Time Manager (AS-RTM).
//
// The decision engine of mARGOt (Section II of the paper): selects the
// most suitable operating point from the design-time knowledge base,
// given
//   i)   the application requirements (prioritized constraints + rank),
//   ii)  the design-time knowledge (profiled operating points), and
//   iii) feedback information from the monitors.
// Constraint handling follows mARGOt's semantics: constraints are
// applied in priority order; when a constraint filters out every
// remaining point, the points violating it the least survive (so an
// infeasible power budget degrades gracefully to the most power-frugal
// configurations, the behaviour visible at the left edge of Figure 4).
// Monitor feedback adapts the knowledge online: per-metric correction
// factors (EWMA of observed/expected) rescale every stored mean, which
// closes the MAPE-K loop when the platform drifts from its profile.
//
// Two graceful-degradation mechanisms defend the decision loop against
// the faults of platform/fault_injection.hpp:
//   - operating points whose compiled clone repeatedly fails are
//     *quarantined* (excluded from selection) and re-probed after an
//     exponentially growing cooldown; when every point is quarantined,
//     selection falls back to the historically safest one;
//   - an OscillationWatchdog (used by margot::Context) holds the
//     current configuration when noisy feedback makes the selection
//     thrash between points.
//
// The decision path is *incremental* (docs/OBSERVABILITY.md, "Decision
// engine epochs"): every mutation of the decision inputs bumps an
// epoch, a clean epoch returns the cached best index in O(1), and a
// dirty decision recomputes only the per-constraint value columns whose
// correction actually moved.  A dirty decision then *walks a best-first
// order* of the points instead of sweeping them all: corrections scale
// every score of a geometric (or single-term linear) rank by the same
// positive factor, so the order of the uncorrected scores, built once
// per rank, fixes the winner up to rounding.  The walk skips quarantined
// points and points that fail a constraint column, computes exact
// scores with Rank::evaluate, and stops once the next key trails the
// leader's by more than a rounding margin derived from the rank's
// weights.  Inputs the walk cannot decide — no point meets every
// constraint, a multi-term linear rank, keys or corrections outside the
// range the margin covers, every point quarantined — take the dense
// path: each constraint is applied as branchless mask/select passes over
// a contiguous SoA column (see operating_point.hpp), then every survivor
// is scored.  This is the only decision engine; a brute-force oracle of
// the same semantics lives with the tests (tests/asrtm_reference.hpp),
// and a differential fuzz asserts the two decide bit-identically.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

// The AS-RTM is single-threaded by contract (the server serializes all
// access behind a per-tenant mutex); the mutable decision scratch
// buffers would corrupt silently under concurrent use.  In debug and
// sanitizer builds a reentrancy guard turns such misuse into a loud
// ContractViolation instead of a race (see SOCRATES_DEBUG_GUARDS in
// CMakeLists.txt, which turns it on for the asan/tsan presets).
#if !defined(NDEBUG) || defined(SOCRATES_DEBUG_GUARDS)
#define SOCRATES_ASRTM_REENTRANCY_GUARD 1
#else
#define SOCRATES_ASRTM_REENTRANCY_GUARD 0
#endif

#include "margot/decision_journal.hpp"
#include "margot/operating_point.hpp"
#include "margot/optimization.hpp"

namespace socrates::margot {

/// One mutation of the AS-RTM's learned state.  The checkpoint layer
/// (margot/checkpoint.hpp) appends these to an on-disk journal so a
/// restarted process can replay itself back to its pre-crash knowledge.
struct RuntimeEvent {
  enum class Kind {
    kFeedback,          ///< send_feedback(op, metric, value)
    kVariantFailure,    ///< report_variant_failure(op)
    kVariantSuccess,    ///< report_variant_success(op)
    kQuarantineAdvance, ///< advance_quarantine()
    kStateActivation,   ///< StateManager switched to state `name`
    kFeedbackRejected,  ///< send_feedback rejected an invalid observation
  };
  Kind kind = Kind::kFeedback;
  std::size_t op = 0;
  std::size_t metric = 0;
  double value = 0.0;
  std::string name;  ///< state name (kStateActivation only)
};

class Asrtm {
 public:
  explicit Asrtm(KnowledgeBase knowledge);

  const KnowledgeBase& knowledge() const { return knowledge_; }

  // ---- requirements management (may be called at any time) ------------
  /// Adds a constraint; returns its handle for later goal updates.
  std::size_t add_constraint(Constraint constraint);
  /// Changes the goal value of an existing constraint.
  void set_constraint_goal(std::size_t handle, double goal);
  /// Removes every constraint.
  void clear_constraints();
  std::size_t constraint_count() const { return constraints_.size(); }

  void set_rank(Rank rank);
  const Rank& rank() const { return rank_; }

  // ---- decision --------------------------------------------------------
  /// Index (into the knowledge base) of the best operating point under
  /// the current requirements and feedback corrections.
  std::size_t find_best_operating_point() const;

  KnowledgeBase::PointView best_operating_point() const {
    return knowledge_[find_best_operating_point()];
  }

  /// True when the returned point satisfies every constraint (false
  /// when some constraint had to be relaxed).
  bool last_selection_feasible() const { return last_feasible_; }

  // ---- incremental decision engine -------------------------------------
  /// Monotonic epoch of the decision inputs.  Every mutation that can
  /// change the outcome of find_best_operating_point (constraint
  /// add/remove/goal change, rank change, a feedback correction that
  /// changes value, quarantine transition, restore) bumps it; while it
  /// stands still the decision is served from an O(1) cache.
  std::uint64_t decision_epoch() const { return decision_epoch_; }

  /// True when the last find_best_operating_point() returned the
  /// clean-epoch cached index without recomputing anything.
  bool last_decision_was_cached() const { return last_decision_cached_; }

  /// Drops every cached decision artifact (epoch cache and all
  /// constraint-value columns): the next decision pays the full cold
  /// cost.  Used by benches and tests to pin the cold/steady gap.
  void invalidate_decision_cache();

  // ---- feedback (knowledge adaptation) ---------------------------------
  /// Reports an observation of `metric` while `op_index` was applied.
  /// Updates the correction factor with an EWMA of observed/expected;
  /// when the averaged value changes, the epoch and the columns of that
  /// metric's constraints are dirtied (bit-identical feedback dirties
  /// nothing).
  /// A non-finite or non-positive observation (e.g. a stalled kernel
  /// with zero throughput), or one whose ratio to the prediction is not
  /// a positive normal double (it overflowed or underflowed), is
  /// rejected gracefully — counted in feedback_rejected() and journaled
  /// as a kFeedbackRejected runtime event — instead of aborting the
  /// process or poisoning the correction.
  void send_feedback(std::size_t op_index, std::size_t metric, double observed);

  /// Observations rejected by send_feedback since construction.
  std::size_t feedback_rejected() const { return feedback_rejected_; }

  /// Current correction factor of a metric (1.0 = knowledge matches).
  double correction(std::size_t metric) const;

  /// Forgets all feedback (e.g. after an input-feature change).
  void reset_feedback();

  /// EWMA smoothing factor for feedback, in (0, 1]; default 0.3.
  void set_feedback_inertia(double alpha);

  // ---- variant-fault quarantine ----------------------------------------
  struct QuarantineOptions {
    std::size_t failure_threshold = 2;  ///< consecutive failures to quarantine
    std::size_t base_cooldown = 8;      ///< iterations before the first re-probe
    std::size_t max_cooldown = 512;     ///< backoff ceiling
  };

  void set_quarantine_options(QuarantineOptions options);

  /// Per-point fault bookkeeping: the learned half of the quarantine.
  struct OpHealth {
    std::size_t consecutive_failures = 0;
    std::size_t times_quarantined = 0;
    std::size_t cooldown = 0;   ///< > 0: quarantined for this many iterations
    bool probing = false;       ///< cooldown expired, not yet proven healthy
  };

  /// Reports that the clone behind `op_index` crashed or produced a
  /// runaway result.  After `failure_threshold` consecutive failures
  /// (immediately when the point was re-probing) the point is
  /// quarantined for base_cooldown * 2^(times quarantined) iterations.
  void report_variant_failure(std::size_t op_index);
  /// Reports a healthy run of `op_index`; resets its failure streak.
  void report_variant_success(std::size_t op_index);
  /// Advances quarantine cooldowns by one iteration; points whose
  /// cooldown expires become eligible again, on probation: one more
  /// failure re-quarantines them immediately with a doubled cooldown.
  void advance_quarantine();

  bool is_quarantined(std::size_t op_index) const;
  std::size_t quarantined_count() const;
  /// Total quarantine events since construction.
  std::size_t quarantine_events() const { return quarantine_events_; }

  // ---- crash-safe knowledge (checkpoint/restore) -----------------------
  /// Everything the AS-RTM *learned* at runtime (feedback corrections,
  /// per-point health, quarantine bookkeeping) — the state a restarted
  /// process cannot rebuild from the design-time knowledge base alone.
  struct Snapshot {
    std::vector<double> corrections;
    double feedback_alpha = 0.3;
    QuarantineOptions quarantine;
    std::vector<OpHealth> health;
    std::size_t quarantine_events = 0;
    /// Decision epoch at snapshot time.  restore() resumes strictly
    /// after max(current, snapshot) so epochs stay monotonic across a
    /// kill-and-resume and the restored state never serves a stale
    /// cached decision.
    std::uint64_t decision_epoch = 0;
  };

  Snapshot snapshot() const;
  /// Replaces the learned state with `snapshot`.  Throws
  /// ContractViolation when the snapshot's shape does not match this
  /// knowledge base (wrong metric or operating-point count) — the
  /// checkpoint layer converts that into a clean fresh start.
  void restore(const Snapshot& snapshot);

  /// Observer of every learned-state mutation, called *after* the
  /// mutation is applied (see RuntimeEvent).  The checkpoint layer
  /// installs its journal appender here; nullptr uninstalls.  The sink
  /// is never invoked during restore()/replay(), so replaying a journal
  /// cannot re-journal itself.
  void set_event_sink(std::function<void(const RuntimeEvent&)> sink);

  /// Applies one journaled event (used by checkpoint replay).  A
  /// kStateActivation event is a no-op here — requirements are owned by
  /// the application / StateManager; the checkpoint layer reports the
  /// last active state back to the caller instead.
  void replay(const RuntimeEvent& event);

  /// StateManager calls this on every activation so the event reaches
  /// the journal (and the decision journal's trigger note).
  void record_state_activation(const std::string& name);

  // ---- MAPE-K decision journal -----------------------------------------
  /// Starts recording every operating-point *switch* (not every query)
  /// made by find_best_operating_point, bounded to `max_records`.
  void enable_decision_journal(std::size_t max_records = 1024);
  void disable_decision_journal();
  bool decision_journal_enabled() const { return journal_ != nullptr; }
  /// The journal; throws ContractViolation when journaling is disabled.
  const DecisionJournal& decision_journal() const;

  /// Timestamp (caller's clock, e.g. the simulated platform clock)
  /// stamped onto the next journal records.  No-op when disabled.
  void set_decision_time(double seconds);
  /// Explains the next decision ("constraint 0 goal -> 2.5", "state
  /// 'energy' activated", ...).  Replace semantics: the last note
  /// before the decision wins; requirement mutators call this
  /// internally, so callers like StateManager can override with a more
  /// meaningful note afterwards.  Consumed by the next decision whether
  /// or not it switches — a note whose mutation did not change the
  /// selection is discarded, never attached to a later unrelated
  /// switch.
  void note_decision_trigger(std::string trigger);

 private:
  /// Cached column of the pessimistic constraint test value (mean +/-
  /// confidence * stddev, corrected) over the whole knowledge base for
  /// one constraint, tagged with the correction version of its metric
  /// so a correction move invalidates exactly the columns whose inputs
  /// changed.
  struct ConstraintColumn {
    std::vector<double> values;          ///< one entry per operating point
    std::uint64_t correction_version = 0;
    bool valid = false;
  };

  /// Best-first order of the operating points under the current rank,
  /// by the *uncorrected* score.  A correction multiplies every point's
  /// geometric score (or single-term linear score) by one positive
  /// factor, so this order fixes the winner up to rounding whatever
  /// the feedback; the walk computes exact scores and stops once a
  /// key falls further behind than the rounding margin allows.  Built
  /// by the first dirty decision after set_rank() or
  /// invalidate_decision_cache(); corrections never rebuild it.
  struct RankOrder {
    /// ilogb of the smallest and largest mean of one term's metric.
    struct TermExponents {
      int min;
      int max;
    };
    /// Building sorts only this many best entries; the first walk to
    /// get past them sorts the rest.
    static constexpr std::size_t kSortedHead = 64;
    /// One entry per point: the bit pattern of its key, a positive
    /// normal double oriented so that larger is better, whose low
    /// mantissa bits are replaced by the point's index (see
    /// rank_order_index_mask in asrtm.cpp).  Positive doubles order
    /// like their bit patterns, so descending entries walk best-first.
    std::vector<std::uint64_t> entries;   ///< empty: no usable order
    std::vector<TermExponents> exponents; ///< one per rank term
    bool tail_sorted = false;  ///< entries past kSortedHead are in order too
    bool built = false;        ///< describes the current rank
  };

  void quarantine_op(OpHealth& health);
  /// Any decision input changed: the next decision must recompute.
  void touch_decision() { ++decision_epoch_; }
  /// Walks the rank order, scoring only the unquarantined points that
  /// meet every constraint, until no later point can beat (or, with
  /// the journal on, enter) the top candidates.  Returns false, having
  /// decided nothing, when no point meets every constraint.
  bool decide_by_walk(std::size_t& chosen, double stop_factor) const;
  /// Pre-sorted constraints, cached columns, branchless mask passes,
  /// bounded top-k for the journal: handles least-violation relaxation,
  /// full quarantine and every rank the walk cannot order.
  std::size_t decide_dense() const;
  /// (Re)builds rank_order_ for the current rank; leaves it empty when
  /// the rank admits no order (a linear rank with several terms, or a
  /// key that is not a positive normal double).
  void build_rank_order() const;
  /// 1 + the walk's stop margin when every intermediate of the keys
  /// (corrected == false) or of Rank::evaluate under the current
  /// corrections (corrected == true) provably stays a positive normal
  /// double; 0 when it may not.
  double rank_stop_factor(bool corrected) const;
  /// Every point is quarantined: pick the historically safest one.
  std::size_t fallback_safest() const;
  /// The (lazily recomputed) constraint-value column for a constraint.
  const std::vector<double>& constraint_column(std::size_t handle) const;
  /// Records a journal entry when `chosen` differs from the previously
  /// journaled point.  `runners` holds the best non-chosen survivors,
  /// already ordered best-first and trimmed.  Always consumes the
  /// pending trigger note: a note explains exactly one decision, so a
  /// mutation that does not cause a switch cannot mislabel a later one.
  void journal_switch(std::size_t chosen, double chosen_score,
                      std::vector<DecisionCandidate> runners) const;

  /// Emits to the event sink unless a replay/restore is in progress.
  void emit(const RuntimeEvent& event) const;

  KnowledgeBase knowledge_;
  std::vector<Constraint> constraints_;  ///< insertion order (handles are indices)
  std::vector<std::size_t> sorted_constraints_;  ///< by priority, stable, kept at mutation time
  Rank rank_;
  std::vector<double> corrections_;      ///< per metric, multiplicative (EWMA)
  std::vector<std::uint64_t> correction_versions_;  ///< bumped when a correction moves
  double feedback_alpha_ = 0.3;
  std::size_t feedback_rejected_ = 0;
  std::uint64_t decision_epoch_ = 1;     ///< bumped by touch_decision()
  mutable std::uint64_t decided_epoch_ = 0;  ///< epoch of cached_best_
  mutable std::size_t cached_best_ = 0;
  mutable bool cached_feasible_ = true;
  mutable bool last_decision_cached_ = false;
  mutable std::vector<ConstraintColumn> columns_;  ///< parallel to constraints_
  mutable RankOrder rank_order_;
  // Scratch buffers reused across decisions so the dirty path allocates
  // nothing once warm (the clean path allocates nothing at all).  The
  // branchless sweep works on a dense alive mask + violation column
  // instead of compacted index vectors: every pass streams all n
  // entries, which is what lets the compiler vectorize it.  Building the
  // rank order borrows the violation column for its keys.
  mutable std::vector<unsigned char> scratch_alive_;
  mutable std::vector<double> scratch_violations_;
  mutable bool last_feasible_ = true;
#if SOCRATES_ASRTM_REENTRANCY_GUARD
  // Trips a ContractViolation when two calls overlap on one instance
  // (see the header comment); mutable because decisions are const.
  // The wrapper keeps Asrtm movable: a move is only legal while no
  // engine call is in flight, so both sides restart with a clear flag.
  struct BusyFlag {
    std::atomic<int> flag{0};
    BusyFlag() = default;
    BusyFlag(BusyFlag&&) noexcept {}
    BusyFlag& operator=(BusyFlag&&) noexcept {
      flag.store(0, std::memory_order_relaxed);
      return *this;
    }
  };
  mutable BusyFlag engine_busy_;
#endif
  QuarantineOptions quarantine_;
  std::vector<OpHealth> health_;         ///< one entry per operating point
  std::size_t quarantine_events_ = 0;
  std::function<void(const RuntimeEvent&)> event_sink_;
  bool replaying_ = false;               ///< true inside replay()/restore()

  // Journal state is mutable because find_best_operating_point() is
  // const: recording why a decision was made does not change what is
  // decided.
  mutable std::unique_ptr<DecisionJournal> journal_;
  mutable std::string pending_trigger_;
  mutable double journal_now_ = 0.0;
  mutable std::size_t journal_last_op_ = 0;
  mutable bool journal_has_last_ = false;
};

/// Dampens configuration thrashing: feeds on the point chosen each
/// iteration and, when more than `max_switches` switches land inside
/// the trailing `window` iterations, holds the previously applied point
/// for `hold_iterations` before listening to the AS-RTM again.  Noisy
/// feedback (spiked sensors, heavy-tailed timing) otherwise makes the
/// selection oscillate between near-equivalent points, and every switch
/// pays the paper's reconfiguration overhead.
class OscillationWatchdog {
 public:
  struct Options {
    std::size_t window = 12;
    std::size_t max_switches = 4;
    std::size_t hold_iterations = 10;
  };

  OscillationWatchdog();
  explicit OscillationWatchdog(Options options);

  /// Returns the point to actually apply: `chosen`, or the held point
  /// while a hold-down is active.
  std::size_t filter(std::size_t chosen);

  bool holding() const { return hold_remaining_ > 0; }
  /// Times the watchdog tripped into a hold-down.
  std::size_t trips() const { return trips_; }
  void reset();

 private:
  Options options_;
  std::vector<bool> switch_ring_;   ///< trailing window of "changed" flags
  std::size_t ring_next_ = 0;
  std::size_t applied_ = 0;
  bool has_applied_ = false;
  std::size_t hold_remaining_ = 0;
  std::size_t trips_ = 0;
};

}  // namespace socrates::margot
