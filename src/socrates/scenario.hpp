// Scripted runtime scenarios.
//
// The paper's runtime experiments are schedules: "switch the policy at
// 100 s and 200 s" (Figure 5), "change the power cap every 60 s"
// (the power-capped-server use case).  Scenario captures that shape
// declaratively: time-ordered events fired against the adaptive
// application while it runs, with the trace collected in between.
// Events see the application, so they can switch mARGOt states, move
// constraint goals, change the input, or anything else the runtime API
// allows.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "socrates/adaptive_app.hpp"

namespace socrates {

class Scenario {
 public:
  using Action = std::function<void(AdaptiveApplication&)>;

  /// Schedules `action` at simulated time `at_s` (relative to the run's
  /// start).  Events may be added in any order; run() sorts them.
  /// Returns *this for chaining.
  Scenario& at(double at_s, std::string description, Action action);

  /// Runs `app` until `duration_s` (relative to the app's current
  /// time), firing each event when the simulated clock first reaches
  /// its timestamp.  Returns the collected trace.  Events scheduled at
  /// or beyond `duration_s` do not fire.
  std::vector<TraceSample> run(AdaptiveApplication& app, double duration_s) const;

  /// Descriptions of the events that fired in the last run(), in order.
  const std::vector<std::string>& fired() const { return fired_; }

 private:
  struct Event {
    double at_s = 0.0;
    std::string description;
    Action action;
  };

  std::vector<Event> events_;
  mutable std::vector<std::string> fired_;
};

}  // namespace socrates
