// Named optimization states.
//
// In mARGOt an application defines several *states* at design time —
// each a complete requirement set (constraints + rank) — and switches
// between them at runtime ("the definition of application requirements
// might change at runtime", Section II).  Figure 5's policy switch is
// exactly a state switch: "energy" (maximize Thr/W^2) to "performance"
// (maximize Thr) and back.  The manager drives an existing AS-RTM:
// switching replaces its constraints and rank while the feedback
// corrections — knowledge about the *platform*, not the requirements —
// survive the switch.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "margot/asrtm.hpp"

namespace socrates::margot {

class StateManager {
 public:
  /// The manager drives (and must not outlive) `asrtm`.
  explicit StateManager(Asrtm& asrtm);

  /// Registers a state; names are unique.  The first defined state is
  /// activated immediately.
  void define_state(const std::string& name, std::vector<Constraint> constraints,
                    Rank rank);

  /// Activates a registered state (no-op when already active).
  /// Returns true when the active state actually changed.
  bool switch_to(const std::string& name);

  const std::string& active_state() const;

  /// Updates the goal of the `index`-th constraint of a (possibly
  /// inactive) state; applied immediately when the state is active.
  void set_state_constraint_goal(const std::string& name, std::size_t index,
                                 double goal);

 private:
  struct State {
    std::string name;
    std::vector<Constraint> constraints;
    Rank rank;
  };

  State& find(const std::string& name);
  void apply(const State& state);

  Asrtm& asrtm_;
  std::vector<State> states_;
  std::size_t active_ = 0;
  bool has_active_ = false;
};

}  // namespace socrates::margot
