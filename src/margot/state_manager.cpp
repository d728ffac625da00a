#include "margot/state_manager.hpp"

#include "support/error.hpp"

namespace socrates::margot {

StateManager::StateManager(Asrtm& asrtm) : asrtm_(asrtm) {}

void StateManager::define_state(const std::string& name,
                                std::vector<Constraint> constraints, Rank rank) {
  SOCRATES_REQUIRE(!name.empty());
  for (const auto& s : states_)
    SOCRATES_REQUIRE_MSG(s.name != name, "state '" << name << "' already defined");
  states_.push_back(State{name, std::move(constraints), std::move(rank)});
  if (!has_active_) {
    active_ = 0;
    has_active_ = true;
    apply(states_.front());
  }
}

StateManager::State& StateManager::find(const std::string& name) {
  for (auto& s : states_)
    if (s.name == name) return s;
  SOCRATES_REQUIRE_MSG(false, "unknown state '" << name << "'");
  return states_.front();  // unreachable
}

void StateManager::apply(const State& state) {
  asrtm_.clear_constraints();
  for (const auto& c : state.constraints) asrtm_.add_constraint(c);
  asrtm_.set_rank(state.rank);
  // Override the per-mutation notes with the state switch that caused
  // them (the journal keeps the last note before the next decision).
  if (asrtm_.decision_journal_enabled())
    asrtm_.note_decision_trigger("state '" + state.name + "' activated");
  asrtm_.record_state_activation(state.name);
}

bool StateManager::switch_to(const std::string& name) {
  State& target = find(name);
  const auto index = static_cast<std::size_t>(&target - states_.data());
  if (has_active_ && index == active_) return false;
  active_ = index;
  has_active_ = true;
  apply(target);
  return true;
}

const std::string& StateManager::active_state() const {
  SOCRATES_REQUIRE_MSG(has_active_, "no state defined yet");
  return states_[active_].name;
}

void StateManager::set_state_constraint_goal(const std::string& name, std::size_t index,
                                             double goal) {
  State& state = find(name);
  SOCRATES_REQUIRE(index < state.constraints.size());
  state.constraints[index].goal = goal;
  // On the active state, update just that goal in place: apply() would
  // rebuild every constraint and re-emit a spurious state activation.
  // Constraint handles equal positions because apply() adds them in
  // order starting from a cleared AS-RTM.
  if (has_active_ && &state == &states_[active_])
    asrtm_.set_constraint_goal(index, goal);
}

}  // namespace socrates::margot
