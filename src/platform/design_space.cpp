#include "platform/design_space.hpp"

#include <algorithm>
#include <cstdint>

#include "support/error.hpp"

namespace socrates::platform {

namespace {

/// Position of `value` in `values`, or values.size() when absent.
template <typename T>
std::size_t index_of(const std::vector<T>& values, const T& value) {
  return static_cast<std::size_t>(std::find(values.begin(), values.end(), value) -
                                  values.begin());
}

}  // namespace

DesignSpace DesignSpace::paper_space(const MachineTopology& topology,
                                     const std::vector<NamedConfig>& custom_configs) {
  DesignSpace space{standard_levels(), {},
                    {BindingPolicy::kClose, BindingPolicy::kSpread}};
  space.configs.insert(space.configs.end(), custom_configs.begin(), custom_configs.end());
  for (std::size_t t = 1; t <= topology.logical_cores(); ++t)
    space.thread_counts.push_back(t);
  return space;
}

DesignSpace::Point DesignSpace::point(std::size_t flat) const {
  SOCRATES_REQUIRE_MSG(flat < size(), "flat index " << flat << " outside a space of "
                                                     << size() << " points");
  const std::size_t per_config = thread_counts.size() * bindings.size();
  return {flat / per_config, flat % per_config / bindings.size(), flat % bindings.size()};
}

std::size_t DesignSpace::flat(const Point& p) const {
  configuration(p);  // validates p
  return (p.config * thread_counts.size() + p.thread) * bindings.size() + p.binding;
}

Configuration DesignSpace::configuration(const Point& p) const {
  SOCRATES_REQUIRE(p.config < configs.size() && p.thread < thread_counts.size() &&
                   p.binding < bindings.size());
  return {configs[p.config].config, thread_counts[p.thread], bindings[p.binding]};
}

const std::vector<std::string>& DesignSpace::knob_names() {
  static const std::vector<std::string> kNames = {"config", "threads", "binding"};
  return kNames;
}

const std::vector<std::string>& DesignSpace::metric_names() {
  static const std::vector<std::string> kNames = {"exec_time_s", "power_w",
                                                   "throughput"};
  return kNames;
}

std::vector<int> DesignSpace::knob_row(const Point& p) const {
  const Configuration c = configuration(p);
  return {static_cast<int>(p.config), static_cast<int>(c.threads),
          binding_code(c.binding)};
}

DesignSpace::Point DesignSpace::decode(const std::vector<int>& knob_row) const {
  SOCRATES_REQUIRE_MSG(knob_row.size() == knob_names().size(),
                       "knob row has " << knob_row.size() << " knobs, the space "
                                       << knob_names().size());
  const int config = knob_row[0], threads = knob_row[1], binding = knob_row[2];
  SOCRATES_REQUIRE_MSG(config >= 0 && static_cast<std::size_t>(config) < configs.size(),
                       "knob 'config' = " << config << " is not one of the space's "
                                          << configs.size() << " configs");
  Point p{static_cast<std::size_t>(config), thread_counts.size(), bindings.size()};
  if (threads > 0) p.thread = index_of(thread_counts, static_cast<std::size_t>(threads));
  SOCRATES_REQUIRE_MSG(p.thread < thread_counts.size(),
                       "knob 'threads' = " << threads
                                           << " is not a thread count of the space");
  for (std::size_t b = 0; b < bindings.size(); ++b)
    if (binding_code(bindings[b]) == binding) p.binding = b;
  SOCRATES_REQUIRE_MSG(p.binding < bindings.size(),
                       "knob 'binding' = " << binding
                                           << " is not a binding of the space");
  return p;
}

int DesignSpace::binding_code(BindingPolicy binding) {
  return binding == BindingPolicy::kClose ? 0 : 1;
}

std::vector<CloneSpec> DesignSpace::clones() const {
  std::vector<CloneSpec> out;
  for (const auto& config : configs)
    for (const auto binding : bindings) out.push_back({config, binding});
  return out;
}

std::vector<CloneSpec> DesignSpace::clones(const std::vector<Point>& points) const {
  // A (config, binding) mask read in version-id order sorts and dedups.
  const std::size_t n = bindings.size();
  std::vector<char> used(configs.size() * n, 0);
  for (const Point& p : points) {
    configuration(p);  // validates p
    used[p.config * n + p.binding] = 1;
  }
  std::vector<CloneSpec> out;
  for (std::size_t k = 0; k < used.size(); ++k)
    if (used[k] != 0) out.push_back({configs[k / n], bindings[k % n]});
  return out;
}

void DesignSpace::add_to_key(Hasher& h) const {
  h.add(static_cast<std::uint64_t>(configs.size()));
  for (const auto& c : configs) {
    h.add(c.name);
    h.add(static_cast<std::uint64_t>(c.config.level()));
    h.add(static_cast<std::uint64_t>(c.config.flag_bits()));
  }
  h.add(static_cast<std::uint64_t>(thread_counts.size()));
  for (const std::size_t t : thread_counts) h.add(static_cast<std::uint64_t>(t));
  h.add(static_cast<std::uint64_t>(bindings.size()));
  for (const auto b : bindings) h.add(static_cast<std::uint64_t>(binding_code(b)));
}

}  // namespace socrates::platform
