#include "dse/dse.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "support/error.hpp"
#include "support/serialize.hpp"
#include "support/statistics.hpp"

namespace socrates::dse {

DesignSpace DesignSpace::paper_space(const platform::MachineTopology& topology) {
  DesignSpace space;
  space.configs = platform::reduced_design_space();
  for (std::size_t t = 1; t <= topology.logical_cores(); ++t)
    space.thread_counts.push_back(t);
  space.bindings = {platform::BindingPolicy::kClose, platform::BindingPolicy::kSpread};
  return space;
}

ProfiledPoint profile_point(const platform::PerformanceModel& model,
                            const platform::KernelModelParams& kernel,
                            const DesignSpace& space, std::size_t config_index,
                            std::size_t threads, platform::BindingPolicy binding,
                            std::size_t repetitions, Rng& noise, double work_scale) {
  SOCRATES_REQUIRE(config_index < space.configs.size());
  ProfiledPoint p;
  p.config_index = config_index;
  p.config_name = space.configs[config_index].name;
  p.configuration =
      platform::Configuration{space.configs[config_index].config, threads, binding};

  RunningStats time_stats;
  RunningStats power_stats;
  for (std::size_t r = 0; r < repetitions; ++r) {
    const auto m = model.evaluate(kernel, p.configuration, &noise, work_scale);
    time_stats.add(m.exec_time_s);
    power_stats.add(m.avg_power_w);
  }
  p.exec_time_mean_s = time_stats.mean();
  p.exec_time_stddev_s = time_stats.stddev();
  p.power_mean_w = power_stats.mean();
  p.power_stddev_w = power_stats.stddev();
  return p;
}

void save_profile(std::ostream& out, const std::vector<ProfiledPoint>& points) {
  out << "profile v1 " << points.size() << '\n';
  for (const auto& p : points) {
    // Config names ("O3", "CF1", ...) never contain whitespace.
    out << p.config_index << ' ' << p.config_name << ' '
        << static_cast<int>(p.configuration.flags.level()) << ' '
        << p.configuration.flags.flag_bits() << ' ' << p.configuration.threads << ' '
        << (p.configuration.binding == platform::BindingPolicy::kClose ? 0 : 1) << ' '
        << format_exact(p.exec_time_mean_s) << ' ' << format_exact(p.exec_time_stddev_s)
        << ' ' << format_exact(p.power_mean_w) << ' ' << format_exact(p.power_stddev_w)
        << '\n';
  }
}

std::vector<ProfiledPoint> load_profile(std::istream& in) {
  std::string magic, version;
  std::size_t count = 0;
  in >> magic >> version >> count;
  SOCRATES_REQUIRE_MSG(in && magic == "profile" && version == "v1",
                       "not a profile artifact");
  // Grown as points are read, never sized from the header: a count the
  // stream cannot back ends in a named violation, not a huge allocation.
  std::vector<ProfiledPoint> points;
  for (std::size_t i = 0; i < count; ++i) {
    ProfiledPoint& p = points.emplace_back();
    int level = 0, binding = 0;
    unsigned bits = 0;
    in >> p.config_index >> p.config_name >> level >> bits >> p.configuration.threads >>
        binding;
    SOCRATES_REQUIRE_MSG(in && level >= 0 && level <= 3 && bits < 64 &&
                             (binding == 0 || binding == 1),
                         "malformed profile point");
    p.configuration.flags =
        platform::FlagConfig(static_cast<platform::OptLevel>(level), bits);
    p.configuration.binding = binding == 0 ? platform::BindingPolicy::kClose
                                           : platform::BindingPolicy::kSpread;
    p.exec_time_mean_s = parse_exact(in);
    p.exec_time_stddev_s = parse_exact(in);
    p.power_mean_w = parse_exact(in);
    p.power_stddev_w = parse_exact(in);
  }
  return points;
}

std::vector<std::size_t> pareto_filter(const std::vector<ProfiledPoint>& points) {
  const std::size_t n = points.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  // Power ascending, throughput descending within a power tie.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (points[a].power_mean_w != points[b].power_mean_w)
      return points[a].power_mean_w < points[b].power_mean_w;
    if (points[a].throughput() != points[b].throughput())
      return points[a].throughput() > points[b].throughput();
    return a < b;
  });

  // Sweep power groups left to right.  A point survives iff it has the
  // best throughput of its equal-power group AND beats every strictly
  // cheaper point's throughput; exact duplicates tie on both axes and
  // therefore all survive (nobody strictly dominates them).
  std::vector<std::size_t> front;
  double best_cheaper_thr = -std::numeric_limits<double>::infinity();
  std::size_t g = 0;
  while (g < n) {
    std::size_t h = g;
    while (h < n && points[order[h]].power_mean_w == points[order[g]].power_mean_w) ++h;
    const double group_best_thr = points[order[g]].throughput();
    if (group_best_thr > best_cheaper_thr) {
      for (std::size_t k = g; k < h; ++k) {
        if (points[order[k]].throughput() == group_best_thr) front.push_back(order[k]);
      }
      best_cheaper_thr = group_best_thr;
    }
    g = h;
  }
  std::sort(front.begin(), front.end());
  return front;
}

margot::KnowledgeBase to_knowledge_base(const std::vector<ProfiledPoint>& points) {
  SOCRATES_REQUIRE(!points.empty());
  margot::KnowledgeBase kb({"config", "threads", "binding"},
                           {"exec_time_s", "power_w", "throughput"});
  for (const auto& p : points) {
    margot::OperatingPoint op;
    op.knobs = {static_cast<int>(p.config_index),
                static_cast<int>(p.configuration.threads),
                p.configuration.binding == platform::BindingPolicy::kClose ? 0 : 1};
    // Throughput stddev via first-order error propagation: d(1/t) = dt/t^2.
    const double thr_stddev =
        p.exec_time_stddev_s / (p.exec_time_mean_s * p.exec_time_mean_s);
    op.metrics = {{p.exec_time_mean_s, p.exec_time_stddev_s},
                  {p.power_mean_w, p.power_stddev_w},
                  {p.throughput(), thr_stddev}};
    kb.add(std::move(op));
  }
  return kb;
}

margot::KnowledgeBase to_knowledge_base(const std::vector<ProfiledPoint>& points,
                                        const std::vector<std::size_t>& indices) {
  SOCRATES_REQUIRE(!indices.empty());
  std::vector<ProfiledPoint> selected;
  selected.reserve(indices.size());
  for (const std::size_t i : indices) {
    SOCRATES_REQUIRE(i < points.size());
    selected.push_back(points[i]);
  }
  return to_knowledge_base(selected);
}

platform::Configuration decode_knobs(const DesignSpace& space,
                                     const std::vector<int>& knobs) {
  SOCRATES_REQUIRE(knobs.size() == 3);
  const auto ci = static_cast<std::size_t>(knobs[0]);
  SOCRATES_REQUIRE(ci < space.configs.size());
  SOCRATES_REQUIRE(knobs[1] >= 1);
  SOCRATES_REQUIRE(knobs[2] == 0 || knobs[2] == 1);
  platform::Configuration config;
  config.flags = space.configs[ci].config;
  config.threads = static_cast<std::size_t>(knobs[1]);
  config.binding =
      knobs[2] == 0 ? platform::BindingPolicy::kClose : platform::BindingPolicy::kSpread;
  return config;
}

}  // namespace socrates::dse
