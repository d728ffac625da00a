#include "dse/dse.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "support/error.hpp"
#include "support/serialize.hpp"

namespace socrates::dse {

void save_profile(std::ostream& out, const std::vector<ProfiledPoint>& points) {
  out << "profile v1 " << points.size() << '\n';
  for (const auto& p : points) {
    // Config names ("O3", "CF1", ...) never contain whitespace.
    out << p.config_index << ' ' << p.config_name << ' '
        << static_cast<int>(p.configuration.flags.level()) << ' '
        << p.configuration.flags.flag_bits() << ' ' << p.configuration.threads << ' '
        << platform::DesignSpace::binding_code(p.configuration.binding) << ' '
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
    SOCRATES_REQUIRE_MSG(in && level >= 0 && level <= 3 && bits < 64,
                         "malformed profile point");
    p.configuration.flags =
        platform::FlagConfig(static_cast<platform::OptLevel>(level), bits);
    p.configuration.binding = platform::DesignSpace::binding_of_code(binding);
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

margot::KnowledgeBase to_knowledge_base(const platform::DesignSpace& space,
                                        const std::vector<ProfiledPoint>& points) {
  SOCRATES_REQUIRE(!points.empty());
  margot::KnowledgeBase kb(platform::DesignSpace::knob_names(),
                           platform::DesignSpace::metric_names());
  for (const auto& p : points) {
    margot::OperatingPoint op;
    op.knobs = space.knob_row(space.point(p.config_index, p.configuration));
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

margot::KnowledgeBase to_knowledge_base(const platform::DesignSpace& space,
                                        const std::vector<ProfiledPoint>& points,
                                        const std::vector<std::size_t>& indices) {
  SOCRATES_REQUIRE(!indices.empty());
  std::vector<ProfiledPoint> selected;
  selected.reserve(indices.size());
  for (const std::size_t i : indices) {
    SOCRATES_REQUIRE(i < points.size());
    selected.push_back(points[i]);
  }
  return to_knowledge_base(space, selected);
}

}  // namespace socrates::dse
