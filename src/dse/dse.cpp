#include "dse/dse.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/error.hpp"

namespace socrates::dse {

namespace {

// Little-endian fields, written and read a byte at a time so the
// format does not depend on the host's byte order or struct layout.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_f64(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(bits >> (8 * i)));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

double get_f64(const unsigned char* p) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return std::bit_cast<double>(bits);
}

}  // namespace

std::string save_profile(const std::vector<ProfiledPoint>& points) {
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  SOCRATES_REQUIRE(points.size() <= kMax);
  std::string out;
  out.reserve(4 + points.size() * kProfileRecordBytes);
  put_u32(out, static_cast<std::uint32_t>(points.size()));
  for (const auto& p : points) {
    SOCRATES_REQUIRE_MSG(p.flat <= kMax, "flat index " << p.flat << " exceeds a u32");
    put_u32(out, static_cast<std::uint32_t>(p.flat));
    put_f64(out, p.exec_time_mean_s);
    put_f64(out, p.exec_time_stddev_s);
    put_f64(out, p.power_mean_w);
    put_f64(out, p.power_stddev_w);
  }
  return out;
}

std::vector<ProfiledPoint> load_profile(const platform::DesignSpace& space,
                                        std::string_view bytes) {
  SOCRATES_REQUIRE_MSG(bytes.size() >= 4, "profile of " << bytes.size()
                                                        << " bytes has no record count");
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  // The count makes a cut at a record boundary a size mismatch; it is
  // checked against the bytes before anything is allocated for it.
  const std::size_t count = get_u32(data);
  SOCRATES_REQUIRE_MSG((bytes.size() - 4) % kProfileRecordBytes == 0 &&
                           (bytes.size() - 4) / kProfileRecordBytes == count,
                       "profile of " << bytes.size() << " bytes does not hold its "
                                     << count << " records");
  std::vector<ProfiledPoint> points(count);
  const unsigned char* record = data + 4;
  for (ProfiledPoint& p : points) {
    p.flat = get_u32(record);
    SOCRATES_REQUIRE_MSG(p.flat < space.size(), "profile point at flat index "
                                                    << p.flat << " outside a space of "
                                                    << space.size() << " points");
    p.exec_time_mean_s = get_f64(record + 4);
    p.exec_time_stddev_s = get_f64(record + 12);
    p.power_mean_w = get_f64(record + 20);
    p.power_stddev_w = get_f64(record + 28);
    record += kProfileRecordBytes;
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
    op.knobs = space.knob_row(space.point(p.flat));
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
