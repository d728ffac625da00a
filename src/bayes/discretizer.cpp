#include "bayes/discretizer.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "support/serialize.hpp"
#include "support/error.hpp"
#include "support/statistics.hpp"

namespace socrates::bayes {

void Discretizer::fit(const std::vector<std::vector<double>>& rows, std::size_t bins) {
  SOCRATES_REQUIRE(!rows.empty());
  SOCRATES_REQUIRE(bins >= 2);
  const std::size_t width = rows.front().size();
  for (const auto& r : rows) SOCRATES_REQUIRE(r.size() == width);

  cuts_.assign(width, {});
  for (std::size_t c = 0; c < width; ++c) {
    std::vector<double> column;
    column.reserve(rows.size());
    for (const auto& r : rows) column.push_back(r[c]);
    std::sort(column.begin(), column.end());

    std::vector<double>& cuts = cuts_[c];
    for (std::size_t b = 1; b < bins; ++b) {
      const double q = static_cast<double>(b) / static_cast<double>(bins);
      const double cut = quantile_sorted(column, q);
      // Collapse duplicate cuts so every bin is distinguishable.
      if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
    }
    // Drop cuts at or below the minimum: they would create empty bins.
    while (!cuts.empty() && cuts.front() <= column.front()) cuts.erase(cuts.begin());
  }
}

std::size_t Discretizer::cardinality(std::size_t column) const {
  SOCRATES_REQUIRE(column < cuts_.size());
  return cuts_[column].size() + 1;
}

std::size_t Discretizer::transform(std::size_t column, double value) const {
  SOCRATES_REQUIRE(column < cuts_.size());
  const auto& cuts = cuts_[column];
  std::size_t bin = 0;
  while (bin < cuts.size() && value >= cuts[bin]) ++bin;
  return bin;
}

std::vector<std::size_t> Discretizer::transform_row(const std::vector<double>& row) const {
  SOCRATES_REQUIRE(row.size() == cuts_.size());
  std::vector<std::size_t> out(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) out[c] = transform(c, row[c]);
  return out;
}

void Discretizer::save(std::ostream& out) const {
  out << "discretizer v1 " << cuts_.size() << '\n';
  for (const auto& cuts : cuts_) {
    out << cuts.size();
    for (const double c : cuts) out << ' ' << format_exact(c);
    out << '\n';
  }
}

Discretizer Discretizer::load(std::istream& in) {
  std::string magic, version;
  std::size_t columns = 0;
  in >> magic >> version >> columns;
  SOCRATES_REQUIRE_MSG(in && magic == "discretizer" && version == "v1",
                       "not a discretizer artifact");
  // Containers grow as elements are read, never sized from a header: a
  // count the stream cannot back ends in a named violation.
  Discretizer d;
  for (std::size_t column = 0; column < columns; ++column) {
    std::size_t count = 0;
    in >> count;
    SOCRATES_REQUIRE_MSG(in, "truncated discretizer artifact");
    auto& cuts = d.cuts_.emplace_back();
    for (std::size_t i = 0; i < count; ++i) cuts.push_back(parse_exact(in));
  }
  return d;
}

}  // namespace socrates::bayes
