#include "margot/kb_io.hpp"

#include <iomanip>
#include <istream>
#include <limits>
#include <locale>
#include <ostream>
#include <sstream>

#include "support/error.hpp"
#include "support/number.hpp"
#include "support/strings.hpp"

namespace socrates::margot {

namespace {

constexpr const char* kKnobsHeader = "# knobs: ";
constexpr const char* kMetricsHeader = "# metrics: ";

[[noreturn]] void format_fail(std::size_t line_no, const std::string& detail) {
  std::ostringstream os;
  os << "knowledge file: " << detail << " (line " << line_no << ")";
  throw KnowledgeFormatError(os.str());
}

double parse_double(const std::string& cell, std::size_t line_no,
                    const std::string& column) {
  // parse_strict_double, not std::stod: stod follows the global C
  // locale, so under a comma-decimal locale "0.5" parses as 0 and a
  // loaded knowledge base silently changes.  Strictness also rejects
  // hexfloat / "inf" / "nan" cells a CSV should never contain.
  const auto value = parse_strict_double(trim(cell));
  if (!value)
    format_fail(line_no, "non-numeric " + column + " cell '" + cell + "'");
  return *value;
}

int parse_int(const std::string& cell, std::size_t line_no, const std::string& column) {
  const double v = parse_double(cell, line_no, column);
  // Range first: converting an out-of-range double to int is undefined.
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    format_fail(line_no, "knob cell '" + cell + "' in column " + column +
                             " is outside the int range");
  const int i = static_cast<int>(v);
  if (static_cast<double>(i) != v)
    format_fail(line_no, "knob cell '" + cell + "' in column " + column +
                             " is not an integer");
  return i;
}

}  // namespace

void save_knowledge(const KnowledgeBase& kb, std::ostream& out) {
  // A globally-imbued locale would spell the radix point as ',' (the
  // CSV separator!) and group knob digits; force the classic locale for
  // the duration of the write.
  const std::locale previous = out.imbue(std::locale::classic());
  out << kKnobsHeader << join(kb.knob_names(), ",") << '\n';
  out << kMetricsHeader << join(kb.metric_names(), ",") << '\n';

  // Column header row.
  std::vector<std::string> columns;
  for (const auto& k : kb.knob_names()) columns.push_back("knob:" + k);
  for (const auto& m : kb.metric_names()) {
    columns.push_back(m);
    columns.push_back(m + ":sd");
  }
  out << join(columns, ",") << '\n';

  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const auto& op : kb.points()) {
    bool first = true;
    for (const int k : op.knobs) {
      if (!first) out << ',';
      out << k;
      first = false;
    }
    for (const auto& m : op.metrics) out << ',' << m.mean << ',' << m.stddev;
    out << '\n';
  }
  out.imbue(previous);
}

std::string knowledge_to_string(const KnowledgeBase& kb) {
  std::ostringstream os;
  save_knowledge(kb, os);
  return os.str();
}

KnowledgeBase load_knowledge(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;

  const auto next_line = [&](const char* expectation) {
    if (!std::getline(in, line))
      format_fail(line_no + 1, std::string("unexpected end of file, expected ") +
                                   expectation);
    ++line_no;
  };

  next_line("the knobs header");
  if (!starts_with(line, kKnobsHeader))
    format_fail(line_no, std::string("expected '") + kKnobsHeader + "' header, got '" +
                             line + "'");
  const auto knob_names = split(trim(line.substr(std::string(kKnobsHeader).size())), ',');

  next_line("the metrics header");
  if (!starts_with(line, kMetricsHeader))
    format_fail(line_no, std::string("expected '") + kMetricsHeader +
                             "' header, got '" + line + "'");
  const auto metric_names =
      split(trim(line.substr(std::string(kMetricsHeader).size())), ',');

  next_line("the column header row");
  const std::size_t expected_cells = knob_names.size() + 2 * metric_names.size();
  if (split(line, ',').size() != expected_cells)
    format_fail(line_no, "column header has " + std::to_string(split(line, ',').size()) +
                             " cells, expected " + std::to_string(expected_cells));

  // Column names, for error messages on data rows.
  std::vector<std::string> columns;
  for (const auto& k : knob_names) columns.push_back("knob:" + k);
  const std::string knob_columns = join(columns, ",");
  for (const auto& m : metric_names) {
    columns.push_back(m);
    columns.push_back(m + ":sd");
  }

  // Every row KnowledgeBase::add would refuse is refused here first,
  // naming its line and column, so a malformed file never escapes as
  // a contract violation.
  KnowledgeBase kb(knob_names, metric_names);
  std::vector<std::size_t> point_lines;  // line of each point, for duplicates
  while (std::getline(in, line)) {
    ++line_no;
    if (trim(line).empty()) continue;
    const auto cells = split(line, ',');
    if (cells.size() != expected_cells)
      format_fail(line_no, "row has " + std::to_string(cells.size()) +
                               " cells, expected " + std::to_string(expected_cells));
    OperatingPoint op;
    std::size_t c = 0;
    for (std::size_t k = 0; k < knob_names.size(); ++k, ++c)
      op.knobs.push_back(parse_int(cells[c], line_no, columns[c]));
    for (std::size_t m = 0; m < metric_names.size(); ++m) {
      MetricStats stats;
      stats.mean = parse_double(cells[c], line_no, columns[c]);
      ++c;
      stats.stddev = parse_double(cells[c], line_no, columns[c]);
      if (stats.stddev < 0.0)
        format_fail(line_no, "negative " + columns[c] + " cell '" + cells[c] + "'");
      ++c;
      op.metrics.push_back(stats);
    }
    if (const auto first = kb.find(op.knobs))
      format_fail(line_no, "duplicate operating point: columns " + knob_columns +
                               " repeat line " + std::to_string(point_lines[*first]));
    kb.add(std::move(op));
    point_lines.push_back(line_no);
  }
  return kb;
}

KnowledgeBase knowledge_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_knowledge(is);
}

}  // namespace socrates::margot
