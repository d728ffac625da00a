#include "support/number.hpp"

#include <charconv>
#include <system_error>

namespace socrates {

const char* scan_strict_number(std::string_view text, std::size_t* pos,
                               double* value) {
  const std::size_t start = *pos;
  std::size_t p = start;
  auto digit = [&](std::size_t i) {
    return i < text.size() && text[i] >= '0' && text[i] <= '9';
  };
  if (p >= text.size()) return "expected a value";
  if (text[p] == '+') return "leading '+' is not valid JSON";
  if (text[p] == '.') return "leading '.' is not valid JSON (write 0.x)";
  if (text[p] == '-') ++p;
  if (p < text.size() &&
      (text.substr(p, 3) == "inf" || text.substr(p, 3) == "nan" ||
       text.substr(p, 3) == "Inf" || text.substr(p, 3) == "NaN"))
    return "non-finite literals are not valid JSON";
  if (!digit(p)) return "expected a value";
  if (text[p] == '0') {
    ++p;
    if (digit(p)) return "leading zero is not valid JSON";
    if (p < text.size() && (text[p] == 'x' || text[p] == 'X'))
      return "hex numbers are not valid JSON";
  } else {
    while (digit(p)) ++p;
  }
  if (p < text.size() && text[p] == '.') {
    ++p;
    if (!digit(p)) return "expected digits after '.'";
    while (digit(p)) ++p;
  }
  if (p < text.size() && (text[p] == 'e' || text[p] == 'E')) {
    ++p;
    if (p < text.size() && (text[p] == '+' || text[p] == '-')) ++p;
    if (!digit(p)) return "expected digits in exponent";
    while (digit(p)) ++p;
  }
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data() + start, text.data() + p, v);
  if (ec == std::errc::result_out_of_range || end != text.data() + p)
    return "number out of double range";
  if (ec != std::errc{}) return "unparsable number";
  *pos = p;
  *value = v;
  return nullptr;
}

std::optional<double> parse_strict_double(std::string_view text) {
  std::size_t pos = 0;
  double v = 0.0;
  if (scan_strict_number(text, &pos, &v) != nullptr || pos != text.size())
    return std::nullopt;
  return v;
}

}  // namespace socrates
