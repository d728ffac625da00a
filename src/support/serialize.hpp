// Exact-round-trip double formatting for text artifacts.
//
// Text artifact payloads (trained COBAYN models, the server knowledge
// pool) are whitespace-separated; doubles are written as
// C99-style hexfloats and read back exactly — the determinism contract
// requires byte-identical reload.  Both directions run through
// to_chars/from_chars rather than snprintf("%a")/strtod: the printf
// family spells the radix point per the global C locale, so a program
// that (or whose host library) calls setlocale() would write artifacts
// no other machine could read.  The "0x" prefix is kept on output so
// existing artifacts and new ones share one shape, and the parser
// accepts both prefixed and bare mantissas.
// The files carrying these payloads are sealed (support/sealed_file.hpp).
#pragma once

#include <charconv>
#include <cmath>
#include <istream>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace socrates {

inline std::string format_exact(double v) {
  char buf[48];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::hex);
  std::string out(buf, res.ptr);
  if (std::isfinite(v)) out.insert(out.front() == '-' ? 1 : 0, "0x");
  return out;
}

inline double parse_exact_text(std::string_view token) {
  SOCRATES_REQUIRE_MSG(!token.empty(), "truncated artifact: missing double");
  std::string_view body = token;
  bool negative = false;
  if (body.front() == '+' || body.front() == '-') {
    negative = body.front() == '-';
    body.remove_prefix(1);
  }
  if (body.size() >= 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X'))
    body.remove_prefix(2);
  double v = 0.0;
  const auto res =
      std::from_chars(body.data(), body.data() + body.size(), v,
                      std::chars_format::hex);
  SOCRATES_REQUIRE_MSG(res.ec == std::errc{} && res.ptr == body.data() + body.size(),
                       "malformed double in artifact");
  return negative ? -v : v;
}

inline double parse_exact(std::istream& in) {
  std::string token;
  in >> token;
  SOCRATES_REQUIRE_MSG(in && !token.empty(), "truncated artifact: missing double");
  return parse_exact_text(token);
}

}  // namespace socrates
