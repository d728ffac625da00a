// Strict, locale-independent number parsing for every text format in
// the tree: environment knobs, chaos specs, knowledge-base CSV cells and
// the bench JSON reader (support/bench_json.hpp) all read numbers with
// the one RFC 8259 grammar defined here.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace socrates {

/// Strict RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
/// scanned at `*pos` in `text`.  Rejects, with named errors, the
/// laxities strtod/stod let through: leading '+', leading '.', hex
/// floats, "inf"/"nan", and digit-less exponents — and, because the
/// conversion runs through from_chars, the parse is identical under
/// every global locale.  On success advances `*pos` past the number,
/// stores the value and returns nullptr; on failure returns the error
/// message and leaves `*pos` untouched.
const char* scan_strict_number(std::string_view text, std::size_t* pos, double* value);

/// Parses the whole of `text` as one strict number (the grammar above).
/// Unlike std::stod this is locale-independent ("0.5" is 0.5 under a
/// comma-decimal locale too) and rejects the strtod laxities: leading
/// '+', leading '.', hex floats, "inf"/"nan", trailing garbage.
/// Returns nullopt when `text` is not exactly one such number.
std::optional<double> parse_strict_double(std::string_view text);

}  // namespace socrates
