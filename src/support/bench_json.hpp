// Machine-readable bench artifacts (BENCH_*.json).
//
// ROADMAP item 5: the perf trajectory must be machine-checkable.  Every
// bench that pins a number writes a BENCH_<name>.json next to its
// human-readable output, and a CTest smoke compares the file against a
// committed baseline (bench/baselines/*.json) with explicit per-key
// bounds — so a regression of throughput, latency or allocation counts
// fails CI instead of scrolling by in a log.
//
// Two halves:
//   - JsonWriter: a tiny streaming writer (objects, arrays, numbers,
//     strings, bools) that benches use to dump their results.  Commas
//     and quoting are handled; non-finite doubles serialize as null so
//     the artifact stays valid JSON.
//   - parse_numeric_leaves: a minimal JSON reader that flattens every
//     numeric (and boolean) leaf of a document into a
//     "path.to[2].leaf" -> double map.  This is all the baseline
//     checker needs; strings and nulls are skipped.
//
// Baseline files are themselves JSON:
//   { "checks": [ {"path": "clean.throughput_per_s", "min": 2e4},
//                 {"path": "decide.steady_allocs",  "max": 0} ] }
// check_against_baseline() verifies every listed path exists in the
// candidate and lies within its [min, max] bounds (machine-stable
// ratios and counts, not absolute nanoseconds on unknown hardware).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

// The leaf parser reads numbers with the strict grammar of
// support/number.hpp; parse_strict_double stays reachable from here.
#include "support/number.hpp"

namespace socrates {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Key of the next value inside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view text);
  /// Without this overload a literal would convert to bool, not
  /// string_view (standard conversion beats user-defined).
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }

  /// key(name) + value(v) in one call.
  template <typename T>
  JsonWriter& kv(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  /// The document built so far.  Balanced begin/end calls are the
  /// caller's contract; str() does not validate.
  const std::string& str() const { return out_; }

 private:
  void comma();
  void append_escaped(std::string_view text);

  std::string out_;
  std::vector<bool> needs_comma_;  ///< one frame per open object/array
  bool pending_key_ = false;
};

/// Flattens every numeric/boolean leaf of a JSON document into
/// "a.b[0].c" -> value.  Throws socrates::Error on malformed input and
/// on objects/arrays nested more than 256 deep.
std::map<std::string, double> parse_numeric_leaves(std::string_view text);

/// One bound of a committed baseline file.
struct BaselineCheck {
  std::string path;
  double min = -1e308;
  double max = 1e308;
};

/// Parses a baseline document ({"checks": [{"path", "min"?, "max"?}]}).
/// Throws socrates::Error on malformed input.
std::vector<BaselineCheck> parse_baseline(std::string_view text);

/// Verifies `candidate_json` against the parsed baseline.  Returns the
/// list of human-readable failures (empty = pass).
std::vector<std::string> check_against_baseline(
    const std::vector<BaselineCheck>& checks, std::string_view candidate_json);

/// Where BENCH_<name>.json lands: $SOCRATES_BENCH_JSON_DIR when set,
/// otherwise the current directory (benches and CTest share a cwd).
std::string bench_json_path(std::string_view name);

/// Writes the artifact (tmp + rename so a crashing bench never leaves a
/// torn file) and logs where it went.  Returns false on I/O failure.
bool write_bench_json(std::string_view name, const std::string& json);

}  // namespace socrates
