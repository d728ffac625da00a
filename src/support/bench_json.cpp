#include "support/bench_json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/env.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/number.hpp"
#include "support/sealed_file.hpp"

namespace socrates {

// ---- writer ----------------------------------------------------------------

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already placed the separator for this value
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (!needs_comma_.empty()) needs_comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (!needs_comma_.empty()) needs_comma_.pop_back();
  out_ += ']';
  return *this;
}

void JsonWriter::append_escaped(std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      default:
        // RFC 8259: every control character must be escaped, or the
        // document is invalid JSON.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma();
  out_ += '"';
  append_escaped(name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  // to_chars, not snprintf: "%.17g" spells the radix point per the
  // global C locale, and a comma there corrupts the document.
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  comma();
  out_ += '"';
  append_escaped(text);
  out_ += '"';
  return *this;
}

// ---- parser ----------------------------------------------------------------

namespace {

/// Deepest object/array nesting the reader accepts: a deeper document is
/// an Error instead of a stack overflow.  Bench artifacts and baselines
/// nest three levels.
constexpr std::size_t kMaxDepth = 256;

/// Minimal recursive-descent JSON reader that records numeric/boolean
/// leaves under dotted paths.  Good enough for bench artifacts and
/// baseline files; not a general-purpose validator.
class LeafParser {
 public:
  LeafParser(std::string_view text, std::map<std::string, double>& out)
      : text_(text), out_(out) {}

  void run() {
    skip_ws();
    parse_value("", 0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() const {
    if (pos_ >= text_.size())
      throw Error("json: unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string s;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': s += '\n'; break;
          case 't': s += '\t'; break;
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          default: s += e;  // \uXXXX etc. — passed through, paths stay ASCII
        }
      } else {
        s += c;
      }
    }
    return s;
  }

  void parse_value(const std::string& path, std::size_t depth) {
    skip_ws();
    const char c = peek();
    if ((c == '{' || c == '[') && depth == kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    if (c == '{') {
      ++pos_;
      skip_ws();
      if (peek() == '}') { ++pos_; return; }
      while (true) {
        skip_ws();
        const std::string name = parse_string();
        skip_ws();
        expect(':');
        parse_value(path.empty() ? name : path + '.' + name, depth + 1);
        skip_ws();
        if (peek() == ',') { ++pos_; continue; }
        expect('}');
        break;
      }
    } else if (c == '[') {
      ++pos_;
      skip_ws();
      if (peek() == ']') { ++pos_; return; }
      std::size_t index = 0;
      while (true) {
        parse_value(path + '[' + std::to_string(index++) + ']', depth + 1);
        skip_ws();
        if (peek() == ',') { ++pos_; continue; }
        expect(']');
        break;
      }
    } else if (c == '"') {
      (void)parse_string();  // string leaf: skipped
    } else if (c == 't') {
      literal("true");
      out_[path] = 1.0;
    } else if (c == 'f') {
      literal("false");
      out_[path] = 0.0;
    } else if (c == 'n') {
      // Distinguish the JSON literal from C-library spellings strtod
      // would have silently accepted.
      if (text_.substr(pos_, 3) == "nan") fail("'nan' is not valid JSON");
      literal("null");  // null leaf: skipped
    } else {
      out_[path] = parse_number();
    }
  }

  /// Shared strict number grammar (support/number.hpp); the
  /// rejected laxities get named errors so malformed artifacts fail
  /// loudly instead of parsing differently per locale.
  double parse_number() {
    peek();  // "unexpected end of document" on truncation, as elsewhere
    double v = 0.0;
    if (const char* error = scan_strict_number(text_, &pos_, &v)) fail(error);
    return v;
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  std::string_view text_;
  std::map<std::string, double>& out_;
  std::size_t pos_ = 0;
};

}  // namespace

std::map<std::string, double> parse_numeric_leaves(std::string_view text) {
  std::map<std::string, double> out;
  LeafParser(text, out).run();
  return out;
}

std::vector<BaselineCheck> parse_baseline(std::string_view text) {
  // A baseline is JSON too, but its "path" fields are strings — parse
  // it structurally by re-reading the raw text per check entry would be
  // overkill; instead rely on the known flat shape: numeric leaves give
  // the bounds, and the paths are recovered from the same document with
  // a dedicated string scan.
  const auto leaves = parse_numeric_leaves(text);
  // Count entries: checks[i].min / checks[i].max leaves.
  std::vector<BaselineCheck> checks;
  // Recover the "path" strings with a second, tiny pass: find every
  // "path" key inside the checks array, in order.
  std::size_t pos = 0;
  while (true) {
    const auto key_at = text.find("\"path\"", pos);
    if (key_at == std::string_view::npos) break;
    auto colon = text.find(':', key_at + 6);
    if (colon == std::string_view::npos)
      throw Error("baseline: malformed path entry");
    auto open = text.find('"', colon + 1);
    auto close = text.find('"', open + 1);
    if (open == std::string_view::npos || close == std::string_view::npos)
      throw Error("baseline: malformed path entry");
    BaselineCheck check;
    check.path = std::string(text.substr(open + 1, close - open - 1));
    const std::string prefix = "checks[" + std::to_string(checks.size()) + "].";
    if (const auto it = leaves.find(prefix + "min"); it != leaves.end())
      check.min = it->second;
    if (const auto it = leaves.find(prefix + "max"); it != leaves.end())
      check.max = it->second;
    checks.push_back(std::move(check));
    pos = close + 1;
  }
  if (checks.empty()) throw Error("baseline: no checks found");
  return checks;
}

std::vector<std::string> check_against_baseline(
    const std::vector<BaselineCheck>& checks, std::string_view candidate_json) {
  const auto leaves = parse_numeric_leaves(candidate_json);
  std::vector<std::string> failures;
  for (const auto& check : checks) {
    const auto it = leaves.find(check.path);
    if (it == leaves.end()) {
      failures.push_back("missing key '" + check.path + "'");
      continue;
    }
    if (!std::isfinite(it->second)) {
      // A non-finite measurement can never satisfy a bound; name the
      // failure instead of letting the NaN comparisons mask it.
      failures.push_back("'" + check.path + "' is not finite (NaN or Inf)");
      continue;
    }
    if (!(it->second >= check.min)) {
      failures.push_back("'" + check.path + "' = " + std::to_string(it->second) +
                         " below minimum " + std::to_string(check.min));
    } else if (!(it->second <= check.max)) {
      failures.push_back("'" + check.path + "' = " + std::to_string(it->second) +
                         " above maximum " + std::to_string(check.max));
    }
  }
  return failures;
}

std::string bench_json_path(std::string_view name) {
  const std::string dir = env::string_or("SOCRATES_BENCH_JSON_DIR", ".");
  return dir + "/BENCH_" + std::string(name) + ".json";
}

bool write_bench_json(std::string_view name, const std::string& json) {
  const std::string path = bench_json_path(name);
  const auto published = sealed::publish(path, json + "\n", 1, false);
  if (published)
    log_info() << "bench_json: wrote " << path;
  else
    log_warn() << "bench_json: cannot write " << path << ": " << published.message();
  return static_cast<bool>(published);
}

}  // namespace socrates
