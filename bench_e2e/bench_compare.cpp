// A/B comparison of bench_e2e runs under the benchmark's own bounds.
//
//   bench_compare <BENCHMARK.json> --a <file|dir>... --b <file|dir>...
//
// --a is the parent (baseline) set, --b the change.  Each argument is a
// BENCH_e2e.json file or a directory whose BENCH_e2e*.json files are
// read; traced runs are skipped, since their end-to-end numbers cover
// half a run.  For every workload x end-to-end metric of BENCHMARK.json
// it prints each side's median and quartiles (Python's
// statistics.quantiles, exclusive method), the change in the median,
// and a verdict:
//
//   improved    the change wins at least 9 of 10 pairs (ties count for
//               neither side) and the medians differ, in the better
//               direction, by more than the parent's quartile spread;
//   regressed   the median is worse than the parent's by more than the
//               metric's bound, and either both spreads fit inside the
//               bound or every change run is worse than every parent run;
//   unresolved  a side's spread (quartile distance over median) is wider
//               than the bound, so neither claim can be made;
//   within      otherwise.
//
// Runs pair in seed order, so two sets of the same seeds pair by seed.
// Exit code 1 when any pairing regressed, 2 on bad input.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/bench_json.hpp"

namespace {

namespace fs = std::filesystem;

/// Every leaf of a JSON document as "a.b[2].c" -> text: strings
/// unescaped, numbers and literals verbatim.  Enough for BENCHMARK.json
/// and BENCH_e2e.json; throws std::runtime_error on malformed input.
class FlatJson {
 public:
  explicit FlatJson(std::string_view text) : text_(text) {
    skip_space();
    parse_value("");
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
  }

  std::optional<std::string> text(const std::string& path) const {
    const auto it = leaves_.find(path);
    if (it == leaves_.end()) return std::nullopt;
    return it->second;
  }
  std::optional<double> number(const std::string& path) const {
    const auto t = text(path);
    if (!t) return std::nullopt;
    if (*t == "true") return 1.0;
    if (*t == "false") return 0.0;
    return socrates::parse_strict_double(*t);
  }
  const std::map<std::string, std::string>& leaves() const { return leaves_; }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("malformed JSON at byte ") + std::to_string(pos_) +
                             ": " + what);
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  void skip_space() {
    while (pos_ < text_.size() && std::strchr(" \t\r\n", text_[pos_]) != nullptr) ++pos_;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '\\') {
        const char e = peek();
        ++pos_;
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': pos_ += 4; c = '?'; break;  // names here are ASCII
          default: c = e; break;
        }
      }
      out += c;
    }
    ++pos_;
    return out;
  }
  void parse_value(const std::string& path) {
    const char c = peek();
    if (c == '{' || c == '[') {
      const bool object = c == '{';
      ++pos_;
      skip_space();
      if (peek() == (object ? '}' : ']')) {
        ++pos_;
        return;
      }
      for (std::size_t index = 0;; ++index) {
        skip_space();
        std::string child;
        if (object) {
          const std::string key = parse_string();
          skip_space();
          expect(':');
          child = path.empty() ? key : path + "." + key;
        } else {
          child = path + "[" + std::to_string(index) + "]";
        }
        skip_space();
        parse_value(child);
        skip_space();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(object ? '}' : ']');
        return;
      }
    }
    if (c == '"') {
      leaves_[path] = parse_string();
      return;
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() && std::strchr(",]} \t\r\n", text_[pos_]) == nullptr) ++pos_;
    if (pos_ == start) fail("missing value");
    leaves_[path] = std::string(text_.substr(start, pos_ - start));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::map<std::string, std::string> leaves_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;
};

std::vector<MetricSpec> read_benchmark(const fs::path& path) {
  const FlatJson doc(read_file(path));
  std::vector<MetricSpec> out;
  for (std::size_t i = 0;; ++i) {
    const std::string base = "end_to_end[" + std::to_string(i) + "]";
    const auto name = doc.text(base + ".name");
    if (!name) break;
    MetricSpec spec;
    spec.name = *name;
    spec.unit = doc.text(base + ".unit").value_or("");
    const std::string better = doc.text(base + ".better").value_or("");
    if (better != "lower" && better != "higher")
      throw std::runtime_error(base + ".better must be \"lower\" or \"higher\"");
    spec.lower_is_better = better == "lower";
    const auto bound = doc.number(base + ".bound");
    if (!bound || *bound < 0) throw std::runtime_error(base + ".bound missing or negative");
    spec.bound = *bound;
    out.push_back(std::move(spec));
  }
  if (out.empty()) throw std::runtime_error(path.string() + " lists no end_to_end metrics");
  return out;
}

/// One run of one workload: its seed and end-to-end values.
struct Sample {
  double seed = 0.0;
  std::map<std::string, double> values;
};
/// workload -> runs
using RunSet = std::map<std::string, std::vector<Sample>>;

void add_file(const fs::path& path, RunSet& set) {
  const FlatJson doc(read_file(path));
  std::set<std::string> workloads;
  for (const auto& [key, value] : doc.leaves()) {
    if (key.rfind("runs.", 0) != 0) continue;
    const std::size_t dot = key.find('.', 5);
    if (dot != std::string::npos) workloads.insert(key.substr(5, dot - 5));
  }
  for (const std::string& workload : workloads) {
    const std::string base = "runs." + workload + ".";
    if (doc.number(base + "traced").value_or(0.0) != 0.0) {
      std::fprintf(stderr, "skipping traced run %s (%s)\n", path.string().c_str(),
                   workload.c_str());
      continue;
    }
    Sample sample;
    sample.seed = doc.number(base + "seed").value_or(0.0);
    const std::string prefix = base + "end_to_end.";
    for (const auto& [key, value] : doc.leaves()) {
      if (key.rfind(prefix, 0) != 0) continue;
      const std::string rest = key.substr(prefix.size());
      const std::size_t dot = rest.rfind(".value");
      if (dot == std::string::npos || dot + 6 != rest.size()) continue;
      if (const auto v = socrates::parse_strict_double(value))
        sample.values[rest.substr(0, dot)] = *v;
    }
    set[workload].push_back(std::move(sample));
  }
}

void add_path(const fs::path& path, RunSet& set) {
  if (!fs::is_directory(path)) {
    add_file(path, set);
    return;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(path)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("BENCH_e2e", 0) == 0 &&
        entry.path().extension() == ".json")
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) add_file(file, set);
}

/// statistics.quantiles(values, n=4) with the default exclusive method.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 2) return {v.front(), v.front(), v.front()};
  std::array<double, 3> out{};
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    out[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Side {
  std::vector<double> values;  ///< in pairing order
  double median = 0.0;
  std::array<double, 3> q{};
  double spread = 0.0;  ///< (q3 - q1) / median
};

Side summarize(std::vector<double> values) {
  Side s;
  s.values = std::move(values);
  s.median = median(s.values);
  s.q = quartiles(s.values);
  s.spread = s.median != 0.0 ? (s.q[2] - s.q[0]) / std::fabs(s.median) : 0.0;
  return s;
}

/// Values of `metric` from `runs`, ordered by seed.
std::vector<std::pair<double, double>> by_seed(const std::vector<Sample>& runs,
                                               const std::string& metric) {
  std::vector<std::pair<double, double>> out;
  for (const Sample& s : runs) {
    const auto it = s.values.find(metric);
    if (it != s.values.end()) out.emplace_back(s.seed, it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_compare <BENCHMARK.json> --a <file|dir>... --b <file|dir>...\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 6) usage();
  std::vector<fs::path> a_paths;
  std::vector<fs::path> b_paths;
  std::vector<fs::path>* current = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--a") == 0) {
      current = &a_paths;
    } else if (std::strcmp(argv[i], "--b") == 0) {
      current = &b_paths;
    } else if (current != nullptr) {
      current->emplace_back(argv[i]);
    } else {
      usage();
    }
  }
  if (a_paths.empty() || b_paths.empty()) usage();

  std::vector<MetricSpec> metrics;
  RunSet a;
  RunSet b;
  try {
    metrics = read_benchmark(argv[1]);
    for (const auto& p : a_paths) add_path(p, a);
    for (const auto& p : b_paths) add_path(p, b);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }

  std::map<std::string, int> tally;
  std::printf("%-15s %-17s %5s %12s %25s %12s %25s %9s %7s  %s\n", "workload", "metric",
              "bound", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "delta", "wins",
              "verdict");
  for (const auto& [workload, a_runs] : a) {
    const auto b_it = b.find(workload);
    if (b_it == b.end()) {
      std::printf("%-15s (no B runs)\n", workload.c_str());
      continue;
    }
    for (const MetricSpec& metric : metrics) {
      auto a_vals = by_seed(a_runs, metric.name);
      auto b_vals = by_seed(b_it->second, metric.name);
      if (a_vals.empty() || b_vals.empty()) {
        std::printf("%-15s %-17s (missing)\n", workload.c_str(), metric.name.c_str());
        continue;
      }
      // Both sides are in seed order, so equal seed sets pair by seed.
      const std::size_t pairs = std::min(a_vals.size(), b_vals.size());
      const auto value_of = [](const std::vector<std::pair<double, double>>& v) {
        std::vector<double> out;
        for (const auto& [seed, value] : v) out.push_back(value);
        return out;
      };
      const Side pa = summarize(value_of(a_vals));
      const Side pb = summarize(value_of(b_vals));
      const auto better = [&](double x, double y) {  // x strictly better than y
        return metric.lower_is_better ? x < y : x > y;
      };
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i)
        if (better(pb.values[i], pa.values[i])) ++wins;
      const double a_worst = metric.lower_is_better
                                 ? *std::max_element(pa.values.begin(), pa.values.end())
                                 : *std::min_element(pa.values.begin(), pa.values.end());
      bool all_worse = true;
      for (const double v : pb.values) all_worse = all_worse && better(a_worst, v);
      const double delta = pa.median != 0.0 ? (pb.median - pa.median) / std::fabs(pa.median) : 0.0;
      const double worse = metric.lower_is_better ? delta : -delta;
      const bool improved = static_cast<double>(wins) >= 0.9 * static_cast<double>(pairs) &&
                            better(pb.median, pa.median) &&
                            std::fabs(pb.median - pa.median) > pa.q[2] - pa.q[0];
      const double spread = std::max(pa.spread, pb.spread);
      const char* verdict = "within";
      if (improved) {
        verdict = "improved";
      } else if (worse > metric.bound && (spread <= metric.bound || all_worse)) {
        verdict = "regressed";
      } else if (spread > metric.bound) {
        verdict = "unresolved";
      }
      ++tally[verdict];
      char a_q[64];
      char b_q[64];
      std::snprintf(a_q, sizeof a_q, "[%.6g, %.6g]", pa.q[0], pa.q[2]);
      std::snprintf(b_q, sizeof b_q, "[%.6g, %.6g]", pb.q[0], pb.q[2]);
      std::printf("%-15s %-17s %5.2f %12.6g %25s %12.6g %25s %+8.2f%% %3zu/%-3zu  %s\n",
                  workload.c_str(), metric.name.c_str(), metric.bound, pa.median, a_q,
                  pb.median, b_q, 100.0 * delta, wins, pairs, verdict);
    }
  }
  std::printf("verdicts:");
  for (const auto& [verdict, count] : tally) std::printf(" %s=%d", verdict.c_str(), count);
  std::printf("\n");
  return tally.count("regressed") > 0 ? 1 : 0;
}
