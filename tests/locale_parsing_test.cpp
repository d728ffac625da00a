// Locale independence of every text format in the tree.
//
// std::stod / strtod / iostream double formatting honour the global C
// locale: under a comma-decimal locale (de_DE, fr_FR, ...) "0.5"
// parses as 0 and 0.5 prints as "0,5", silently corrupting chaos
// specs, knowledge CSV files, env knobs and JSON artifacts.  The tree
// therefore parses through the strict from_chars grammar
// (support/number.hpp: parse_strict_double) and formats through
// to_chars; these tests pin both, running every assertion under a
// comma-decimal locale when one is installed (skipped otherwise —
// the grammar assertions still run under the classic locale).
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <locale>
#include <sstream>
#include <string>

#include "margot/kb_io.hpp"
#include "margot/operating_point.hpp"
#include "support/bench_json.hpp"
#include "support/chaos.hpp"
#include "support/env.hpp"
#include "support/number.hpp"
#include "support/serialize.hpp"

namespace socrates {
namespace {

/// Installs a comma-decimal locale (both the C locale strtod reads and
/// the C++ global locale streams default to) for one test's scope;
/// `ok()` is false when none of the candidates is installed.
class CommaLocaleGuard {
 public:
  CommaLocaleGuard() {
    for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                             "fr_FR.utf8", "it_IT.UTF-8", "C.UTF-8@euro"}) {
      if (std::setlocale(LC_ALL, name) != nullptr) {
        try {
          std::locale::global(std::locale(name));
        } catch (const std::runtime_error&) {
          continue;  // C library has it, C++ library does not
        }
        // Only commit to a locale that actually uses ',' as the
        // radix point — C.UTF-8 variants may not.
        std::ostringstream probe;
        probe << 0.5;
        if (probe.str().find(',') != std::string::npos) {
          ok_ = true;
          return;
        }
      }
    }
    restore();
  }
  ~CommaLocaleGuard() { restore(); }

  bool ok() const { return ok_; }

 private:
  static void restore() {
    std::setlocale(LC_ALL, "C");
    std::locale::global(std::locale::classic());
  }
  bool ok_ = false;
};

#define REQUIRE_COMMA_LOCALE(guard)                                         \
  if (!(guard).ok()) {                                                      \
    GTEST_SKIP() << "no comma-decimal locale installed on this system";     \
  }

// ---- the strict grammar (locale-free by construction) ------------------------------

TEST(StrictDouble, AcceptsRfc8259Numbers) {
  EXPECT_DOUBLE_EQ(parse_strict_double("0").value(), 0.0);
  EXPECT_DOUBLE_EQ(parse_strict_double("-0.5").value(), -0.5);
  EXPECT_DOUBLE_EQ(parse_strict_double("10.25e2").value(), 1025.0);
  EXPECT_DOUBLE_EQ(parse_strict_double("3E-2").value(), 0.03);
  EXPECT_DOUBLE_EQ(parse_strict_double("1e+3").value(), 1000.0);
}

TEST(StrictDouble, RejectsStrtodLaxitiesAndGarbage) {
  for (const char* bad : {"", " 1", "1 ", "+1", ".5", "01", "0x10", "1.",
                          "1e", "1e+", "inf", "nan", "-inf", "1,5", "1.5x"}) {
    EXPECT_FALSE(parse_strict_double(bad).has_value()) << "'" << bad << "'";
  }
}

// ---- parsing under a comma-decimal locale ------------------------------------------

TEST(LocaleParsing, StrictDoubleIgnoresTheGlobalLocale) {
  CommaLocaleGuard guard;
  REQUIRE_COMMA_LOCALE(guard);
  // The classic failure: strtod under de_DE stops at the '.' and
  // returns 0.  The strict grammar must not.
  EXPECT_DOUBLE_EQ(parse_strict_double("0.5").value(), 0.5);
  EXPECT_DOUBLE_EQ(parse_strict_double("-12.75e-1").value(), -1.275);
  EXPECT_FALSE(parse_strict_double("0,5").has_value());
}

TEST(LocaleParsing, ChaosSpecParsesDotProbabilitiesAnywhere) {
  CommaLocaleGuard guard;
  REQUIRE_COMMA_LOCALE(guard);
  const ChaosSpec spec = ChaosSpec::parse("stage-fail=0.25,pool-corrupt=0.5:7");
  EXPECT_DOUBLE_EQ(spec.stage_fail, 0.25);
  EXPECT_DOUBLE_EQ(spec.pool_corrupt, 0.5);
  EXPECT_EQ(spec.seed, 7u);
}

TEST(LocaleParsing, EnvRealKnobParsesDotValues) {
  CommaLocaleGuard guard;
  REQUIRE_COMMA_LOCALE(guard);
  env::reset_warnings();
  EXPECT_DOUBLE_EQ(env::parse_real("T", "0.125", 9.0, 0.0, 1.0), 0.125);
  EXPECT_DOUBLE_EQ(env::parse_real("T2", "0,125", 9.0, 0.0, 1.0), 9.0);  // fallback
}

TEST(LocaleParsing, KnowledgeCsvRoundTripsUnderCommaLocale) {
  CommaLocaleGuard guard;
  REQUIRE_COMMA_LOCALE(guard);
  margot::KnowledgeBase kb({"threads"}, {"exec_time_s"});
  margot::OperatingPoint op;
  op.knobs = {4096};  // grouping locales would print "4.096"
  op.metrics = {{0.125, 0.5}};
  kb.add(std::move(op));
  // Save must imbue the classic locale (a ',' radix point collides
  // with the CSV separator); load must parse '.' cells regardless.
  const std::string text = margot::knowledge_to_string(kb);
  EXPECT_EQ(text.find(','), std::string::npos)
      << "CSV payload grew a locale-formatted comma:\n" << text;
  const margot::KnowledgeBase back = margot::knowledge_from_string(text);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].knobs[0], 4096);
  EXPECT_DOUBLE_EQ(back[0].metrics[0].mean, 0.125);
  EXPECT_DOUBLE_EQ(back[0].metrics[0].stddev, 0.5);
}

TEST(LocaleParsing, ExactSerializationRoundTripsUnderCommaLocale) {
  CommaLocaleGuard guard;
  REQUIRE_COMMA_LOCALE(guard);
  for (const double v : {0.1, -123.456, 1e-300, 6.25, 0.0}) {
    EXPECT_EQ(parse_exact_text(format_exact(v)), v);
    std::stringstream ss;
    ss << format_exact(v);
    EXPECT_EQ(parse_exact(ss), v);
  }
}

TEST(LocaleParsing, JsonWriterEmitsDotDecimalsUnderCommaLocale) {
  CommaLocaleGuard guard;
  REQUIRE_COMMA_LOCALE(guard);
  JsonWriter w;
  w.begin_object().kv("x", 0.5).kv("y", 1234.75).end_object();
  EXPECT_EQ(w.str().find(','), w.str().find("\"y\"") - 1)
      << "only the member separator may be a comma: " << w.str();
  const auto leaves = parse_numeric_leaves(w.str());
  EXPECT_DOUBLE_EQ(leaves.at("x"), 0.5);
  EXPECT_DOUBLE_EQ(leaves.at("y"), 1234.75);
}

}  // namespace
}  // namespace socrates
