// Tests for the machine-readable bench artifact layer
// (support/bench_json.hpp): the streaming JSON writer, the
// numeric-leaf flattener behind the baseline checker, baseline parsing
// and the bound checks that gate BENCH_*.json files in CTest.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "support/bench_json.hpp"
#include "support/error.hpp"

namespace socrates {
namespace {

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.begin_object()
      .kv("throughput", 1.5)
      .kv("count", std::uint64_t{42})
      .kv("ok", true)
      .kv("name", "clean")
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"throughput\":1.5,\"count\":42,\"ok\":true,\"name\":\"clean\"}");
}

TEST(JsonWriter, NestedObjectsAndArrays) {
  JsonWriter w;
  w.begin_object().key("runs").begin_array();
  w.begin_object().kv("p50", 1.0).end_object();
  w.begin_object().kv("p50", 2.0).end_object();
  w.end_array().end_object();
  EXPECT_EQ(w.str(), "{\"runs\":[{\"p50\":1},{\"p50\":2}]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_object()
      .kv("nan", std::numeric_limits<double>::quiet_NaN())
      .kv("inf", std::numeric_limits<double>::infinity())
      .end_object();
  EXPECT_EQ(w.str(), "{\"nan\":null,\"inf\":null}");
}

TEST(JsonWriter, StringsAreEscaped) {
  JsonWriter w;
  w.begin_object().kv("s", "a\"b\\c\nd").end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, ControlCharactersAreEscapedInValuesAndKeys) {
  JsonWriter w;
  w.begin_object().kv("s", std::string("a\r\b\f\x01\x1f") + "z").end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\r\\b\\f\\u0001\\u001fz\"}");

  JsonWriter k;
  k.begin_object().kv(std::string_view("bad\x02key", 7), 1).end_object();
  EXPECT_EQ(k.str(), "{\"bad\\u0002key\":1}");
}

TEST(ParseNumericLeaves, FlattensNestedPaths) {
  const auto leaves = parse_numeric_leaves(
      R"({"clean": {"throughput": 2000.5, "ok": true},
          "runs": [{"p50": 1.5}, {"p50": 2.5}],
          "label": "ignored", "nothing": null})");
  EXPECT_DOUBLE_EQ(leaves.at("clean.throughput"), 2000.5);
  EXPECT_DOUBLE_EQ(leaves.at("clean.ok"), 1.0);
  EXPECT_DOUBLE_EQ(leaves.at("runs[0].p50"), 1.5);
  EXPECT_DOUBLE_EQ(leaves.at("runs[1].p50"), 2.5);
  EXPECT_EQ(leaves.count("label"), 0u);    // strings are not numeric leaves
  EXPECT_EQ(leaves.count("nothing"), 0u);  // nor nulls
}

TEST(ParseNumericLeaves, RoundTripsTheWriter) {
  JsonWriter w;
  w.begin_object().key("overload").begin_object().kv("shed", 123).end_object();
  w.kv("ratio", 4.75).end_object();
  const auto leaves = parse_numeric_leaves(w.str());
  EXPECT_DOUBLE_EQ(leaves.at("overload.shed"), 123.0);
  EXPECT_DOUBLE_EQ(leaves.at("ratio"), 4.75);
}

TEST(ParseNumericLeaves, MalformedDocumentsThrow) {
  EXPECT_THROW(parse_numeric_leaves("{\"a\": }"), Error);
  EXPECT_THROW(parse_numeric_leaves("{\"a\": 1"), Error);
  EXPECT_THROW(parse_numeric_leaves("not json"), Error);
}

TEST(ParseNumericLeaves, DeepNestingIsAnErrorNotAStackOverflow) {
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + "1" + std::string(levels, ']');
  };
  EXPECT_EQ(parse_numeric_leaves(nested(256)).size(), 1u);
  try {
    parse_numeric_leaves(nested(100000));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256 levels"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_numeric_leaves(std::string(100000, '{')), Error);
}

TEST(ParseNumericLeaves, AcceptsExponentAndSignedZeroForms) {
  const auto leaves = parse_numeric_leaves(
      R"({"a": 1e3, "b": 2.5E-2, "c": -0.0, "d": -12.75,
          "e": 1.25e+2, "f": 0.5, "g": 0, "h": -3e2})");
  EXPECT_DOUBLE_EQ(leaves.at("a"), 1000.0);
  EXPECT_DOUBLE_EQ(leaves.at("b"), 0.025);
  EXPECT_DOUBLE_EQ(leaves.at("c"), 0.0);
  EXPECT_TRUE(std::signbit(leaves.at("c")));
  EXPECT_DOUBLE_EQ(leaves.at("d"), -12.75);
  EXPECT_DOUBLE_EQ(leaves.at("e"), 125.0);
  EXPECT_DOUBLE_EQ(leaves.at("f"), 0.5);
  EXPECT_DOUBLE_EQ(leaves.at("g"), 0.0);
  EXPECT_DOUBLE_EQ(leaves.at("h"), -300.0);
}

// The old strtod-based reader silently accepted C-library spellings
// that are not JSON.  Each rejection must carry a named reason, not a
// generic parse failure.
TEST(ParseNumericLeaves, RejectsNonJsonNumberSpellingsWithNamedErrors) {
  const auto error_for = [](const std::string& doc) -> std::string {
    try {
      parse_numeric_leaves(doc);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(error_for(R"({"a": nan})").find("nan"), std::string::npos);
  EXPECT_NE(error_for(R"({"a": inf})").find("non-finite"), std::string::npos);
  EXPECT_NE(error_for(R"({"a": -inf})").find("non-finite"), std::string::npos);
  EXPECT_NE(error_for(R"({"a": NaN})").find("non-finite"), std::string::npos);
  EXPECT_NE(error_for(R"({"a": +1})").find("leading '+'"), std::string::npos);
  EXPECT_NE(error_for(R"({"a": .5})").find("leading '.'"), std::string::npos);
  EXPECT_NE(error_for(R"({"a": 0x10})").find("hex"), std::string::npos);
  EXPECT_NE(error_for(R"({"a": 01})").find("leading zero"), std::string::npos);
  EXPECT_NE(error_for(R"({"a": 1e})").find("exponent"), std::string::npos);
  EXPECT_NE(error_for(R"({"a": 1.})").find("digits after '.'"),
            std::string::npos);
  EXPECT_NE(error_for(R"({"a": 1e999})").find("out of double range"),
            std::string::npos);
}

TEST(Baseline, ParsesChecksWithOptionalBounds) {
  const auto checks = parse_baseline(
      R"({"checks": [
            {"path": "clean.throughput_per_s", "min": 20000},
            {"path": "decide.steady_allocs", "max": 0},
            {"path": "ratio", "min": 1, "max": 5}]})");
  ASSERT_EQ(checks.size(), 3u);
  EXPECT_EQ(checks[0].path, "clean.throughput_per_s");
  EXPECT_DOUBLE_EQ(checks[0].min, 20000.0);
  EXPECT_EQ(checks[1].path, "decide.steady_allocs");
  EXPECT_DOUBLE_EQ(checks[1].max, 0.0);
  EXPECT_DOUBLE_EQ(checks[2].min, 1.0);
  EXPECT_DOUBLE_EQ(checks[2].max, 5.0);
}

TEST(Baseline, PassesWhenEveryBoundHolds) {
  const auto checks = parse_baseline(
      R"({"checks": [{"path": "a.b", "min": 1, "max": 3}]})");
  EXPECT_TRUE(check_against_baseline(checks, R"({"a": {"b": 2}})").empty());
}

TEST(Baseline, FailsOnViolatedBoundsAndMissingPaths) {
  const auto checks = parse_baseline(
      R"({"checks": [{"path": "a.b", "min": 1, "max": 3},
                     {"path": "a.missing", "min": 0}]})");
  const auto failures = check_against_baseline(checks, R"({"a": {"b": 9}})");
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_NE(failures[0].find("a.b"), std::string::npos) << failures[0];
  EXPECT_NE(failures[1].find("a.missing"), std::string::npos) << failures[1];
}

}  // namespace
}  // namespace socrates
