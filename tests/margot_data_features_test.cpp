// Tests for input-aware multi-knowledge (mARGOt data features) and the
// knowledge-base (de)serialization.
#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <sstream>

#include "margot/data_features.hpp"
#include "margot/kb_io.hpp"
#include "support/error.hpp"

namespace socrates::margot {
namespace {

KnowledgeBase kb_with(double time_mean) {
  KnowledgeBase kb({"config"}, {"exec_time_s", "power_w", "throughput"});
  kb.add(OperatingPoint{
      {0}, {{time_mean, 0.01}, {60.0, 1.0}, {1.0 / time_mean, 0.001}}});
  return kb;
}

DataFeatureSchema size_schema() {
  return DataFeatureSchema{{"matrix_size"}, {FeatureComparison::kDontCare}};
}

TEST(MultiKnowledge, SelectsNearestCluster) {
  MultiKnowledge mk(size_schema());
  mk.add_cluster({100.0}, kb_with(0.1));
  mk.add_cluster({1000.0}, kb_with(1.0));
  mk.add_cluster({4000.0}, kb_with(8.0));
  EXPECT_EQ(mk.select({120.0}), 0u);
  EXPECT_EQ(mk.select({900.0}), 1u);
  EXPECT_EQ(mk.select({9999.0}), 2u);
}

TEST(MultiKnowledge, TwoDimensionalDistanceIsNormalized) {
  // Dimensions with wildly different units must both matter.
  MultiKnowledge mk(DataFeatureSchema{{"rows", "sparsity"},
                                      {FeatureComparison::kDontCare,
                                       FeatureComparison::kDontCare}});
  mk.add_cluster({1000.0, 0.9}, kb_with(1.0));
  mk.add_cluster({1000.0, 0.1}, kb_with(2.0));
  EXPECT_EQ(mk.select({1000.0, 0.85}), 0u);
  EXPECT_EQ(mk.select({1000.0, 0.15}), 1u);
}

TEST(MultiKnowledge, GreaterOrEqualConstraintFiltersClusters) {
  // "use knowledge profiled on inputs at least as large as the current
  // one" — a pessimistic sizing rule.
  MultiKnowledge mk(DataFeatureSchema{{"size"}, {FeatureComparison::kGreaterOrEqual}});
  mk.add_cluster({100.0}, kb_with(0.1));
  mk.add_cluster({1000.0}, kb_with(1.0));
  // 150 is closer to 100, but 100 < 150 violates the constraint.
  EXPECT_EQ(mk.select({150.0}), 1u);
}

TEST(MultiKnowledge, LessOrEqualConstraint) {
  MultiKnowledge mk(DataFeatureSchema{{"size"}, {FeatureComparison::kLessOrEqual}});
  mk.add_cluster({100.0}, kb_with(0.1));
  mk.add_cluster({1000.0}, kb_with(1.0));
  EXPECT_EQ(mk.select({900.0}), 0u);  // 1000 > 900 violates <=
}

TEST(MultiKnowledge, FallsBackWhenNoClusterAdmissible) {
  MultiKnowledge mk(DataFeatureSchema{{"size"}, {FeatureComparison::kGreaterOrEqual}});
  mk.add_cluster({100.0}, kb_with(0.1));
  mk.add_cluster({1000.0}, kb_with(1.0));
  // Nothing is >= 5000; nearest overall must be returned.
  EXPECT_EQ(mk.select({5000.0}), 1u);
}

TEST(MultiKnowledge, ContractChecks) {
  MultiKnowledge mk(size_schema());
  EXPECT_THROW(mk.select({1.0}), ContractViolation);  // no clusters yet
  EXPECT_THROW(mk.add_cluster({1.0, 2.0}, kb_with(1.0)), ContractViolation);
  mk.add_cluster({10.0}, kb_with(1.0));
  EXPECT_THROW(mk.select({1.0, 2.0}), ContractViolation);
}

// ---- knowledge base IO ----------------------------------------------------------

KnowledgeBase sample_kb() {
  KnowledgeBase kb({"config", "threads", "binding"},
                   {"exec_time_s", "power_w", "throughput"});
  kb.add(OperatingPoint{{0, 1, 0}, {{11.86, 0.21}, {55.4, 0.4}, {0.0843, 0.0015}}});
  kb.add(OperatingPoint{{7, 32, 1}, {{0.997, 0.013}, {136.4, 1.9}, {1.003, 0.013}}});
  kb.add(OperatingPoint{{3, 8, 0}, {{2.152, 0.04}, {86.4, 0.8}, {0.4647, 0.009}}});
  return kb;
}

TEST(KbIo, RoundTripsExactly) {
  const auto kb = sample_kb();
  const auto loaded = knowledge_from_string(knowledge_to_string(kb));
  ASSERT_EQ(loaded.size(), kb.size());
  EXPECT_EQ(loaded.knob_names(), kb.knob_names());
  EXPECT_EQ(loaded.metric_names(), kb.metric_names());
  for (std::size_t i = 0; i < kb.size(); ++i) {
    EXPECT_EQ(loaded[i].knobs, kb[i].knobs);
    for (std::size_t m = 0; m < kb[i].metrics.size(); ++m) {
      EXPECT_DOUBLE_EQ(loaded[i].metrics[m].mean, kb[i].metrics[m].mean);
      EXPECT_DOUBLE_EQ(loaded[i].metrics[m].stddev, kb[i].metrics[m].stddev);
    }
  }
}

TEST(KbIo, FormatIsHumanReadable) {
  const std::string text = knowledge_to_string(sample_kb());
  EXPECT_NE(text.find("# knobs: config,threads,binding"), std::string::npos);
  EXPECT_NE(text.find("# metrics: exec_time_s,power_w,throughput"), std::string::npos);
  EXPECT_NE(text.find("knob:config"), std::string::npos);
}

TEST(KbIo, RejectsMissingHeaders) {
  EXPECT_THROW(knowledge_from_string("1,2,3\n"), KnowledgeFormatError);
  EXPECT_THROW(knowledge_from_string("# knobs: a\nrubbish\n"), KnowledgeFormatError);
}

TEST(KbIo, RejectsWrongArityRows) {
  std::string text = knowledge_to_string(sample_kb());
  text += "1,2,3\n";  // truncated row
  EXPECT_THROW(knowledge_from_string(text), KnowledgeFormatError);
}

TEST(KbIo, RejectsNonNumericCells) {
  std::string text =
      "# knobs: k\n# metrics: m\nknob:k,m,m:sd\nxyz,1.0,0.0\n";
  EXPECT_THROW(knowledge_from_string(text), KnowledgeFormatError);
}

TEST(KbIo, RejectsFractionalKnobs) {
  std::string text = "# knobs: k\n# metrics: m\nknob:k,m,m:sd\n1.5,1.0,0.0\n";
  EXPECT_THROW(knowledge_from_string(text), KnowledgeFormatError);
}

// Regression fixtures for the failure modes a long campaign actually
// meets: files truncated mid-header, mid-table or mid-row, and garbage
// bytes.  Every rejection must name the offending line so the file can
// be repaired by hand.
TEST(KbIo, TruncatedFixturesNameTheOffendingLine) {
  const std::string good = knowledge_to_string(sample_kb());

  const auto expect_message = [](const std::string& text, const char* needle) {
    try {
      knowledge_from_string(text);
      FAIL() << "expected KnowledgeFormatError for fixture with " << needle;
    } catch (const KnowledgeFormatError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };

  expect_message("", "line 1");                       // empty file
  expect_message("# knobs: a,b\n", "line 2");         // ends after knobs header
  expect_message("# knobs: a\n# metrics: m\n", "line 3");  // no column header

  // Truncated mid-row: the row's own line number is reported.
  const auto last_newline = good.rfind('\n', good.size() - 2);
  expect_message(good.substr(0, last_newline + 4) + "\n", "line 6");

  // Garbage cell deep in the table names the column.
  std::string garbage = good;
  garbage += "1,2,0,1.0,0.1,2.0,0.2,nonsense###,0.3\n";
  expect_message(garbage, "throughput");
}

/// Parses `text`, expecting a KnowledgeFormatError whose message
/// contains every needle.
void expect_format_error(const std::string& text, std::initializer_list<const char*> needles) {
  try {
    knowledge_from_string(text);
    FAIL() << "expected KnowledgeFormatError for:\n" << text;
  } catch (const KnowledgeFormatError& e) {
    for (const char* needle : needles)
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "missing '" << needle << "' in: " << e.what();
  }
}

TEST(KbIo, RejectsARepeatedKnobRowNamingBothLines) {
  // Before the loader checked, a repeated row escaped as the knowledge
  // base's own contract violation, with no line number.
  const std::string head = "# knobs: a,b\n# metrics: m\nknob:a,knob:b,m,m:sd\n";
  expect_format_error(head + "0,1,1.0,0.1\n2,3,2.0,0.2\n0,1,3.0,0.3\n",
                      {"line 6", "knob:a,knob:b", "repeat line 4"});
  expect_format_error(head + "-2147483648,2147483647,1.0,0.1\n"
                             "-2147483648,2147483647,1.0,0.1\n",
                      {"line 5", "repeat line 4"});
}

TEST(KbIo, RejectsANegativeStddevNamingItsColumn) {
  expect_format_error(
      "# knobs: k\n# metrics: time,power\nknob:k,time,time:sd,power,power:sd\n"
      "0,1.0,0.1,50.0,0.5\n1,1.0,0.1,50.0,-0.5\n",
      {"line 5", "power:sd", "-0.5"});
}

TEST(KbIo, RejectsKnobCellsOutsideTheIntRange) {
  // Checked before the conversion to int, which is undefined for an
  // out-of-range double.
  const std::string head = "# knobs: k\n# metrics: m\nknob:k,m,m:sd\n";
  for (const char* cell : {"3e9", "-3e9", "2147483648", "-2147483649", "1e300"})
    expect_format_error(head + cell + ",1.0,0.0\n",
                        {"line 4", "knob:k", cell, "outside the int range"});
  // The extremes themselves are valid knob values and round-trip.
  const auto kb = knowledge_from_string(head + "2147483647,1.0,0.0\n-2147483648,2.0,0.0\n");
  ASSERT_EQ(kb.size(), 2u);
  EXPECT_EQ(kb.find({std::numeric_limits<int>::max()}), 0u);
  EXPECT_EQ(kb.find({std::numeric_limits<int>::min()}), 1u);
  EXPECT_EQ(knowledge_to_string(knowledge_from_string(knowledge_to_string(kb))),
            knowledge_to_string(kb));
}

TEST(KbIo, FormatErrorIsASocratesError) {
  // Callers that guard campaign I/O with catch (const socrates::Error&)
  // must catch knowledge-format failures too.
  EXPECT_THROW(knowledge_from_string("garbage"), Error);
}

TEST(KbIo, SkipsBlankLines) {
  std::string text = knowledge_to_string(sample_kb());
  text += "\n\n";
  EXPECT_EQ(knowledge_from_string(text).size(), 3u);
}

}  // namespace
}  // namespace socrates::margot
