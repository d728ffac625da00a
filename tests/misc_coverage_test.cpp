// Cross-cutting coverage: logging, table separators, model invariants,
// file-based knowledge IO and whole-toolchain determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "kernels/registry.hpp"
#include "margot/kb_io.hpp"
#include "platform/perf_model.hpp"
#include "socrates/pipeline.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

namespace socrates {
namespace {

// ---- logging -------------------------------------------------------------

class LogCapture {
 public:
  LogCapture() {
    previous_level_ = Log::level();
    Log::set_sink(&stream_);
  }
  ~LogCapture() {
    Log::set_sink(nullptr);
    Log::set_level(previous_level_);
  }
  std::string text() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
  LogLevel previous_level_;
};

TEST(Log, LevelFiltering) {
  LogCapture capture;
  Log::set_level(LogLevel::kWarn);
  log_debug() << "hidden";
  log_info() << "also hidden";
  log_warn() << "visible warning";
  log_error() << "visible error";
  const std::string out = capture.text();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("visible warning"), std::string::npos);
  EXPECT_NE(out.find("visible error"), std::string::npos);
}

TEST(Log, OffSilencesEverything) {
  LogCapture capture;
  Log::set_level(LogLevel::kOff);
  log_error() << "nope";
  EXPECT_TRUE(capture.text().empty());
}

TEST(Log, TagsCarryTheLevel) {
  LogCapture capture;
  Log::set_level(LogLevel::kDebug);
  log_debug() << "x";
  EXPECT_NE(capture.text().find("[socrates:debug]"), std::string::npos);
}

// ---- table ----------------------------------------------------------------

TEST(TextTable, SeparatorSpansTheTable) {
  TextTable t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"3", "4"});
  const std::string out = t.str();
  // Header underline + explicit separator -> at least two dashed lines.
  std::size_t dashes = 0;
  std::istringstream is(out);
  std::string line;
  while (std::getline(is, line))
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos) ++dashes;
  EXPECT_EQ(dashes, 2u);
  EXPECT_EQ(t.row_count(), 3u);  // separator counts as a row entry
}

TEST(TextTable, LeftAlignOverride) {
  TextTable t({"n", "text"});
  t.set_align(1, Align::kLeft);
  t.add_row({"1", "ab"});
  t.add_row({"2", "abcdef"});
  EXPECT_NE(t.str().find("ab    "), std::string::npos);
}

// ---- model invariants ---------------------------------------------------------

TEST(PerfModelInvariants, BindingIrrelevantAtOneThread) {
  // A single thread lands on socket 0 core 0 either way.
  const auto model = platform::PerformanceModel::paper_platform();
  for (const auto& b : kernels::all_benchmarks()) {
    const auto close = model.evaluate(
        b.model, {platform::FlagConfig(platform::OptLevel::kO2), 1,
                  platform::BindingPolicy::kClose});
    const auto spread = model.evaluate(
        b.model, {platform::FlagConfig(platform::OptLevel::kO2), 1,
                  platform::BindingPolicy::kSpread});
    EXPECT_DOUBLE_EQ(close.exec_time_s, spread.exec_time_s) << b.name;
    EXPECT_DOUBLE_EQ(close.avg_power_w, spread.avg_power_w) << b.name;
  }
}

TEST(PerfModelInvariants, FlagSpeedupMovesTimeNotFreeEnergy) {
  // A faster flag config must not increase energy per run by more than
  // its power factor allows (sanity bound on the model coupling).
  const auto model = platform::PerformanceModel::paper_platform();
  const auto& k = kernels::find_benchmark("2mm").model;
  const auto o2 = model.evaluate(
      k, {platform::FlagConfig(platform::OptLevel::kO2), 16,
          platform::BindingPolicy::kClose});
  const auto o3 = model.evaluate(
      k, {platform::FlagConfig(platform::OptLevel::kO3), 16,
          platform::BindingPolicy::kClose});
  EXPECT_LT(o3.exec_time_s, o2.exec_time_s);
  EXPECT_LT(o3.energy_j, o2.energy_j * 1.05);
}

// ---- knowledge IO through a real file --------------------------------------------

TEST(KbIoFile, SaveLoadThroughFilesystem) {
  margot::KnowledgeBase kb({"config", "threads"},
                           {"exec_time_s", "power_w", "throughput"});
  kb.add(margot::OperatingPoint{
      {3, 17}, {{0.123456789012345, 0.001}, {87.5, 0.5}, {8.1, 0.07}}});

  const std::string path = testing::TempDir() + "/socrates_kb_test.csv";
  {
    std::ofstream out(path);
    margot::save_knowledge(kb, out);
  }
  std::ifstream in(path);
  const auto loaded = margot::load_knowledge(in);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].knobs, (std::vector<int>{3, 17}));
  EXPECT_DOUBLE_EQ(loaded[0].metrics[0].mean, 0.123456789012345);
  std::remove(path.c_str());
}

// ---- toolchain determinism ----------------------------------------------------------

TEST(ToolchainDeterminism, SameSeedSameKnowledge) {
  const auto model = platform::PerformanceModel::paper_platform();
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 2;
  opts.seed = 777;
  Pipeline a(model, opts);
  Pipeline b(model, opts);
  const auto bin_a = a.build("atax");
  const auto bin_b = b.build("atax");
  ASSERT_EQ(bin_a.knowledge.size(), bin_b.knowledge.size());
  for (std::size_t i = 0; i < bin_a.knowledge.size(); ++i) {
    EXPECT_EQ(bin_a.knowledge[i].knobs, bin_b.knowledge[i].knobs);
    EXPECT_DOUBLE_EQ(bin_a.knowledge[i].metrics[0].mean,
                     bin_b.knowledge[i].metrics[0].mean);
  }
  EXPECT_EQ(margot::knowledge_to_string(bin_a.knowledge),
            margot::knowledge_to_string(bin_b.knowledge));
}

TEST(ToolchainDeterminism, CobaynPredictionsAreStable) {
  const auto model = platform::PerformanceModel::paper_platform();
  ToolchainOptions opts;
  opts.dse_repetitions = 1;
  opts.corpus_size = 24;
  Pipeline a(model, opts);
  Pipeline b(model, opts);
  const auto cf_a = a.build("doitgen").custom_configs;
  const auto cf_b = b.build("doitgen").custom_configs;
  ASSERT_EQ(cf_a.size(), cf_b.size());
  for (std::size_t i = 0; i < cf_a.size(); ++i)
    EXPECT_TRUE(cf_a[i].config == cf_b[i].config) << i;
}

}  // namespace
}  // namespace socrates
