// End-to-end validation with a real C compiler: the woven output of
// every benchmark must compile (and for one benchmark, link and run)
// with the system cc.  Skipped gracefully on hosts without a compiler.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "kernels/sources.hpp"
#include "weaver/margot_header.hpp"
#include "weaver/report.hpp"

namespace socrates::weaver {
namespace {

bool have_cc() {
  static const bool kHave = std::system("cc --version > /dev/null 2>&1") == 0;
  return kHave;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

std::vector<platform::CloneSpec> paper_clones() {
  return platform::DesignSpace::paper_space(platform::MachineTopology::xeon_e5_2630_v3())
      .clones();
}

std::string workdir() {
  const std::string dir = testing::TempDir() + "/socrates_weave_cc";
  std::system(("mkdir -p " + dir).c_str());
  return dir;
}

class CompileWoven : public ::testing::TestWithParam<std::string> {};

TEST_P(CompileWoven, WovenSourceCompilesWithRealCc) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  const std::string dir = workdir();
  const auto woven = weave_benchmark(
      GetParam(), ir::parse(kernels::benchmark_source(GetParam())), paper_clones());

  const std::string base = dir + "/" + GetParam();
  write_file(dir + "/margot.h", margot_header_source());
  write_file(base + ".c", ir::print(woven.unit));

  const std::string cmd = "cc -std=c99 -fopenmp -I" + dir + " -c " + base + ".c -o " +
                          base + ".o 2> " + base + ".err";
  const int rc = std::system(cmd.c_str());
  std::string errors;
  {
    std::ifstream err(base + ".err");
    errors.assign(std::istreambuf_iterator<char>(err), {});
  }
  EXPECT_EQ(rc, 0) << "cc failed on woven " << GetParam() << ":\n" << errors;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, CompileWoven,
                         ::testing::ValuesIn(kernels::benchmark_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });
INSTANTIATE_TEST_SUITE_P(ExtendedBenchmarks, CompileWoven,
                         ::testing::ValuesIn(kernels::extended_benchmark_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });


TEST(CompileWoven, WovenBinaryLinksAndRunsWithTheStub) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  const std::string dir = workdir();
  // mvt is the smallest footprint (two N x N doubles fit comfortably).
  const auto woven =
      weave_benchmark("mvt", ir::parse(kernels::benchmark_source("mvt")), paper_clones());

  write_file(dir + "/margot.h", margot_header_source());
  write_file(dir + "/margot_stub.c", margot_stub_source());
  write_file(dir + "/mvt_adaptive.c", ir::print(woven.unit));

  const std::string bin = dir + "/mvt_adaptive";
  const std::string cmd = "cc -std=c99 -O1 -fopenmp -I" + dir + " " + dir +
                          "/mvt_adaptive.c " + dir + "/margot_stub.c -lm -o " + bin +
                          " 2> " + bin + ".err";
  int rc = std::system(cmd.c_str());
  std::string errors;
  {
    std::ifstream err(bin + ".err");
    errors.assign(std::istreambuf_iterator<char>(err), {});
  }
  ASSERT_EQ(rc, 0) << "link failed:\n" << errors;

  // The adaptive binary must run to completion (single thread on this
  // host; the stub sets num_threads which OpenMP honours).
  rc = std::system(("OMP_NUM_THREADS=1 " + bin + " > /dev/null 2>&1").c_str());
  EXPECT_EQ(rc, 0) << "woven mvt binary crashed";
}

}  // namespace
}  // namespace socrates::weaver
