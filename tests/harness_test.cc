// The bench harness is part of the reproduction deliverable (it defines
// the measurement protocol), so its pieces get the same test treatment:
// option parsing, the min-of-repeats timer contract, table rendering, and
// the JSON report every gated bench writes.

#include "../bench/harness.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/binary_search.h"
#include "gtest/gtest.h"
#include "workload/key_gen.h"

namespace cssidx::bench {
namespace {

Options ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return Options::Parse(static_cast<int>(args.size()),
                        const_cast<char**>(args.data()));
}

TEST(Harness, OptionDefaultsMatchPaperProtocol) {
  Options o = ParseArgs({});
  EXPECT_EQ(o.lookups, 100'000u);  // §6.1: 100,000 searches
  EXPECT_EQ(o.repeats, 3);
  EXPECT_FALSE(o.quick);
  EXPECT_FALSE(o.full);
}

TEST(Harness, OptionOverrides) {
  Options o = ParseArgs({"--n=500", "--lookups=10", "--repeats=5", "--quick",
                         "--seed=9"});
  EXPECT_EQ(o.n, 500u);
  EXPECT_EQ(o.lookups, 10u);
  EXPECT_EQ(o.repeats, 5);
  EXPECT_TRUE(o.quick);
  EXPECT_EQ(o.seed, 9u);
}

TEST(Harness, MinFindSecondsReturnsPositiveTime) {
  auto keys = workload::DistinctSortedKeys(10'000, 1, 4);
  BinarySearchIndex index(keys);
  std::vector<Key> lookups(keys.begin(), keys.begin() + 1000);
  uint64_t sink_before = g_sink;
  double sec = MinFindSeconds(index, lookups, 2);
  EXPECT_GT(sec, 0.0);
  EXPECT_LT(sec, 5.0);
  // The sink must have absorbed results (anti-DCE contract).
  EXPECT_NE(g_sink, sink_before);
}

TEST(Harness, TableFormatsNumbersAndBytes) {
  EXPECT_EQ(Table::Num(0.123456, 3), "0.123");
  EXPECT_EQ(Table::Num(2.0), "2");
  EXPECT_EQ(Table::Bytes(512), "512 B");
  EXPECT_EQ(Table::Bytes(2048), "2.0 KB");
  EXPECT_EQ(Table::Bytes(2.5e6), "2.50 MB");
}

TEST(Harness, TablePrintsHumanAndCsvBlocks) {
  Table t({"a", "b"});
  t.AddRow({"1", "x"});
  t.AddRow({"2", "y"});
  testing::internal::CaptureStdout();
  t.Print("demo");
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("csv,a,b"), std::string::npos);
  EXPECT_NE(out.find("csv,1,x"), std::string::npos);
  EXPECT_NE(out.find("csv,2,y"), std::string::npos);
}

TEST(Harness, JsonReportWritesHeaderThenRowBlocks) {
  EXPECT_EQ(Table::Fixed(2.0, 3), "2.000");
  EXPECT_EQ(Table::Quote("css:16"), "\"css:16\"");
  Table rows({"spec", "speedup"});
  rows.AddRow({Table::Quote("bin"), Table::Fixed(1.5, 3)});
  rows.AddRow({Table::Quote("css:16"), Table::Fixed(2.25, 3)});
  JsonReport report("demo");
  report.Param("n", "100");
  report.Block("results", std::move(rows));
  report.Block("empty", Table({"x"}));
  const std::string path =
      testing::TempDir() + "harness_test_report.json";
  testing::internal::CaptureStdout();
  ASSERT_TRUE(report.Write(path));
  EXPECT_NE(testing::internal::GetCapturedStdout().find("wrote " + path),
            std::string::npos);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::remove(path.c_str());
  // Header first, in order: bench, run parameters, then the machine.
  const size_t bench = json.find("\"bench\": \"demo\"");
  const size_t n = json.find("\"n\": 100");
  const size_t threads = json.find("\"hardware_threads\": ");
  const size_t path_field = json.find("\"node_search_path\": \"");
  const size_t block = json.find("\"results\": [");
  ASSERT_NE(bench, std::string::npos);
  ASSERT_NE(block, std::string::npos);
  EXPECT_LT(bench, n);
  EXPECT_LT(n, threads);
  EXPECT_LT(threads, path_field);
  EXPECT_LT(path_field, block);
  EXPECT_NE(json.find("    {\"spec\": \"bin\", \"speedup\": 1.500},\n"
                      "    {\"spec\": \"css:16\", \"speedup\": 2.250}\n  ]"),
            std::string::npos);
  EXPECT_NE(json.find("\"empty\": [\n  ]\n}\n"), std::string::npos);
}

TEST(Harness, JsonReportFailsOnUnwritablePath) {
  JsonReport report("demo");
  testing::internal::CaptureStdout();
  EXPECT_FALSE(report.Write("/nonexistent-dir/report.json"));
  EXPECT_NE(testing::internal::GetCapturedStdout().find("cannot write"),
            std::string::npos);
}

}  // namespace
}  // namespace cssidx::bench
