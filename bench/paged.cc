// Out-of-core build + probe bench: one column, one spec, a sweep over the
// buffer-pool budget. For each budget the paged table rebuilds its sort
// index — routing through the external merge sort once the column
// exceeds the pool — and then serves batched Find probes from the built
// index. The numbers make the paper's §5 claim measurable: build cost
// degrades gracefully as the budget shrinks (sequential run/merge I/O),
// while probe throughput stays flat because the directory and sorted
// lists are RAM-resident no matter how small the pool was.
//
// The JSON's "paged" block is gated (tools/bench_gates.json) on
// build_slowdown_vs_inram (paged_build_slowdown_cap) — a within-run ratio
// (paged build over flat in-RAM build of the SAME data on the SAME
// machine), so the gate transfers across hardware — and on the sweep
// really merging runs on its external rows (paged_external_merges). The
// bench exits 1 if a bounded budget still covers the whole column (a
// column of two pages or fewer), since that row measures the in-RAM path.
//
//   $ ./bench_paged [--n=1000000] [--page-bytes=65536] [--spec=css:16]
//                   [--lookups=200000] [--repeats=3] [--quick]
//                   [--json=BENCH_paged.json]

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "engine/table.h"
#include "harness.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace cssidx;

int main(int argc, char** argv) {
  auto options = bench::Options::Parse(argc, argv);
  CliArgs args(argc, argv);
  const size_t n =
      options.n != 0 ? options.n : (options.quick ? 200'000 : 1'000'000);
  const auto page_bytes =
      static_cast<size_t>(args.GetInt("page-bytes", 1 << 16));
  const std::string spec_text = args.GetString("spec", "css:16");
  const std::string json_path = args.GetString("json", "BENCH_paged.json");
  const IndexSpec spec = *IndexSpec::Parse(spec_text);

  Pcg32 rng(options.seed);
  std::vector<uint32_t> data(n);
  for (auto& v : data) v = rng.Below(static_cast<uint32_t>(n));
  std::vector<uint32_t> lookups(options.lookups);
  for (auto& k : lookups) k = data[rng.Below(static_cast<uint32_t>(n))];

  // Flat in-RAM baseline: the denominator of every gated ratio.
  engine::Table flat;
  flat.AddColumn("k", data);
  double inram_build = 1e300;
  for (int r = 0; r < options.repeats; ++r) {
    Timer timer;
    flat.BuildSortIndex("k", spec);
    inram_build = std::min(inram_build, timer.Seconds());
  }
  const double inram_probe =
      bench::MinFindBatchSeconds(flat.GetSortIndex("k"), lookups, 256,
                                 options.repeats);

  const size_t values_per_page = std::max<size_t>(page_bytes / 4, 1);
  const size_t column_pages = (n + values_per_page - 1) / values_per_page;
  // Budget sweep: unbounded, then the column shrunk to 1/2, 1/4, 1/16 of
  // its pages, then a near-minimal pool. Every bounded budget is clamped
  // below the column's page count, so it forces the external build path;
  // budgets the clamp makes equal are swept once.
  std::vector<size_t> budgets{0};
  const size_t max_bounded = column_pages > 0 ? column_pages - 1 : 0;
  for (size_t b : {column_pages / 2, column_pages / 4, column_pages / 16,
                   size_t{8}}) {
    // A 1-page pool can't even double-buffer.
    b = std::max<size_t>(std::min(b, max_bounded), 2);
    if (std::find(budgets.begin(), budgets.end(), b) == budgets.end()) {
      budgets.push_back(b);
    }
  }
  std::sort(budgets.begin() + 1, budgets.end(), std::greater<>());
  bool bounded_in_ram = false;
  bench::Table table({"buffer_pages", "fraction", "external", "runs",
                      "build s", "slowdown", "probe Mk/s", "faults",
                      "spill_rd", "spill_wr"});
  bench::Table json_rows({"buffer_pages", "budget_fraction", "external",
                          "runs", "build_seconds", "build_slowdown_vs_inram",
                          "probe_mkeys_per_sec", "faults", "spill_reads",
                          "spill_writes"});
  for (size_t budget : budgets) {
    engine::TableOptions topts;
    topts.page_bytes = page_bytes;
    topts.buffer_pages = budget;
    engine::Table paged(topts);
    paged.AddColumn("k", data);

    // Of the column's pages; 0 = unbounded.
    const double fraction = budget == 0
                                ? 0.0
                                : static_cast<double>(budget) /
                                      static_cast<double>(column_pages);
    bounded_in_ram = bounded_in_ram || fraction >= 1.0;
    const store::BufferStats before = paged.PoolStats();
    double build_seconds = 1e300;
    for (int r = 0; r < options.repeats; ++r) {
      Timer timer;
      paged.BuildSortIndex("k", spec);
      build_seconds = std::min(build_seconds, timer.Seconds());
    }
    const store::BufferStats after = paged.PoolStats();
    const engine::SortIndex& index = paged.GetSortIndex("k");
    const bool external = index.external_build();
    const std::string runs = std::to_string(index.external_runs());
    const std::string faults = std::to_string(after.faults - before.faults);
    const std::string spill_reads =
        std::to_string(after.spill_reads - before.spill_reads);
    const std::string spill_writes =
        std::to_string(after.spill_writes - before.spill_writes);
    const double probe_mkeys =
        static_cast<double>(lookups.size()) /
        bench::MinFindBatchSeconds(index, lookups, 256, options.repeats) / 1e6;
    table.AddRow({budget == 0 ? "unbounded" : std::to_string(budget),
                  bench::Table::Num(fraction, 3), external ? "yes" : "no",
                  runs, bench::Table::Num(build_seconds, 4),
                  bench::Table::Num(build_seconds / inram_build, 2),
                  bench::Table::Num(probe_mkeys, 2), faults, spill_reads,
                  spill_writes});
    json_rows.AddRow({std::to_string(budget), bench::Table::Fixed(fraction, 4),
                      external ? "true" : "false", runs,
                      bench::Table::Fixed(build_seconds, 6),
                      bench::Table::Fixed(build_seconds / inram_build, 3),
                      bench::Table::Fixed(probe_mkeys, 3), faults,
                      spill_reads, spill_writes});
  }
  table.Print("paged build + probe, n=" + std::to_string(n) + ", spec=" +
              spec_text + ", page_bytes=" + std::to_string(page_bytes) +
              ", inram_build=" + bench::Table::Num(inram_build, 4) + "s" +
              ", inram_probe=" +
              bench::Table::Num(
                  static_cast<double>(lookups.size()) / inram_probe / 1e6,
                  2) +
              " Mk/s");

  bench::JsonReport report("paged");
  report.Param("n", std::to_string(n));
  report.Param("page_bytes", std::to_string(page_bytes));
  report.Param("column_pages", std::to_string(column_pages));
  report.Param("spec", bench::Table::Quote(spec_text));
  report.Param("lookups", std::to_string(lookups.size()));
  report.Param("inram_build_seconds", bench::Table::Fixed(inram_build, 6));
  report.Param("inram_probe_mkeys_per_sec",
               bench::Table::Fixed(
                   static_cast<double>(lookups.size()) / inram_probe / 1e6,
                   3));
  report.Block("paged", std::move(json_rows));
  if (!report.Write(json_path)) return 1;
  if (bounded_in_ram) {
    std::fprintf(stderr,
                 "bench_paged: a bounded budget holds the whole column (%zu "
                 "pages); raise --n or lower --page-bytes\n",
                 column_pages);
    return 1;
  }
  return 0;
}
