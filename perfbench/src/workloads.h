#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace perfbench {

struct WorkloadResult {
  /// End-to-end metrics. The untraced run's result line carries the names
  /// BENCHMARK.json lists; the rest are printed for the reader.
  Report end_to_end;
  /// Per-layer metrics (traced run only).
  Report layers;
  Checker checker;
  /// GaugeNs() times taken on the measuring threads inside the window.
  Samples gauge_ns;
  uint64_t attempted = 0;  // client operations issued in the window
  uint64_t refused = 0;    // operations that returned an error status
  /// Resident set once the benchmark's own inputs, statement pools,
  /// oracles and sample buffers exist, read before the first set-up.
  double rss_baseline_mib = 0;
  /// Peak RSS when the measured window closed, before the benchmark
  /// pools its samples for the report. The reported peak_rss_mib is this
  /// minus the baseline: the memory the library's tables, indexes,
  /// threads and results took on top of the benchmark's own.
  double peak_rss_mib = 0;
  /// Non-empty when the run must not be reported (e.g. an open loop the
  /// writer could not keep up with).
  std::string invalid_reason;
};

WorkloadResult RunHotServe(const Options& options);
WorkloadResult RunColdRw(const Options& options);
WorkloadResult RunOlapPaged(const Options& options);

/// Each feeds its workload's answer checker one deliberately corrupted
/// answer and one intact one, and returns an empty string iff the checker
/// counted exactly the corrupted one as a failure.
std::string HotServeCheckerSelfTest();
std::string ColdRwCheckerSelfTest();
std::string OlapPagedCheckerSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
