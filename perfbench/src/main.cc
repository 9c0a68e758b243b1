// perfbench: one end-to-end benchmark over the cssidx library.
//
//   perfbench --workload hot_serve|cold_rw|olap_paged --seed N --seconds S
//             --trace 0|1 [--commit C] [--source-digest D] [--out-dir DIR]
//
// Prints the environment record, every metric by name with unit and
// sample count, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (BENCHMARK.json lists both). A run that cannot be
// reported honestly (an open loop that fell behind, a percentile without
// enough samples behind it) prints why and exits 3 without a result line.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string CheckerSelfTest() {
  for (auto* test : {HotServeCheckerSelfTest, ColdRwCheckerSelfTest,
                     OlapPagedCheckerSelfTest}) {
    std::string why = test();
    if (!why.empty()) return why;
  }
  return "";
}

struct MetricName {
  const char* name;
  const char* unit;
};

// Every workload reports every one of these (BENCHMARK.json "end_to_end").
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mib", "MiB"},
    {"read_keys_per_s", "keys/s"}, {"point_p50_us", "us"},
    {"point_p99_us", "us"},    {"range_p50_us", "us"},
    {"cycle_p50_ms", "ms"},    {"publish_p50_ms", "ms"},
};

// BENCHMARK.json "per_layer". A layer a workload never calls reads 0.
constexpr MetricName kPerLayer[] = {
    {"statement.parse_ns_per_key.u32", "ns"},
    {"statement.parse_ns_per_key.u64", "ns"},
    {"statement.parse_ns_per_key.str", "ns"},
    {"domain.encode_ns_per_key", "ns"},
    {"maintained_index.snapshot_ns", "ns"},
    {"any_index.probe_ns_per_key.u32", "ns"},
    {"any_index.probe_ns_per_key.u64", "ns"},
    {"any_index.probe_ns_per_key.str", "ns"},
    {"kernel.find_ns_per_key", "ns"},
    {"part.route_ns_per_key", "ns"},
    {"session.execute_ns_per_key.u32", "ns"},
    {"session.execute_ns_per_key.u64", "ns"},
    {"session.execute_ns_per_key.str", "ns"},
    {"session.self_ns_per_key.u32", "ns"},
    {"session.self_ns_per_key.u64", "ns"},
    {"session.self_ns_per_key.str", "ns"},
    {"update_queue.enqueue_us_p50", "us"},
    {"update_queue.enqueue_us_p90", "us"},
    {"update_queue.depth_high_water", "count"},
    {"update_queue.blocked_pushes", "count"},
    {"update_queue.rejected_batches", "count"},
    {"writer.drain_cycles", "count"},
    {"writer.groups_published", "count"},
    {"writer.coalesce_ratio", "ratio"},
    {"writer.publish_interval_ms_mean", "ms"},
    {"maintained_index.shards_rebuilt_per_publish", "count"},
    {"maintained_index.full_rebuilds", "count"},
    {"maintained_index.rebalances", "count"},
    {"client.generator_lag_ms_max", "ms"},
    {"engine.select_range_ms", "ms"},
    {"engine.aggregate_ms", "ms"},
    {"engine.indexed_join_ms", "ms"},
    {"engine.group_by_ms", "ms"},
    {"engine.count_equal_us", "us"},
    {"engine.select_equal_str_ms", "ms"},
    {"engine.append_rows_ms", "ms"},
    {"engine.delete_rows_ms", "ms"},
    {"store.pins", "count"},
    {"store.hit_rate", "ratio"},
    {"store.faults", "count"},
    {"store.evictions", "count"},
    {"store.spill_reads", "count"},
    {"store.spill_writes", "count"},
    {"store.spill_bytes_per_user_byte", "ratio"},
    {"external_build.build_s", "s"},
    {"external_build.runs", "count"},
    {"any_index.space_bytes_per_key", "B/key"},
    {"trace.read_keys_per_s", "keys/s"},
    {"trace.point_p50_us", "us"},
    {"trace.point_p99_us", "us"},
    {"trace.range_p50_us", "us"},
    {"trace.cycle_p50_ms", "ms"},
    {"trace.publish_p50_ms", "ms"},
    {"trace.peak_rss_mib", "MiB"},
    {"trace.ladder_gap_ns", "ns"},
    {"trace.dropped_spans", "count"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "hot_serve|cold_rw|olap_paged --seed N --seconds S --trace 0|1 "
               "[--commit C] [--source-digest D] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

void PrintMetric(const Metric& m) {
  std::printf("metric %-44s %16.6g %-7s", m.name.c_str(), m.value,
              m.unit.c_str());
  if (m.samples > 0) std::printf(" n=%zu", m.samples);
  if (m.wall) std::printf(" wall-clock %.6g", *m.wall);
  std::printf("\n");
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 120;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--commit") {
      options.commit = value;
    } else if (arg == "--source-digest") {
      options.source_digest = value;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds (0, 120] and --trace 0|1 are required");
  }

  // The checkers must catch a corrupted answer before their verdict on
  // real answers means anything.
  if (const std::string why = CheckerSelfTest(); !why.empty()) {
    std::fprintf(stderr, "perfbench: checker self-test failed: %s\n", why.c_str());
    return 1;
  }
  for (const std::string& line : EnvironmentRecord(options)) {
    std::printf("env %s\n", line.c_str());
  }
  std::fflush(stdout);

  WorkloadResult result;
  if (options.workload == "hot_serve") {
    result = RunHotServe(options);
  } else if (options.workload == "cold_rw") {
    result = RunColdRw(options);
  } else if (options.workload == "olap_paged") {
    result = RunOlapPaged(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  (options.trace ? result.layers : result.end_to_end)
      .Add(options.trace ? "trace.peak_rss_mib" : "peak_rss_mib",
           result.peak_rss_mib - result.rss_baseline_mib, "MiB");
  // The workloads give their core-bound timed metrics at the reference
  // speed (see GaugeNs) and print the wall-clock figure beside each.
  if (result.gauge_ns.empty()) {
    std::printf("run invalid: no host-speed gauge samples were taken\n");
    return 3;
  }
  char gauge[200];
  std::snprintf(gauge, sizeof(gauge),
                "host-speed gauge: median %.1f ns over %zu passes in the "
                "window, reference %.1f ns",
                result.gauge_ns.Median(), result.gauge_ns.size(), kGaugeReferenceNs);
  result.end_to_end.Note(gauge);
  char rss[160];
  std::snprintf(rss, sizeof(rss),
                "peak RSS %.1f MiB at the window's close, %.1f MiB resident "
                "before set-up (the benchmark's own inputs and buffers)",
                result.peak_rss_mib, result.rss_baseline_mib);
  result.end_to_end.Note(rss);

  const uint64_t failed = result.refused + result.checker.failed();
  for (const Metric& m : result.end_to_end.metrics()) PrintMetric(m);
  for (const Metric& m : result.layers.metrics()) PrintMetric(m);
  std::printf("metric %-44s %16.6g %-7s n=%llu\n", "failed_frac",
              result.attempted > 0 ? static_cast<double>(failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0,
              "ratio", static_cast<unsigned long long>(result.attempted));
  std::printf("checks: %llu answers checked, %llu wrong; %llu operations "
              "refused\n",
              static_cast<unsigned long long>(result.checker.checked()),
              static_cast<unsigned long long>(result.checker.failed()),
              static_cast<unsigned long long>(result.refused));
  for (const std::string& f : result.checker.first_failures()) {
    std::printf("wrong: %s\n", f.c_str());
  }
  for (const std::string& n : result.end_to_end.notes()) std::printf("note: %s\n", n.c_str());
  for (const std::string& n : result.layers.notes()) std::printf("note: %s\n", n.c_str());

  if (!result.invalid_reason.empty()) {
    std::printf("run invalid: %s\n", result.invalid_reason.c_str());
    return 3;
  }
  std::string json = "{\"correct\": ";
  json += result.checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  const Report& report = options.trace ? result.layers : result.end_to_end;
  bool first = true;
  auto emit = [&](const MetricName& want) {
    const Metric* m = report.Find(want.name);
    double value = 0;
    if (m != nullptr) {
      if (m->unit != want.unit || !std::isfinite(m->value)) {
        std::printf("run invalid: metric %s reads %g %s, expected unit %s\n",
                    want.name, m->value, m->unit.c_str(), want.unit);
        return false;
      }
      value = m->value;
    } else if (!options.trace) {
      std::printf("run invalid: end-to-end metric %s was not measured\n", want.name);
      return false;
    }
    json += first ? "" : ", ";
    first = false;
    json += '"';
    json += want.name;
    json += "\": {\"value\": ";
    json += JsonNumber(value);
    json += ", \"unit\": \"";
    json += want.unit;
    json += "\"}";
    return true;
  };
  if (options.trace) {
    for (const MetricName& m : kPerLayer) {
      if (!emit(m)) return 3;
    }
  } else {
    for (const MetricName& m : kEndToEnd) {
      if (!emit(m)) return 3;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
