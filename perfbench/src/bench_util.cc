#include "bench_util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/simd_node_search.h"

namespace perfbench {

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::AppendRange(const Samples& other, size_t begin, size_t end) {
  if (!other.in_arrival_order_) {
    throw std::logic_error("Samples::AppendRange from a sorted buffer");
  }
  values_.insert(values_.end(), other.values_.begin() + begin,
                 other.values_.begin() + end);
  sorted_ = false;
}

void Samples::Sort() const {
  if (sorted_) return;
  std::sort(values_.begin(), values_.end());
  sorted_ = true;
  in_arrival_order_ = false;
}

std::optional<double> Samples::Percentile(double p) const {
  const size_t n = values_.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it. Report only when 10 or more samples lie beyond that rank.
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  Sort();
  return values_[rank - 1];
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::Median() const {
  if (values_.empty()) return 0;
  Sort();
  const size_t n = values_.size();
  return n % 2 == 1 ? values_[n / 2]
                    : (static_cast<double>(values_[n / 2 - 1]) + values_[n / 2]) / 2.0;
}

double Samples::Max() const {
  return values_.empty() ? 0 : *std::max_element(values_.begin(), values_.end());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples,
                 std::optional<double> wall) {
  metrics_.push_back(Metric{name, value, unit, samples, wall});
}

void Report::AddPercentile(const std::string& name, const Samples& samples,
                           double p, const std::string& unit) {
  std::optional<double> v = samples.Percentile(p);
  if (!v) {
    Note(name + ": not reported, " + std::to_string(samples.size()) +
         " samples leave fewer than 10 beyond p" + std::to_string(static_cast<int>(p)));
    return;
  }
  Add(name, *v, unit, samples.size());
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Checker::Expect(bool ok, const std::string& what) {
  ++checked_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

void WriteSpansOrNote(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      const Options& options, Report* notes) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  size_t written = 0;
  for (const std::string& line : EnvironmentRecord(options)) {
    out << "# " << line << '\n';
  }
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      out << "{\"thread\":" << t << ",\"request\":" << s.request
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << "}\n";
      ++written;
    }
  }
  out.flush();
  notes->Note(out ? "spans: " + std::to_string(written) + " written to " + path
                  : "spans: could not write " + path);
}

namespace {

/// 1024 sorted keys below 2^40: 8 KiB, L1-resident once touched.
const std::vector<uint64_t>& GaugeKeys() {
  static const std::vector<uint64_t> keys = [] {
    std::vector<uint64_t> v;
    for (uint64_t i = 0; i < 1024; ++i) v.push_back(Mix64(i) >> 24);
    std::sort(v.begin(), v.end());
    return v;
  }();
  return keys;
}

/// Formats 16 keys drawn from `salt`, parses them back and binary-searches
/// each. Every pass draws new keys, so the branch predictor cannot learn a
/// pass, and a pass costs the same after any other work as after itself.
uint64_t GaugePass(const std::vector<uint64_t>& sorted, uint64_t salt) {
  char text[16 * 24];
  char* end = text;
  for (uint64_t i = 0; i < 16; ++i) {
    *end++ = ' ';
    end = std::to_chars(end, text + sizeof(text), Mix64(salt + i) >> 24).ptr;
  }
  uint64_t sum = 0;
  const char* p = text;
  while (p < end) {
    uint64_t key = 0;
    p = std::from_chars(p + 1, end, key).ptr;
    sum += static_cast<uint64_t>(
        std::lower_bound(sorted.begin(), sorted.end(), key) - sorted.begin());
  }
  return sum;
}

}  // namespace

double GaugeNs() {
  thread_local uint64_t salt = 0;
  const std::vector<uint64_t>& sorted = GaugeKeys();
  // The untimed pass brings the keys back into L1 after the caller's work.
  volatile uint64_t sink = GaugePass(sorted, salt += 16);
  const int64_t t0 = NowNs();
  sink = GaugePass(sorted, salt += 16);
  const int64_t t1 = NowNs();
  (void)sink;
  return static_cast<double>(t1 - t0);
}

double GaugeMedianNs(int passes) {
  Samples s;
  for (int i = 0; i < passes; ++i) s.Add(GaugeNs());
  return s.Median();
}

namespace {

/// One "<field>:  <n> kB" line of /proc/self/status, in MiB (0 if absent).
double StatusMib(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double ResidentMib() { return StatusMib("VmRSS"); }

double PeakRssMib() { return StatusMib("VmHWM"); }

namespace {

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "unknown";
  return line;
}

}  // namespace

std::vector<std::string> EnvironmentRecord(const Options& options) {
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/";
  std::vector<std::string> env;
  env.push_back("nproc=" + std::to_string(std::thread::hardware_concurrency()));
  // index2 / index3 are the unified L2 and L3 on x86 Linux; record their
  // level next to the size so a different layout is visible.
  for (const char* idx : {"index2", "index3"}) {
    env.push_back(std::string("cache_") + idx + "=L" +
                  ReadFirstLine(cache + idx + "/level") + ":" +
                  ReadFirstLine(cache + idx + "/size"));
  }
  env.push_back(std::string("node_search_path=") +
                cssidx::NodeSearchPathName(cssidx::ActiveNodeSearchPath()));
  env.push_back(std::string("build_type=") + PERFBENCH_BUILD_TYPE);
  env.push_back(std::string("march=") + PERFBENCH_MARCH);
  env.push_back(std::string("compiler=") + __VERSION__);
  env.push_back("commit=" + options.commit);
  env.push_back("source_sha256=" + options.source_digest);
  env.push_back("workload=" + options.workload);
  env.push_back("seed=" + std::to_string(options.seed));
  env.push_back("seconds=" + std::to_string(options.seconds));
  env.push_back(std::string("trace=") + (options.trace ? "1" : "0"));
  return env;
}

void AppendUint(std::string& out, uint64_t v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out.append(buf, end);
}

}  // namespace perfbench
