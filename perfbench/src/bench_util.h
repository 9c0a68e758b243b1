#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

// Shared pieces of the end-to-end benchmark: the clock, latency samples
// with the percentile rule, the metric report, the correctness checker and
// the span log the traced run writes out at exit.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline_ns);

/// Makes room for n elements in v and writes to it, so its pages are
/// resident from here on: allocated before the peak-RSS baseline is read,
/// the room then counts as the benchmark's, not as the window's growth.
template <typename Vector>
void ReserveTouched(Vector& v, size_t n) {
  v.resize(n);
  v.clear();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string out_dir = "perfbench/out";
};

/// Latency (or any) samples. A percentile is reported only when at least
/// 10 samples lie beyond it; otherwise Percentile returns nullopt. Stored
/// as float (7 significant digits is ample for a latency) to keep the
/// benchmark's own share of the peak RSS small.
class Samples {
 public:
  void Reserve(size_t n) { ReserveTouched(values_, n); }
  void Add(double v) {
    values_.push_back(static_cast<float>(v));
    sorted_ = false;
  }
  void Append(const Samples& other);
  /// Appends the samples other received [begin, end)-th, in the order it
  /// received them. Throws std::logic_error once other has been sorted by
  /// a percentile or median.
  void AppendRange(const Samples& other, size_t begin, size_t end);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, p in (0, 100).
  std::optional<double> Percentile(double p) const;
  double Mean() const;
  double Max() const;
  /// Plain median, for repeated whole-run measurements such as set-up
  /// time, where the percentile rule's tail does not apply.
  double Median() const;

 private:
  void Sort() const;

  mutable std::vector<float> values_;
  mutable bool sorted_ = true;
  mutable bool in_arrival_order_ = true;
};

/// Times one pass of the host-speed gauge, in ns. The box is a VM on a
/// shared host, and its cores run up to 1.5x faster or slower with the
/// neighbours' load, for minutes at a time; core-bound metrics swing with
/// them. The gauge is a fixed piece of work of the benchmark's own, not
/// the library's: format 16 fresh pseudo-random keys, parse them back and
/// binary-search each in a sorted 1024-entry array, all of it L1-resident
/// (an untimed pass first puts it there, whatever the caller left in the
/// cache). The workloads time it between operations on their measuring
/// threads, so its median says how fast those cores ran meanwhile.
double GaugeNs();

/// Median of `passes` GaugeNs() times: a speed reading taken before a
/// set-up, outside any window.
double GaugeMedianNs(int passes);
inline constexpr int kSetupGaugePasses = 256;

/// The gauge's usual median on the 4-vCPU box the benchmark was tuned on.
/// Timed end-to-end metrics of core-bound work are reported at this
/// reference speed: a time is multiplied, and a rate divided, by
/// kGaugeReferenceNs / (the gauge's median while it was measured).
inline constexpr double kGaugeReferenceNs = 2250;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // 0 = not a sampled statistic
  /// The wall-clock statistic, when `value` is at the reference speed.
  std::optional<double> wall;
};

/// An ordered set of named metrics plus free-form notes for the human
/// part of the output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, std::optional<double> wall = std::nullopt);
  /// Adds samples' p-th percentile if the sample supports it; otherwise
  /// records a note saying why it is missing.
  void AddPercentile(const std::string& name, const Samples& samples,
                     double p, const std::string& unit);
  void Note(const std::string& text) { notes_.push_back(text); }
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Counts checked answers and wrong ones. Every wrong answer counts as a
/// failed operation in the benchmark's result line.
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  uint64_t checked() const { return checked_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& first_failures() const { return failures_; }

 private:
  uint64_t checked_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few, for the log
};

/// One traced interval: a call into a layer's public function, made by
/// the benchmark. `parent` indexes the same thread's log (-1 = root);
/// spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// Per-thread span storage, allocated up front so recording never
/// allocates. Spans past capacity are counted and dropped.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity = 0) { ReserveTouched(spans_, capacity); }
  int32_t Begin(const char* name, int32_t parent, uint64_t request) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Writes the environment record and then every span as one JSON line to
/// `path`, and notes in `notes` where the spans went (or that writing
/// failed).
void WriteSpansOrNote(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      const Options& options, Report* notes);

/// Resident set size of this process now (VmRSS), MiB.
double ResidentMib();
/// Peak resident set size of this process so far (VmHWM), MiB.
double PeakRssMib();

/// Environment record: one "key=value" per entry, printed and written
/// alongside the spans.
std::vector<std::string> EnvironmentRecord(const Options& options);

/// splitmix64: a stateless mixer, so keys can be regenerated from their
/// index instead of stored.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Appends the decimal form of v to out.
void AppendUint(std::string& out, uint64_t v);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
