// olap_paged: a star schema in engine::Table, one closed-loop client.
// The fact table `orders` is paged through src/store with a buffer pool of
// a quarter of its pages, so reports fault pages in and updates spill
// them out; its sort indexes are built through the external merge. The
// serving layer does none of this work: src/store, src/engine,
// external_build and the shared ThreadPool (the join's probes) do.
//
// Rows arrive in day order, as a fact table loaded by date does, so an
// update appends one new day and deletes the oldest one.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>

#include "core/index_spec.h"
#include "engine/query.h"
#include "engine/table.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cssidx::engine::Aggregates;
using cssidx::engine::Rid;
using cssidx::engine::Table;

constexpr uint32_t kDays = 1024;
constexpr uint32_t kRowsPerDay = 4096;
constexpr size_t kOrders = size_t{kDays} * kRowsPerDay;  // 4M rows
constexpr uint32_t kCustomers = 512 * 1024;
constexpr uint32_t kSegments = 16;
constexpr size_t kPageBytes = 64 * 1024;
// A quarter of orders' pages: 3 columns * 4M rows * 4 B / 64 KiB / 4.
constexpr size_t kBufferPages = 3 * kOrders * 4 / kPageBytes / 4;
constexpr uint32_t kRangeDays = 8;
constexpr int kCountCalls = 1000;
constexpr int kSetups = 3;
constexpr int kGaugesPerReport = 64;  // GaugeNs() passes per report and update

std::string SegmentName(uint32_t s) {
  static const char* const kNames[kSegments] = {
      "AEROSPACE", "AGRICULTURE", "AUTOMOBILE", "BUILDING",
      "CHEMICALS", "ENERGY",      "FINANCE",    "FOOD",
      "FURNITURE", "HEALTH",      "HOUSEHOLD",  "MACHINERY",
      "MEDIA",     "RETAIL",      "TELECOM",    "TRANSPORT"};
  return kNames[s];
}

/// Flat copy of the live orders rows, updated alongside the engine. An
/// update drops the oldest day from the front before it appends the new
/// one, so the columns never outgrow their first allocation.
struct Oracle {
  std::vector<uint32_t> customer, day, amount;
  std::vector<uint32_t> per_customer;  // live rows per customer

  size_t live() const { return customer.size(); }
};

/// The check's own working memory, allocated once before set-up.
struct CheckScratch {
  std::vector<Aggregates> groups;  // per customer
  std::vector<bool> joined;        // per live orders row
};

struct OlapData {
  Oracle orders;
  std::vector<uint32_t> segment_of;  // per customer
  std::vector<std::vector<Rid>> segment_rows;
};

OlapData Generate(uint64_t seed) {
  cssidx::Pcg32 rng(seed, 0x01a9);
  OlapData d;
  Oracle& o = d.orders;
  o.customer.resize(kOrders);
  o.day.resize(kOrders);
  o.amount.resize(kOrders);
  o.per_customer.assign(kCustomers, 0);
  for (size_t r = 0; r < kOrders; ++r) {
    o.customer[r] = rng.Below(kCustomers);
    o.day[r] = static_cast<uint32_t>(r / kRowsPerDay);
    o.amount[r] = 1 + rng.Below(1000);
    ++o.per_customer[o.customer[r]];
  }
  d.segment_of.resize(kCustomers);
  d.segment_rows.resize(kSegments);
  for (uint32_t c = 0; c < kCustomers; ++c) {
    d.segment_of[c] = rng.Below(kSegments);
    d.segment_rows[d.segment_of[c]].push_back(c);
  }
  return d;
}

struct Tables {
  std::unique_ptr<Table> orders;
  std::unique_ptr<Table> customers;
  double external_build_s = 0;
  size_t external_runs = 0;
};

Tables Build(const OlapData& d, const std::string& spill_dir, double* seconds) {
  std::vector<uint32_t> customer = d.orders.customer, day = d.orders.day,
                        amount = d.orders.amount;
  std::vector<uint32_t> ids(kCustomers);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::string> segments;
  segments.reserve(kCustomers);
  for (uint32_t s : d.segment_of) segments.push_back(SegmentName(s));
  Tables t;
  const int64_t t0 = NowNs();
  t.orders = std::make_unique<Table>(
      cssidx::engine::TableOptions{kPageBytes, kBufferPages, spill_dir});
  t.orders->AddColumn("customer", std::move(customer));
  t.orders->AddColumn("day", std::move(day));
  t.orders->AddColumn("amount", std::move(amount));
  const int64_t tb = NowNs();
  t.orders->BuildSortIndex("day");
  t.external_build_s = static_cast<double>(NowNs() - tb) / 1e9;
  t.external_runs = t.orders->GetSortIndex("day").external_runs();
  t.orders->BuildSortIndex("customer");
  t.customers = std::make_unique<Table>();
  t.customers->AddColumn("id", std::move(ids));
  t.customers->AddStringColumn("segment", std::move(segments));
  t.customers->BuildSortIndex("id");
  t.customers->BuildSortIndex("segment");
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return t;
}

Aggregates OracleAggregate(const std::vector<uint32_t>& values, size_t from,
                           size_t to) {
  Aggregates a;
  for (size_t i = from; i < to; ++i) a.Accumulate(values[i]);
  if (a.count == 0) a.min = 0;
  return a;
}

bool SameAggregate(const Aggregates& a, const Aggregates& b) {
  return a.count == b.count && a.sum == b.sum && a.min == b.min &&
         a.max == b.max;
}

/// The answers of one report, kept for the check after it.
struct ReportAnswers {
  uint32_t day_lo = 0;
  std::vector<Rid> range_rids;
  Aggregates range_agg;
  std::vector<cssidx::engine::JoinedPair> pairs;
  std::vector<Aggregates> groups;
  std::vector<uint32_t> count_keys;
  std::vector<size_t> counts;
  uint32_t segment = 0;
  std::vector<Rid> segment_rids;
  Aggregates segment_agg;
};

/// Checks every answer of a report against the flat oracle.
void CheckReport(const OlapData& d, const ReportAnswers& a,
                 CheckScratch* scratch, Checker* checker) {
  const Oracle& o = d.orders;
  // Rows are in day order, so the window is one contiguous row range.
  const size_t lo = static_cast<size_t>(
      std::lower_bound(o.day.begin(), o.day.end(), a.day_lo) - o.day.begin());
  const size_t hi = static_cast<size_t>(
      std::lower_bound(o.day.begin(), o.day.end(), a.day_lo + kRangeDays) -
      o.day.begin());
  bool rids_ok = a.range_rids.size() == hi - lo;
  for (size_t i = 0; rids_ok && i < a.range_rids.size(); ++i) {
    rids_ok = a.range_rids[i] == lo + i;
  }
  checker->Expect(rids_ok, "olap: SelectRange(day) rids");
  checker->Expect(SameAggregate(a.range_agg, OracleAggregate(o.amount, lo, hi)),
                  "olap: Aggregate(amount) over the day window");

  // Every orders row joins exactly one customer, its own: each row must
  // appear once as an inner RID, paired with its customer.
  std::vector<bool>& joined = scratch->joined;
  joined.assign(o.live(), false);
  bool pairs_ok = a.pairs.size() == o.live();
  for (size_t i = 0; pairs_ok && i < a.pairs.size(); ++i) {
    const auto& p = a.pairs[i];
    pairs_ok = p.inner < o.live() && !joined[p.inner] &&
               o.customer[p.inner] == p.outer;
    if (pairs_ok) joined[p.inner] = true;
  }
  checker->Expect(pairs_ok, "olap: IndexedJoin customers -> orders");
  std::vector<Aggregates>& groups = scratch->groups;
  groups.assign(kCustomers, Aggregates{});
  for (size_t r = 0; r < o.customer.size(); ++r) {
    groups[o.customer[r]].Accumulate(o.amount[r]);
  }
  for (Aggregates& g : groups) {
    if (g.count == 0) g.min = 0;
  }
  bool groups_ok = a.groups.size() == groups.size();
  for (size_t g = 0; groups_ok && g < groups.size(); ++g) {
    groups_ok = SameAggregate(a.groups[g], groups[g]);
  }
  checker->Expect(groups_ok, "olap: GroupBy(customer, amount)");

  bool counts_ok = a.counts.size() == a.count_keys.size();
  for (size_t i = 0; counts_ok && i < a.counts.size(); ++i) {
    counts_ok = a.counts[i] == o.per_customer[a.count_keys[i]];
  }
  checker->Expect(counts_ok, "olap: CountEqual(customer)");

  const std::vector<Rid>& seg = d.segment_rows[a.segment];
  checker->Expect(a.segment_rids == seg, "olap: SelectEqual(segment) rids");
  Aggregates seg_agg;
  for (Rid r : seg) seg_agg.Accumulate(r);  // customers.id == rid
  if (seg_agg.count == 0) seg_agg.min = 0;
  checker->Expect(SameAggregate(a.segment_agg, seg_agg),
                  "olap: Aggregate(id) over the segment");
}

}  // namespace

std::string OlapPagedCheckerSelfTest() {
  // Two reports, each with one corrupted answer: a wrong aggregate, and a
  // join that returns one pair twice and drops another.
  OlapData d;
  d.orders.customer = {5, 6, 5};
  d.orders.day = {0, 0, 1};
  d.orders.amount = {10, 20, 30};
  d.orders.per_customer.assign(kCustomers, 0);
  d.orders.per_customer[5] = 2;
  d.orders.per_customer[6] = 1;
  d.segment_rows.resize(kSegments);
  ReportAnswers a;
  a.day_lo = 0;
  a.range_rids = {0, 1, 2};
  a.range_agg = OracleAggregate(d.orders.amount, 0, 3);
  a.range_agg.sum += 1;  // the one corrupted answer
  a.pairs = {{5, 0}, {6, 1}, {5, 2}};
  a.groups.resize(kCustomers);
  for (size_t r = 0; r < 3; ++r) a.groups[d.orders.customer[r]].Accumulate(d.orders.amount[r]);
  for (Aggregates& g : a.groups) {
    if (g.count == 0) g.min = 0;
  }
  a.count_keys = {5, 6};
  a.counts = {2, 1};
  a.segment_agg.min = 0;
  CheckScratch scratch;
  Checker checker;
  CheckReport(d, a, &scratch, &checker);
  if (checker.failed() != 1) return "olap_paged checker missed a corrupted Aggregate";
  a.range_agg.sum -= 1;
  a.pairs = {{5, 0}, {5, 0}, {5, 2}};
  Checker join_checker;
  CheckReport(d, a, &scratch, &join_checker);
  return join_checker.failed() == 1
             ? ""
             : "olap_paged checker missed a duplicated join pair";
}

WorkloadResult RunOlapPaged(const Options& options) {
  WorkloadResult out;
  OlapData data = Generate(options.seed);
  Oracle& oracle = data.orders;
  const std::string spill_dir = options.out_dir + "/spill";
  std::filesystem::create_directories(spill_dir);

  CheckScratch scratch;
  ReserveTouched(scratch.groups, kCustomers);
  ReserveTouched(scratch.joined, kOrders);
  // Room for 8 reports a second, four times the rate on a 4-core box.
  const size_t max_reports = static_cast<size_t>(options.seconds * 8) + 8;
  Samples report_ms, update_ms, range_us, point_us;
  Samples select_range_ms, aggregate_ms, join_ms, group_ms, select_str_ms,
      append_ms, delete_ms;
  Samples keys_per_s;  // per report: keys resolved / report time
  for (Samples* s : {&report_ms, &update_ms, &range_us, &select_range_ms,
                     &aggregate_ms, &join_ms, &group_ms, &select_str_ms,
                     &append_ms, &delete_ms, &keys_per_s}) {
    s->Reserve(max_reports);
  }
  point_us.Reserve(max_reports * kCountCalls);
  Samples& gauge_ns = out.gauge_ns;
  gauge_ns.Reserve(max_reports * kGaugesPerReport);
  SpanLog spans(options.trace ? 1 << 16 : 0);
  out.rss_baseline_mib = ResidentMib();

  // Set-up here is core-bound (run sorts and merges), so each is given at
  // the reference speed by a gauge reading just before it.
  Samples setup_s, setup_wall, external_s;
  Tables tables;
  for (int i = 0; i < kSetups; ++i) {
    const double gauge = GaugeMedianNs(kSetupGaugePasses);
    double s = 0;
    tables = Tables();
    tables = Build(data, spill_dir, &s);
    setup_wall.Add(s);
    setup_s.Add(s * kGaugeReferenceNs / gauge);
    external_s.Add(tables.external_build_s);
  }
  Table& orders = *tables.orders;
  const Table& customers = *tables.customers;

  cssidx::Pcg32 rng(options.seed, 0x7e57);
  uint32_t next_day = kDays;
  // Untimed: next report's inputs and next update's rows.
  auto make_update = [&] {
    std::map<std::string, std::vector<uint32_t>> rows;
    auto& c = rows["customer"];
    auto& dd = rows["day"];
    auto& a = rows["amount"];
    for (uint32_t i = 0; i < kRowsPerDay; ++i) {
      c.push_back(rng.Below(kCustomers));
      dd.push_back(next_day);
      a.push_back(1 + rng.Below(1000));
    }
    ++next_day;
    return rows;
  };
  std::vector<Rid> oldest(kRowsPerDay);
  std::iota(oldest.begin(), oldest.end(), 0u);

  uint64_t reports = 0;
  cssidx::store::BufferStats pool_start{};

  auto ms = [](int64_t a, int64_t b) { return static_cast<double>(b - a) / 1e6; };
  auto run_cycle = [&](bool timed) {
    ReportAnswers a;
    const uint32_t min_day = oracle.day.front();
    a.day_lo = min_day + rng.Below(kDays - kRangeDays);
    for (int i = 0; i < kCountCalls; ++i) a.count_keys.push_back(rng.Below(kCustomers));
    a.counts.resize(kCountCalls);
    a.segment = rng.Below(kSegments);
    const std::string segment = SegmentName(a.segment);
    auto rows = make_update();

    // Speed readings before each report and after each update.
    auto read_gauge = [&] {
      for (int i = 0; timed && i < kGaugesPerReport / 2; ++i) gauge_ns.Add(GaugeNs());
    };
    read_gauge();
    const uint64_t req = reports;
    const int32_t root = spans.Begin("olap.report", -1, req);
    const int64_t r0 = NowNs();
    int32_t id = spans.Begin("engine.select_range", root, req);
    a.range_rids = SelectRange(orders, "day", a.day_lo, a.day_lo + kRangeDays);
    spans.End(id);
    const int64_t r1 = NowNs();
    id = spans.Begin("engine.aggregate", root, req);
    a.range_agg = Aggregate(orders, "amount", a.range_rids);
    spans.End(id);
    const int64_t r2 = NowNs();
    id = spans.Begin("engine.indexed_join", root, req);
    a.pairs = IndexedJoin(customers, "id", orders, "customer");
    spans.End(id);
    const int64_t r3 = NowNs();
    id = spans.Begin("engine.group_by", root, req);
    a.groups = GroupBy(orders, "customer", "amount", kCustomers);
    spans.End(id);
    const int64_t r4 = NowNs();
    id = spans.Begin("engine.count_equal", root, req);
    for (int i = 0; i < kCountCalls; ++i) {
      const int64_t c0 = NowNs();
      a.counts[i] = CountEqual(orders, "customer", a.count_keys[i]);
      if (timed) point_us.Add(static_cast<double>(NowNs() - c0) / 1e3);
    }
    spans.End(id);
    const int64_t r5 = NowNs();
    id = spans.Begin("engine.select_equal_str", root, req);
    a.segment_rids = SelectEqual(customers, "segment", segment);
    a.segment_agg = Aggregate(customers, "id", a.segment_rids);
    spans.End(id);
    const int64_t r6 = NowNs();
    spans.End(root);
    CheckReport(data, a, &scratch, &out.checker);

    // The update: one new day in, the oldest day out.
    const int32_t uroot = spans.Begin("olap.update", -1, req);
    const int64_t u0 = NowNs();
    id = spans.Begin("engine.append_rows", uroot, req);
    orders.AppendRows(rows);
    spans.End(id);
    const int64_t u1 = NowNs();
    id = spans.Begin("engine.delete_rows", uroot, req);
    orders.DeleteRows(oldest);
    spans.End(id);
    const int64_t u2 = NowNs();
    spans.End(uroot);
    for (uint32_t i = 0; i < kRowsPerDay; ++i) {
      --oracle.per_customer[oracle.customer[i]];
    }
    for (auto* column : {&oracle.customer, &oracle.day, &oracle.amount}) {
      column->erase(column->begin(), column->begin() + kRowsPerDay);
    }
    for (uint32_t i = 0; i < kRowsPerDay; ++i) {
      oracle.customer.push_back(rows["customer"][i]);
      oracle.day.push_back(rows["day"][i]);
      oracle.amount.push_back(rows["amount"][i]);
      ++oracle.per_customer[rows["customer"][i]];
    }
    out.checker.Expect(orders.NumRows() == oracle.live(), "olap: row count after update");
    read_gauge();
    if (!timed) return;
    ++reports;
    report_ms.Add(ms(r0, r6));
    const size_t keys = a.range_rids.size() + a.pairs.size() + kCountCalls +
                        a.segment_rids.size();
    keys_per_s.Add(static_cast<double>(keys) * 1e9 / static_cast<double>(r6 - r0));
    range_us.Add(static_cast<double>(r2 - r0) / 1e3);
    select_range_ms.Add(ms(r0, r1));
    aggregate_ms.Add(ms(r1, r2));
    join_ms.Add(ms(r2, r3));
    group_ms.Add(ms(r3, r4));
    select_str_ms.Add(ms(r5, r6));
    update_ms.Add(ms(u0, u2));
    append_ms.Add(ms(u0, u1));
    delete_ms.Add(ms(u1, u2));
    out.attempted += 6 + kCountCalls + 2;  // report queries + the update
  };

  run_cycle(false);  // warm-up: faults the working set in, untimed
  pool_start = orders.PoolStats();
  const int64_t window_end = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  while (NowNs() < window_end) run_cycle(true);
  out.peak_rss_mib = PeakRssMib();

  const cssidx::store::BufferStats pool_end = orders.PoolStats();
  const double n = static_cast<double>(std::max<uint64_t>(reports, 1));
  auto per_report = [&](size_t end, size_t start) {
    return static_cast<double>(end - start) / n;
  };

  Report& e2e = out.end_to_end;
  e2e.Add("setup_s", setup_s.Median(), "s", setup_s.size(), setup_wall.Median());
  Report& sink = options.trace ? out.layers : e2e;
  const std::string prefix = options.trace ? "trace." : "";
  // The report and the update are core-bound work (joins, grouping,
  // compaction), so they are given at the reference speed, by the window's
  // gauge median (see GaugeNs). A report is long next to the gauge readings
  // around it, so one factor for the window is steadier than one per
  // report. CountEqual and the range query wait mostly on the L3 and on
  // page copies, which do not follow the core's speed: when the gauge ran
  // 29% faster they ran 12% and 7% faster. Scaling them would add the
  // gauge's swing instead of removing the host's, so they stay wall-clock.
  enum class Scale { kTime, kRate, kNone };
  const double factor = kGaugeReferenceNs / gauge_ns.Median();
  auto add = [&](const char* name, const Samples& samples, double p,
                 const char* unit, Scale how) {
    const std::optional<double> wall = samples.Percentile(p);
    if (!wall) {
      sink.Note(prefix + name + ": not reported, " + std::to_string(samples.size()) +
                " samples leave fewer than 10 beyond the percentile");
    } else if (how == Scale::kNone) {
      sink.Add(prefix + name, *wall, unit, samples.size());
    } else {
      sink.Add(prefix + name, how == Scale::kRate ? *wall / factor : *wall * factor,
               unit, samples.size(), wall);
    }
  };
  add("read_keys_per_s", keys_per_s, 50, "keys/s", Scale::kRate);
  add("point_p50_us", point_us, 50, "us", Scale::kNone);
  add("point_p99_us", point_us, 99, "us", Scale::kNone);
  add("range_p50_us", range_us, 50, "us", Scale::kNone);
  add("cycle_p50_ms", report_ms, 50, "ms", Scale::kTime);
  add("publish_p50_ms", update_ms, 50, "ms", Scale::kTime);
  if (!options.trace) {
    e2e.AddPercentile("olap_report_p50_ms", report_ms, 50, "ms");
    e2e.AddPercentile("olap_report_p90_ms", report_ms, 90, "ms");
    e2e.AddPercentile("olap_update_p50_ms", update_ms, 50, "ms");
    return out;
  }
  Report& l = out.layers;
  l.Add("engine.select_range_ms", select_range_ms.Median(), "ms", select_range_ms.size());
  l.Add("engine.aggregate_ms", aggregate_ms.Median(), "ms", aggregate_ms.size());
  l.Add("engine.indexed_join_ms", join_ms.Median(), "ms", join_ms.size());
  l.Add("engine.group_by_ms", group_ms.Median(), "ms", group_ms.size());
  l.Add("engine.count_equal_us", point_us.Median(), "us", point_us.size());
  l.Add("engine.select_equal_str_ms", select_str_ms.Median(), "ms", select_str_ms.size());
  l.Add("engine.append_rows_ms", append_ms.Median(), "ms", append_ms.size());
  l.Add("engine.delete_rows_ms", delete_ms.Median(), "ms", delete_ms.size());
  const size_t pins = pool_end.pins - pool_start.pins;
  l.Add("store.pins", per_report(pool_end.pins, pool_start.pins), "count");
  l.Add("store.hit_rate",
        pins > 0 ? static_cast<double>(pool_end.hits - pool_start.hits) /
                       static_cast<double>(pins)
                 : 0,
        "ratio");
  l.Add("store.faults", per_report(pool_end.faults, pool_start.faults), "count");
  l.Add("store.evictions", per_report(pool_end.evictions, pool_start.evictions),
        "count");
  l.Add("store.spill_reads", per_report(pool_end.spill_reads, pool_start.spill_reads),
        "count");
  l.Add("store.spill_writes",
        per_report(pool_end.spill_writes, pool_start.spill_writes), "count");
  const double spill_bytes =
      static_cast<double>((pool_end.spill_reads - pool_start.spill_reads) +
                          (pool_end.spill_writes - pool_start.spill_writes)) *
      static_cast<double>(kPageBytes);
  l.Add("store.spill_bytes_per_user_byte",
        spill_bytes / n / (static_cast<double>(kOrders) * 3 * sizeof(uint32_t)),
        "ratio");
  l.Add("external_build.build_s", external_s.Median(), "s", external_s.size());
  l.Add("external_build.runs", static_cast<double>(tables.external_runs), "count");
  l.Add("any_index.space_bytes_per_key",
        static_cast<double>(orders.GetSortIndex("day").SpaceBytes()) /
            static_cast<double>(orders.NumRows()),
        "B/key");
  WriteSpansOrNote(options.out_dir + "/spans-olap_paged-seed" +
                       std::to_string(options.seed) + ".jsonl",
                   {&spans}, options, &out.end_to_end);
  return out;
}

}  // namespace perfbench
