// hot_serve: read-only closed loop over three cache-resident tables, one
// per table kind (4-byte, 8-byte, string), through two Sessions. With
// caches warm, statement parsing and Session overhead are about half of
// Execute, so this is where serve-layer work shows and kernels barely
// matter. A 20 Hz write trickle into a separate 64K-key table, which no
// read touches, gives the publish metric its value here: the write path's
// fixed cost without a large rebuild behind it.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/index_spec.h"
#include "serve_common.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cssidx::IndexSpec;
using cssidx::serve::Server;
using cssidx::serve::StatementResult;

constexpr size_t kRows = 256 * 1024;        // rows per read table
constexpr size_t kStrValues = 32 * 1024;    // distinct strings in tstr
constexpr size_t kSideRows = 64 * 1024;     // trickle table
constexpr uint32_t kSideBatch = 16;         // keys per trickle statement
constexpr double kSideTicksPerS = 20;
constexpr size_t kPoolCycles = 512;
constexpr size_t kRangeSpan = 1024;
constexpr int kSetups = 5;

struct HotData {
  std::vector<uint32_t> k32;  // sorted, distinct
  std::vector<uint64_t> k64;  // sorted, distinct
  std::vector<std::string> str_values;  // distinct, sorted
  std::vector<uint32_t> str_rows;       // value index per row
  std::vector<size_t> str_counts;       // rows per value index
};

uint64_t SideKey(uint64_t j) { return j * 4 + 1; }

HotData Generate(uint64_t seed) {
  cssidx::Pcg32 rng(seed, 0x407);
  HotData d;
  d.k32.resize(kRows);
  d.k64.resize(kRows);
  // Row i owns one slot of width 2^32/kRows (2^64/kRows): sorted and
  // distinct by construction, spread over the whole key width.
  for (size_t i = 0; i < kRows; ++i) {
    d.k32[i] = static_cast<uint32_t>(i * 16384 + rng.Below(16384));
    d.k64[i] = (static_cast<uint64_t>(i) << 46) | (rng.Next64() >> 18);
  }
  d.str_values.resize(kStrValues);
  for (size_t v = 0; v < kStrValues; ++v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%08llx%05zu",
                  static_cast<unsigned long long>(Mix64(seed * 31 + v) >> 32),
                  v);
    d.str_values[v] = buf;
  }
  std::sort(d.str_values.begin(), d.str_values.end());
  d.str_rows.resize(kRows);
  d.str_counts.assign(kStrValues, 0);
  for (size_t i = 0; i < kRows; ++i) {
    d.str_rows[i] = rng.Below(kStrValues);
    ++d.str_counts[d.str_rows[i]];
  }
  return d;
}

std::unique_ptr<Server> BuildServer(const HotData& d, double* seconds) {
  // Inputs are copied before the clock starts: construction is timed,
  // input generation is not.
  std::vector<uint32_t> k32 = d.k32;
  std::vector<uint64_t> k64 = d.k64;
  std::vector<std::string> strs;
  strs.reserve(kRows);
  for (uint32_t v : d.str_rows) strs.push_back(d.str_values[v]);
  std::vector<uint32_t> side(kSideRows);
  for (size_t j = 0; j < kSideRows; ++j) side[j] = static_cast<uint32_t>(SideKey(j));
  const IndexSpec css16 = *IndexSpec::Parse("css:16");
  const int64_t t0 = NowNs();
  auto server = std::make_unique<Server>();
  server->CreateTable("t32", std::move(k32), css16);
  server->CreateTable64("t64", std::move(k64), *IndexSpec::Parse("css64:16"));
  server->CreateStringTable("tstr", std::move(strs), css16);
  server->CreateTable("tside", std::move(side), css16);
  server->Start();
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return server;
}

/// The answer the benchmark's own sorted copy gives for one statement.
struct Expected {
  std::vector<int64_t> positions;  // FIND
  std::vector<size_t> counts;      // COUNT
  uint64_t count = 0;              // COUNT total / RANGE size
  size_t begin = 0, end = 0;       // RANGE
};

template <typename KeyT>
int64_t OraclePosition(const std::vector<KeyT>& sorted, KeyT k) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), k);
  return it != sorted.end() && *it == k ? it - sorted.begin() : -1;
}

void BuildPool(const HotData& d, uint64_t seed, StatementPool* pool,
               std::vector<Expected>* expected) {
  cssidx::Pcg32 rng(seed, 0x9001);
  pool->cycle_len = 4;
  std::vector<uint64_t> keys(kBatchKeys);
  for (size_t c = 0; c < kPoolCycles; ++c) {
    {  // FIND t32: 9 in 10 keys present.
      Expected e;
      for (size_t i = 0; i < kBatchKeys; ++i) {
        const uint32_t k = rng.Below(10) < 9 ? d.k32[rng.Below(kRows)] : rng.Next();
        keys[i] = k;
        e.positions.push_back(OraclePosition(d.k32, k));
      }
      pool->statements.push_back({FormatKeys("FIND", "t32", keys.data(), kBatchKeys),
                                  StmtKind::kFindU32, kBatchKeys});
      expected->push_back(std::move(e));
    }
    {  // FIND t64
      Expected e;
      for (size_t i = 0; i < kBatchKeys; ++i) {
        const uint64_t k = rng.Below(10) < 9 ? d.k64[rng.Below(kRows)] : rng.Next64();
        keys[i] = k;
        e.positions.push_back(OraclePosition(d.k64, k));
      }
      pool->statements.push_back({FormatKeys("FIND", "t64", keys.data(), kBatchKeys),
                                  StmtKind::kFindU64, kBatchKeys});
      expected->push_back(std::move(e));
    }
    {  // COUNT tstr: absent values ("z..." is outside the hex alphabet).
      Expected e;
      std::string text = "COUNT tstr";
      for (size_t i = 0; i < kBatchKeys; ++i) {
        text += ' ';
        if (rng.Below(10) < 9) {
          const uint32_t v = rng.Below(kStrValues);
          text += d.str_values[v];
          e.counts.push_back(d.str_counts[v]);
        } else {
          text += "zz";
          AppendUint(text, rng.Next());
          e.counts.push_back(0);
        }
        e.count += e.counts.back();
      }
      pool->statements.push_back({std::move(text), StmtKind::kCountStr, kBatchKeys});
      expected->push_back(std::move(e));
    }
    {  // RANGE t32 over about 1K keys.
      Expected e;
      const size_t span = kRangeSpan + rng.Below(128);
      e.begin = rng.Below(static_cast<uint32_t>(kRows - span));
      e.end = e.begin + span;
      e.count = span;
      std::string text = "RANGE t32 ";
      AppendUint(text, d.k32[e.begin]);
      text += ' ';
      AppendUint(text, d.k32[e.end]);
      pool->statements.push_back({std::move(text), StmtKind::kRange, 2});
      expected->push_back(std::move(e));
    }
  }
}

bool AnswerMatches(StmtKind kind, const Expected& e, const ResultDigest& r) {
  if (!r.ok) return false;
  switch (kind) {
    case StmtKind::kFindU32:
    case StmtKind::kFindU64:
      return r.size == e.positions.size() &&
             r.hash == ResultHash(e.positions, {});
    case StmtKind::kCountStr:
      return r.size == e.counts.size() && r.hash == ResultHash({}, e.counts) &&
             r.count == e.count;
    case StmtKind::kRange:
      return r.range_begin == e.begin && r.range_end == e.end &&
             r.count == e.count;
  }
  return false;
}

}  // namespace

std::string HotServeCheckerSelfTest() {
  Checker checker;
  Expected e;
  e.positions = {3, -1, 7};
  StatementResult r;
  r.positions = {3, -1, 8};  // one corrupted position
  checker.Expect(AnswerMatches(StmtKind::kFindU32, e, Digest(r)), "corrupted FIND");
  r.positions = e.positions;
  checker.Expect(AnswerMatches(StmtKind::kFindU32, e, Digest(r)), "intact FIND");
  return checker.failed() == 1 ? "" : "hot_serve checker missed a corrupted FIND";
}

WorkloadResult RunHotServe(const Options& options) {
  WorkloadResult out;
  const HotData data = Generate(options.seed);
  StatementPool pool;
  std::vector<Expected> expected;
  BuildPool(data, options.seed, &pool, &expected);

  LadderTargets targets;  // filled in after set-up, traced runs only
  ServeTraffic traffic;
  traffic.pool = &pool;
  traffic.write_table = "tside";
  traffic.ticks_per_s = kSideTicksPerS;
  traffic.write_batch = kSideBatch;
  traffic.write_rows = kSideRows;
  traffic.write_key = SideKey;
  traffic.ladder = options.trace ? &targets : nullptr;
  ServeWindow window(traffic, options);
  out.rss_baseline_mib = ResidentMib();

  // Set-up here is core-bound (string sort, dictionary, tree builds), so
  // each is given at the reference speed by a gauge reading just before it.
  Samples setup_s, setup_wall;
  std::unique_ptr<Server> server;
  for (int i = 0; i < kSetups; ++i) {
    const double gauge = GaugeMedianNs(kSetupGaugePasses);
    double s = 0;
    server.reset();
    server = BuildServer(data, &s);
    setup_wall.Add(s);
    setup_s.Add(s * kGaugeReferenceNs / gauge);
  }
  out.end_to_end.Add("setup_s", setup_s.Median(), "s", setup_s.size(),
                     setup_wall.Median());

  auto t64_snapshot = server->TableSnapshot64("t64");  // t64 never changes
  if (options.trace) {
    targets.table64 = "t64";
    targets.kernel64 = std::make_unique<cssidx::BasicCssTree<uint64_t, 16, 17>>(
        t64_snapshot->keys().data(), t64_snapshot->keys().size());
  }

  const PooledStatement* first = pool.statements.data();
  window.Run(
      *server,
      [&](const PooledStatement& st, const ResultDigest& r, Checker* c) {
        c->Expect(AnswerMatches(st.kind, expected[static_cast<size_t>(&st - first)], r),
                  "hot_serve: wrong answer to '" + st.text.substr(0, 40) + "...'");
      },
      &out);

  if (options.trace) {
    size_t bytes = t64_snapshot->index().SpaceBytes();
    for (const char* t : {"t32", "tstr"}) {
      bytes += server->TableSnapshot(t)->index().SpaceBytes();
    }
    out.layers.Add("any_index.space_bytes_per_key",
                   static_cast<double>(bytes) / (3.0 * kRows), "B/key");
  }
  return out;
}

}  // namespace perfbench
