// cold_rw: one 8-byte table far larger than the last-level cache, read by
// two closed-loop Sessions with keys drawn uniformly over the whole domain
// (every probe misses the caches, so the L0/L1 kernels and L2 routing
// carry the read cost), while one open-loop producer appends recent keys
// and retires the oldest at a fixed rate (the L3 snapshot refresh, the
// UpdateQueue and writer coalescing carry the write cost). Reads and
// writes compete for memory bandwidth here, so a write-path gain that
// costs reads shows up.
//
// Keys are a function of their index (key(i) = base + 64 i + jitter), so
// the oracle needs no copy of the table: membership, range counts and the
// final state after Stop() are all computed from the formula.

#include <algorithm>
#include <memory>

#include "core/builder.h"
#include "core/index_spec.h"
#include "serve/statement.h"
#include "serve_common.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cssidx::IndexSpec;
using cssidx::serve::Server;
using cssidx::serve::StatementResult;

constexpr uint64_t kRows = 48ull << 20;     // 48M keys, 384 MiB of keys
constexpr uint64_t kBase = 1ull << 32;      // keys sit above 2^32
constexpr uint32_t kWriteBatch = 128;       // keys per INSERT / DELETE
// Ticks per second of the producer. Each publish refreshes two of the
// eight shards but copies the whole merged key array, about half a second
// per writer cycle on a 4-core box, and coalescing folds every tick that
// arrives meanwhile into that one publish. 10 ticks/s keeps the queue far
// from its 64-slot capacity (about 10 statements wait per cycle), so the
// loop never blocks; the run is marked invalid if it ever does.
constexpr double kTicksPerS = 10;
constexpr size_t kCycleLen = 16;            // 15 FIND + 1 RANGE
// 3072 cycles * 15 FINDs * 256 keys = 11.8M distinct probe keys: their
// leaf lines (~750 MB) exceed the shared L3, so re-walking the pool stays
// cold.
constexpr size_t kPoolCycles = 3072;
constexpr uint64_t kRangeValueSpan = 1024 * 64;  // about 1K keys
constexpr int kSetups = 3;
constexpr const char* kTable = "cold";

class KeyFormula {
 public:
  explicit KeyFormula(uint64_t seed) : salt_(Mix64(seed ^ 0xc01d)) {}
  uint64_t Key(uint64_t i) const { return kBase + i * 64 + (Mix64(salt_ ^ i) & 63); }
  bool IsKey(uint64_t x) const {
    return x >= kBase && Key((x - kBase) / 64) == x;
  }
  /// Index of the first key >= x, over the unbounded key sequence.
  uint64_t LowerBound(uint64_t x) const {
    if (x <= kBase) return 0;
    const uint64_t i = (x - kBase) / 64;
    return i + (Key(i) < x ? 1 : 0);
  }

 private:
  uint64_t salt_;
};

/// The never-updated middle band: the producer deletes from the bottom and
/// inserts above the top, far from these keys in any run.
struct Band {
  uint64_t lo, hi;  // values [lo, hi)
  bool Contains(uint64_t x) const { return x >= lo && x < hi; }
};

std::unique_ptr<Server> BuildServer(const KeyFormula& f, double* seconds) {
  std::vector<uint64_t> keys(kRows);
  for (uint64_t i = 0; i < kRows; ++i) keys[i] = f.Key(i);
  const int64_t t0 = NowNs();
  auto server = std::make_unique<Server>();
  server->CreateTable64(kTable, std::move(keys),
                        *IndexSpec::Parse("part:8/css64:16"));
  server->Start();
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return server;
}

StatementPool BuildPool(const KeyFormula& f, uint64_t seed) {
  cssidx::Pcg32 rng(seed, 0xf00d);
  StatementPool pool;
  pool.cycle_len = kCycleLen;
  pool.statements.reserve(kPoolCycles * kCycleLen);
  std::vector<uint64_t> keys(kBatchKeys);
  for (size_t c = 0; c < kPoolCycles; ++c) {
    for (size_t j = 0; j + 1 < kCycleLen; ++j) {
      // Half the keys are present, half are uniform values (mostly absent).
      for (size_t i = 0; i < kBatchKeys; ++i) {
        keys[i] = rng.Below(2) == 0
                      ? f.Key(rng.Below(static_cast<uint32_t>(kRows)))
                      : kBase + rng.Below(static_cast<uint32_t>(kRows * 64));
      }
      pool.statements.push_back({FormatKeys("FIND", kTable, keys.data(), kBatchKeys),
                                 StmtKind::kFindU64, kBatchKeys});
    }
    const uint64_t lo = kBase + rng.Below(static_cast<uint32_t>((kRows - 4096) * 64));
    const uint64_t bounds[2] = {lo, lo + kRangeValueSpan};
    std::string text = "RANGE ";
    text += kTable;
    for (uint64_t b : bounds) {
      text += ' ';
      AppendUint(text, b);
    }
    pool.statements.push_back({std::move(text), StmtKind::kRange, 2});
  }
  return pool;
}

/// Checks one sampled answer against the formula, for keys in the band.
void CheckAnswer(const KeyFormula& f, const Band& band,
                 const PooledStatement& st, const ResultDigest& r,
                 Checker* checker) {
  if (!r.ok) {
    checker->Expect(false, "cold_rw: statement failed");
    return;
  }
  std::optional<cssidx::serve::Statement> parsed =
      cssidx::serve::ParseStatement(st.text);
  if (!parsed) {
    checker->Expect(false, "cold_rw: pooled statement does not parse");
    return;
  }
  if (st.kind == StmtKind::kRange) {
    if (!band.Contains(parsed->lo) || !band.Contains(parsed->hi)) return;
    checker->Expect(r.count == f.LowerBound(parsed->hi) - f.LowerBound(parsed->lo),
                    "cold_rw: wrong RANGE count in the middle band");
    return;
  }
  bool ok = r.size == parsed->keys.size();
  for (size_t i = 0; ok && i < parsed->keys.size(); ++i) {
    const uint64_t k = parsed->keys[i];
    if (band.Contains(k)) ok = r.present[i] == f.IsKey(k);
  }
  checker->Expect(ok, "cold_rw: wrong FIND membership in the middle band");
}

}  // namespace

std::string ColdRwCheckerSelfTest() {
  const KeyFormula f(1);
  const Band band{f.Key(0), f.Key(1000)};
  const uint64_t keys[2] = {f.Key(10), f.Key(10) + 1};
  PooledStatement st{FormatKeys("FIND", kTable, keys, 2), StmtKind::kFindU64, 2};
  StatementResult r;
  r.positions = {10, 11};  // the second key is absent: corrupted answer
  Checker checker;
  CheckAnswer(f, band, st, Digest(r), &checker);
  r.positions = {10, -1};
  CheckAnswer(f, band, st, Digest(r), &checker);
  return checker.failed() == 1 ? "" : "cold_rw checker missed a corrupted FIND";
}

WorkloadResult RunColdRw(const Options& options) {
  WorkloadResult out;
  const KeyFormula f(options.seed);
  const Band band{f.Key(kRows / 4), f.Key(3 * kRows / 4)};
  const StatementPool pool = BuildPool(f, options.seed);

  LadderTargets targets;  // filled in after set-up, traced runs only
  ServeTraffic traffic;
  traffic.pool = &pool;
  traffic.write_table = kTable;
  traffic.write_table_64 = true;
  traffic.ticks_per_s = kTicksPerS;
  traffic.write_batch = kWriteBatch;
  traffic.write_rows = kRows;
  traffic.write_key = [&f](uint64_t j) { return f.Key(j); };
  traffic.ladder = options.trace ? &targets : nullptr;
  ServeWindow window(traffic, options);
  out.rss_baseline_mib = ResidentMib();

  // Set-up copies and builds over 384 MiB of keys: memory-bound work that
  // does not follow the gauge's core speed, so setup_s stays wall-clock.
  Samples setup_s;
  std::unique_ptr<Server> server;
  for (int i = 0; i < kSetups; ++i) {
    double s = 0;
    server.reset();
    server = BuildServer(f, &s);
    setup_s.Add(s);
  }
  out.end_to_end.Add("setup_s", setup_s.Median(), "s", setup_s.size());

  // Traced run only: the raw kernel and a bare css64:16 over the keys of
  // a pinned part:8 version, so L0 and L2 can be timed on the same data.
  if (options.trace) {
    targets.table64 = kTable;
    targets.pinned_part = server->TableSnapshot64(kTable);
    const std::vector<uint64_t>& keys = targets.pinned_part->keys();
    targets.kernel64 = std::make_unique<cssidx::BasicCssTree<uint64_t, 16, 17>>(
        keys.data(), keys.size());
    targets.bare64 = cssidx::BuildIndex64(*IndexSpec::Parse("css64:16"), keys.data(),
                                          keys.size());
  }

  window.Run(
      *server,
      [&](const PooledStatement& st, const ResultDigest& r, Checker* c) {
        CheckAnswer(f, band, st, r, c);
      },
      &out);

  if (options.trace) {
    out.layers.Add("any_index.space_bytes_per_key",
                   static_cast<double>(targets.pinned_part->index().SpaceBytes()) /
                       static_cast<double>(kRows),
                   "B/key");
  }
  return out;
}

}  // namespace perfbench
