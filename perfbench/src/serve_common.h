#ifndef PERFBENCH_SERVE_COMMON_H_
#define PERFBENCH_SERVE_COMMON_H_

// The client side shared by the two serving workloads (hot_serve and
// cold_rw): a pool of preformatted statements walked by two closed-loop
// readers, an open-loop write producer, and the traced layer ladder.

#include <bitset>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/any_index.h"
#include "core/css_tree.h"
#include "core/maintained_index.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

/// Keys per FIND / COUNT statement in both serving workloads.
inline constexpr size_t kBatchKeys = 256;

enum class StmtKind { kFindU32, kFindU64, kCountStr, kRange };

struct PooledStatement {
  std::string text;
  StmtKind kind = StmtKind::kFindU32;
  uint32_t keys = 0;  // keys the statement resolves (RANGE: 2 bounds)
};

/// The pool is a sequence of fixed-length cycles; a reader walks it from
/// an offset, wrapping, one cycle at a time.
struct StatementPool {
  std::vector<PooledStatement> statements;
  size_t cycle_len = 1;
};

/// What the traced run needs to time the layers under the server: the
/// raw L0 kernel and, for part:K tables, a pinned part:K version plus a
/// bare index over the same keys (L2 routing = the difference).
struct LadderTargets {
  std::string table64;  // the 8-byte table the kernel rows refer to
  std::unique_ptr<cssidx::BasicCssTree<uint64_t, 16, 17>> kernel64;
  std::shared_ptr<const cssidx::MaintainedIndex64::Version> pinned_part;
  cssidx::AnyIndex64 bare64;
};

/// The traffic of one serving workload: two readers walking `pool`, and
/// one producer that, `ticks_per_s` times a second, INSERTs `write_batch`
/// keys above the write table's maximum and DELETEs its `write_batch`
/// oldest. Row j of the write table holds `write_key(j)`; rows
/// [0, write_rows) exist at the start.
struct ServeTraffic {
  const StatementPool* pool = nullptr;
  std::string write_table;
  bool write_table_64 = false;  // 8-byte keys (else 4-byte)
  double ticks_per_s = 0;
  uint32_t write_batch = 0;
  uint64_t write_rows = 0;
  std::function<uint64_t(uint64_t)> write_key;
  const LadderTargets* ladder = nullptr;  // traced runs only
};

/// What the after-the-window check needs of one sampled read result. The
/// readers keep this in place of the result itself, so the memory held
/// for checks stays small next to the library's own.
struct ResultDigest {
  bool ok = false;
  size_t size = 0;                  // positions (FIND) or counts (COUNT)
  uint64_t hash = 0;                // ResultHash(positions, counts)
  std::bitset<kBatchKeys> present;  // FIND: positions[i] >= 0
  size_t range_begin = 0, range_end = 0;
  uint64_t count = 0;
};

uint64_t ResultHash(const std::vector<int64_t>& positions,
                    const std::vector<size_t>& counts);
ResultDigest Digest(const cssidx::serve::StatementResult& result);

/// Checks one sampled read result against the workload's oracle.
using ReadCheck =
    std::function<void(const PooledStatement&, const ResultDigest&, Checker*)>;

/// The client side of one serving run: two closed-loop readers and one
/// open-loop producer.
class ServeWindow {
 public:
  /// Formats the producer's statements and allocates, and touches, every
  /// buffer the window fills: latency samples, kept result digests and,
  /// in a traced run, span logs. Construct it before set-up, so the
  /// peak-RSS baseline already holds all of it. `traffic.ladder` may point
  /// at targets that are filled in later, before Run.
  ServeWindow(const ServeTraffic& traffic, const Options& options);
  ~ServeWindow();

  /// Runs the readers and the producer through a 0.5 s warm-up and the
  /// window, stops the server, then checks every sampled read with
  /// `check` and the write table's final state, counts operations, marks
  /// an open loop that was not honest invalid, and adds the serving
  /// metrics: the end-to-end ones, or in a traced run their trace.*
  /// copies, the ladder, the writer and maintenance counters, and the
  /// span file.
  void Run(cssidx::serve::Server& server, const ReadCheck& check,
           WorkloadResult* out);

 private:
  struct Clients;
  ServeTraffic traffic_;
  const Options& options_;
  std::unique_ptr<Clients> clients_;
};

/// Formats "VERB table k1 k2 ..." from numeric keys.
std::string FormatKeys(const char* verb, const std::string& table,
                       const uint64_t* keys, size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_COMMON_H_
