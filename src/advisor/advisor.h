#ifndef CSSIDX_ADVISOR_ADVISOR_H_
#define CSSIDX_ADVISOR_ADVISOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/index_spec.h"
#include "core/probe_stats.h"

// The self-tuning advisor: observed workload × the paper's §5 analytic
// models. §7's stepped space/time line "basically tells us how to find the
// optimal searching time for a given amount of space" — this layer walks
// that line automatically. A WorkloadProfile (from ProbeStatsCollector)
// says what the traffic looks like: point vs range mix, hit ratio, batch
// sizes, update rate and locality. The §5 models (analytic::TimeModel /
// SpaceModel) say what each spec on the menu would cost in cache misses,
// comparisons, and bytes. The advisor combines the two into one modeled
// ns/probe per candidate — probe cost weighted by the observed mix, plus
// maintenance cost amortized over observed probes — filters by the space
// budget, and ranks. Optionally the top candidates are micro-benchmarked
// on real keys with a workload replayed from the profile to break analytic
// ties (model weights are calibrated once, not per machine).
//
// The advisor only reads snapshots and counters; applying a
// recommendation is the caller's business (the serving layer hot-swaps
// through MaintainedIndex::RebuildWithSpec behind a flag).

namespace cssidx::advisor {

struct AdvisorOptions {
  /// Index bytes beyond the sorted key array; 0 = unlimited.
  uint64_t space_budget_bytes = 0;
  /// 4 or 8. Candidates are generated at this width (hash is 4-only).
  int key_width = 4;
  /// Keep hash off the menu even if the observed mix would allow it —
  /// for callers that also serve ordered scans the collector can't see.
  bool need_ordered_access = false;
  /// Micro-benchmark the top `microbench_top` model candidates on real
  /// keys (AdviseOnKeys only) and re-rank those by measured ns/probe.
  bool microbench = false;
  int microbench_top = 2;
  size_t microbench_probes = 1 << 16;
  int microbench_repeats = 3;

  // Cost weights, ns. Calibrated to a generic ~3GHz core; the ranking
  // consumes ratios, so absolute scale barely matters — what matters is
  // miss_ns >> comparison_ns (the paper's whole premise).
  double line_bytes = 64.0;
  double miss_ns = 70.0;
  double comparison_ns = 1.5;
  double move_ns = 2.0;
  /// Per-key cost of the rebuild-on-batch maintenance path: sorted-list
  /// merge (one block copy of the array per batch event) plus a
  /// sequential directory rebuild (the CSS case) — measured 0.5-1.0 ns/key
  /// for css:16 at 100K-4M 4-byte keys on a 4-core AVX2 box. Pointer
  /// structures (T-tree) and hash chains rebuild by random access and pay
  /// a method multiplier on top of this inside ScoreSpec.
  double rebuild_ns_per_key = 1.0;
};

struct ScoredSpec {
  IndexSpec spec;
  /// Modeled ns per probe: probe_ns + amortized update_ns. The ranking
  /// key (or measured_ns when the microbench ran).
  double cost_ns = 0.0;
  double probe_ns = 0.0;
  double update_ns = 0.0;
  double space_bytes = 0.0;
  bool over_budget = false;
  /// Microbenched ns/probe; negative when not measured.
  double measured_ns = -1.0;
};

struct Recommendation {
  bool ok = false;
  std::string error;
  /// The winning spec (valid only when ok).
  IndexSpec spec;
  /// Every in-budget candidate, best first.
  std::vector<ScoredSpec> ranked;
  /// Candidates rejected by the space budget, for reporting.
  std::vector<ScoredSpec> over_budget;
  WorkloadProfile profile;
  /// One paragraph of why, for ADVISE output and CLIs.
  std::string rationale;
};

/// The candidate menu at `opts.key_width`: every method × node-size on the
/// spec menu, hash directory sweeps, and part:K wraps. Every returned spec
/// satisfies OnMenu().
std::vector<IndexSpec> CandidateMenu(const AdvisorOptions& opts);

/// Models one candidate against the profile (no building, pure math).
/// `n` is the indexed key count.
ScoredSpec ScoreSpec(const IndexSpec& spec, const WorkloadProfile& profile,
                     size_t n, const AdvisorOptions& opts);

/// Model-only recommendation over CandidateMenu.
Recommendation Advise(const WorkloadProfile& profile, size_t n,
                      const AdvisorOptions& opts);

/// As Advise, with the real sorted keys available: when opts.microbench is
/// set, the top model candidates are built and timed on a probe stream
/// replayed from the profile (hit ratio, range mix), and re-ranked by
/// measurement. KeyT is Key or Key64 and must match opts.key_width.
template <typename KeyT>
Recommendation AdviseOnKeys(const WorkloadProfile& profile,
                            std::span<const KeyT> sorted_keys,
                            const AdvisorOptions& opts);

}  // namespace cssidx::advisor

#endif  // CSSIDX_ADVISOR_ADVISOR_H_
