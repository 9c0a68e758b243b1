#include "serve_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <thread>
#include <utility>

#include "serve/statement.h"

namespace perfbench {

using cssidx::serve::Server;
using cssidx::serve::Session;
using cssidx::serve::StatementResult;

std::string FormatKeys(const char* verb, const std::string& table,
                       const uint64_t* keys, size_t n) {
  std::string text = verb;
  text += ' ';
  text += table;
  for (size_t i = 0; i < n; ++i) {
    text += ' ';
    AppendUint(text, keys[i]);
  }
  return text;
}

uint64_t ResultHash(const std::vector<int64_t>& positions,
                    const std::vector<size_t>& counts) {
  uint64_t h = Mix64(positions.size());
  for (int64_t p : positions) h = Mix64(h ^ static_cast<uint64_t>(p));
  h = Mix64(h ^ counts.size());
  for (size_t c : counts) h = Mix64(h ^ c);
  return h;
}

ResultDigest Digest(const StatementResult& result) {
  ResultDigest d;
  d.ok = result.ok();
  d.size = std::max(result.positions.size(), result.counts.size());
  d.hash = ResultHash(result.positions, result.counts);
  for (size_t i = 0; i < result.positions.size() && i < kBatchKeys; ++i) {
    d.present[i] = result.positions[i] >= 0;
  }
  d.range_begin = result.range_begin;
  d.range_end = result.range_end;
  d.count = result.count;
  return d;
}

namespace {

constexpr int kNumKinds = 4;

/// The window is cut into blocks of this length. Each timed metric is
/// taken per block and scaled by that block's gauge median, and the median
/// over blocks is reported: a host that changes speed, or a burst of
/// interference, inside the run then moves one block, not the run.
constexpr int64_t kBlockNs = 1'000'000'000;

/// A reader's buffer sizes when a block closed, so block b of the buffers
/// is [marks[b-1], marks[b]). Blocks close at cycle ends.
struct BlockMark {
  size_t latency_end[kNumKinds] = {};
  size_t cycle_end = 0;
  size_t gauge_end = 0;
  uint64_t keys = 0;  // keys resolved by the end of the block
};

struct ReaderResult {
  Samples latency_us[kNumKinds];
  Samples cycle_ms;
  Samples gauge_ns;  // one GaugeNs() after each cycle
  std::vector<BlockMark> blocks;
  uint64_t keys = 0;  // keys resolved so far
  uint64_t statements = 0;
  uint64_t not_ok = 0;
  /// Kept for the after-the-window check: (pool index, result digest).
  std::vector<std::pair<size_t, ResultDigest>> sampled;
  SpanLog spans;
};

/// Keep one whole cycle's result digests for the after-the-window check
/// every this often. Sampling by time, not by count, keeps the memory held
/// for checks the same however fast the run goes.
constexpr int64_t kCheckIntervalNs = 50'000'000;

struct ReaderConfig {
  size_t start_cycle = 0;
  int64_t warmup_end_ns = 0;  // run untimed until here
  int64_t window_end_ns = 0;  // then timed until here (cycle boundary)
  /// Traced run: run the ladder for 1 in `ladder_every` point statements.
  size_t ladder_every = 0;
  const LadderTargets* ladder = nullptr;
};

struct ProducerResult {
  Samples publish_ms;           // scheduled send -> visible
  Samples enqueue_us;           // Execute() time of the write statement
  Samples generator_lag_ms;     // actual send of a tick - scheduled
  Samples publish_interval_ms;  // between observed snapshot sequences
  uint64_t writes_sent = 0;
  uint64_t writes_failed = 0;
  uint64_t inserted_keys = 0;  // accepted INSERT keys
  uint64_t deleted_keys = 0;   // accepted DELETE keys
  size_t ticks = 0;
  bool drained = true;              // every accepted write became visible
  double early_publish_ms_p50 = 0;  // first half of the writes
  double late_publish_ms_p50 = 0;   // second half of the writes
};

/// One producer tick, formatted before the window.
struct WriteTick {
  std::string insert;
  std::string erase;
};

const char* LadderRootName(StmtKind kind) {
  switch (kind) {
    case StmtKind::kFindU32: return "ladder.u32";
    case StmtKind::kFindU64: return "ladder.u64";
    case StmtKind::kCountStr: return "ladder.str";
    case StmtKind::kRange: break;
  }
  return "ladder.range";
}

// The layer steps of one ladder. Each step runs on its own pooled
// statement of the same kind (`others`), not on the statement whose
// Execute was just timed: calling the layers one after another on the
// same keys would warm exactly the cache lines the next call reads, and
// hide the miss cost that cold_rw exists to measure. The inputs share one
// distribution, so per-kind means still add up. The kernel, part:K and
// bare structures are probed only here, so each gets one untimed probe on
// yet another statement first: that brings its directory to the state the
// served index's is kept in by live traffic, while the timed keys' own
// lines stay as cold as they are for Execute.
constexpr size_t kLadderInputs = 7;

void LayerSteps(Server& server,
                const PooledStatement* const others[kLadderInputs],
                const LadderTargets* targets, SpanLog& log, int32_t root,
                uint64_t request) {
  const PooledStatement& t = *others[0];
  int32_t id = log.Begin("statement.parse", root, request);
  std::optional<cssidx::serve::Statement> stmt =
      cssidx::serve::ParseStatement(t.text);
  log.End(id);
  if (!stmt) return;
  std::vector<int64_t> positions(stmt->key_tokens.size());
  switch (t.kind) {
    case StmtKind::kFindU32: {
      std::vector<uint32_t> keys(stmt->keys.begin(), stmt->keys.end());
      id = log.Begin("maintained_index.snapshot", root, request);
      auto snap = server.TableSnapshot(stmt->table);
      log.End(id);
      id = log.Begin("any_index.probe", root, request);
      snap->index().FindBatch(keys, positions);
      log.End(id);
      break;
    }
    case StmtKind::kFindU64: {
      id = log.Begin("maintained_index.snapshot", root, request);
      auto snap = server.TableSnapshot64(stmt->table);
      log.End(id);
      id = log.Begin("any_index.probe", root, request);
      snap->index().FindBatch(stmt->keys, positions);
      log.End(id);
      if (targets == nullptr || targets->table64 != stmt->table) break;
      auto parsed = [&](size_t which) {
        return cssidx::serve::ParseStatement(others[which]->text)->keys;
      };
      // One untimed probe on others[warm], then the timed one on
      // others[timed].
      auto time_probe = [&](const char* name, size_t warm, size_t timed,
                            auto&& probe) {
        probe(parsed(warm));
        const std::vector<uint64_t> keys = parsed(timed);
        const int32_t span = log.Begin(name, root, request);
        probe(keys);
        log.End(span);
      };
      if (targets->kernel64) {
        time_probe("kernel.find", 1, 2, [&](const std::vector<uint64_t>& k) {
          targets->kernel64->FindBatch(k, positions);
        });
      }
      if (targets->pinned_part && targets->bare64) {
        time_probe("part.probe", 3, 4, [&](const std::vector<uint64_t>& k) {
          targets->pinned_part->index().FindBatch(k, positions);
        });
        time_probe("any_index.bare_probe", 5, 6,
                   [&](const std::vector<uint64_t>& k) {
                     targets->bare64.FindBatch(k, positions);
                   });
      }
      break;
    }
    case StmtKind::kCountStr: {
      id = log.Begin("maintained_index.snapshot", root, request);
      auto dom = server.TableDomain(stmt->table);
      auto snap = server.TableSnapshot(stmt->table);
      log.End(id);
      std::vector<uint32_t> ids(stmt->key_tokens.size());
      id = log.Begin("domain.encode", root, request);
      for (size_t i = 0; i < ids.size(); ++i) {
        ids[i] = dom->Encode(stmt->key_tokens[i])
                     .value_or(std::numeric_limits<uint32_t>::max());
      }
      log.End(id);
      std::vector<size_t> counts(ids.size());
      id = log.Begin("any_index.probe", root, request);
      snap->index().CountEqualBatch(ids, counts);
      log.End(id);
      break;
    }
    case StmtKind::kRange:
      break;
  }
}

/// Closed loop: one Session executes the pool's statements back to back
/// until the window ends, timing each Execute.
void RunReader(Server& server, const StatementPool& pool,
               const ReaderConfig& config, ReaderResult* out) {
  Session session = server.OpenSession();
  const std::vector<PooledStatement>& stmts = pool.statements;
  const size_t n = stmts.size();
  const size_t cycle_len = pool.cycle_len;
  size_t pos = (config.start_cycle * cycle_len) % n;
  while (NowNs() < config.warmup_end_ns) {
    for (size_t j = 0; j < cycle_len; ++j) {
      session.Execute(stmts[pos].text);
      pos = (pos + 1) % n;
    }
  }
  // Ladder inputs sit whole eighths of the pool away, so they keep the
  // statement's kind and are not the statements executed next.
  const size_t stride = std::max<size_t>(1, n / cycle_len / 8) * cycle_len;
  const bool tracing = config.ladder_every > 0;
  uint64_t ladder_counter = 0;
  uint64_t request = 0;

  int64_t cycle_start = NowNs();
  int64_t next_check = cycle_start;
  while (true) {
    const bool check = cycle_start >= next_check;
    if (check) next_check += kCheckIntervalNs;
    for (size_t j = 0; j < cycle_len; ++j) {
      const PooledStatement& st = stmts[pos];
      const bool ladder = tracing && st.kind != StmtKind::kRange &&
                          ladder_counter++ % config.ladder_every == 0;
      int32_t root = -1;
      int32_t exec = -1;
      if (ladder) {
        root = out->spans.Begin(LadderRootName(st.kind), -1, request);
        exec = out->spans.Begin("session.execute", root, request);
      }
      const int64_t t0 = NowNs();
      StatementResult result = session.Execute(st.text);
      const int64_t t1 = NowNs();
      if (ladder) out->spans.End(exec);
      out->latency_us[static_cast<int>(st.kind)].Add(
          static_cast<double>(t1 - t0) / 1e3);
      out->keys += st.keys;
      ++out->statements;
      if (!result.ok()) ++out->not_ok;
      if (check) out->sampled.emplace_back(pos, Digest(result));
      if (ladder) {
        const PooledStatement* others[kLadderInputs];
        for (size_t k = 0; k < kLadderInputs; ++k) {
          others[k] = &stmts[(pos + (k + 1) * stride) % n];
        }
        LayerSteps(server, others, config.ladder, out->spans, root, request);
        out->spans.End(root);
        ++request;
      }
      pos = (pos + 1) % n;
    }
    const int64_t now = NowNs();
    out->cycle_ms.Add(static_cast<double>(now - cycle_start) / 1e6);
    if (now >= config.window_end_ns) break;
    out->gauge_ns.Add(GaugeNs());
    const size_t block = static_cast<size_t>((now - config.warmup_end_ns) / kBlockNs);
    while (out->blocks.size() < block) {
      BlockMark& m = out->blocks.emplace_back();
      for (int k = 0; k < kNumKinds; ++k) m.latency_end[k] = out->latency_us[k].size();
      m.cycle_end = out->cycle_ms.size();
      m.gauge_end = out->gauge_ns.size();
      m.keys = out->keys;
    }
    cycle_start = NowNs();
  }
}

/// Open loop: sends ticks[k] at start + k / rate, whatever the server is
/// doing, and times each write from its scheduled send until the writer's
/// batches_applied covers it.
void RunProducer(Server& server, double ticks_per_s, uint32_t batch,
                 const std::vector<WriteTick>& ticks, int64_t start_ns,
                 int64_t end_ns,
                 const std::function<uint64_t()>& table_sequence,
                 ProducerResult* out) {
  Session session = server.OpenSession();
  // The producer is the only writer, so the writer's FIFO batch count
  // says exactly which of its accepted writes are visible.
  const uint64_t base_applied = server.writer_stats().batches_applied;
  struct Pending {
    uint64_t ordinal;
    int64_t scheduled_ns;
  };
  std::deque<Pending> pending;
  std::vector<double> in_order;  // publish latency per write, send order
  uint64_t accepted = 0;
  uint64_t last_seq = table_sequence();
  int64_t last_seq_ns = -1;
  auto poll = [&] {
    const uint64_t applied =
        server.writer_stats().batches_applied - base_applied;
    const int64_t now = NowNs();
    while (!pending.empty() && pending.front().ordinal < applied) {
      const double ms =
          static_cast<double>(now - pending.front().scheduled_ns) / 1e6;
      out->publish_ms.Add(ms);
      in_order.push_back(ms);
      pending.pop_front();
    }
    const uint64_t seq = table_sequence();
    if (seq != last_seq) {
      if (last_seq_ns >= 0) {
        out->publish_interval_ms.Add(static_cast<double>(now - last_seq_ns) /
                                     1e6);
      }
      last_seq = seq;
      last_seq_ns = now;
    }
  };
  auto nap = [](int64_t until_ns) {
    SleepUntilNs(std::min(until_ns, NowNs() + 20'000));
  };

  const double period_ns = 1e9 / ticks_per_s;
  for (size_t k = 0; k < ticks.size(); ++k) {
    const int64_t scheduled =
        start_ns + static_cast<int64_t>(static_cast<double>(k) * period_ns);
    if (scheduled >= end_ns) break;
    while (NowNs() < scheduled) {
      poll();
      nap(scheduled);
    }
    out->generator_lag_ms.Add(static_cast<double>(NowNs() - scheduled) / 1e6);
    for (const bool insert : {true, false}) {
      const int64_t t0 = NowNs();
      StatementResult result =
          session.Execute(insert ? ticks[k].insert : ticks[k].erase);
      const int64_t t1 = NowNs();
      out->enqueue_us.Add(static_cast<double>(t1 - t0) / 1e3);
      ++out->writes_sent;
      if (result.ok()) {
        pending.push_back(Pending{accepted++, scheduled});
        (insert ? out->inserted_keys : out->deleted_keys) += batch;
      } else {
        ++out->writes_failed;
      }
    }
    out->ticks = k + 1;
  }
  // Let every accepted write become visible, so each one gets a latency.
  const int64_t give_up = NowNs() + 60'000'000'000LL;
  while (!pending.empty() && NowNs() < give_up) {
    poll();
    nap(give_up);
  }
  out->drained = pending.empty();
  Samples early, late;
  for (size_t i = 0; i < in_order.size(); ++i) {
    (i < in_order.size() / 2 ? early : late).Add(in_order[i]);
  }
  out->early_publish_ms_p50 = early.Median();
  out->late_publish_ms_p50 = late.Median();
}

/// Why the open loop was not honest (empty if it was): a refused or
/// blocked push, a backlog that grew through the window, or writes still
/// invisible after the drain.
std::string ProducerInvalidReason(const ProducerResult& producer,
                                  const cssidx::serve::QueueStats& queue) {
  if (producer.writes_failed > 0) {
    return std::to_string(producer.writes_failed) + " writes refused";
  }
  if (queue.blocked_pushes > 0 || queue.rejected_batches > 0) {
    return "queue pushed back at this rate (blocked_pushes=" +
           std::to_string(queue.blocked_pushes) +
           ", rejected_batches=" + std::to_string(queue.rejected_batches) +
           ")";
  }
  if (!producer.drained) return "accepted writes never became visible";
  // A writer that keeps up publishes the second half of the writes about
  // as fast as the first; a backlog that grows without bound shows as a
  // late median far above the early one.
  if (producer.late_publish_ms_p50 >
      2.0 * producer.early_publish_ms_p50 + 250.0) {
    return "backlog grew through the window (publish p50 " +
           std::to_string(producer.early_publish_ms_p50) + " ms early vs " +
           std::to_string(producer.late_publish_ms_p50) + " ms late)";
  }
  return "";
}

/// Per-layer metrics from the readers' ladder spans: means per key, so
/// the layer rows plus session.self add up to session.execute exactly.
void AddLadderMetrics(const std::vector<const ReaderResult*>& readers,
                      Report* layers, Report* notes) {
  // Per kind (u32, u64, str): summed span durations per layer.
  struct Sums {
    double execute = 0, parse = 0, snapshot = 0, encode = 0, probe = 0;
    uint64_t ladders = 0;
  } sums[3];
  double kernel = 0, part = 0, bare = 0, gap = 0;
  uint64_t kernel_n = 0, part_n = 0, bare_n = 0, roots = 0, dropped = 0;
  for (const ReaderResult* reader : readers) {
    const std::vector<Span>& spans = reader->spans.spans();
    dropped += reader->spans.dropped();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& root = spans[i];
      if (root.parent != -1) continue;
      int kind = -1;
      if (std::strcmp(root.name, "ladder.u32") == 0) kind = 0;
      if (std::strcmp(root.name, "ladder.u64") == 0) kind = 1;
      if (std::strcmp(root.name, "ladder.str") == 0) kind = 2;
      if (kind < 0 || root.end_ns == 0) continue;
      Sums& s = sums[kind];
      ++s.ladders;
      ++roots;
      double children = 0;
      for (size_t j = i + 1;
           j < spans.size() && spans[j].parent == static_cast<int32_t>(i);
           ++j) {
        const Span& c = spans[j];
        const double d = static_cast<double>(c.end_ns - c.start_ns);
        children += d;
        const std::string_view name = c.name;
        if (name == "session.execute") s.execute += d;
        else if (name == "statement.parse") s.parse += d;
        else if (name == "maintained_index.snapshot") s.snapshot += d;
        else if (name == "domain.encode") s.encode += d;
        else if (name == "any_index.probe") s.probe += d;
        else if (name == "kernel.find") { kernel += d; ++kernel_n; }
        else if (name == "part.probe") { part += d; ++part_n; }
        else if (name == "any_index.bare_probe") { bare += d; ++bare_n; }
      }
      gap += static_cast<double>(root.end_ns - root.start_ns) - children;
    }
  }
  const double keys = static_cast<double>(kBatchKeys);
  const char* suffix[3] = {"u32", "u64", "str"};
  double snapshot_sum = 0;
  uint64_t snapshot_n = 0;
  for (int k = 0; k < 3; ++k) {
    const Sums& s = sums[k];
    const double per = s.ladders > 0 ? 1.0 / (static_cast<double>(s.ladders) * keys) : 0;
    const double self = s.execute - s.parse - s.snapshot - s.encode - s.probe;
    const std::string sfx = suffix[k];
    layers->Add("statement.parse_ns_per_key." + sfx, s.parse * per, "ns", s.ladders);
    layers->Add("any_index.probe_ns_per_key." + sfx, s.probe * per, "ns", s.ladders);
    layers->Add("session.execute_ns_per_key." + sfx, s.execute * per, "ns", s.ladders);
    layers->Add("session.self_ns_per_key." + sfx, self * per, "ns", s.ladders);
    snapshot_sum += s.snapshot;
    snapshot_n += s.ladders;
    if (s.ladders > 0) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "ladder %s (%llu ladders, ns/key): parse %.1f + snapshot "
                    "%.1f + encode %.1f + probe %.1f + session.self %.1f = "
                    "execute %.1f",
                    suffix[k], static_cast<unsigned long long>(s.ladders),
                    s.parse * per, s.snapshot * per, s.encode * per,
                    s.probe * per, self * per, s.execute * per);
      notes->Note(line);
    } else {
      notes->Note(std::string("ladder ") + suffix[k] +
                  ": this workload has no such statements; its rows read 0");
    }
  }
  layers->Add("domain.encode_ns_per_key",
              sums[2].ladders > 0 ? sums[2].encode / (static_cast<double>(sums[2].ladders) * keys) : 0,
              "ns", sums[2].ladders);
  layers->Add("maintained_index.snapshot_ns",
              snapshot_n > 0 ? snapshot_sum / static_cast<double>(snapshot_n) : 0,
              "ns", snapshot_n);
  layers->Add("kernel.find_ns_per_key",
              kernel_n > 0 ? kernel / (static_cast<double>(kernel_n) * keys) : 0,
              "ns", kernel_n);
  const double route = part_n > 0 && bare_n > 0
                           ? (part / static_cast<double>(part_n) -
                              bare / static_cast<double>(bare_n)) / keys
                           : 0;
  layers->Add("part.route_ns_per_key", route, "ns", part_n);
  layers->Add("trace.ladder_gap_ns",
              roots > 0 ? gap / static_cast<double>(roots) : 0, "ns", roots);
  layers->Add("trace.dropped_spans", static_cast<double>(dropped), "count");
}

/// Queue / writer / maintenance counters (read after Server::Stop()).
void AddWriterMetrics(const Server& server, const std::string& write_table,
                      const ProducerResult& producer, Report* layers) {
  const cssidx::serve::QueueStats queue = server.queue_stats();
  const cssidx::serve::ServerStats writer = server.writer_stats();
  const cssidx::MaintenanceStats& maint =
      server.TableMaintenanceStats(write_table);
  layers->AddPercentile("update_queue.enqueue_us_p50", producer.enqueue_us, 50, "us");
  layers->AddPercentile("update_queue.enqueue_us_p90", producer.enqueue_us, 90, "us");
  layers->Add("update_queue.depth_high_water",
              static_cast<double>(queue.depth_high_water), "count");
  layers->Add("update_queue.blocked_pushes",
              static_cast<double>(queue.blocked_pushes), "count");
  layers->Add("update_queue.rejected_batches",
              static_cast<double>(queue.rejected_batches), "count");
  layers->Add("writer.drain_cycles", static_cast<double>(writer.drain_cycles),
              "count");
  layers->Add("writer.groups_published",
              static_cast<double>(writer.groups_published), "count");
  layers->Add("writer.coalesce_ratio",
              queue.enqueued_batches > 0
                  ? static_cast<double>(writer.groups_published) /
                        static_cast<double>(queue.enqueued_batches)
                  : 0,
              "ratio");
  layers->Add("writer.publish_interval_ms_mean",
              producer.publish_interval_ms.Mean(), "ms",
              producer.publish_interval_ms.size());
  layers->Add("maintained_index.shards_rebuilt_per_publish",
              writer.groups_published > 0
                  ? static_cast<double>(maint.shards_rebuilt) /
                        static_cast<double>(writer.groups_published)
                  : 0,
              "count");
  layers->Add("maintained_index.full_rebuilds",
              static_cast<double>(maint.full_rebuilds), "count");
  layers->Add("maintained_index.rebalances",
              static_cast<double>(maint.rebalances), "count");
  layers->Add("client.generator_lag_ms_max", producer.generator_lag_ms.Max(),
              "ms", producer.generator_lag_ms.size());
}

/// The point latency at percentile p: the geometric mean of the point
/// kinds' percentiles (u32, u64, str, whichever the workload sends), so a
/// change in any one kind moves it, by the same share whatever the other
/// kinds' latencies. Pooling the samples instead would let the slowest
/// kind own the tail and hide the fastest one. cold_rw sends one kind: its
/// own percentile. nullopt when a kind sent lacks the samples.
std::optional<double> PointPercentile(const Samples (&by_kind)[kNumKinds],
                                      double p) {
  double log_sum = 0;
  size_t kinds = 0;
  for (StmtKind kind : {StmtKind::kFindU32, StmtKind::kFindU64, StmtKind::kCountStr}) {
    const Samples& s = by_kind[static_cast<int>(kind)];
    if (s.empty()) continue;
    const std::optional<double> v = s.Percentile(p);
    if (!v) return std::nullopt;
    log_sum += std::log(*v);
    ++kinds;
  }
  if (kinds == 0) return std::nullopt;
  return std::exp(log_sum / static_cast<double>(kinds));
}

/// The serving end-to-end metrics from the readers and the producer. The
/// readers' metrics are taken per block at the reference speed (see
/// kBlockNs and GaugeNs), and the median over blocks is reported; the
/// wall-clock statistic over the whole window is printed beside each.
void AddServeEndToEnd(const std::vector<const ReaderResult*>& readers,
                      const ProducerResult& producer, Report* e2e,
                      const std::string& prefix) {
  Samples by_kind[kNumKinds], cycle, gauge;
  size_t blocks = std::numeric_limits<size_t>::max();
  for (const ReaderResult* r : readers) {
    for (int k = 0; k < kNumKinds; ++k) by_kind[k].Append(r->latency_us[k]);
    cycle.Append(r->cycle_ms);
    gauge.Append(r->gauge_ns);
    blocks = std::min(blocks, r->blocks.size());
  }
  constexpr int kRange = static_cast<int>(StmtKind::kRange);
  Samples keys_s, p50, p99, range_p50, cycle_p50;  // per block, reference speed
  Samples keys_wall;                               // per block, wall-clock
  std::string series = "read keys/s by second, wall-clock:";
  for (size_t b = 0; b < blocks; ++b) {
    Samples kinds[kNumKinds], cycles, gauges;
    uint64_t keys = 0;
    for (const ReaderResult* r : readers) {
      const BlockMark none;
      const BlockMark& from = b > 0 ? r->blocks[b - 1] : none;
      const BlockMark& to = r->blocks[b];
      for (int k = 0; k < kNumKinds; ++k) {
        kinds[k].AppendRange(r->latency_us[k], from.latency_end[k], to.latency_end[k]);
      }
      cycles.AppendRange(r->cycle_ms, from.cycle_end, to.cycle_end);
      gauges.AppendRange(r->gauge_ns, from.gauge_end, to.gauge_end);
      keys += to.keys - from.keys;
    }
    const double per_s = static_cast<double>(keys) * 1e9 / static_cast<double>(kBlockNs);
    keys_wall.Add(per_s);
    series += ' ';
    series += std::to_string(static_cast<uint64_t>(per_s / 1000));
    series += 'k';
    if (gauges.empty()) continue;
    // Times scale by `scale`, rates by its inverse.
    const double scale = kGaugeReferenceNs / gauges.Median();
    keys_s.Add(per_s / scale);
    if (auto v = PointPercentile(kinds, 50)) p50.Add(*v * scale);
    if (auto v = PointPercentile(kinds, 99)) p99.Add(*v * scale);
    if (auto v = kinds[kRange].Percentile(50)) range_p50.Add(*v * scale);
    if (auto v = cycles.Percentile(50)) cycle_p50.Add(*v * scale);
  }
  e2e->Note(series);
  size_t point_samples = 0;
  for (StmtKind kind : {StmtKind::kFindU32, StmtKind::kFindU64, StmtKind::kCountStr}) {
    point_samples += by_kind[static_cast<int>(kind)].size();
  }
  // A metric is reported when at least half the blocks support it.
  auto add = [&](const char* name, const Samples& per_block, const char* unit,
                 size_t samples, std::optional<double> wall) {
    if (blocks == 0 || 2 * per_block.size() < blocks) {
      e2e->Note(prefix + name + ": not reported, " + std::to_string(per_block.size()) +
                " of " + std::to_string(blocks) + " one-second blocks have the samples");
      return;
    }
    e2e->Add(prefix + name, per_block.Median(), unit, samples, wall);
  };
  add("read_keys_per_s", keys_s, "keys/s", keys_wall.size(), keys_wall.Median());
  add("point_p50_us", p50, "us", point_samples, PointPercentile(by_kind, 50));
  add("point_p99_us", p99, "us", point_samples, PointPercentile(by_kind, 99));
  add("range_p50_us", range_p50, "us", by_kind[kRange].size(),
      by_kind[kRange].Percentile(50));
  add("cycle_p50_ms", cycle_p50, "ms", cycle.size(), cycle.Percentile(50));
  // Writes are few per block, so publish takes the whole window's
  // percentile, scaled by the whole window's gauge median.
  if (const std::optional<double> v = producer.publish_ms.Percentile(50);
      v && !gauge.empty()) {
    e2e->Add(prefix + "publish_p50_ms", *v * kGaugeReferenceNs / gauge.Median(),
             "ms", producer.publish_ms.size(), v);
  } else {
    e2e->Note(prefix + "publish_p50_ms: not reported, " +
              std::to_string(producer.publish_ms.size()) +
              " samples leave fewer than 10 beyond p50");
  }
  if (!prefix.empty()) return;
  // The per-kind rows behind the point latency, wall-clock.
  for (StmtKind kind : {StmtKind::kFindU32, StmtKind::kFindU64, StmtKind::kCountStr}) {
    const Samples& s = by_kind[static_cast<int>(kind)];
    if (s.empty()) continue;
    const std::string base = kind == StmtKind::kFindU32   ? "find_u32"
                             : kind == StmtKind::kFindU64 ? "find_u64"
                                                          : "count_str";
    e2e->AddPercentile(base + "_p50_us", s, 50, "us");
    e2e->AddPercentile(base + "_p99_us", s, 99, "us");
  }
  e2e->AddPercentile("publish_p90_ms", producer.publish_ms, 90, "ms");
  e2e->AddPercentile("client.generator_lag_ms_p99", producer.generator_lag_ms,
                     99, "ms");
  e2e->Add("client.generator_lag_ms_max", producer.generator_lag_ms.Max(), "ms",
           producer.generator_lag_ms.size());
}

template <typename KeyT>
bool FinalStateMatches(const std::vector<KeyT>& keys, const ServeTraffic& t,
                       const ProducerResult& p) {
  // The oldest `deleted_keys` rows are gone and the sequence runs on.
  if (keys.size() != t.write_rows + p.inserted_keys - p.deleted_keys) {
    return false;
  }
  for (size_t j = 0; j < keys.size(); ++j) {
    if (keys[j] != t.write_key(p.deleted_keys + j)) return false;
  }
  return true;
}

}  // namespace

struct ServeWindow::Clients {
  std::vector<WriteTick> ticks;
  ReaderResult readers[2];
  ProducerResult producer;
};

ServeWindow::ServeWindow(const ServeTraffic& traffic, const Options& options)
    : traffic_(traffic), options_(options), clients_(std::make_unique<Clients>()) {
  const std::string& table = traffic.write_table;
  const uint32_t batch = traffic.write_batch;
  std::vector<WriteTick>& ticks = clients_->ticks;
  ticks.resize(static_cast<size_t>(traffic.ticks_per_s * options.seconds) + 2);
  std::vector<uint64_t> ins(batch), del(batch);
  for (size_t t = 0; t < ticks.size(); ++t) {
    for (uint32_t j = 0; j < batch; ++j) {
      ins[j] = traffic.write_key(traffic.write_rows + t * batch + j);
      del[j] = traffic.write_key(t * batch + j);
    }
    ticks[t] = {FormatKeys("INSERT", table, ins.data(), batch),
                FormatKeys("DELETE", table, del.data(), batch)};
  }
  // Room for 20000 statements per second of each kind per reader, and for
  // one cycle's digests per check interval.
  const size_t samples = static_cast<size_t>(options.seconds * 20000) + 1024;
  const size_t digests =
      (static_cast<size_t>(options.seconds * 1e9 / kCheckIntervalNs) + 4) *
      traffic.pool->cycle_len;
  for (ReaderResult& r : clients_->readers) {
    for (Samples& k : r.latency_us) k.Reserve(samples);
    r.cycle_ms.Reserve(samples);
    r.gauge_ns.Reserve(samples);
    r.blocks.reserve(static_cast<size_t>(options.seconds * 1e9 / kBlockNs) + 4);
    ReserveTouched(r.sampled, digests);
    if (options.trace) r.spans = SpanLog(samples);
  }
  ProducerResult& p = clients_->producer;
  for (Samples* s : {&p.publish_ms, &p.enqueue_us, &p.generator_lag_ms,
                     &p.publish_interval_ms}) {
    s->Reserve(2 * ticks.size());
  }
}

ServeWindow::~ServeWindow() = default;

void ServeWindow::Run(Server& server, const ReadCheck& check,
                      WorkloadResult* out) {
  const ServeTraffic& traffic = traffic_;
  const Options& options = options_;
  const std::string& table = traffic.write_table;
  const uint32_t batch = traffic.write_batch;
  ReaderResult (&readers)[2] = clients_->readers;
  ProducerResult& producer = clients_->producer;
  auto sequence = [&]() -> uint64_t {
    return traffic.write_table_64 ? server.TableSnapshot64(table)->sequence()
                                  : server.TableSnapshot(table)->sequence();
  };

  const int64_t warmup_end = NowNs() + 500'000'000;
  const int64_t window_end =
      warmup_end + static_cast<int64_t>(options.seconds * 1e9);
  {
    const size_t pool_cycles =
        traffic.pool->statements.size() / traffic.pool->cycle_len;
    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r) {
      ReaderConfig config;
      config.start_cycle = static_cast<size_t>(r) * pool_cycles / 2;
      config.warmup_end_ns = warmup_end;
      config.window_end_ns = window_end;
      config.ladder_every = options.trace ? 16 : 0;
      config.ladder = traffic.ladder;
      threads.emplace_back(RunReader, std::ref(server), std::cref(*traffic.pool),
                           config, &readers[r]);
    }
    threads.emplace_back([&] {
      RunProducer(server, traffic.ticks_per_s, batch, clients_->ticks,
                  warmup_end, window_end, sequence, &producer);
    });
    for (std::thread& t : threads) t.join();
  }
  out->peak_rss_mib = PeakRssMib();
  server.Stop();

  for (const ReaderResult& r : readers) {
    out->gauge_ns.Append(r.gauge_ns);
    for (const auto& [idx, digest] : r.sampled) {
      check(traffic.pool->statements[idx], digest, &out->checker);
    }
    out->attempted += r.statements;
    out->refused += r.not_ok;
  }
  out->attempted += producer.writes_sent;
  out->refused += producer.writes_failed;
  const bool final_ok =
      traffic.write_table_64
          ? FinalStateMatches(server.TableSnapshot64(table)->keys(), traffic, producer)
          : FinalStateMatches(server.TableSnapshot(table)->keys(), traffic, producer);
  out->checker.Expect(final_ok, table + " after Stop != initial + inserts - deletes");
  out->checker.Expect(server.writer_stats().batches_applied ==
                          server.queue_stats().enqueued_batches,
                      "batches_applied != enqueued_batches");
  out->invalid_reason = ProducerInvalidReason(producer, server.queue_stats());
  out->end_to_end.Note("producer: " + std::to_string(producer.ticks) +
                       " ticks at " + std::to_string(traffic.ticks_per_s) +
                       "/s, each INSERT " + std::to_string(batch) +
                       " + DELETE " + std::to_string(batch) + " on " + table);

  const std::vector<const ReaderResult*> rs = {&readers[0], &readers[1]};
  if (!options.trace) {
    AddServeEndToEnd(rs, producer, &out->end_to_end, "");
    return;
  }
  AddServeEndToEnd(rs, producer, &out->layers, "trace.");
  AddLadderMetrics(rs, &out->layers, &out->end_to_end);
  AddWriterMetrics(server, table, producer, &out->layers);
  WriteSpansOrNote(options.out_dir + "/spans-" + options.workload + "-seed" +
                       std::to_string(options.seed) + ".jsonl",
                   {&readers[0].spans, &readers[1].spans}, options,
                   &out->end_to_end);
}

}  // namespace perfbench
