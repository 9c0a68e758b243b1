#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "gtest/gtest.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workload/batch_update.h"

// The serving layer's 8-byte and string table kinds, held to the same
// bar as the 32-bit tables in serve_test: concurrent readers against a
// live writer, every read checked bit-exactly against the journal replay
// at the version it reported, plus the kind-specific verbs (64-bit JOIN,
// ADVISE APPLY on both kinds). Runs in the TSan CI lane, so sizes stay
// modest.

namespace cssidx::serve {
namespace {

// 8-byte keys live above 2^32 so a narrowing bug anywhere on the path
// shows up as a wrong answer, not a coincidentally right one.
constexpr uint64_t kWideBase = uint64_t{1} << 40;

uint64_t WideKey(uint32_t i) { return kWideBase + i; }

// Zero-padded so string order matches numeric order: the string table
// sees the same key distribution as the integer ones.
std::string StringKey(uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05u", i);
  return buf;
}

template <typename KeyT>
KeyT MakeKey(uint32_t i) {
  if constexpr (std::is_same_v<KeyT, std::string>) {
    return StringKey(i);
  } else {
    return WideKey(i);
  }
}

std::string Token(uint64_t key) { return std::to_string(key); }
const std::string& Token(const std::string& key) { return key; }

template <typename KeyT>
std::string KeysStatement(const char* verb, const char* table,
                          const std::vector<KeyT>& keys) {
  std::string text = std::string(verb) + " " + table;
  for (const KeyT& k : keys) {
    text += ' ';
    text += Token(k);
  }
  return text;
}

/// The journal list the writer fills for KeyT's table kind.
template <typename KeyT>
const auto& JournalBatches(const AppliedGroup& group) {
  if constexpr (std::is_same_v<KeyT, std::string>) {
    return group.string_batches;
  } else {
    return group.batches64;
  }
}

/// Replays the journal into a map: version -> full sorted key state of
/// `table` as of that version. Version 1 is the initial build.
template <typename KeyT>
std::map<uint64_t, std::vector<KeyT>> OracleStates(
    const Server& server, uint32_t table, std::vector<KeyT> initial) {
  std::sort(initial.begin(), initial.end());
  std::map<uint64_t, std::vector<KeyT>> states;
  states[1] = initial;
  std::vector<KeyT> current = std::move(initial);
  for (const AppliedGroup& group : server.applied_groups()) {
    if (group.table != table) continue;
    for (const auto& batch : JournalBatches<KeyT>(group)) {
      current = workload::ApplyBatch(current, batch);
    }
    states[group.sequence] = current;
  }
  return states;
}

template <typename KeyT>
struct RecordedRead {
  char kind = 'F';  // F[ind] / C[ount] / R[ange]
  uint64_t version = 0;
  std::vector<KeyT> keys;  // FIND/COUNT
  KeyT lo{}, hi{};         // RANGE
  std::vector<int64_t> positions;
  std::vector<size_t> counts;
  size_t range_begin = 0, range_end = 0;
  uint64_t count = 0;
};

template <typename KeyT>
void VerifyAgainstOracle(const std::vector<RecordedRead<KeyT>>& reads,
                         const std::map<uint64_t, std::vector<KeyT>>& states,
                         const std::string& label) {
  for (size_t i = 0; i < reads.size(); ++i) {
    const RecordedRead<KeyT>& r = reads[i];
    auto it = states.find(r.version);
    ASSERT_NE(it, states.end())
        << label << " read " << i << ": unknown version " << r.version;
    const std::vector<KeyT>& keys = it->second;
    auto lower = [&](const KeyT& k) {
      return static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), k) - keys.begin());
    };
    auto upper = [&](const KeyT& k) {
      return static_cast<size_t>(
          std::upper_bound(keys.begin(), keys.end(), k) - keys.begin());
    };
    if (r.kind == 'F') {
      ASSERT_EQ(r.positions.size(), r.keys.size()) << label << " read " << i;
      for (size_t k = 0; k < r.keys.size(); ++k) {
        const size_t lb = lower(r.keys[k]);
        const int64_t expected =
            (lb < keys.size() && keys[lb] == r.keys[k])
                ? static_cast<int64_t>(lb)
                : -1;
        ASSERT_EQ(r.positions[k], expected)
            << label << " read " << i << " key " << Token(r.keys[k])
            << " at version " << r.version;
      }
    } else if (r.kind == 'C') {
      ASSERT_EQ(r.counts.size(), r.keys.size()) << label << " read " << i;
      for (size_t k = 0; k < r.keys.size(); ++k) {
        ASSERT_EQ(r.counts[k], upper(r.keys[k]) - lower(r.keys[k]))
            << label << " read " << i << " key " << Token(r.keys[k])
            << " at version " << r.version;
      }
    } else {
      size_t begin = r.hi > r.lo ? lower(r.lo) : 0;
      size_t end = r.hi > r.lo ? lower(r.hi) : 0;
      ASSERT_EQ(r.count, end - begin) << label << " read " << i;
      // A string range resolves in dictionary-ID space: when no dictionary
      // value falls in [lo, hi) the span is reported as (0, 0) rather than
      // as an empty span at the insertion point, so an empty span is only
      // checked for being empty.
      if (std::is_same_v<KeyT, std::string> && begin == end) {
        ASSERT_EQ(r.range_begin, r.range_end) << label << " read " << i;
        continue;
      }
      ASSERT_EQ(r.range_begin, begin) << label << " read " << i;
      ASSERT_EQ(r.range_end, end) << label << " read " << i;
    }
  }
}

/// The concurrent differential of serve_test's 32-bit suite, for KeyT's
/// table kind: producers push INSERT/DELETE through a tight queue (so the
/// writer coalesces under real pressure) while readers run FIND/COUNT/
/// RANGE; afterwards every read must equal the journal replay at the
/// version it reported. Initial keys come from [0, 300) and writes from
/// [0, 500), so string tables keep meeting values their dictionary has
/// never seen.
template <typename KeyT>
void RunConcurrentDifferential(const char* spec_text) {
  SCOPED_TRACE(spec_text);
  Server::Options options;
  options.queue_capacity = 4;  // tight: forces blocking + deep coalesces
  options.admission = Admission::kBlock;
  options.journal = true;
  Server server(options);
  Pcg32 seed_rng(0x7ab1e);
  std::vector<KeyT> initial;
  for (int i = 0; i < 1'500; ++i) {
    initial.push_back(MakeKey<KeyT>(seed_rng.Below(300)));
  }
  const IndexSpec spec = *IndexSpec::Parse(spec_text);
  uint32_t table_id = 0;
  if constexpr (std::is_same_v<KeyT, std::string>) {
    table_id = server.CreateStringTable("t", initial, spec);
  } else {
    table_id = server.CreateTable64("t", initial, spec);
  }
  const size_t initial_domain =
      std::is_same_v<KeyT, std::string> ? server.TableDomain("t")->size() : 0;
  server.Start();

  std::atomic<bool> writers_done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      Session session = server.OpenSession();
      Pcg32 rng(0x5eed + p);
      for (int s = 0; s < 40; ++s) {
        std::vector<KeyT> keys;
        for (int k = 0; k < 6; ++k) {
          keys.push_back(MakeKey<KeyT>(rng.Below(500)));
        }
        const char* verb = (s % 2 == p % 2) ? "INSERT" : "DELETE";
        ASSERT_TRUE(session.Execute(KeysStatement(verb, "t", keys)).ok());
      }
    });
  }

  std::vector<std::vector<RecordedRead<KeyT>>> recorded(3);
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Session session = server.OpenSession();
      Pcg32 rng(0x4ead + t);
      for (int s = 0; s < 150 || (!writers_done.load() && s < 100'000); ++s) {
        RecordedRead<KeyT> r;
        StatementResult res;
        if (s % 3 == 2) {
          r.kind = 'R';
          r.lo = MakeKey<KeyT>(rng.Below(520));
          r.hi = MakeKey<KeyT>(rng.Below(520));
          res = session.Execute("RANGE t " + Token(r.lo) + " " + Token(r.hi));
        } else {
          r.kind = s % 3 == 0 ? 'F' : 'C';
          for (int k = 0; k < 8; ++k) {
            r.keys.push_back(MakeKey<KeyT>(rng.Below(520)));
          }
          res = session.Execute(
              KeysStatement(r.kind == 'F' ? "FIND" : "COUNT", "t", r.keys));
        }
        ASSERT_TRUE(res.ok()) << res.error;
        r.version = res.version;
        r.positions = std::move(res.positions);
        r.counts = std::move(res.counts);
        r.range_begin = res.range_begin;
        r.range_end = res.range_end;
        r.count = res.count;
        recorded[t].push_back(std::move(r));
      }
    });
  }

  for (auto& p : producers) p.join();
  writers_done.store(true);
  for (auto& r : readers) r.join();
  server.Stop();

  EXPECT_EQ(server.queue_stats().enqueued_batches, 80u);
  EXPECT_EQ(server.writer_stats().batches_applied, 80u);

  auto states = OracleStates(server, table_id, initial);
  // Every publish is journaled; more than the initial version proves the
  // table moved while the readers ran.
  EXPECT_GT(states.size(), 1u);
  for (int t = 0; t < 3; ++t) {
    VerifyAgainstOracle(recorded[t], states,
                        std::string(spec_text) + " reader " +
                            std::to_string(t));
  }
  // Final published state equals the full serial application.
  if constexpr (std::is_same_v<KeyT, std::string>) {
    const auto dom = server.TableDomain("t");
    EXPECT_GT(dom->size(), initial_domain);  // the dictionary grew mid-run
    std::vector<std::string> decoded;
    for (uint32_t id : server.TableSnapshot("t")->keys()) {
      decoded.push_back(dom->Decode(id));
    }
    EXPECT_EQ(decoded, states.rbegin()->second);
  } else {
    EXPECT_EQ(server.TableSnapshot64("t")->keys(), states.rbegin()->second);
  }
}

// ------------------------------------------------ rejected reads (bugfix)

TEST(ServerTableKinds, RejectedReadCarriesNoData) {
  // A read that fails key typing must not hand back zero-filled results:
  // position 0 would read as "found at row 0" for the keys that did fit.
  Server server;
  server.CreateTable("t", {1, 7});
  server.CreateTable64("w", {1, 7});
  Session session = server.OpenSession();
  for (const char* text : {"FIND t 7 4294967296", "FIND t 7 xyz",
                           "FIND w 7 xyz"}) {
    StatementResult res = session.Execute(text);
    EXPECT_EQ(res.status, StatementStatus::kBadKey) << text;
    EXPECT_TRUE(res.positions.empty()) << text;
  }
  for (const char* text : {"COUNT t xyz 1", "COUNT t 1 4294967296",
                           "COUNT w xyz 1"}) {
    StatementResult res = session.Execute(text);
    EXPECT_EQ(res.status, StatementStatus::kBadKey) << text;
    EXPECT_TRUE(res.counts.empty()) << text;
    EXPECT_EQ(res.count, 0u) << text;
  }
}

// ------------------------------------- concurrent differential (TSan'd)

TEST(ServerTableKinds, SixtyFourBitReadersSeeOracleStateAtEveryVersion) {
  for (const char* spec : {"css64:16", "part:8/css64:16"}) {
    RunConcurrentDifferential<uint64_t>(spec);
  }
}

TEST(ServerTableKinds, StringReadersSeeOracleStateAtEveryVersion) {
  for (const char* spec : {"css:16", "part:4/css:16"}) {
    RunConcurrentDifferential<std::string>(spec);
  }
}

// ------------------------------------------------ kind-specific verbs

TEST(ServerTableKinds, SixtyFourBitJoinIsConsistentAcrossTwoSnapshots) {
  Server::Options options;
  options.queue_capacity = 4;
  options.journal = true;
  Server server(options);
  Pcg32 seed_rng(0x10ad64);
  std::vector<uint64_t> outer_keys, inner_keys;
  for (int i = 0; i < 400; ++i) {
    outer_keys.push_back(WideKey(seed_rng.Below(80)));
  }
  for (int i = 0; i < 600; ++i) {
    inner_keys.push_back(WideKey(seed_rng.Below(80)));
  }
  const uint32_t outer_id = server.CreateTable64("outer", outer_keys);
  const uint32_t inner_id = server.CreateTable64("inner", inner_keys);
  server.CreateTable("narrow", {1, 2});
  server.Start();

  std::thread producer([&] {
    Session session = server.OpenSession();
    Pcg32 rng(0x77aa64);
    for (int s = 0; s < 30; ++s) {
      std::vector<uint64_t> keys;
      for (int k = 0; k < 4; ++k) keys.push_back(WideKey(rng.Below(80)));
      const char* table = (s % 2 == 0) ? "outer" : "inner";
      const char* verb = (s % 3 == 0) ? "DELETE" : "INSERT";
      ASSERT_TRUE(session.Execute(KeysStatement(verb, table, keys)).ok());
    }
  });

  struct RecordedJoin {
    uint64_t version = 0, version2 = 0;
    uint64_t count = 0;
  };
  std::vector<RecordedJoin> joins;
  Session session = server.OpenSession();
  for (int s = 0; s < 60; ++s) {
    StatementResult res = session.Execute("JOIN outer inner");
    ASSERT_TRUE(res.ok()) << res.error;
    joins.push_back({res.version, res.version2, res.count});
  }
  producer.join();
  server.Stop();

  auto outer_states = OracleStates(server, outer_id, outer_keys);
  auto inner_states = OracleStates(server, inner_id, inner_keys);
  for (size_t i = 0; i < joins.size(); ++i) {
    const auto& outer_state = outer_states.at(joins[i].version);
    const auto& inner_state = inner_states.at(joins[i].version2);
    uint64_t expected = 0;
    for (uint64_t k : outer_state) {
      expected += std::upper_bound(inner_state.begin(), inner_state.end(), k) -
                  std::lower_bound(inner_state.begin(), inner_state.end(), k);
    }
    ASSERT_EQ(joins[i].count, expected) << "join " << i;
  }
  // A 32-bit table never joins an 8-byte one: the key types differ.
  EXPECT_EQ(session.Execute("JOIN outer narrow").status,
            StatementStatus::kBadKey);
}

TEST(ServerTableKinds, AdviseApplySwapsSixtyFourBitAndStringTables) {
  // ADVISE APPLY on each non-32-bit kind, under live readers: exactly one
  // publish per table, FIND answers unchanged across it, and a string
  // table republishes its {dictionary, index} pair as one version step
  // with the dictionary itself untouched.
  Server::Options options;
  options.collect_stats = true;
  options.allow_spec_swap = true;
  options.journal = true;
  Server server(options);
  std::vector<uint64_t> wide_keys;
  std::vector<std::string> string_keys;
  for (uint32_t i = 0; i < 4'000; ++i) {
    wide_keys.push_back(WideKey(3 * i));
    string_keys.push_back(StringKey(3 * i));
  }
  const uint32_t wide_id = server.CreateTable64("wide", wide_keys);
  const uint32_t string_id = server.CreateStringTable("s", string_keys);
  const auto dom_before = server.TableDomain("s");

  // Sorted distinct inputs: the position of key i is i. The last probe is
  // absent from both tables.
  std::vector<uint64_t> wide_probe;
  std::vector<std::string> string_probe;
  std::vector<int64_t> expected;
  for (uint32_t i = 0; i < 16; ++i) {
    const uint32_t pos = i * 250 + 17;
    wide_probe.push_back(wide_keys[pos]);
    string_probe.push_back(string_keys[pos]);
    expected.push_back(pos);
  }
  wide_probe.push_back(WideKey(1));
  string_probe.push_back(StringKey(1));
  expected.push_back(-1);
  const std::vector<std::string> finds = {
      KeysStatement("FIND", "wide", wide_probe),
      KeysStatement("FIND", "s", string_probe)};

  Session session = server.OpenSession();
  for (int i = 0; i < 32; ++i) {  // feed both collectors
    for (const std::string& find : finds) {
      ASSERT_TRUE(session.Execute(find).ok());
    }
  }
  server.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  auto reader = [&] {
    Session reader_session = server.OpenSession();
    while (!stop.load(std::memory_order_relaxed)) {
      for (const std::string& find : finds) {
        StatementResult res = reader_session.Execute(find);
        EXPECT_EQ(res.status, StatementStatus::kOk);
        EXPECT_EQ(res.positions, expected) << find;
        EXPECT_TRUE(res.version == 1 || res.version == 2) << res.version;
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader), r2(reader);

  std::map<std::string, std::string> recommended;
  for (const char* table : {"wide", "s"}) {
    StatementResult applied =
        session.Execute(std::string("ADVISE ") + table + " APPLY");
    ASSERT_EQ(applied.status, StatementStatus::kOk) << applied.error;
    ASSERT_TRUE(applied.applied);
    recommended[table] = applied.recommended_spec;
  }
  while (server.writer_stats().groups_published < 2) {
    std::this_thread::yield();
  }
  const uint64_t seen = reads.load(std::memory_order_relaxed);
  while (reads.load(std::memory_order_relaxed) < seen + 20) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  r1.join();
  r2.join();
  server.Stop();

  // One respec marker per table, each the table's version 2.
  ASSERT_EQ(server.applied_groups().size(), 2u);
  for (const AppliedGroup& group : server.applied_groups()) {
    const char* table = group.table == wide_id ? "wide" : "s";
    EXPECT_TRUE(group.table == wide_id || group.table == string_id);
    EXPECT_TRUE(group.respec) << table;
    EXPECT_EQ(group.sequence, 2u) << table;
    EXPECT_EQ(group.respec_spec.ToString(), recommended[table]) << table;
    EXPECT_TRUE(group.batches64.empty() && group.string_batches.empty());
    EXPECT_EQ(server.TableSpec(table).ToString(), recommended[table]);
    EXPECT_EQ(server.TableMaintenanceStats(table).spec_swaps, 1u) << table;
  }
  EXPECT_EQ(server.writer_stats().groups_published, 2u);

  // The string swap renumbered nothing: same dictionary object, new index,
  // and every read path (FIND, ADVISE, the snapshot) sees version 2.
  EXPECT_EQ(server.TableDomain("s").get(), dom_before.get());
  EXPECT_EQ(server.TableSnapshot("s")->sequence(), 2u);
  EXPECT_EQ(server.TableSnapshot64("wide")->sequence(), 2u);
  for (const std::string& find : finds) {
    StatementResult after = session.Execute(find);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.positions, expected);
    EXPECT_EQ(after.version, 2u);
  }
  StatementResult advise = session.Execute("ADVISE s");
  ASSERT_TRUE(advise.ok()) << advise.error;
  EXPECT_EQ(advise.version, 2u);
}

}  // namespace
}  // namespace cssidx::serve
