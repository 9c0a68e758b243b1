// Deterministic fuzzer for the statement grammar, end to end through
// Session::Execute. Inputs are mutations of valid statements (a token
// dropped, duplicated, swapped, or replaced by a digit string past 2^64,
// whitespace runs, bytes >= 0x80, empty text) plus random token streams.
// Every input must come back without a throw, either kOk or one of the
// client-error statuses with a non-empty message — and every kOk RANGE
// must equal a std::lower_bound oracle over the table's keys. The hash
// table is in the set on purpose: its RANGE positions come from the
// same positional contract as every ordered spec.
//
// The server is never started, so writes and spec swaps queue up without
// being applied: every table keeps its initial keys and the oracle is
// exact. Fixed seeds; runs in the ASan+UBSan lane.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/index_spec.h"
#include "gtest/gtest.h"
#include "serve/server.h"
#include "serve/statement.h"
#include "util/rng.h"

namespace cssidx::serve {
namespace {

constexpr uint64_t kWideBase = uint64_t{1} << 40;

std::string StringKey(uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05u", i);
  return buf;
}

/// One served table and its keys, sorted: the oracle's view.
struct OracleTable {
  std::vector<uint64_t> ints;        // integer tables, widened
  std::vector<std::string> strings;  // the string table
  bool is_string = false;
};

class StatementFuzz : public ::testing::Test {
 protected:
  StatementFuzz()
      : server_(Server::Options{.queue_capacity = size_t{1} << 20,
                                .collect_stats = true,
                                .allow_spec_swap = true}) {
    Pcg32 rng(0xf022);
    std::vector<uint32_t> keys(3000);
    for (uint32_t& k : keys) k = rng.Below(5000);  // duplicates and gaps
    std::vector<uint64_t> wide;
    std::vector<std::string> strings;
    for (uint32_t k : keys) {
      wide.push_back(kWideBase + k);
      strings.push_back(StringKey(k));
    }
    server_.CreateTable("u32", keys);
    server_.CreateTable("h", keys, *IndexSpec::Parse("hash:10"));
    server_.CreateTable("p", keys, *IndexSpec::Parse("part:4/css:16"));
    server_.CreateTable64("u64", wide);
    server_.CreateStringTable("str", strings);

    std::vector<uint64_t> ints(keys.begin(), keys.end());
    std::sort(ints.begin(), ints.end());
    std::sort(wide.begin(), wide.end());
    std::sort(strings.begin(), strings.end());
    for (const char* name : {"u32", "h", "p"}) oracle_[name].ints = ints;
    oracle_["u64"].ints = wide;
    oracle_["str"].strings = strings;
    oracle_["str"].is_string = true;
    key_pool_ = keys;
  }

  /// A key token for `table`: usually a live key, sometimes a miss.
  std::string KeyToken(Pcg32& rng, const std::string& table) {
    const uint32_t k = rng.Below(4) == 0
                           ? rng.Below(6000)
                           : key_pool_[rng.Below(
                                 static_cast<uint32_t>(key_pool_.size()))];
    if (table == "u64") return std::to_string(kWideBase + k);
    if (table == "str") return StringKey(k);
    return std::to_string(k);
  }

  /// A well-formed statement over a random table and verb.
  std::vector<std::string> ValidStatement(Pcg32& rng) {
    static const char* const kTables[] = {"u32", "h", "p", "u64", "str"};
    const std::string table = kTables[rng.Below(5)];
    std::vector<std::string> tokens;
    switch (rng.Below(7)) {
      case 0:
      case 1:
      case 2: {
        static const char* const kKeyVerbs[] = {"FIND", "COUNT", "INSERT",
                                                "DELETE"};
        tokens = {kKeyVerbs[rng.Below(4)], table};
        const uint32_t n = 1 + rng.Below(5);
        for (uint32_t i = 0; i < n; ++i) tokens.push_back(KeyToken(rng, table));
        break;
      }
      case 3:
      case 4:
        tokens = {"RANGE", table, KeyToken(rng, table), KeyToken(rng, table)};
        break;
      case 5:
        tokens = {"JOIN", table, kTables[rng.Below(5)]};
        break;
      default:
        tokens = {"ADVISE", table};
        if (rng.Below(2) == 0) tokens.push_back("APPLY");
        break;
    }
    return tokens;
  }

  /// Random tokens from the grammar's vocabulary and its near misses.
  static std::vector<std::string> RandomTokens(Pcg32& rng) {
    static const std::vector<std::string> kVocabulary{
        "FIND", "COUNT", "RANGE", "JOIN", "INSERT", "DELETE", "ADVISE",
        "APPLY", "find", "u32", "u64", "str", "h", "p", "nosuch", "0", "1",
        "4999", "4294967295", "4294967296", "18446744073709551615",
        "18446744073709551616", "-1", "+5", "0x10", "1e3", "k00042",
        "\xff\xfe", "\xc3\xa9", std::string("a\0b", 3)};
    std::vector<std::string> tokens(rng.Below(9));
    for (std::string& t : tokens) {
      t = kVocabulary[rng.Below(static_cast<uint32_t>(kVocabulary.size()))];
    }
    return tokens;
  }

  static void Mutate(Pcg32& rng, std::vector<std::string>& tokens) {
    const uint32_t n = static_cast<uint32_t>(tokens.size());
    switch (rng.Below(7)) {
      case 0:  // drop a token
        if (n > 0) tokens.erase(tokens.begin() + rng.Below(n));
        break;
      case 1:  // duplicate a token
        if (n > 0) {
          const uint32_t i = rng.Below(n);
          tokens.insert(tokens.begin() + i, tokens[i]);
        }
        break;
      case 2:  // swap two tokens
        if (n > 1) std::swap(tokens[rng.Below(n)], tokens[rng.Below(n)]);
        break;
      case 3: {  // a digit string past 2^64 - 1
        static const char* const kHuge[] = {"18446744073709551616",
                                            "99999999999999999999999",
                                            "184467440737095516150"};
        if (n > 0) tokens[rng.Below(n)] = kHuge[rng.Below(3)];
        break;
      }
      case 4:  // a byte >= 0x80 inside or instead of a token
        if (n > 0) {
          std::string& t = tokens[rng.Below(n)];
          t.insert(rng.Below(static_cast<uint32_t>(t.size()) + 1), 1,
                   static_cast<char>(0x80 + rng.Below(0x80)));
        }
        break;
      case 5:  // everything gone
        tokens.clear();
        break;
      default:  // left valid
        break;
    }
  }

  /// Joins tokens with single spaces, or with random whitespace runs.
  static std::string Join(Pcg32& rng, const std::vector<std::string>& tokens) {
    static const char* const kRuns[] = {" ", "  ", "\t", " \t  ", "\n", "\r"};
    const bool runs = rng.Below(3) == 0;
    std::string text = runs && rng.Below(2) == 0 ? " \t " : "";
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) text += runs ? kRuns[rng.Below(6)] : " ";
      text += tokens[i];
    }
    if (runs && rng.Below(2) == 0) text += "\t ";
    return text;
  }

  /// Status and RANGE checks for one input.
  void Check(const std::string& text, const StatementResult& result) {
    ++statuses_[result.status];
    switch (result.status) {
      case StatementStatus::kOk:
        break;
      case StatementStatus::kParseError:
      case StatementStatus::kUnknownTable:
      case StatementStatus::kBadKey:
        EXPECT_FALSE(result.error.empty()) << "'" << text << "'";
        return;
      default:
        ADD_FAILURE() << "status " << static_cast<int>(result.status)
                      << " for '" << text << "': " << result.error;
        return;
    }
    const std::optional<Statement> stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.has_value()) << "'" << text << "' was kOk";
    if (stmt->verb != Verb::kRange) return;
    ++ranges_checked_;
    const OracleTable& table = oracle_.at(stmt->table);
    size_t begin = 0, end = 0;
    bool live = false;
    if (table.is_string) {
      const auto& s = table.strings;
      begin = static_cast<size_t>(
          std::lower_bound(s.begin(), s.end(), stmt->lo_token) - s.begin());
      end = static_cast<size_t>(
          std::lower_bound(s.begin(), s.end(), stmt->hi_token) - s.begin());
      // Bounds between the same two dictionary values share one ID, so
      // an empty string range reports no positions.
      live = end > begin;
    } else {
      ASSERT_TRUE(stmt->bounds_numeric) << "'" << text << "' was kOk";
      const auto& k = table.ints;
      begin = static_cast<size_t>(
          std::lower_bound(k.begin(), k.end(), stmt->lo) - k.begin());
      end = static_cast<size_t>(
          std::lower_bound(k.begin(), k.end(), stmt->hi) - k.begin());
      live = stmt->hi > stmt->lo;
    }
    const uint64_t want_count = end > begin ? end - begin : 0;
    EXPECT_EQ(result.count, want_count) << "'" << text << "'";
    if (live) {
      EXPECT_EQ(result.range_begin, begin) << "'" << text << "'";
      EXPECT_EQ(result.range_end, end) << "'" << text << "'";
    }
  }

  void Run(const std::string& text) {
    StatementResult result;
    try {
      result = session_.Execute(text);
    } catch (const std::exception& e) {
      FAIL() << "'" << text << "' threw: " << e.what();
    }
    Check(text, result);
  }

  Server server_;
  Session session_ = server_.OpenSession();
  std::map<std::string, OracleTable> oracle_;
  std::vector<uint32_t> key_pool_;
  size_t ranges_checked_ = 0;
  std::map<StatementStatus, size_t> statuses_;
};

TEST_F(StatementFuzz, MutatedValidStatements) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Pcg32 rng(seed);
    for (int i = 0; i < 5000; ++i) {
      std::vector<std::string> tokens = ValidStatement(rng);
      Mutate(rng, tokens);
      Run(Join(rng, tokens));
      if (HasFatalFailure()) return;
    }
  }
  // The oracle and every allowed status must actually have been reached.
  EXPECT_GT(ranges_checked_, 500u);
  for (StatementStatus status :
       {StatementStatus::kOk, StatementStatus::kParseError,
        StatementStatus::kUnknownTable, StatementStatus::kBadKey}) {
    EXPECT_GT(statuses_[status], 0u) << static_cast<int>(status);
  }
}

TEST_F(StatementFuzz, RandomTokenStreams) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    Pcg32 rng(seed);
    for (int i = 0; i < 5000; ++i) {
      Run(Join(rng, RandomTokens(rng)));
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(StatementFuzz, EdgeTexts) {
  for (const std::string& text :
       {std::string(), std::string("   "), std::string("\t\t"),
        std::string("RANGE"), std::string("RANGE h"),
        std::string("RANGE h 0 18446744073709551615"),
        std::string("RANGE u32 0 4294967296"),
        std::string("RANGE h 4294967295 4294967296"),
        std::string("RANGE h 5001 6000"), std::string("RANGE p 100 5"),
        std::string("RANGE str k00100 k00200"),
        std::string("RANGE str \xff \xfe"),
        std::string("FIND u32 18446744073709551616"),
        std::string("FIND \xc3\xa9 1"), std::string("ADVISE h APPLY x"),
        std::string("JOIN h str"), std::string("JOIN u64 u64")}) {
    Run(text);
  }
}

}  // namespace
}  // namespace cssidx::serve
