#include "serve/server.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>

#include "advisor/advisor.h"

namespace cssidx::serve {
namespace {

/// The ID a string-table probe uses for a value absent from the domain
/// dictionary. Real IDs are dense from 0, so UINT32_MAX is unreachable
/// short of a dictionary with 2^32 distinct values; probing it yields
/// "absent"/count-0, which is exactly the semantics of a missing value.
constexpr uint32_t kAbsentId = std::numeric_limits<uint32_t>::max();

StatementResult Failed(StatementStatus status, std::string error) {
  StatementResult result;
  result.status = status;
  result.error = std::move(error);
  return result;
}

template <typename KeyT>
std::unique_ptr<BasicMaintainedIndex<KeyT>> BuildIndex(
    const IndexSpec& spec, std::vector<KeyT> keys, bool collect_stats) {
  std::sort(keys.begin(), keys.end());
  auto index =
      std::make_unique<BasicMaintainedIndex<KeyT>>(spec, std::move(keys));
  if (!index->ok()) {
    throw std::invalid_argument("index spec off the menu: " +
                                spec.ToString());
  }
  if (collect_stats) index->EnableStats();
  return index;
}

// A table kind supplies only what differs between kinds: its probe key and
// update batch types, the journal list its batches go to, its
// MaintainedIndex, a reader View pinned to one published version (key
// operands to probe keys, RANGE bounds to positions, JOIN outer keys to
// probe keys), the INSERT/DELETE operands, and the writer's Apply and
// Respec. Session::ExecuteOn and Server::ApplyGroup are written once over
// these members.

/// 4- and 8-byte integer tables: the statement's keys ARE the probe keys.
template <typename KeyT, auto kJournalList>
struct IntTable {
  using Key = KeyT;
  using Batch = workload::BasicUpdateBatch<KeyT>;
  static constexpr auto kJournal = kJournalList;

  std::unique_ptr<BasicMaintainedIndex<KeyT>> index;

  struct View {
    std::shared_ptr<const typename BasicMaintainedIndex<KeyT>::Version> snap;

    const auto& ids() const { return *snap; }
    bool Probes(const Statement& stmt, std::vector<KeyT>* out,
                StatementResult* result) const {
      return Operands(stmt, out, result);
    }
    bool Range(const Statement& stmt, StatementResult* result) const {
      if (!stmt.bounds_numeric) {
        *result = Failed(StatementStatus::kBadKey,
                         "bad bounds '" + stmt.lo_token + "' '" +
                             stmt.hi_token + "': table '" + stmt.table +
                             "' holds integer keys");
        return false;
      }
      if (stmt.hi > stmt.lo) {
        result->range_begin = Position(stmt.lo);
        result->range_end = Position(stmt.hi);
      }
      return true;
    }
    /// [lo, hi) stays width-independent: a bound past the table's max key
    /// clamps to end-of-array instead of erroring, so
    /// "RANGE t 0 4294967296" covers a whole 32-bit table.
    size_t Position(uint64_t bound) const {
      if (bound > std::numeric_limits<KeyT>::max()) return snap->size();
      return snap->index().LowerBound(static_cast<KeyT>(bound));
    }
    auto JoinKeyMap(const View&) const {
      return [](KeyT k) { return k; };
    }
  };
  View Read() const { return {index->Snapshot()}; }

  /// Key typing is checked here, at execute time, against the table the
  /// statement actually names — the grammar itself is width-agnostic.
  /// Each failure mode gets a distinct message: non-numeric key on an
  /// integer table vs. a numeric key past the table's width.
  static bool Operands(const Statement& stmt, std::vector<KeyT>* out,
                       StatementResult* result) {
    out->reserve(stmt.keys.size());
    for (size_t i = 0; i < stmt.keys.size(); ++i) {
      if (!stmt.keys_numeric[i]) {
        *result = Failed(StatementStatus::kBadKey,
                         "bad key '" + stmt.key_tokens[i] + "': table '" +
                             stmt.table + "' holds integer keys");
        return false;
      }
      if (stmt.keys[i] > std::numeric_limits<KeyT>::max()) {
        *result = Failed(
            StatementStatus::kBadKey,
            "key '" + stmt.key_tokens[i] + "' out of range for " +
                std::to_string(8 * sizeof(KeyT)) + "-bit table '" +
                stmt.table + "' (max " +
                std::to_string(std::numeric_limits<KeyT>::max()) + ")");
        return false;
      }
      out->push_back(static_cast<KeyT>(stmt.keys[i]));
    }
    return true;
  }

  void Apply(Batch merged) {
    std::sort(merged.inserts.begin(), merged.inserts.end());
    index->ApplySortedBatch(std::move(merged.inserts),
                            std::move(merged.deletes));
  }
  bool Respec(const IndexSpec& spec) { return index->RebuildWithSpec(spec); }
};

using U32Table = IntTable<uint32_t, &AppliedGroup::batches>;
using U64Table = IntTable<uint64_t, &AppliedGroup::batches64>;

/// A string table's reader-facing state: the domain dictionary and the
/// ID-index version built against it, published TOGETHER. An insert of
/// a new value grows the domain, which renumbers IDs (order-preserving
/// dictionaries stay sorted), so a reader pairing an old dictionary
/// with a new index — or vice versa — would translate predicates into
/// the wrong ID space. One pointer load yields a coherent pair.
struct StringVersion {
  std::shared_ptr<const domain::StringDomain> domain;
  std::shared_ptr<const MaintainedIndex::Version> ids;
};

/// One mutex-guarded pointer slot, same discipline (and same TSan
/// rationale) as MaintainedIndex's version pointer.
struct StringHead {
  std::mutex mu;
  std::shared_ptr<const StringVersion> current;
};

/// §2.1's string table: the 32-bit path over domain IDs plus the
/// dictionary codec. Every read goes through the published pair; the bare
/// ID index is the writer's.
struct StringTable {
  using Key = uint32_t;
  using Batch = StringUpdateBatch;
  static constexpr auto kJournal = &AppliedGroup::string_batches;

  std::unique_ptr<MaintainedIndex> index;
  std::unique_ptr<StringHead> head;

  struct View {
    std::shared_ptr<const StringVersion> pair;

    const MaintainedIndex::Version& ids() const { return *pair->ids; }
    /// Raw tokens translated through the dictionary; values it has never
    /// seen probe as kAbsentId (absent / count 0).
    bool Probes(const Statement& stmt, std::vector<uint32_t>* out,
                StatementResult*) const {
      out->reserve(stmt.key_tokens.size());
      for (const std::string& token : stmt.key_tokens) {
        out->push_back(pair->domain->Encode(token).value_or(kAbsentId));
      }
      return true;
    }
    /// The ID image of a string range predicate (§2.1: IDs are
    /// order-preserving): [lo, hi) over values becomes
    /// [LowerBoundId(lo), LowerBoundId(hi)) over IDs.
    bool Range(const Statement& stmt, StatementResult* result) const {
      const uint32_t lo = pair->domain->LowerBoundId(stmt.lo_token);
      const uint32_t hi = pair->domain->LowerBoundId(stmt.hi_token);
      if (hi > lo) {
        result->range_begin = ids().index().LowerBound(lo);
        result->range_end = ids().index().LowerBound(hi);
      }
      return true;
    }
    /// Two string tables have two dictionaries, so IDs don't line up.
    /// Translate once — outer ID -> value -> inner ID (absent values get
    /// kAbsentId, count 0) — then join on inner IDs.
    auto JoinKeyMap(const View& outer) const {
      const domain::StringDomain& outer_dom = *outer.pair->domain;
      std::vector<uint32_t> translate(outer_dom.size());
      for (uint32_t i = 0; i < translate.size(); ++i) {
        translate[i] =
            pair->domain->Encode(outer_dom.Decode(i)).value_or(kAbsentId);
      }
      return [translate = std::move(translate)](uint32_t id) {
        return translate[id];
      };
    }
  };
  View Read() const {
    std::lock_guard<std::mutex> lock(head->mu);
    return {head->current};
  }

  static bool Operands(const Statement& stmt, std::vector<std::string>* out,
                       StatementResult*) {
    *out = stmt.key_tokens;
    return true;
  }

  void Apply(Batch merged) {
    std::shared_ptr<const domain::StringDomain> dom = Read().pair->domain;
    // Inserts of values the dictionary has never seen force a dictionary
    // rebuild (§2.1's batch-update model). Deletes never grow the domain:
    // a value absent from the dictionary has no rows, so its delete is a
    // no-op and is dropped at encode.
    std::vector<std::string> fresh_values;
    for (const std::string& v : merged.inserts) {
      if (!dom->Encode(v)) fresh_values.push_back(v);
    }
    std::vector<uint32_t> remap;
    if (!fresh_values.empty()) {
      auto grown = std::make_shared<domain::StringDomain>(*dom);
      remap = grown->AddBatch(fresh_values);
      dom = std::move(grown);
    }
    std::vector<uint32_t> insert_ids, delete_ids;
    insert_ids.reserve(merged.inserts.size());
    for (const std::string& v : merged.inserts) {
      insert_ids.push_back(*dom->Encode(v));
    }
    for (const std::string& v : merged.deletes) {
      if (std::optional<uint32_t> id = dom->Encode(v)) {
        delete_ids.push_back(*id);
      }
    }
    std::sort(insert_ids.begin(), insert_ids.end());
    std::sort(delete_ids.begin(), delete_ids.end());
    if (fresh_values.empty()) {
      // Every value already had an ID: apply like any integer batch
      // (shard-incremental for part:K specs).
      index->ApplySortedBatch(std::move(insert_ids), std::move(delete_ids));
    } else {
      // The remap is strictly increasing (the dictionary is
      // order-preserving), so the remapped snapshot keys are still sorted
      // and feed straight into the sorted-batch merge; the ID index is
      // rebuilt over the result — renumbering invalidates every shard
      // anyway, so there is nothing incremental to salvage.
      std::shared_ptr<const MaintainedIndex::Version> snap = index->Snapshot();
      std::vector<uint32_t> remapped;
      remapped.reserve(snap->size());
      snap->ForEachKey([&](uint32_t id) { remapped.push_back(remap[id]); });
      index->Rebuild(
          workload::ApplySortedBatch(remapped, insert_ids, delete_ids));
    }
    Publish(std::move(dom));
  }
  bool Respec(const IndexSpec& spec) {
    // The dictionary is untouched (IDs don't renumber), but the pair must
    // republish together so readers see the swap as one version step.
    if (!index->RebuildWithSpec(spec)) return false;
    Publish(Read().pair->domain);
    return true;
  }
  /// Publishes the (dictionary, ID-index) pair atomically — readers must
  /// never translate against one generation and probe the other.
  void Publish(std::shared_ptr<const domain::StringDomain> dom) {
    auto pair = std::make_shared<const StringVersion>(
        StringVersion{std::move(dom), index->Snapshot()});
    std::lock_guard<std::mutex> lock(head->mu);
    head->current = std::move(pair);
  }
};

}  // namespace

struct Server::TableEntry {
  std::variant<U32Table, U64Table, StringTable> kind;
};

Server::Server() : Server(Options()) {}

Server::Server(const Options& options)
    : options_(options),
      queue_(options.queue_capacity, options.admission) {}

Server::~Server() { Stop(); }

void Server::CheckNewTable(const char* method, const std::string& name) const {
  if (started_) {
    throw std::logic_error(std::string(method) +
                           " after Start: the table set is immutable once "
                           "the server is running");
  }
  if (table_ids_.count(name) != 0) {
    throw std::invalid_argument("duplicate table name " + name);
  }
}

uint32_t Server::AddTable(const std::string& name, TableEntry entry) {
  const uint32_t id = static_cast<uint32_t>(tables_.size());
  tables_.push_back(std::move(entry));
  table_ids_[name] = id;
  return id;
}

uint32_t Server::CreateTable(const std::string& name,
                             std::vector<uint32_t> keys,
                             const IndexSpec& spec) {
  CheckNewTable("CreateTable", name);
  return AddTable(name, {U32Table{BuildIndex(spec, std::move(keys),
                                             options_.collect_stats)}});
}

uint32_t Server::CreateTable64(const std::string& name,
                               std::vector<uint64_t> keys,
                               const IndexSpec& spec) {
  CheckNewTable("CreateTable64", name);
  return AddTable(name, {U64Table{BuildIndex(spec.WithKeyWidth(8),
                                             std::move(keys),
                                             options_.collect_stats)}});
}

uint32_t Server::CreateStringTable(const std::string& name,
                                   std::vector<std::string> values,
                                   const IndexSpec& spec) {
  CheckNewTable("CreateStringTable", name);
  // The dictionary stores each distinct value once; the key column keeps
  // every occurrence, encoded (one domain lookup per cell — §2.1's load
  // path, and the workload CSS-trees were built for).
  auto dom = std::make_shared<const domain::StringDomain>(
      domain::StringDomain::FromValues(values));
  std::vector<uint32_t> ids;
  ids.reserve(values.size());
  for (const std::string& v : values) ids.push_back(*dom->Encode(v));
  StringTable table{BuildIndex(spec.WithKeyWidth(4), std::move(ids),
                               options_.collect_stats),
                    std::make_unique<StringHead>()};
  table.Publish(std::move(dom));
  return AddTable(name, {std::move(table)});
}

void Server::Start() {
  if (started_) throw std::logic_error("Server already started");
  started_ = true;
  writer_ = std::thread(&Server::WriterLoop, this);
}

void Server::Stop() {
  queue_.Close();
  if (writer_.joinable()) writer_.join();
  stopped_ = true;
}

Session Server::OpenSession() { return Session(this); }

ServerStats Server::writer_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::shared_ptr<const MaintainedIndex::Version> Server::TableSnapshot(
    const std::string& name) const {
  const auto& kind = KnownTable(name).kind;
  if (const auto* table = std::get_if<U32Table>(&kind)) {
    return table->Read().snap;
  }
  if (const auto* table = std::get_if<StringTable>(&kind)) {
    return table->Read().pair->ids;
  }
  throw std::out_of_range("table " + name +
                          " holds 8-byte keys; use TableSnapshot64");
}

std::shared_ptr<const MaintainedIndex64::Version> Server::TableSnapshot64(
    const std::string& name) const {
  if (const auto* table = std::get_if<U64Table>(&KnownTable(name).kind)) {
    return table->Read().snap;
  }
  throw std::out_of_range("table " + name + " does not hold 8-byte keys");
}

std::shared_ptr<const domain::StringDomain> Server::TableDomain(
    const std::string& name) const {
  if (const auto* table = std::get_if<StringTable>(&KnownTable(name).kind)) {
    return table->Read().pair->domain;
  }
  throw std::out_of_range("table " + name + " is not a string table");
}

const MaintenanceStats& Server::TableMaintenanceStats(
    const std::string& name) const {
  return std::visit(
      [](const auto& table) -> const MaintenanceStats& {
        return table.index->stats();
      },
      KnownTable(name).kind);
}

WorkloadProfile Server::TableWorkloadProfile(const std::string& name) const {
  const std::shared_ptr<ProbeStatsCollector>& collector = std::visit(
      [](const auto& table) -> const std::shared_ptr<ProbeStatsCollector>& {
        return table.index->stats_collector();
      },
      KnownTable(name).kind);
  if (!collector) {
    throw std::logic_error("stats not enabled for table " + name +
                           " (Server::Options::collect_stats)");
  }
  return collector->Profile();
}

const IndexSpec& Server::TableSpec(const std::string& name) const {
  return std::visit(
      [](const auto& table) -> const IndexSpec& {
        return table.index->spec();
      },
      KnownTable(name).kind);
}

const Server::TableEntry* Server::FindTable(const std::string& name) const {
  auto it = table_ids_.find(name);
  return it == table_ids_.end() ? nullptr : &tables_[it->second];
}

const Server::TableEntry& Server::KnownTable(const std::string& name) const {
  const TableEntry* entry = FindTable(name);
  if (entry == nullptr) throw std::out_of_range("unknown table " + name);
  return *entry;
}

void Server::WriterLoop() {
  std::vector<QueuedUpdate> drained;
  while (queue_.DrainAll(&drained)) {
    ServerStats delta;
    ++delta.drain_cycles;
    delta.batches_applied += drained.size();
    // Group the backlog per table, preserving arrival order within and
    // across groups (first-appearance order), then coalesce each group
    // into ONE sorted batch: one version published per table per cycle,
    // however deep the backlog got.
    std::vector<uint32_t> order;
    std::map<uint32_t, std::vector<QueuedUpdate>> groups;
    for (QueuedUpdate& update : drained) {
      auto [it, fresh] = groups.try_emplace(update.table);
      if (fresh) order.push_back(update.table);
      it->second.push_back(std::move(update));
    }
    for (uint32_t table : order) {
      std::visit(
          [&](auto& kind) { ApplyGroup(kind, table, groups[table], &delta); },
          tables_[table].kind);
    }
    drained.clear();
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.drain_cycles += delta.drain_cycles;
    stats_.batches_applied += delta.batches_applied;
    stats_.groups_published += delta.groups_published;
    stats_.keys_inserted += delta.keys_inserted;
    stats_.keys_deleted += delta.keys_deleted;
  }
}

template <typename Table>
void Server::ApplyGroup(Table& table, uint32_t table_id,
                        std::vector<QueuedUpdate>& updates,
                        ServerStats* delta) {
  // Spec-swap requests ride the queue (so they serialize with writes) but
  // never fold into a Coalesce group: pull them out, apply the cycle's
  // data first, then the last requested swap — the swap sees every write
  // that preceded it.
  std::vector<typename Table::Batch> batches;
  std::optional<IndexSpec> respec;
  for (QueuedUpdate& update : updates) {
    if (IndexSpec* spec = std::get_if<IndexSpec>(&update.payload)) {
      respec = *spec;
    } else {
      batches.push_back(
          std::move(std::get<typename Table::Batch>(update.payload)));
    }
  }
  // Counts a publish when the table's sequence moved, and journals `group`
  // as the version the table is at now.
  uint64_t last = table.index->sequence();
  auto record = [&](AppliedGroup group) {
    group.table = table_id;
    group.sequence = table.index->sequence();
    if (group.sequence != last) ++delta->groups_published;
    last = group.sequence;
    if (options_.journal) journal_.push_back(std::move(group));
  };
  if (!batches.empty()) {
    typename Table::Batch merged = Coalesce(batches);
    delta->keys_inserted += merged.inserts.size();
    delta->keys_deleted += merged.deletes.size();
    table.Apply(std::move(merged));
    AppliedGroup group;
    group.*Table::kJournal = std::move(batches);
    record(std::move(group));
  }
  if (respec && table.Respec(*respec)) {
    AppliedGroup group;
    group.respec = true;
    group.respec_spec = *respec;
    record(std::move(group));
  }
}

StatementResult Session::Execute(std::string_view text) {
  ++stats_.statements;
  std::string error;
  std::optional<Statement> stmt = ParseStatement(text, &error);
  if (!stmt) {
    ++stats_.parse_errors;
    return Failed(StatementStatus::kParseError, std::move(error));
  }
  return ExecuteParsed(*stmt);
}

StatementResult Session::ExecuteParsed(const Statement& stmt) {
  const Server::TableEntry* entry = server_->FindTable(stmt.table);
  if (entry == nullptr) {
    return Failed(StatementStatus::kUnknownTable,
                  "unknown table " + stmt.table);
  }
  const uint32_t table_id =
      static_cast<uint32_t>(entry - server_->tables_.data());
  return std::visit(
      [&](const auto& table) { return ExecuteOn(table, table_id, stmt); },
      entry->kind);
}

template <typename Table>
StatementResult Session::ExecuteOn(const Table& table, uint32_t table_id,
                                   const Statement& stmt) {
  using Key = typename Table::Key;
  StatementResult result;
  auto bump_probes = [&](uint64_t n) {
    stats_.probes += n;
    server_->probes_served_.fetch_add(n, std::memory_order_relaxed);
  };

  switch (stmt.verb) {
    case Verb::kFind:
    case Verb::kCount: {
      const typename Table::View view = table.Read();
      std::vector<Key> probes;
      if (!view.Probes(stmt, &probes, &result)) return result;
      const auto& ids = view.ids();
      if (stmt.verb == Verb::kFind) {
        result.positions.resize(probes.size());
        ids.index().FindBatch(probes, result.positions);
      } else {
        result.counts.resize(probes.size());
        ids.index().CountEqualBatch(probes, result.counts);
        for (size_t c : result.counts) result.count += c;
      }
      result.version = ids.sequence();
      bump_probes(probes.size());
      return result;
    }
    case Verb::kRange: {
      const typename Table::View view = table.Read();
      if (!view.Range(stmt, &result)) return result;
      result.count = result.range_end - result.range_begin;
      result.version = view.ids().sequence();
      bump_probes(2);
      return result;
    }
    case Verb::kJoin: {
      const Server::TableEntry* other = server_->FindTable(stmt.table2);
      if (other == nullptr) {
        return Failed(StatementStatus::kUnknownTable,
                      "unknown table " + stmt.table2);
      }
      const Table* inner_table = std::get_if<Table>(&other->kind);
      if (inner_table == nullptr) {
        return Failed(StatementStatus::kBadKey,
                      "JOIN requires both tables to hold the same key "
                      "type: '" +
                          stmt.table + "' and '" + stmt.table2 + "' differ");
      }
      // Both sides pinned to one snapshot each; the outer's sorted keys
      // stream through the inner's CountEqualBatch a block at a time, so
      // the pair cardinality is consistent-as-of (version, version2).
      const typename Table::View outer = table.Read();
      const typename Table::View inner = inner_table->Read();
      const auto to_inner = inner.JoinKeyMap(outer);
      constexpr size_t kBlock = 4096;
      const size_t outer_size = outer.ids().size();
      std::vector<Key> block(std::min(outer_size, kBlock));
      std::vector<size_t> counts(block.size());
      size_t len = 0;
      auto flush = [&] {
        inner.ids().index().CountEqualBatch(
            std::span<const Key>(block.data(), len),
            std::span<size_t>(counts.data(), len));
        for (size_t i = 0; i < len; ++i) result.count += counts[i];
        len = 0;
      };
      // Streamed segment by segment: a part:K outer is never flattened.
      outer.ids().ForEachKey([&](Key k) {
        block[len++] = to_inner(k);
        if (len == kBlock) flush();
      });
      if (len > 0) flush();
      result.version = outer.ids().sequence();
      result.version2 = inner.ids().sequence();
      bump_probes(outer_size);
      return result;
    }
    case Verb::kAdvise: {
      // The profile lives on the table's collector (string tables advise
      // on their ID index — same probes, same mix). Model-only here: the
      // writer, not the session, pays any rebuild.
      const std::shared_ptr<ProbeStatsCollector>& collector =
          table.index->stats_collector();
      if (!collector) {
        return Failed(
            StatementStatus::kUnsupported,
            "ADVISE needs stats collection (Server::Options::collect_stats)");
      }
      const typename Table::View view = table.Read();
      advisor::AdvisorOptions opts;
      opts.space_budget_bytes = server_->options_.advise_space_budget_bytes;
      opts.key_width = sizeof(Key);
      advisor::Recommendation rec = advisor::Advise(
          collector->Profile(), view.ids().size(), opts);
      if (!rec.ok) return Failed(StatementStatus::kUnsupported, rec.error);
      result.version = view.ids().sequence();
      result.advice = rec.rationale;
      result.recommended_spec = rec.spec.ToString();
      if (!stmt.apply) return result;
      if (!server_->options_.allow_spec_swap) {
        return Failed(StatementStatus::kUnsupported,
                      "ADVISE APPLY needs Server::Options::allow_spec_swap");
      }
      result = Enqueue(QueuedUpdate{table_id, rec.spec}, std::move(result));
      result.applied = result.ok();
      return result;
    }
    case Verb::kInsert:
    case Verb::kDelete: {
      typename Table::Batch batch;
      if (!Table::Operands(stmt,
                           stmt.verb == Verb::kInsert ? &batch.inserts
                                                      : &batch.deletes,
                           &result)) {
        return result;
      }
      return Enqueue(QueuedUpdate{table_id, std::move(batch)},
                     std::move(result));
    }
  }
  return result;  // unreachable
}

StatementResult Session::Enqueue(QueuedUpdate update,
                                 StatementResult result) {
  switch (server_->queue_.Push(std::move(update))) {
    case UpdateQueue::PushResult::kOk:
      ++stats_.writes_enqueued;
      return result;
    case UpdateQueue::PushResult::kRejected:
      ++stats_.writes_rejected;
      result.status = StatementStatus::kRejected;
      result.error = "queue full";
      return result;
    case UpdateQueue::PushResult::kClosed:
      ++stats_.writes_rejected;
      result.status = StatementStatus::kClosed;
      result.error = "server stopped";
      return result;
  }
  return result;  // unreachable
}

}  // namespace cssidx::serve
