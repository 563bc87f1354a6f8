// JSON document store — the single-node equivalent of the paper's MongoDB
// backend (Fig. 2).
//
// Collections hold JSON object documents with an auto-assigned integer
// "_id". Queries are Mongo-style match expressions, which is what the
// crowd layer translates the paper's problem_space / configuration_space
// meta descriptions into:
//
//   {"task_parameters.m": {"$gte": 1000, "$lt": 20000},
//    "machine_configuration.machine_name": {"$in": ["Cori", "cori"]}}
//
// Supported operators: $eq, $ne, $gt, $gte, $lt, $lte, $in, $nin, $exists,
// plus top-level/nested $and, $or, $not. Field paths use dot notation and
// may step through arrays with numeric segments ("tuning_parameters.grid.0").
//
// A collection is internally split into N shards (N = 1 unless the store
// was opened with more): documents hash to a shard by id, and each shard
// owns its docs, its secondary-index set, its shared_mutex and — in
// durable mode — its own WAL and snapshot, so writers to different shards
// never contend. The split is invisible at this API: queries fan out under
// every shard's reader lock and merge by id, which IS insertion order
// (ids are assigned from one monotone counter), so results are
// byte-identical to the unsharded store.
//
// Every mutation — insert, insert_batch, update, remove, and
// DocumentStore::insert_atomic across collections — goes through one
// commit routine as a set of (collection, shard, op) members, applied under
// every member shard's writer lock. That routine alone decides how the
// mutation reaches the WAL: one member is its shard's own WAL frame, several
// are one logical commit record (engine.hpp) — readers and crash recovery
// observe none or all of such a mutation.
//
// A default-constructed store lives in memory only. open_durable() is the
// one way a store is read from or written to a directory: the storage
// engine in src/db/engine — per-shard write-ahead logs with CRC32-framed
// records whose concurrent writers share fsyncs (group commit), atomic
// snapshots + compaction, parallel crash recovery that tolerates a torn
// final record per log, and cross-collection atomic batches
// (insert_atomic). A durable mutation returns once its record is on disk,
// or — with EngineOptions::async_commit — once logged, leaving the ack to
// StorageEngine::wait_durable. The Collection/DocumentStore API is
// identical either way.
//
// Collections also support ordered secondary indexes on dot-paths
// (create_index): $eq/$in/$gt/$gte/$lt/$lte predicates on an indexed path
// are routed through the index (results stay byte-identical to a scan —
// the index only narrows candidates), everything else falls back to the
// full scan; count()/exists() additionally answer straight from the index
// (no document materialization) when the index serves the query exactly.
//
// Queries execute as compiled programs (src/db/query): find/count/exists/
// update/remove lower the filter once into a flat program over pre-split
// paths, then a selectivity-aware planner (query::plan_shard) ranks every
// usable index by estimated candidate count, materializes the narrowest
// and intersects further id lists while profitable. One scan runs the
// plans of all shards and visits the matches in insertion order, stopping
// as soon as the caller has what it needs. explain() reports the chosen
// plan.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/engine/engine.hpp"
#include "db/engine/index.hpp"
#include "db/query/program.hpp"
#include "json/json.hpp"

namespace gptc::db {

using json::Json;

/// Looks up a dot-separated path ("a.b.c") in a document. Purely numeric
/// segments index into arrays ("grid.0" is grid[0]). Returns nullptr if any
/// step is missing, out of bounds, or applied to a non-container.
/// Delegates to query::lookup — one allocation-free walk shared with the
/// compiled path and the index maintenance hot loops.
const Json* lookup_path(const Json& document, const std::string& path);

class Collection {
 public:
  explicit Collection(std::string name, std::size_t shards = 1);

  Collection(Collection&&) noexcept;
  Collection& operator=(Collection&&) noexcept;

  const std::string& name() const { return name_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Inserts a document (must be a JSON object); assigns and returns its
  /// "_id". In durable mode the op is WAL-logged before it is applied.
  std::int64_t insert(Json document);

  /// Result of an atomic batch insert: the assigned ids plus the
  /// durability ticket callers hand to StorageEngine::wait_durable for an
  /// ack (ticket.seq 0 when the store is not durable).
  struct BatchInsert {
    std::vector<std::int64_t> ids;
    engine::CommitTicket ticket;
  };

  /// Inserts every document atomically: WAL-logged as ONE record (a shard
  /// batch frame, or a logical commit record when the batch spans shards)
  /// before any is applied, and applied under every affected shard's
  /// writer lock. Readers can never observe a half-applied batch, and
  /// crash recovery replays it entirely or not at all. Throws before any
  /// mutation if a document is not an object.
  BatchInsert insert_batch(std::vector<Json> documents);

  /// All documents matching the query, in insertion order.
  std::vector<Json> find(const Json& query) const;

  /// Like find(), but additionally applies `pred` to each query match
  /// while still holding the shared lock(s), copying only documents that
  /// pass both. Callers filtering an indexed partition down to a few
  /// hits avoid materialising the whole partition (find() copies every
  /// candidate's JSON tree; on hot read paths that copy dominates the
  /// query cost). `pred` must not call back into the collection.
  std::vector<Json> find_filtered(
      const Json& query, const std::function<bool(const Json&)>& pred) const;

  /// First match or null Json.
  Json find_one(const Json& query) const;

  /// Matching-document count. Served index-only — without touching a
  /// single document — when the query is one indexed field whose condition
  /// the index answers exactly (OrderedIndex::exact); otherwise it falls
  /// back to the candidate/scan path with the full predicate.
  std::size_t count(const Json& query) const;

  /// Whether any document matches. Index-only when count() would be, and
  /// an early-exit scan otherwise — either way it stops at the first hit.
  bool exists(const Json& query) const;

  /// Removes matching documents; returns how many were removed. The query
  /// is compiled (and thus validated) BEFORE anything is WAL-logged, so a
  /// malformed query throws without leaving a poisoned op in the log.
  std::size_t remove(const Json& query);

  /// Applies `update` (an object whose fields overwrite the document's) to
  /// all matches; returns how many documents changed. Like remove(), the
  /// query compiles before the op is WAL-logged.
  std::size_t update(const Json& query, const Json& update);

  /// Query-plan introspection: compiles the query and reports, per shard,
  /// whether an index scan was chosen, which indexes were considered with
  /// their selectivity estimates, which were applied, and the final
  /// candidate-set size. Read-only (takes the shard reader locks); shape:
  ///   {"query": ..., "shards": [{"shard": 0, "index_scan": true,
  ///     "candidates": 3, "shard_size": 120,
  ///     "indexes": [{"path": ..., "estimate": 8, "applied": true}, ...]},
  ///    ...]}
  Json explain(const Json& query) const;

  /// Declares (or rebuilds) an ordered secondary index on a dot-path
  /// (maintained per shard). Idempotent; existing documents are indexed
  /// immediately. Index definitions are in-memory only — reopening a store
  /// re-declares them.
  void create_index(const std::string& path);
  bool has_index(const std::string& path) const;
  std::vector<std::string> index_paths() const;

  /// Copies every document, in insertion order. (Pre-sharding this
  /// returned a reference into the single doc vector; with shards the
  /// merged view has to be materialized.)
  std::vector<Json> all() const;

  /// Visits every document in insertion order under the shard reader
  /// locks, without copying; `fn` returns false to stop early and must not
  /// call back into the collection.
  void for_each(const std::function<bool(const Json&)>& fn) const;

  /// Whole-collection state: {"name":..., "next_id":..., "docs":[...]}
  /// with docs merged across shards in insertion order. Takes the shard
  /// reader locks itself unless the caller already holds them exclusively.
  Json to_json() const;

 private:
  friend class DocumentStore;
  friend class engine::StorageEngine;

  /// One hash partition of the collection. Documents route by
  /// `_id % shard_count`, so sequential ids round-robin across shards and
  /// concurrent writers spread evenly; within a shard docs stay in
  /// insertion order (= ascending id, since ids are monotone).
  struct Shard {
    std::vector<Json> docs;                               // guarded_by: mu
    std::map<std::int64_t, std::size_t> id_pos;           // guarded_by: mu
    std::map<std::string, engine::OrderedIndex> indexes;  // guarded_by: mu
    mutable std::shared_mutex mu;
  };

  // --- engine plumbing (all called with or before any concurrent use) ----
  void attach_engine(engine::StorageEngine* e) { engine_ = e; }
  /// Re-buckets the collection into `shards` empty shards (must be called
  /// before concurrent use; existing docs are redistributed).
  // guard-ok: runs single-threaded, before any concurrent use
  void configure_shards(std::size_t shards);
  /// Replaces ONE shard's state from its snapshot (to_json shape whose
  /// docs are that shard's subset); folds next_id forward.
  // guard-ok: single-threaded recovery path
  void restore_shard(std::size_t shard, const Json& j);
  /// to_json() restricted to one shard (snapshot payload). Caller holds
  /// the shard lock or has exclusive use.
  // requires_lock: Shard::mu shared
  Json shard_to_json(std::size_t shard) const;

  // --- internals ---------------------------------------------------------
  std::size_t shard_of(std::int64_t id) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(id)) %
           shards_.size();
  }
  void insert_into_shard(Shard& s, Json document);  // requires_lock: Shard::mu
  // requires_lock: Shard::mu
  std::size_t update_shard_locked(Shard& s, const query::CompiledQuery& query,
                                  const Json& update);
  // requires_lock: Shard::mu
  std::size_t remove_shard_locked(Shard& s, const query::CompiledQuery& query);
  static void index_doc(Shard& s, const Json& doc);    // requires_lock: Shard::mu
  static void unindex_doc(Shard& s, const Json& doc);  // requires_lock: Shard::mu
  // guard-ok: single-threaded recovery/migration rebuild
  void rebuild_shard_derived(Shard& s);

  /// The one plan-and-scan loop behind every read: plans each shard for
  /// `cq` and visits the matches across shards in ascending id (=
  /// insertion) order until `visit` returns false.
  // requires_lock: Shard::mu shared
  void scan(const query::CompiledQuery& cq,
            const std::function<bool(const Json&)>& visit) const;
  /// count() and exists(): matches counted until `limit` is reached,
  /// index-only when the query is one exactly-served indexed condition.
  std::size_t count_upto(const Json& query, std::size_t limit) const;

  // --- writes: every mutation is a set of (collection, shard, op) members
  // handed to commit(); ops use the shard-WAL payload shapes (engine.hpp).
  using Member = engine::StorageEngine::CommitMember;
  struct Committed {
    engine::CommitTicket ticket;  // the durability ack's handle
    std::size_t applied = 0;      // documents the ops inserted/changed/removed
  };
  /// Assigns ids to `documents` and appends one batch-insert member per
  /// shard they land on; returns the ids in document order.
  std::vector<std::int64_t> stage_batch(std::vector<Json> documents,
                                        std::vector<Member>& members);
  /// One member per shard carrying `op` (update/remove: a query can match
  /// documents on any shard).
  std::vector<Member> on_every_shard(const Json& op);
  /// The one commit routine. Under every member shard's writer lock (taken
  /// in collection-name, then shard order) it WAL-logs the members and then
  /// applies them: a single member is its shard's own WAL frame, written
  /// without the commit gate; several are ONE commit-WAL record written
  /// under the gate held shared. Without an engine (in-memory store) it
  /// only locks and applies. After the locks are released it waits for the
  /// record to be durable (unless EngineOptions::async_commit), then runs
  /// checkpoints and, for a commit record, the commit-WAL compaction.
  static Committed commit(engine::StorageEngine* engine,
                          std::vector<Member> members);
  /// Applies one op payload to one shard: the commit routine's apply step
  /// (under the shard's writer lock) and recovery's replay step (single-
  /// threaded, before the store is shared) alike, so what is applied is
  /// exactly what was logged. Returns the number of documents it touched.
  // requires_lock: Shard::mu
  std::size_t apply_op(std::size_t shard, Json op);

  std::string name_;  // guard-ok: immutable after construction
  std::atomic<std::int64_t> next_id_{1};
  // guard-ok: vector shape fixed by single-threaded configure_shards;
  // concurrent phases only dereference the stable unique_ptrs
  std::vector<std::unique_ptr<Shard>> shards_;
  // guard-ok: declared during single-threaded setup, read-only afterwards
  std::vector<std::string> index_paths_;  // declared defs, mirrored per shard
  // guard-ok: attached once before any concurrent use
  engine::StorageEngine* engine_ = nullptr;  // owned by the DocumentStore
};

class DocumentStore {
 public:
  DocumentStore() = default;
  /// Moves re-point the storage engine at the new owner: checkpoint_all()
  /// walks the owner's collections through that pointer.
  DocumentStore(DocumentStore&& other) noexcept;
  DocumentStore& operator=(DocumentStore&& other) noexcept;

  /// Gets (creating on demand) a collection.
  Collection& collection(const std::string& name);
  const Collection* find_collection(const std::string& name) const;
  std::vector<std::string> collection_names() const;

  /// Result of insert_atomic: assigned ids per collection plus the
  /// durability ticket of the commit record.
  struct AtomicInsert {
    std::map<std::string, std::vector<std::int64_t>> ids;
    engine::CommitTicket ticket;
  };

  /// Inserts documents into SEVERAL collections as one logical commit —
  /// the paper's crowd upload writes problem, machine, and run records
  /// that must land whole-or-nothing. In durable mode the members are ONE
  /// WAL record (a commit-WAL record, or the shard's batch frame when every
  /// document lands on one shard), so crash recovery yields all of them or
  /// none; they apply under every member shard's writer lock at once, so
  /// no read sees a collection's share half-applied. Throws before any
  /// mutation on a non-object document.
  AtomicInsert insert_atomic(std::map<std::string, std::vector<Json>> docs);

  /// Opens a directory with the storage engine: replays snapshots + shard
  /// WALs and WAL-logs every subsequent mutation. See
  /// src/db/engine/engine.hpp.
  static DocumentStore open_durable(const std::filesystem::path& dir,
                                    engine::EngineOptions options = {});

  bool durable() const { return engine_ != nullptr; }
  engine::StorageEngine* storage_engine() { return engine_.get(); }

  /// Durable mode: make every logged WAL frame durable / force snapshots
  /// and WAL truncation for every shard of every collection. No-ops when
  /// not durable.
  void sync();
  void checkpoint_all();

 private:
  friend class engine::StorageEngine;

  // guard-ok: map shape fixed during single-threaded setup (open_durable or
  // pre-traffic collection() calls); concurrent phases only look up entries
  std::map<std::string, Collection> collections_;
  // guard-ok: set once by open_durable before any concurrent use
  std::unique_ptr<engine::StorageEngine> engine_;
};

}  // namespace gptc::db
