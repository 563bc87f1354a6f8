// StorageEngine — the durability subsystem under DocumentStore.
//
// One engine owns one directory. Every collection is split into N shards
// (uniform per store, N = EngineOptions::shards or whatever the directory
// was written with), and each shard owns its own write-ahead log and
// snapshot, so writers to different shards never share an fsync batch or a
// WAL mutex. The existing Collection/DocumentStore API sits unchanged on
// top: every insert/update/remove appends an operation frame to its
// shard's WAL *before* mutating memory (write-ahead), and once a shard's
// WAL outgrows `checkpoint_wal_bytes` that shard alone is checkpointed —
// an atomic snapshot write followed by WAL truncation (compaction).
// Opening a directory replays every shard's snapshot + WAL tail in
// parallel (src/parallel), tolerating a torn final record per log.
//
// On-disk layout (N = shard count):
//
//   engine.manifest               {"format":1,"shards":N} — atomic flip
//   <coll>.s<k>of<N>.wal / ...snapshot        k in [0, N), any N >= 1
//   engine.commit.s<N>.wal        logical cross-shard commit records
//   engine.lock                   empty; flock(LOCK_EX) held by the open
//                                 engine, so one directory has one writer
//
// One naming rule holds at every N, and the engine reads nothing else: a
// `<coll>.json` file or an unsuffixed `<coll>.wal`/`.snapshot` in the
// directory makes open refuse (naming the file, deleting nothing) rather
// than guess what it holds. Opening with a different
// EngineOptions::shards than the directory holds migrates it: the store is
// recovered at the old count, repartitioned in memory, written out as
// full-coverage snapshots under the new names, and committed by atomically
// rewriting engine.manifest — the single flip point. Files whose embedded
// shard count disagrees with the manifest are debris from a crashed
// migration (the flip never happened, or cleanup never finished) and are
// deleted on open; a missing manifest next to engine files is refused.
//
// Shard WAL operation payloads (compact JSONL, see wal.hpp for framing):
//
//   {"o":"i","d":{...doc with _id...}}       insert
//   {"o":"b","ds":[{...},...]}               atomic batch insert
//   {"o":"u","q":{...},"u":{...}}            update(query, fields)
//   {"o":"r","q":{...}}                      remove(query)
//
// Every mutation reaches the WAL through one routine (Collection::commit)
// as a set of (collection, shard, op) members, and the rule lives there
// alone: a mutation that touches ONE shard is that shard's own frame above
// (a single-shard insert, batch, update or remove, or an insert_atomic whose
// documents all land on one shard), written without the commit gate — one
// frame is replayed whole or not at all. A mutation that touches several
// shards or collections (a multi-shard batch insert, an N>1 update/remove,
// a DocumentStore::insert_atomic crowd upload touching problem + machine +
// runs collections) is ONE frame in the engine commit WAL:
//
//   {"m":[{"c":<coll>,"s":<shard>,"q":<seq>,"op":{...}}, ...]}
//
// Each member shard only *reserves* a slot in its own sequence space
// (WalWriter::reserve — no frame), and the commit record carries those
// seqs, so replay merges a shard's local frames with its commit members
// back into exact application order. Atomicity is the single frame:
// recovery applies every member or — when the record never reached the
// disk — none, and the durability ack (CommitTicket) waits on the commit
// WAL alone. Before any shard snapshot is written the commit WAL is
// fsynced, so a snapshot can never durably cover one member of a commit
// whose record (and hence whose other members) a power loss could erase.
//
// Durability: every WAL fsync runs through WalWriter::sync_to, whose
// callers share one fdatasync per WAL (leader/follower group commit, see
// wal.hpp) — the engine starts no thread. With async_commit off a mutation
// waits on its own ticket before it returns; with it on, the caller acks
// through wait_durable. A checkpoint marks the WAL durable up to its
// snapshot's last_seq, releasing such waiters without an fsync.
//
// Concurrency and lock order (outermost first):
//   commit_gate (shared for cross-shard commits, exclusive for commit-WAL
//   compaction) -> collection shard shared_mutexes (collection name order,
//   then ascending shard index) -> WalWriter::sync_mu_ -> WalWriter::mu_
//   (the leaf). Single-shard mutators skip the gate entirely, and a
//   mutation's durability wait runs after its shard locks are released.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/engine/fault.hpp"
#include "db/engine/fsutil.hpp"
#include "db/engine/wal.hpp"
#include "json/json.hpp"

namespace gptc::db {
class Collection;
class DocumentStore;
}  // namespace gptc::db

namespace gptc::db::engine {

struct EngineOptions {
  /// Checkpoint (snapshot + WAL truncation) when a shard's WAL exceeds
  /// this; the engine commit WAL triggers a full compaction at the same
  /// threshold.
  std::uint64_t checkpoint_wal_bytes = 1u << 20;
  /// false: a mutation returns only once its WAL frame is durable (writers
  /// racing on one WAL share its fsyncs). true: a mutation returns once
  /// logged, and the caller acks through wait_durable() — the mode the
  /// network server runs in, so its workers batch fsyncs across requests.
  /// No thread syncs in the background: with true, a frame nobody waits
  /// on (a user registration, an index declaration) stays unsynced until a
  /// later wait_durable()/sync_to() on its WAL, a checkpoint, sync() or
  /// close — the caller that reports success must sync() first.
  bool async_commit = false;
  /// Shards per collection: 0 = whatever the directory holds (1 for a
  /// fresh one); any other value migrates the directory on open if it
  /// disagrees.
  std::size_t shards = 0;
  /// Worker threads for parallel shard recovery; 0 = hardware concurrency.
  std::size_t recovery_threads = 0;
  /// Test hook; not owned, may be nullptr.
  FaultInjector* fault = nullptr;
};

/// Durability token: the WAL a mutation's commit frame lives in plus its
/// sequence there. seq 0 means "nothing to wait for" (non-durable store or
/// empty batch). Returned by Collection/DocumentStore mutators and handed
/// back to StorageEngine::wait_durable — the server acks an upload only
/// after its ticket resolves.
struct CommitTicket {
  std::string wal;
  std::uint64_t seq = 0;
};

class StorageEngine {
 public:
  StorageEngine(std::filesystem::path dir, EngineOptions opts);

  const std::filesystem::path& dir() const { return dir_; }
  const EngineOptions& options() const { return opts_; }

  /// Shards per collection for this store (resolved against the directory
  /// manifest; stable after recover()).
  std::size_t shard_count() const { return shard_count_; }

  /// WAL/snapshot file stem for one shard: "<coll>.s<k>of<of>". Doubles as
  /// the argument to wal_bytes()/wait_durable().
  static std::string shard_stem(const std::string& collection,
                                std::size_t shard, std::size_t of);

  /// Stem of the engine commit WAL for the current shard count.
  std::string commit_wal_stem() const;

  /// Rebuilds every collection found in the directory (snapshots, shard
  /// WALs, commit-WAL members) into `store`, attaching the engine to each;
  /// shards recover in parallel. Called once by DocumentStore::open_durable
  /// before the store is visible to anyone. Performs the shard-count
  /// migration when EngineOptions::shards disagrees with the directory.
  /// Throws std::runtime_error when an artifact is rejected rather than
  /// merely torn: a snapshot that exists but fails its checksum/parse, a
  /// WAL with mid-log corruption, engine files without a manifest, or a
  /// file outside the naming rule (`<coll>.json`, unsuffixed
  /// `<coll>.wal`/`.snapshot`) — refusing to open beats silently
  /// discarding or shadowing committed records.
  void recover(DocumentStore& store);

  /// Called when recover() throws: releases the directory lock, removing
  /// engine.lock if this open created it, so a refused directory is left
  /// exactly as it was found.
  void abandon();

  /// Re-points the engine at its owning store after that store moved
  /// (open_durable returns it by value). Not safe against concurrent use.
  void rebind(DocumentStore& store) { store_ = &store; }

  /// Non-fatal recovery notes from the last recover() call — one entry per
  /// shard whose WAL ended in a torn final record (truncated back to the
  /// last complete frame). Deterministic order (collection, then shard).
  const std::vector<std::string>& recovery_warnings() const {
    return recovery_warnings_;
  }

  /// Appends one op frame to shard `shard` of `c` and returns its ticket:
  /// the shard's WAL stem and the frame's sequence number (seq 0 while
  /// replaying). Called by Collection's commit routine under that shard's
  /// writer lock, before the op is applied in memory.
  CommitTicket log_op(const Collection& c, std::size_t shard,
                      const json::Json& op);

  /// One member of a commit: an op on one shard of one collection.
  struct CommitMember {
    Collection* collection = nullptr;
    std::size_t shard = 0;
    json::Json op;
  };

  /// Appends ONE commit-WAL frame covering every member, reserving each
  /// member's slot in its shard's sequence space first. The caller must
  /// hold commit_gate() shared plus every member shard's writer lock, and
  /// applies the members in memory only after this returns. Throws (and
  /// leaves nothing to recover — reserved slots are mere gaps) at the
  /// CommitReserve/CommitAppend fault points and on I/O failure.
  CommitTicket log_commit(const std::vector<CommitMember>& members);

  /// Outermost lock of the engine: cross-shard commits hold it shared,
  /// commit-WAL compaction exclusively. See the lock-order note above.
  std::shared_mutex& commit_gate() { return commit_gate_; }

  /// Highest WAL sequence logged for the WAL keyed `wal` — a shard_stem()
  /// or commit_wal_stem() value (0 if that WAL does not exist yet).
  std::uint64_t last_logged_seq(const std::string& wal) const;

  /// Blocks until every frame of WAL `wal` with sequence <= `seq` is
  /// durable (fsynced frames or a covering snapshot), fsyncing on the
  /// calling thread unless another caller's fsync covers it
  /// (WalWriter::sync_to). Throws once that WAL's fsync has failed, and
  /// CrashInjected at an armed CommitFsync fault. seq 0 is a no-op.
  void wait_durable(const std::string& wal, std::uint64_t seq);
  void wait_durable(const CommitTicket& ticket) {
    wait_durable(ticket.wal, ticket.seq);
  }

  /// WAL bytes known durable (last fsync) for one WAL — the offset crash
  /// tests truncate to when modelling a power loss.
  std::uint64_t wal_synced_bytes(const std::string& wal) const;

  /// Current size of one WAL (0 if it does not exist yet).
  std::uint64_t wal_bytes(const std::string& wal) const;

  /// Checkpoints shard `shard` of `c` if its WAL crossed the threshold.
  /// Called by Collection mutators AFTER releasing the shard's writer lock
  /// (checkpoint_shard takes it briefly for the state capture; the snapshot
  /// I/O runs with the shard unlocked).
  // blocking-ok: size-amortized checkpoint entry point — the snapshot I/O runs outside any shard lock
  void maybe_checkpoint(Collection& c, std::size_t shard);

  /// Forces a checkpoint of every shard of `c` (takes the shard locks
  /// itself, one brief capture at a time).
  void checkpoint(Collection& c);

  /// Full compaction: checkpoints every shard of every collection and
  /// truncates the engine commit WAL (whose records the fresh snapshots
  /// now cover). Takes commit_gate() exclusively.
  void checkpoint_all();

  /// Size-triggered checkpoint_all(): runs when the commit WAL outgrew
  /// checkpoint_wal_bytes. Callers must hold NO engine or shard locks.
  // blocking-ok: size-amortized compaction entry point — runs with no caller-held locks, only past the WAL size threshold
  void maybe_compact_commits();

  /// Makes every logged frame of every WAL durable. Syncs every WAL even
  /// if one throws (a poisoned WAL), then rethrows the first error.
  void sync();

 private:
  /// Gets (creating empty on first touch) the WAL keyed `key`, stored at
  /// dir_/<key>.wal.
  WalWriter& wal_for(const std::string& key);
  WalWriter* find_wal(const std::string& key) const;
  /// Commit records folded into a snapshot must be durable first — else a
  /// power loss could keep the snapshot (one member applied) but erase the
  /// record (every other member lost). Cheap when nothing is pending.
  void sync_commit_wal_if_pending();
  /// Snapshots one shard and compacts its WAL. Takes the shard's writer
  /// lock only for the in-memory state capture; the commit-WAL sync, the
  /// snapshot write and the WAL truncation all run with the shard unlocked,
  /// so writers block for the serialization, not the disk.
  void checkpoint_shard(Collection& c, std::size_t shard);
  // guard-ok: single-threaded recovery-time shard-count migration
  void migrate_shard_count(DocumentStore& store, std::size_t from,
                           std::size_t to);

  std::filesystem::path dir_;  // guard-ok: immutable after construction
  EngineOptions opts_;         // guard-ok: immutable after construction
  /// Held for the engine's lifetime; declared before every file-owning
  /// member so it is released only after they are closed.
  FileLock lock_;  // guard-ok: set once in the constructor
  // guard-ok: written only during single-threaded recovery/migration
  std::size_t shard_count_ = 1;
  // guard-ok: written only during single-threaded recovery
  std::vector<std::string> recovery_warnings_;
  // guard-ok: toggled only during single-threaded recovery replay
  bool replaying_ = false;
  // guard-ok: set by recover() and rebind(), before any concurrent use
  DocumentStore* store_ = nullptr;  // owner of this engine
  std::shared_mutex commit_gate_;
  /// Serializes whole checkpoints. Without it, two threads interleaving
  /// capture and rename for the same shard could install an older snapshot
  /// over a newer one after the newer one already truncated the WAL.
  std::mutex checkpoint_mu_;
  mutable std::mutex wals_mu_;  // guards the map shape only
  using WalMap = std::map<std::string, std::unique_ptr<WalWriter>>;
  /// Entries are never erased, so a WalWriter* stays valid for the
  /// engine's lifetime once looked up.
  WalMap wals_;  // guarded_by: wals_mu_
};

}  // namespace gptc::db::engine
