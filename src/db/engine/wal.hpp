// Write-ahead log: CRC32-framed, sequence-numbered JSONL.
//
// On-disk format — one frame per line:
//
//   <seq:16 hex> <crc32:8 hex> <payload: compact JSON>\n
//
// The checksum covers "<seq hex> <payload>".
//
// Fsync policy: append() only writes; a frame becomes durable through
// sync_to(seq), the one routine that issues the log's fdatasync. It is
// leader/follower group commit without a thread: the first caller whose seq
// is not yet durable becomes the leader under the sync mutex, notes the
// newest logged seq and byte count, and fsyncs outside the append mutex so
// appends continue meanwhile; callers queued behind it then find their
// frames covered and return without an fsync of their own. Any fsync
// failure poisons the writer: the kernel may already have dropped the
// dirty pages, so no later fsync could vouch for them, and every later
// append, reserve, sync and truncation throws until the log is reopened.
//
// Replay tolerates a torn final record — and ONLY a torn final record. A
// crash can tear at most the last frame, so a bad frame is treated as a
// torn tail (replay ends at the previous frame boundary, reporting the byte
// offset so recovery can truncate before appending again) only when it is
// genuinely the end of the log: either an incomplete final line, or a
// complete final line with at least one earlier valid frame. Anything else
// — a bad frame with further data after it, or a complete first line that
// fails — cannot come from a torn write; it means mid-log corruption, and
// replay reports an error instead of classifying it as torn, so committed
// records are never silently discarded.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "db/engine/fault.hpp"
#include "json/json.hpp"

namespace gptc::db::engine {

struct WalRecord {
  std::uint64_t seq = 0;
  json::Json payload;
};

struct WalReplay {
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;  // offset just past the last good frame
  bool torn_tail = false;         // a torn final record was skipped
  /// Set when the log is rejected (mid-log corruption) rather than merely
  /// torn: `records` hold the valid prefix, but the caller must refuse to
  /// open instead of truncating to it.
  std::optional<std::string> error;
};

/// Reads every valid frame of `path` (missing file -> empty replay).
WalReplay replay_wal(const std::filesystem::path& path);

class WalWriter {
 public:
  /// Opens (creating) the log for appending. `existing_bytes` is the
  /// already-valid prefix length from replay; the file is truncated to it
  /// first so a torn tail from a previous crash never precedes new frames.
  /// Every seq below `next_seq` counts as durable.
  WalWriter(std::filesystem::path path, std::uint64_t next_seq,
            std::uint64_t existing_bytes, FaultInjector* fault);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one frame without syncing it; returns its sequence number.
  /// Throws CrashInjected at an armed fault point and std::runtime_error on
  /// real I/O failure or when the writer is poisoned. A failed write leaves
  /// the log as it was before the call (truncated back to the last frame
  /// boundary); when that truncation fails too, the writer is poisoned.
  std::uint64_t append(const json::Json& payload);

  /// Claims the next sequence number WITHOUT writing a frame. Used by
  /// cross-shard logical commits (engine.hpp): the op lives in the engine
  /// commit WAL, but it still occupies a slot in this shard's sequence
  /// space so replay can merge the two streams back into the exact
  /// application order. A reserved-but-never-committed slot is just a gap —
  /// replay tolerates gaps, it only requires monotonicity.
  std::uint64_t reserve();

  /// Returns once every frame with sequence <= `seq` is durable (an fsync
  /// or a covering snapshot). Concurrent callers share one fdatasync (see
  /// the fsync policy above). Throws CrashInjected at an armed CommitFsync
  /// fault, and std::runtime_error on an fsync error; either poisons the
  /// writer, after which every call throws, covered seq or not.
  void sync_to(std::uint64_t seq);

  /// sync_to() the newest logged sequence number.
  void sync();

  /// Records that a synced snapshot covers every sequence number <=
  /// `last_seq`: those count as durable from now on, and when no record was
  /// appended after `last_seq` the log is truncated to zero (post-snapshot
  /// compaction). The checkpoint path captures shard state, writes the
  /// snapshot with the shard unlocked, and must not discard records that
  /// landed in between. Sequence numbers keep increasing across the
  /// truncation. Returns whether the log was truncated.
  bool covered_by_snapshot(std::uint64_t last_seq);

  std::uint64_t next_seq() const;
  std::uint64_t bytes() const;

  /// Bytes known durable as of the last successful fsync (or the replayed
  /// prefix at open). The gap bytes()-synced_bytes() is what a power loss
  /// would take with it — crash tests truncate the file to this offset to
  /// model losing the page cache (a process kill alone keeps it).
  std::uint64_t synced_bytes() const;

 private:
  /// The fdatasync itself, with the CommitFsync/WalSyncError fault points;
  /// poisons the writer and throws on failure. Caller holds sync_mu_.
  void fdatasync_or_poison();
  // requires_lock: mu_
  void throw_if_poisoned() const;
  // requires_lock: mu_
  void poison(std::string reason, bool crash);

  std::filesystem::path path_;   // guard-ok: immutable after construction
  std::uint64_t next_seq_;       // guarded_by: mu_
  std::uint64_t bytes_ = 0;      // guarded_by: mu_
  std::uint64_t durable_seq_;    // guarded_by: mu_
  std::uint64_t synced_bytes_ = 0;  // guarded_by: mu_
  /// Why the writer refuses every call; empty = healthy. crashed_ marks a
  /// poisoning by an injected crash (rethrown as CrashInjected).
  std::string poisoned_;         // guarded_by: mu_
  bool crashed_ = false;         // guarded_by: mu_
  int fd_ = -1;  // guard-ok: immutable after construction
  // guard-ok: not owned, may be nullptr; set once before any thread starts
  FaultInjector* fault_;
  /// Lock order: sync_mu_ -> mu_. sync_mu_ admits one fsync leader at a
  /// time and serializes truncation with an in-flight fsync; mu_ guards the
  /// counters and orders the frame writes, and is never held across an
  /// fsync, so appends proceed while the leader syncs.
  std::mutex sync_mu_;
  mutable std::mutex mu_;
};

}  // namespace gptc::db::engine
