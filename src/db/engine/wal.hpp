// Write-ahead log: CRC32-framed, sequence-numbered JSONL.
//
// On-disk format — one frame per line:
//
//   <seq:16 hex> <checksum:8|16 hex> <payload: compact JSON>\n
//
// The checksum covers "<seq hex> <payload>". It is CRC32 (8 hex digits) by
// default, or keyed SipHash-2-4 (16 hex digits) when the engine is opened
// with a WAL checksum key — the width self-describes the algorithm, but the
// reader still verifies against the format it was given, so a store opened
// with the wrong key refuses the log instead of replaying it.
//
// Appends are fsync-batched (group commit): every frame is written to the
// fd immediately, and fsync runs once per `group_commit` appends (1 =
// sync-every-append) plus on sync()/close. Replay tolerates a torn final
// record — and ONLY a torn final record. A crash can tear at most the last
// frame, so a bad frame is treated as a torn tail (replay ends at the
// previous frame boundary, reporting the byte offset so recovery can
// truncate before appending again) only when it is genuinely the end of
// the log: either an incomplete final line, or a complete final line with
// at least one earlier frame validating under the same format. Anything
// else — a bad frame with further data after it, or a complete first line
// that fails — cannot come from a torn write; it means mid-log corruption
// or a wrong checksum key, and replay reports an error instead of
// classifying it as torn, so committed records are never silently
// discarded. WalWriter's append/sync/reset/bytes are internally
// synchronized, so one thread may append while another syncs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "db/engine/fault.hpp"
#include "db/engine/siphash.hpp"
#include "json/json.hpp"

namespace gptc::db::engine {

/// Frame checksum configuration — shared by writer and replay.
struct WalFormat {
  /// When set, frames carry keyed SipHash-2-4 checksums instead of CRC32.
  std::optional<SipHashKey> checksum_key;
};

struct WalRecord {
  std::uint64_t seq = 0;
  json::Json payload;
};

struct WalReplay {
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;  // offset just past the last good frame
  bool torn_tail = false;         // a torn final record was skipped
  /// Set when the log is rejected (mid-log corruption or wrong checksum
  /// key) rather than merely torn: `records` hold the valid prefix, but the
  /// caller must refuse to open instead of truncating to it.
  std::optional<std::string> error;
};

/// Reads every valid frame of `path` (missing file -> empty replay).
WalReplay replay_wal(const std::filesystem::path& path, const WalFormat& fmt);

class WalWriter {
 public:
  /// Opens (creating) the log for appending. `existing_bytes` is the
  /// already-valid prefix length from replay; the file is truncated to it
  /// first so a torn tail from a previous crash never precedes new frames.
  WalWriter(std::filesystem::path path, WalFormat fmt,
            std::size_t group_commit, std::uint64_t next_seq,
            std::uint64_t existing_bytes, FaultInjector* fault);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one frame; returns its sequence number. Throws CrashInjected
  /// at an armed fault point and std::runtime_error on real I/O failure.
  /// A failed write leaves the log as it was before the call (truncated
  /// back to the last frame boundary); when that truncation fails too, the
  /// writer refuses every later append.
  std::uint64_t append(const json::Json& payload);

  /// Claims the next sequence number WITHOUT writing a frame. Used by
  /// cross-shard logical commits (engine.hpp): the op lives in the engine
  /// commit WAL, but it still occupies a slot in this shard's sequence
  /// space so replay can merge the two streams back into the exact
  /// application order. A reserved-but-never-committed slot is just a gap —
  /// replay tolerates gaps, it only requires monotonicity.
  std::uint64_t reserve();

  /// Forces any pending (unsynced) frames to disk. Safe to call while
  /// another thread appends (each method takes the writer's own mutex).
  void sync();

  /// Discards the whole log (post-snapshot compaction): truncates the file
  /// to zero. Sequence numbers keep increasing across the truncation.
  void reset();

  /// reset(), but only if no record was appended since the caller observed
  /// `last_seq` as the newest sequence number — the checkpoint compaction
  /// path captures shard state, writes the snapshot with the shard
  /// unlocked, and must not discard records that landed in between (the
  /// snapshot does not cover them). Returns whether the log was truncated.
  bool reset_if_covered(std::uint64_t last_seq);

  std::uint64_t next_seq() const;
  std::uint64_t bytes() const;

  /// Bytes known durable as of the last successful fsync (or the replayed
  /// prefix at open). The gap bytes()-synced_bytes() is what a power loss
  /// would take with it — crash tests truncate the file to this offset to
  /// model losing the page cache (a process kill alone keeps it).
  std::uint64_t synced_bytes() const;

 private:
  // requires_lock: mu_
  void sync_locked();
  // requires_lock: mu_
  void reset_locked();

  std::filesystem::path path_;   // guard-ok: immutable after construction
  WalFormat fmt_;                // guard-ok: immutable after construction
  std::size_t group_commit_;     // guard-ok: immutable after construction
  std::uint64_t next_seq_;       // guarded_by: mu_
  std::uint64_t bytes_ = 0;      // guarded_by: mu_
  std::uint64_t synced_bytes_ = 0;  // guarded_by: mu_
  std::size_t pending_ = 0;      // guarded_by: mu_
  bool broken_ = false;          // guarded_by: mu_
  int fd_ = -1;                  // guarded_by: mu_
  // guard-ok: not owned, may be nullptr; set once before any thread starts
  FaultInjector* fault_;
  /// Serializes append/sync/reset and the counters they share: appends run
  /// under per-collection locks, but sync()/bytes() arrive from
  /// DocumentStore::sync()/wal_bytes() on other threads.
  mutable std::mutex mu_;
};

}  // namespace gptc::db::engine
