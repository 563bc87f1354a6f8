#include "db/engine/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "db/engine/checksum.hpp"
#include "db/engine/fsutil.hpp"

namespace gptc::db::engine {

namespace {

constexpr std::size_t kSeqWidth = 16;  // hex digits of the sequence number
constexpr std::size_t kCrcWidth = 8;   // hex digits of the CRC32

/// Validates one complete line as a frame; nullopt on any mismatch.
std::optional<WalRecord> parse_frame(std::string_view line) {
  // "<seq:16> <crc:8> <payload>" — minimum length check first.
  if (line.size() < kSeqWidth + 1 + kCrcWidth + 1 + 1 ||
      line[kSeqWidth] != ' ' || line[kSeqWidth + 1 + kCrcWidth] != ' ')
    return std::nullopt;
  const std::string_view seq_hex = line.substr(0, kSeqWidth);
  const std::string_view checksum = line.substr(kSeqWidth + 1, kCrcWidth);
  const std::string_view payload = line.substr(kSeqWidth + 1 + kCrcWidth + 1);
  const auto seq = parse_hex64(seq_hex);
  if (!seq) return std::nullopt;
  std::string body;
  body.reserve(seq_hex.size() + 1 + payload.size());
  body.append(seq_hex).append(" ").append(payload);
  if (hex32(crc32(body)) != checksum) return std::nullopt;
  WalRecord rec;
  rec.seq = *seq;
  try {
    // No nesting limit: the engine re-reads only what it wrote, and a
    // document accepted under the request cap sits deeper inside a commit
    // frame than it did in the request.
    rec.payload =
        json::Json::parse(payload, std::numeric_limits<std::size_t>::max());
  } catch (const json::JsonError&) {
    return std::nullopt;
  }
  return rec;
}

void write_all(int fd, const char* data, std::size_t len,
               const std::filesystem::path& path) {
  std::size_t off = 0;
  while (off < len) {
    // blocking-ok: the write-ahead contract — the record must reach the disk before the in-memory apply, and the WAL mutex is what orders the frames
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("wal: write failed for " + path.string() +
                               ": " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

WalReplay replay_wal(const std::filesystem::path& path) {
  WalReplay out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;  // no log yet
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl != std::string::npos) {
      const std::string_view line(text.data() + pos, nl - pos);
      if (auto rec = parse_frame(line)) {
        out.records.push_back(std::move(*rec));
        pos = nl + 1;
        out.valid_bytes = pos;
        continue;
      }
    }
    // Bad frame. A real crash can tear at most the FINAL record, so only
    // classify the failure as a torn tail when it looks like one:
    //  - an incomplete final line (the frame's own trailing '\n' never hit
    //    the disk), or
    //  - a complete final line failing after earlier frames validated under
    //    this log (so the last sector was mangled by the crash).
    // Everything else — more data after the bad frame, or a complete first
    // line that fails — is mid-log corruption: the log must be refused,
    // never truncated.
    if (nl == std::string::npos) {
      out.torn_tail = true;
    } else if (nl + 1 >= text.size() && !out.records.empty()) {
      out.torn_tail = true;
    } else {
      out.error = "invalid frame at byte offset " + std::to_string(pos) +
                  (nl + 1 >= text.size()
                       ? " (first frame of a non-empty log failed "
                         "validation: corrupt log)"
                       : " with further data after it (mid-log corruption)");
    }
    break;
  }
  return out;
}

WalWriter::WalWriter(std::filesystem::path path, std::uint64_t next_seq,
                     std::uint64_t existing_bytes, FaultInjector* fault)
    : path_(std::move(path)),
      next_seq_(next_seq),
      bytes_(existing_bytes),
      durable_seq_(next_seq - 1),
      synced_bytes_(existing_bytes),
      fault_(fault) {
  const bool existed = std::filesystem::exists(path_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0)
    throw std::runtime_error("wal: cannot open " + path_.string() + ": " +
                             std::strerror(errno));
  // A freshly created log's directory entry must survive a crash too, or
  // the first fsynced frames vanish with it.
  if (!existed) sync_parent_dir(path_);
  // Drop any torn tail left by a crash so new frames start on a boundary.
  if (::ftruncate(fd_, static_cast<off_t>(existing_bytes)) != 0)
    throw std::runtime_error("wal: cannot truncate " + path_.string() + ": " +
                             std::strerror(errno));
  if (::lseek(fd_, static_cast<off_t>(existing_bytes), SEEK_SET) < 0)
    throw std::runtime_error("wal: cannot seek " + path_.string() + ": " +
                             std::strerror(errno));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void WalWriter::throw_if_poisoned() const {
  if (poisoned_.empty()) return;
  if (crashed_) throw CrashInjected(poisoned_);
  throw std::runtime_error(poisoned_);
}

void WalWriter::poison(std::string reason, bool crash) {
  poisoned_ = std::move(reason) + "; " + path_.string() +
              " refuses every call until it is reopened";
  crashed_ = crash;
}

std::uint64_t WalWriter::append(const json::Json& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  throw_if_poisoned();
  const std::uint64_t seq = next_seq_;
  const std::string seq_hex = hex64(seq);
  const std::string text = payload.dump();  // serialized once per record
  const std::string frame =
      seq_hex + " " + hex32(crc32(seq_hex + " " + text)) + " " + text + "\n";

  if (fault_ && fault_->fire(FaultPoint::WalAppend))
    throw CrashInjected("injected crash before WAL append (seq " + seq_hex +
                        ")");
  if (fault_ && fault_->fire(FaultPoint::WalShortWrite)) {
    // Torn record: half the frame reaches the disk, then the process dies.
    write_all(fd_, frame.data(), frame.size() / 2, path_);
    // blocking-ok: fault-injection path — modelling the crash needs the torn bytes durable first
    ::fsync(fd_);
    throw CrashInjected("injected crash mid WAL append (seq " + seq_hex +
                        ")");
  }

  try {
    write_all(fd_, frame.data(), frame.size(), path_);
  } catch (...) {
    // Part of the frame may be in the file. Left there, the next frame
    // would land on the same line and replay would drop both as a torn
    // tail — losing an acknowledged write. Cut back to the last frame
    // boundary; if even that fails, no later frame may follow.
    if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(bytes_), SEEK_SET) < 0)
      poison("wal: a failed append could not be rolled back", false);
    throw;
  }
  bytes_ += frame.size();
  return next_seq_++;
}

std::uint64_t WalWriter::reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  throw_if_poisoned();
  return next_seq_++;
}

void WalWriter::sync_to(std::uint64_t seq) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    throw_if_poisoned();
    if (seq <= durable_seq_) return;
  }
  // One fsync leader at a time. Callers queued here while a leader synced
  // usually find their frames covered on the re-check below.
  std::lock_guard<std::mutex> leader(sync_mu_);
  std::uint64_t upto_seq = 0;
  std::uint64_t upto_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    throw_if_poisoned();
    if (seq <= durable_seq_) return;
    upto_seq = next_seq_ - 1;
    upto_bytes = bytes_;
    if (upto_bytes == synced_bytes_) {  // only reserved slots are newer
      durable_seq_ = upto_seq;
      return;
    }
  }
  // Appends continue while this runs; frames they add past upto_bytes wait
  // for the next leader.
  fdatasync_or_poison();
  std::lock_guard<std::mutex> lock(mu_);
  durable_seq_ = upto_seq;
  synced_bytes_ = upto_bytes;
}

void WalWriter::sync() { sync_to(next_seq() - 1); }

void WalWriter::fdatasync_or_poison() {
  // fdatasync, not fsync: an append needs only the data and the file size
  // durable, and fdatasync is required to flush the size when a write
  // extends or truncates the file. Skipping the mtime-only metadata update
  // keeps concurrent per-shard WAL syncs from queueing behind one another
  // in the filesystem journal.
  std::string failure;
  bool crash = false;
  if (fault_ && fault_->fire(FaultPoint::CommitFsync)) {
    failure = "injected crash before fdatasync";
    crash = true;
  } else if (fault_ && fault_->fire(FaultPoint::WalSyncError)) {
    failure = std::string("wal: fdatasync failed: ") + std::strerror(EIO);
  } else {
    // blocking-ok: the log's one durability point — callers hold only sync_mu_, which exists to admit one fsync at a time, never mu_
    if (::fdatasync(fd_) == 0) return;
    failure = std::string("wal: fdatasync failed: ") + std::strerror(errno);
  }
  // The kernel may have dropped the dirty pages, so a later fsync that
  // succeeds would vouch for data that is gone: refuse everything instead.
  std::lock_guard<std::mutex> lock(mu_);
  poison(std::move(failure), crash);
  throw_if_poisoned();
}

bool WalWriter::covered_by_snapshot(std::uint64_t last_seq) {
  // Holding the leader lock keeps the truncation out of an in-flight fsync
  // whose byte count it would invalidate.
  std::lock_guard<std::mutex> leader(sync_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    throw_if_poisoned();
    if (last_seq > durable_seq_) durable_seq_ = last_seq;
    if (next_seq_ - 1 != last_seq) return false;
    if (::ftruncate(fd_, 0) != 0)
      throw std::runtime_error("wal: cannot truncate " + path_.string() +
                               ": " + std::strerror(errno));
    if (::lseek(fd_, 0, SEEK_SET) < 0)
      throw std::runtime_error("wal: cannot seek " + path_.string() + ": " +
                               std::strerror(errno));
    bytes_ = 0;
    synced_bytes_ = 0;
  }
  // The truncation must be durable before the caller treats the covering
  // snapshot as the only source of truth.
  fdatasync_or_poison();
  return true;
}

std::uint64_t WalWriter::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::uint64_t WalWriter::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t WalWriter::synced_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return synced_bytes_;
}

}  // namespace gptc::db::engine
