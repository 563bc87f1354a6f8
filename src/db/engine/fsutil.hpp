// Filesystem durability helpers shared by the WAL and snapshot writers.
#pragma once

#include <filesystem>
#include <utility>

namespace gptc::db::engine {

/// Best-effort fsync of `path`'s parent directory, making `path`'s own
/// directory entry durable after a create or rename. Failures are ignored:
/// some filesystems refuse to open or fsync directories, and losing the
/// entry is then no worse than before the call.
void sync_parent_dir(const std::filesystem::path& path);

/// Exclusive flock(2) on the file at `path` (created if missing), held
/// until the object is destroyed. flock binds to the open file description,
/// so a second lock on the same file fails whether it comes from another
/// process or from this one. Move-only; a moved-from or default-constructed
/// lock owns nothing.
class FileLock {
 public:
  FileLock() = default;
  /// Throws std::runtime_error when the lock is held elsewhere or the file
  /// cannot be opened.
  explicit FileLock(std::filesystem::path path);
  FileLock(FileLock&& other) noexcept { *this = std::move(other); }
  FileLock& operator=(FileLock&& other) noexcept {
    if (this != &other) {
      release();
      path_ = std::move(other.path_);
      fd_ = std::exchange(other.fd_, -1);
      created_ = std::exchange(other.created_, false);
    }
    return *this;
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  ~FileLock() { release(); }

  /// Releases the lock, first unlinking the file if this lock created it:
  /// an open that fails leaves the directory as it found it.
  void release_and_remove_if_created() noexcept;

 private:
  void release() noexcept;

  std::filesystem::path path_;
  int fd_ = -1;
  bool created_ = false;
};

}  // namespace gptc::db::engine
