#include "db/engine/fsutil.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace gptc::db::engine {

void sync_parent_dir(const std::filesystem::path& path) {
  const std::filesystem::path dir = path.parent_path();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // directory sync is best-effort on exotic filesystems
  ::fsync(fd);
  ::close(fd);
}

FileLock::FileLock(std::filesystem::path path) : path_(std::move(path)) {
  for (;;) {
    // lint: durability-ok the lock file holds no data; losing it loses nothing
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    created_ = fd_ >= 0;
    if (fd_ < 0 && errno == EEXIST) {
      fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
      if (fd_ < 0 && errno == ENOENT) continue;  // unlinked between the opens
    }
    if (fd_ < 0)
      throw std::runtime_error("cannot open lock file " + path_.string() +
                               ": " + std::strerror(errno));
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      const int err = errno;
      release();
      throw std::runtime_error(
          path_.string() +
          (err == EWOULDBLOCK ? " is held by another open handle"
                              : std::string(": flock failed: ") +
                                    std::strerror(err)));
    }
    // A failed open may have unlinked the file between our open and our
    // flock; the lock only counts on the file the path still names.
    struct stat held {}, named {};
    if (::fstat(fd_, &held) == 0 && ::stat(path_.c_str(), &named) == 0 &&
        held.st_dev == named.st_dev && held.st_ino == named.st_ino)
      return;
    release();
  }
}

void FileLock::release_and_remove_if_created() noexcept {
  if (fd_ >= 0 && created_) ::unlink(path_.c_str());  // still locked: no race
  release();
}

void FileLock::release() noexcept {
  if (fd_ >= 0) ::close(fd_);  // closing the last descriptor drops the lock
  fd_ = -1;
  created_ = false;
}

}  // namespace gptc::db::engine
