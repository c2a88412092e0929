#include "util/fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/failure.hpp"

namespace ascdg::util {

namespace {

using Fp = FailurePoint;

[[noreturn]] void fail(const std::string& what, const std::string& path,
                       int error_number) {
  throw Error(what + " '" + path + "': " + std::strerror(error_number));
}

/// close(2) on an error path: must not clobber the errno being reported.
void close_keep_errno(int fd) noexcept {
  const int saved = errno;
  ::close(fd);
  errno = saved;
}

void unlink_keep_errno(const std::string& path) noexcept {
  const int saved = errno;
  ::unlink(path.c_str());
  errno = saved;
}

int open_retry(const char* path, int flags, mode_t mode) noexcept {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// Full write with EINTR retry and short-write continuation. The
/// injection site `point` models a short write against a full disk:
/// half the remaining bytes land, then the injected errno surfaces.
bool write_all(int fd, const char* data, std::size_t size,
               Fp::Id point) noexcept {
  std::size_t done = 0;
  while (done < size) {
    if (const int e = Fp::check(point); e != 0) {
      (void)!::write(fd, data + done, (size - done) / 2);
      errno = e;
      return false;
    }
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool fsync_retry(int fd, Fp::Id point, int (*sync)(int) = ::fsync) noexcept {
  if (const int e = Fp::check(point); e != 0) {
    errno = e;
    return false;
  }
  while (sync(fd) != 0) {
    if (errno != EINTR) return false;
  }
  return true;
}

/// fsyncs `dir` so a name just created or renamed in it survives power
/// loss. A filesystem that cannot fsync a directory (EINVAL) keeps
/// whatever guarantee it natively has.
void fsync_directory(const std::filesystem::path& dir) {
  const int dir_fd =
      open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
  if (dir_fd < 0) fail("cannot open directory for fsync", dir.string(), errno);
  if (!fsync_retry(dir_fd, Fp::Id::kAtomicWriteDirFsync)) {
    const int err = errno;
    close_keep_errno(dir_fd);
    if (err != EINVAL) fail("cannot fsync directory", dir.string(), err);
  } else {
    ::close(dir_fd);
  }
}

void create_parent_directories(const std::filesystem::path& path) {
  if (!path.has_parent_path()) return;
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  if (ec) {
    throw Error("cannot create directory '" + path.parent_path().string() +
                "': " + ec.message());
  }
}

std::filesystem::path parent_or_cwd(const std::filesystem::path& path) {
  return path.has_parent_path() ? path.parent_path() : ".";
}

}  // namespace

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content, Durability durability) {
  create_parent_directories(path);
  const std::string target = path.string();
  const std::string tmp = target + ".tmp";

  int fd = -1;
  if (const int e = Fp::check(Fp::Id::kAtomicWriteOpen); e != 0) {
    errno = e;
  } else {
    fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
  }
  if (fd < 0) fail("cannot open temp file", tmp, errno);

  if (!write_all(fd, content.data(), content.size(),
                 Fp::Id::kAtomicWriteWrite)) {
    close_keep_errno(fd);
    unlink_keep_errno(tmp);
    fail("failed writing", tmp, errno);
  }

  // Data must be on stable storage *before* the rename publishes the
  // name, or a power loss can commit the name to an empty file.
  if (durability == Durability::kFull &&
      !fsync_retry(fd, Fp::Id::kAtomicWriteFsync)) {
    close_keep_errno(fd);
    unlink_keep_errno(tmp);
    fail("cannot fsync temp file", tmp, errno);
  }

  if (::close(fd) != 0) {
    unlink_keep_errno(tmp);
    fail("cannot close temp file", tmp, errno);
  }

  bool renamed = false;
  if (const int e = Fp::check(Fp::Id::kAtomicWriteRename); e != 0) {
    errno = e;
  } else {
    renamed = ::rename(tmp.c_str(), target.c_str()) == 0;
  }
  if (!renamed) {
    unlink_keep_errno(tmp);
    fail("cannot rename temp file into", target, errno);
  }

  // The rename itself is directory metadata; fsync the directory so the
  // new name survives power loss too.
  if (durability == Durability::kFull) fsync_directory(parent_or_cwd(path));
}

void remove_stale_tmp_files(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator entries(dir, ec);
  if (ec) return;
  for (const auto& entry : entries) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) continue;
    if (entry.path().filename().string().ends_with(".tmp")) {
      std::filesystem::remove(entry.path(), entry_ec);
    }
  }
}

AppendLog::AppendLog(const std::filesystem::path& path, Durability durability)
    : path_(path), durability_(durability) {
  create_parent_directories(path);
  const std::string name = path.string();
  bool created = true;
  fd_ = open_retry(name.c_str(),
                   O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0 && errno == EEXIST) {
    created = false;
    fd_ = open_retry(name.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0);
  }
  if (fd_ < 0) fail("cannot open log", name, errno);

  if (created) {
    // The new name is directory metadata: make it durable once, so
    // every later append only has to sync the file's own data.
    if (durability_ == Durability::kFull) {
      try {
        fsync_directory(parent_or_cwd(path));
      } catch (...) {
        ::close(fd_);
        throw;
      }
    }
    return;
  }

  // Keep the complete records; a crash mid-append may have left a
  // partial last line, which a later append must not extend.
  std::string content;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    content = buffer.str();
  }
  const std::size_t last_newline = content.rfind('\n');
  size_ = last_newline == std::string::npos ? 0 : last_newline + 1;
  if (size_ != content.size()) {
    if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0 ||
        (durability_ == Durability::kFull && ::fdatasync(fd_) != 0)) {
      const int err = errno;
      ::close(fd_);
      fail("cannot truncate torn record of log", name, err);
    }
  }
}

AppendLog::~AppendLog() {
  if (fd_ >= 0) ::close(fd_);
}

void AppendLog::append(std::string_view record) {
  std::string line;
  line.reserve(record.size() + 1);
  line.append(record).push_back('\n');
  const bool ok =
      write_all(fd_, line.data(), line.size(), Fp::Id::kAppendLogWrite) &&
      (durability_ != Durability::kFull ||
       fsync_retry(fd_, Fp::Id::kAppendLogSync, ::fdatasync));
  if (!ok) {
    // A partial line, or a whole one whose durability is unknown: cut
    // it off so the log holds exactly the records append() committed.
    const int err = errno;
    (void)::ftruncate(fd_, static_cast<off_t>(size_));
    fail("cannot append to log", path_.string(), err);
  }
  size_ += line.size();
}

std::vector<JsonValue> AppendLog::read(const std::filesystem::path& path) {
  std::vector<JsonValue> records;
  std::ifstream is(path, std::ios::binary);
  if (!is) return records;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (is.eof()) break;  // no newline: a torn record, not a committed one
    try {
      records.push_back(json_parse(line));
    } catch (const ParseError& err) {
      throw ParseError("corrupt record in log '" + path.string() +
                           "': " + err.what(),
                       line_no);
    }
  }
  return records;
}

}  // namespace ascdg::util
