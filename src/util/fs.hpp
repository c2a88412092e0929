// Crash-durable filesystem primitives.
//
// atomic_write_file is the way AS-CDG persists a whole file:
// write to a same-directory temp file, fsync it, rename(2) over the
// target, then fsync the parent directory. Rename atomicity alone only
// guarantees the *name* switches in one step; without the two fsyncs a
// power loss can still deliver an empty or truncated "committed" file
// (the rename metadata can reach the journal before the data blocks),
// and the rename itself can vanish. The full sequence guarantees that
// once the call returns, the new content survives power loss — and a
// crash at any earlier instant leaves the previous file intact.
//
// Every syscall site is wrapped in a util::FailurePoint
// (atomic_write.open/write/fsync/rename/dir_fsync), so tests can
// inject ENOSPC, short writes, or rename failures deterministically.
// All error paths unlink the temp file; nothing leaks next to the
// target.
//
// AppendLog is the cheap sibling for state that grows by one record at
// a time: each append is one write(2) of a JSON line plus one
// fdatasync(2), O(record) bytes instead of a rewrite of everything so
// far (append_log.write/sync are its injection sites). When append()
// returns its record is whole and durable; when it throws the record
// is absent.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace ascdg::util {

enum class Durability {
  /// fsync the temp file before rename and the directory after —
  /// survives power loss. The default everywhere.
  kFull,
  /// Skip both fsyncs: still atomic against process crash (SIGKILL),
  /// not against power loss. For throwaway data and benchmarks that
  /// quantify the fsync price.
  kNoFsync,
};

/// Writes `content` to `path` atomically and durably (see file
/// comment), creating parent directories. Throws util::Error on any
/// IO failure; the temp file is always cleaned up on failure.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view content,
                       Durability durability = Durability::kFull);

/// Removes `*.tmp` files left in `dir` by writes that died between
/// open and rename (e.g. SIGKILL mid-atomic_write_file). Quietly does
/// nothing when `dir` does not exist. Call on re-opening a directory
/// of durable state, never while writers are active.
void remove_stale_tmp_files(const std::filesystem::path& dir);

/// Append-only, crash-durable log of JSON lines.
class AppendLog {
 public:
  /// Opens `path` for appending, creating it and its parent
  /// directories. A new file's directory entry is fsynced once; an
  /// existing file is cut back to its last complete line, dropping a
  /// record torn by a crash mid-append. Throws util::Error on IO
  /// failure.
  explicit AppendLog(const std::filesystem::path& path,
                     Durability durability = Durability::kFull);
  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Appends `record` (one line of JSON, no newline inside) and a
  /// newline, then fdatasyncs. On failure the file is cut back to its
  /// previous length and util::Error is thrown, so a failed append
  /// leaves no torn record behind.
  void append(std::string_view record);

  /// Parses every complete line of the log at `path`; a missing file
  /// reads as empty and a torn last line is ignored. A complete line
  /// that is not JSON throws util::ParseError naming that line.
  [[nodiscard]] static std::vector<JsonValue> read(
      const std::filesystem::path& path);

 private:
  std::filesystem::path path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;  ///< bytes of complete records
  Durability durability_;
};

}  // namespace ascdg::util
