// Fault injection for crash-durability and error-path testing.
//
// A FailurePoint is a named site in production code (an fsync, a
// rename, a socket accept) that tests can arm to fail on demand with a
// chosen errno. Modeled on realm-core's SimulatedFailure: the check is
// a single relaxed atomic load when nothing is armed, so shipping the
// hooks in release builds costs nothing measurable (guarded by
// BM_FailurePointCheckOff in bench_micro).
//
// Three trigger modes per point:
//   - one-shot:      fires on the next check, then disarms itself
//   - every-Nth:     fires on the Nth, 2Nth, 3Nth... check
//   - probabilistic: fires with probability p per check, driven by a
//                    seeded PRNG so a failing schedule replays exactly
//
// Points can be armed programmatically (tests) or from the
// ASCDG_FAIL_POINTS environment variable (the CLI fuzz harness):
//
//   ASCDG_FAIL_POINTS="atomic_write.fsync=nth:3,errno=ENOSPC;http.recv=once,errno=EINTR"
//
// Grammar: entry (';' entry)*, entry = point '=' mode (',' option)*,
// mode = 'once' | 'nth:N' | 'prob:P', option = 'errno=SYM|INT' |
// 'seed=N'. A malformed spec throws util::ConfigError — a fuzz run
// with a typo'd spec must die loudly, not pass vacuously.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <optional>
#include <string_view>

namespace ascdg::util {

class FailurePoint {
 public:
  /// Every injectable site in the system. Names (for ASCDG_FAIL_POINTS
  /// and diagnostics) live in name().
  enum class Id : int {
    kAtomicWriteOpen = 0,  ///< open(2) of the temp file
    kAtomicWriteWrite,     ///< write(2) of the payload (fires a short write)
    kAtomicWriteFsync,     ///< fsync(2) of the temp file
    kAtomicWriteRename,    ///< rename(2) over the target
    kAtomicWriteDirFsync,  ///< fsync(2) of the parent directory (also
                           ///< AppendLog's one fsync of a new log's name)
    kManifestRead,         ///< session manifest open/read
    kArtifactRead,         ///< stage artifact open/read
    kHttpAccept,           ///< HttpServer accept(2)
    kHttpRecv,             ///< HttpServer recv(2)
    kHttpSend,             ///< HttpServer send(2)
    kExecPipeRead,         ///< exec::ProcessFarm read(2) of a worker frame
    kExecPipeWrite,        ///< exec::ProcessFarm write(2) of a worker frame
    kAppendLogWrite,       ///< AppendLog write(2) of a record (short write)
    kAppendLogSync,        ///< AppendLog fdatasync(2) of a record
  };
  static constexpr int kIdCount = 14;

  /// The production-side hook: returns 0 when the point does not fire,
  /// else the errno to inject. One relaxed atomic load when nothing is
  /// armed anywhere in the process.
  static int check(Id id) noexcept {
    if (armed_points_.load(std::memory_order_relaxed) == 0) return 0;
    return check_slow(id);
  }

  /// Arms `id` to fire exactly once with `error_number`, then disarm.
  static void prime_one_shot(Id id, int error_number = EIO);
  /// Arms `id` to fire on every Nth check (n >= 1; n == 1 fires always).
  static void prime_every_nth(Id id, std::uint64_t n, int error_number = EIO);
  /// Arms `id` to fire with probability `p` per check; the draw sequence
  /// is a pure function of `seed`, so a schedule replays exactly.
  static void prime_probability(Id id, double p, std::uint64_t seed,
                                int error_number = EIO);
  static void disarm(Id id);
  /// Disarms every point and zeroes all counters.
  static void disarm_all();

  /// Checks observed / failures injected while the point was armed
  /// (the disarmed fast path does not count).
  [[nodiscard]] static std::uint64_t checks(Id id);
  [[nodiscard]] static std::uint64_t fires(Id id);

  /// Arms points from a spec string (see file comment for the grammar).
  /// Throws util::ConfigError on any malformed input.
  static void install(std::string_view spec);
  /// install(getenv("ASCDG_FAIL_POINTS")); no-op when unset or empty.
  static void install_from_env();

  /// Stable name used in ASCDG_FAIL_POINTS, e.g. "atomic_write.fsync".
  [[nodiscard]] static const char* name(Id id) noexcept;
  [[nodiscard]] static std::optional<Id> find(std::string_view name) noexcept;

 private:
  static int check_slow(Id id) noexcept;
  static std::atomic<int> armed_points_;
};

}  // namespace ascdg::util
