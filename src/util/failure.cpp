#include "util/failure.hpp"

#include <array>
#include <charconv>
#include <cstdlib>
#include <mutex>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ascdg::util {

namespace {

enum class Mode { kOff, kOneShot, kEveryNth, kProbability };

struct PointState {
  Mode mode = Mode::kOff;
  std::uint64_t nth = 0;
  double probability = 0.0;
  Xoshiro256 rng{0};
  int error_number = EIO;
  std::uint64_t checks = 0;
  std::uint64_t fires = 0;
};

struct Registry {
  std::mutex mutex;
  std::array<PointState, FailurePoint::kIdCount> points;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

constexpr std::array<const char*, FailurePoint::kIdCount> kNames = {
    "atomic_write.open",   "atomic_write.write", "atomic_write.fsync",
    "atomic_write.rename", "atomic_write.dir_fsync",
    "manifest.read",       "artifact.read",
    "http.accept",         "http.recv",          "http.send",
    "exec.pipe_read",      "exec.pipe_write",
    "append_log.write",    "append_log.sync",
};

/// Symbolic errno values accepted in ASCDG_FAIL_POINTS; anything else
/// must be numeric.
int errno_from_symbol(std::string_view text) {
  struct Entry {
    std::string_view name;
    int value;
  };
  static constexpr Entry kTable[] = {
      {"EIO", EIO},       {"ENOSPC", ENOSPC}, {"EINTR", EINTR},
      {"EAGAIN", EAGAIN}, {"EACCES", EACCES}, {"ENOENT", ENOENT},
      {"EROFS", EROFS},   {"EMFILE", EMFILE}, {"ECONNRESET", ECONNRESET},
      {"EPIPE", EPIPE},
  };
  for (const auto& entry : kTable) {
    if (entry.name == text) return entry.value;
  }
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value <= 0) {
    throw ConfigError("ASCDG_FAIL_POINTS: unknown errno '" +
                      std::string(text) +
                      "' (use a symbolic name like ENOSPC or a positive "
                      "number)");
  }
  return value;
}

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw ConfigError("ASCDG_FAIL_POINTS: malformed " + std::string(what) +
                      " '" + std::string(text) + "'");
  }
  return value;
}

double parse_probability(std::string_view text) {
  // std::from_chars for double is not universally available on older
  // libstdc++; strtod on a bounded copy is.
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || copy.empty() || value < 0.0 ||
      value > 1.0) {
    throw ConfigError("ASCDG_FAIL_POINTS: probability '" + copy +
                      "' must be a number in [0, 1]");
  }
  return value;
}

/// Parses one "point=mode,opt,opt" entry and arms it.
void install_entry(std::string_view entry) {
  const auto eq = entry.find('=');
  if (eq == std::string_view::npos) {
    throw ConfigError("ASCDG_FAIL_POINTS: entry '" + std::string(entry) +
                      "' is missing '=' (want point=mode[,errno=..][,seed=..])");
  }
  const auto id = FailurePoint::find(entry.substr(0, eq));
  if (!id.has_value()) {
    throw ConfigError("ASCDG_FAIL_POINTS: unknown failure point '" +
                      std::string(entry.substr(0, eq)) + "'");
  }

  PointState state;
  std::string_view rest = entry.substr(eq + 1);
  bool first = true;
  std::uint64_t seed = 0x5EEDF417ULL;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view field = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (first) {
      first = false;
      if (field == "once") {
        state.mode = Mode::kOneShot;
      } else if (field.starts_with("nth:")) {
        state.mode = Mode::kEveryNth;
        state.nth = parse_u64(field.substr(4), "nth count");
        if (state.nth == 0) {
          throw ConfigError("ASCDG_FAIL_POINTS: nth count must be >= 1");
        }
      } else if (field.starts_with("prob:")) {
        state.mode = Mode::kProbability;
        state.probability = parse_probability(field.substr(5));
      } else {
        throw ConfigError("ASCDG_FAIL_POINTS: unknown mode '" +
                          std::string(field) +
                          "' (want once, nth:N, or prob:P)");
      }
    } else if (field.starts_with("errno=")) {
      state.error_number = errno_from_symbol(field.substr(6));
    } else if (field.starts_with("seed=")) {
      seed = parse_u64(field.substr(5), "seed");
    } else {
      throw ConfigError("ASCDG_FAIL_POINTS: unknown option '" +
                        std::string(field) + "'");
    }
  }
  if (first) {
    throw ConfigError("ASCDG_FAIL_POINTS: entry '" + std::string(entry) +
                      "' has an empty mode");
  }
  switch (state.mode) {
    case Mode::kOneShot:
      FailurePoint::prime_one_shot(*id, state.error_number);
      break;
    case Mode::kEveryNth:
      FailurePoint::prime_every_nth(*id, state.nth, state.error_number);
      break;
    case Mode::kProbability:
      FailurePoint::prime_probability(*id, state.probability, seed,
                                      state.error_number);
      break;
    case Mode::kOff:
      break;
  }
}

}  // namespace

std::atomic<int> FailurePoint::armed_points_{0};

void FailurePoint::prime_one_shot(Id id, int error_number) {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  auto& point = reg.points[static_cast<std::size_t>(id)];
  if (point.mode == Mode::kOff) armed_points_.fetch_add(1);
  point.mode = Mode::kOneShot;
  point.error_number = error_number;
}

void FailurePoint::prime_every_nth(Id id, std::uint64_t n, int error_number) {
  if (n == 0) throw ConfigError("FailurePoint: every-Nth needs n >= 1");
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  auto& point = reg.points[static_cast<std::size_t>(id)];
  if (point.mode == Mode::kOff) armed_points_.fetch_add(1);
  point.mode = Mode::kEveryNth;
  point.nth = n;
  point.error_number = error_number;
  point.checks = 0;  // the Nth check counts from arming
}

void FailurePoint::prime_probability(Id id, double p, std::uint64_t seed,
                                     int error_number) {
  if (p < 0.0 || p > 1.0) {
    throw ConfigError("FailurePoint: probability must be in [0, 1]");
  }
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  auto& point = reg.points[static_cast<std::size_t>(id)];
  if (point.mode == Mode::kOff) armed_points_.fetch_add(1);
  point.mode = Mode::kProbability;
  point.probability = p;
  point.rng = Xoshiro256(seed);
  point.error_number = error_number;
}

void FailurePoint::disarm(Id id) {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  auto& point = reg.points[static_cast<std::size_t>(id)];
  if (point.mode != Mode::kOff) armed_points_.fetch_sub(1);
  point.mode = Mode::kOff;
}

void FailurePoint::disarm_all() {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& point : reg.points) {
    if (point.mode != Mode::kOff) armed_points_.fetch_sub(1);
    point = PointState{};
  }
}

std::uint64_t FailurePoint::checks(Id id) {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.points[static_cast<std::size_t>(id)].checks;
}

std::uint64_t FailurePoint::fires(Id id) {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.points[static_cast<std::size_t>(id)].fires;
}

int FailurePoint::check_slow(Id id) noexcept {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  auto& point = reg.points[static_cast<std::size_t>(id)];
  if (point.mode == Mode::kOff) return 0;
  ++point.checks;
  bool fire = false;
  switch (point.mode) {
    case Mode::kOneShot:
      fire = true;
      point.mode = Mode::kOff;
      armed_points_.fetch_sub(1);
      break;
    case Mode::kEveryNth:
      fire = point.checks % point.nth == 0;
      break;
    case Mode::kProbability:
      fire = point.rng.bernoulli(point.probability);
      break;
    case Mode::kOff:
      break;
  }
  if (!fire) return 0;
  ++point.fires;
  return point.error_number;
}

void FailurePoint::install(std::string_view spec) {
  while (!spec.empty()) {
    const auto semi = spec.find(';');
    const std::string_view entry = spec.substr(0, semi);
    spec = semi == std::string_view::npos ? std::string_view{}
                                          : spec.substr(semi + 1);
    if (entry.empty()) continue;
    install_entry(entry);
  }
}

void FailurePoint::install_from_env() {
  const char* env = std::getenv("ASCDG_FAIL_POINTS");
  if (env == nullptr || *env == '\0') return;
  install(env);
}

const char* FailurePoint::name(Id id) noexcept {
  return kNames[static_cast<std::size_t>(id)];
}

std::optional<FailurePoint::Id> FailurePoint::find(
    std::string_view name) noexcept {
  for (int i = 0; i < kIdCount; ++i) {
    if (name == kNames[static_cast<std::size_t>(i)]) {
      return static_cast<Id>(i);
    }
  }
  return std::nullopt;
}

}  // namespace ascdg::util
