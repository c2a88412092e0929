#include "batch/sim_farm.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <string>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace ascdg::batch {

namespace {
/// Simulations per work chunk: large enough to amortize queue overhead
/// and the per-call dispatch into simulate_batch, small enough to
/// load-balance (and steal well) across workers.
constexpr std::size_t kChunk = 64;

/// Initial per-worker ring capacity (chunks). Rings grow on demand and
/// never shrink, so a steady workload allocates once.
constexpr std::size_t kInitialRingCapacity = 64;

constexpr std::size_t kNotAWorker = std::numeric_limits<std::size_t>::max();

/// Index of the farm worker running on this thread; kNotAWorker on
/// caller threads. Chunks use it to pick their lock-free partial
/// accumulator slot.
thread_local std::size_t tls_worker = kNotAWorker;

/// Per-worker seed and coverage-vector storage reused across chunks,
/// so the steady-state hot path performs no heap allocation
/// (simulate_batch overwrites the vectors in place).
struct Workspace {
  std::vector<std::uint64_t> seeds;
  std::vector<coverage::CoverageVector> vectors;
};

Workspace& batch_workspace() {
  static thread_local Workspace ws;
  return ws;
}
}  // namespace

/// Shared state of one run_all() call. Lives on the caller's stack: the
/// all_done handshake guarantees no worker can still touch it once the
/// caller's wait returns.
struct SimFarm::RunContext {
  const duv::Duv* duv = nullptr;
  std::span<const Job> jobs;
  std::size_t job_n = 0;
  /// Per-job compiled distribution tables, slot j built just before job
  /// j's chunks are enqueued (nullptr for units that do not override
  /// Duv::compile — their simulate_batch falls back to the scalar loop).
  /// A worker reads only the slots of chunks it was handed, so filling
  /// slot j+1 never races with it.
  std::vector<std::unique_ptr<duv::Duv::Compiled>> compiled;
  /// (worker, job)-sliced partials, worker-major [w * job_n + j]; the
  /// simulation loop is lock-free, the caller merges once at join time.
  std::vector<coverage::SimStats> partial;
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable done;
  std::exception_ptr error;
  /// Set under `mutex` by whoever retires the last chunk; the caller's
  /// wait predicate reads it under the same mutex, so a spurious wakeup
  /// can never release the caller while a worker still holds `this`.
  bool all_done = false;
};

void SimFarm::ChunkRing::reserve(std::size_t capacity) {
  std::size_t cap = 1;
  while (cap < capacity) cap <<= 1;
  if (cap > buf_.size()) grow(cap);
}

void SimFarm::ChunkRing::grow(std::size_t capacity) {
  std::vector<ChunkRef> next(capacity);
  for (std::size_t i = 0; i < size_; ++i) {
    next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
  }
  buf_ = std::move(next);
  head_ = 0;
}

void SimFarm::ChunkRing::push_back(const ChunkRef& chunk) {
  if (size_ == buf_.size()) {
    grow(std::max<std::size_t>(kInitialRingCapacity, buf_.size() * 2));
  }
  buf_[(head_ + size_) & (buf_.size() - 1)] = chunk;
  ++size_;
}

SimFarm::ChunkRef SimFarm::ChunkRing::pop_back() noexcept {
  --size_;
  return buf_[(head_ + size_) & (buf_.size() - 1)];
}

SimFarm::ChunkRef SimFarm::ChunkRing::pop_front() noexcept {
  const ChunkRef chunk = buf_[head_];
  head_ = (head_ + 1) & (buf_.size() - 1);
  --size_;
  return chunk;
}

SimFarm::SimFarm(std::size_t num_threads)
    : worker_n_(num_threads != 0
                    ? num_threads
                    : std::max<std::size_t>(
                          1, std::thread::hardware_concurrency())) {
  // Register this farm's labeled series before any worker can touch
  // them. Instance ids keep concurrent farms' books separate.
  static std::atomic<std::uint64_t> next_farm_id{0};
  const std::string id =
      std::to_string(next_farm_id.fetch_add(1, std::memory_order_relaxed));
  obs::Registry& reg = obs::registry();
  metrics_.simulations =
      &reg.counter("ascdg_farm_simulations_total", {{"backend", "thread"}, {"farm", id}});
  metrics_.chunks = &reg.counter("ascdg_farm_chunks_total", {{"backend", "thread"}, {"farm", id}});
  metrics_.steals = &reg.counter("ascdg_farm_steals_total", {{"backend", "thread"}, {"farm", id}});
  metrics_.enqueued =
      &reg.counter("ascdg_farm_enqueued_total", {{"backend", "thread"}, {"farm", id}});
  metrics_.exceptions =
      &reg.counter("ascdg_farm_exceptions_total", {{"backend", "thread"}, {"farm", id}});
  metrics_.runs = &reg.counter("ascdg_farm_runs_total", {{"backend", "thread"}, {"farm", id}});
  metrics_.busy_ns = &reg.counter("ascdg_farm_busy_ns_total", {{"backend", "thread"}, {"farm", id}});
  metrics_.queue_depth = &reg.gauge("ascdg_farm_queue_depth", {{"backend", "thread"}, {"farm", id}});
  metrics_.active_runs = &reg.gauge("ascdg_farm_active_runs", {{"backend", "thread"}, {"farm", id}});
  metrics_.busy_fraction_ppm =
      &reg.gauge("ascdg_farm_worker_busy_fraction", {{"backend", "thread"}, {"farm", id}});
  metrics_.chunk_latency_us =
      &reg.histogram("ascdg_farm_chunk_latency_us", {{"backend", "thread"}, {"farm", id}});
  created_ns_ = util::monotonic_ns();

  queues_ = std::make_unique<WorkerQueue[]>(worker_n_);
  for (std::size_t i = 0; i < worker_n_; ++i) {
    queues_[i].tasks.reserve(kInitialRingCapacity);
  }
  workers_.reserve(worker_n_);
  for (std::size_t i = 0; i < worker_n_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

SimFarm::~SimFarm() {
  {
    const std::scoped_lock lock(sleep_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  // Workers drain every queued chunk before exiting (see worker_loop),
  // so an in-flight run_all on another thread completes instead of
  // waiting forever on dropped tasks; we additionally wait for those
  // callers to leave run_all before tearing the farm down under them.
  {
    std::unique_lock lock(sleep_mutex_);
    idle_cv_.wait(lock, [this] {
      return active_runs_.load(std::memory_order_acquire) == 0;
    });
  }
  for (auto& worker : workers_) worker.join();
}

bool SimFarm::take_task(std::size_t index, ChunkRef& chunk) {
  for (std::size_t k = 0; k < worker_n_; ++k) {
    const std::size_t q = (index + k) % worker_n_;
    WorkerQueue& queue = queues_[q];
    const std::scoped_lock lock(queue.mutex);
    if (queue.tasks.empty()) continue;
    if (k == 0) {
      // Own deque: LIFO keeps the most recently pushed (cache-warm) end.
      chunk = queue.tasks.pop_back();
    } else {
      // Steal the oldest chunk from the victim's other end.
      chunk = queue.tasks.pop_front();
    }
    tasks_pending_.fetch_sub(1, std::memory_order_relaxed);
    // Gauge decrement happens while still holding the victim deque's
    // lock, paired with the pre-publication increment in enqueue(): the
    // depth can never be observed negative.
    metrics_.queue_depth->sub(1);
    if (k != 0) metrics_.steals->inc();
    return true;
  }
  return false;
}

void SimFarm::worker_loop(std::size_t index) {
  tls_worker = index;
  ChunkRef chunk;
  for (;;) {
    if (take_task(index, chunk)) {
      execute_chunk(chunk);
      continue;
    }
    std::unique_lock lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_relaxed) ||
             tasks_pending_.load(std::memory_order_relaxed) > 0;
    });
    if (stopping_.load(std::memory_order_relaxed) &&
        tasks_pending_.load(std::memory_order_relaxed) == 0) {
      return;  // stopping and fully drained
    }
  }
}

void SimFarm::enqueue(const ChunkRef& chunk) {
  ASCDG_ASSERT(!stopping_.load(std::memory_order_acquire),
               "enqueue on a stopping SimFarm");
  const std::size_t q =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % worker_n_;
  // Order matters: pending count and depth telemetry rise before the
  // chunk becomes stealable, so neither can ever observe a negative.
  tasks_pending_.fetch_add(1, std::memory_order_release);
  metrics_.enqueued->inc();
  metrics_.queue_depth->add(1);
  {
    const std::scoped_lock lock(queues_[q].mutex);
    queues_[q].tasks.push_back(chunk);
  }
  {
    // Empty critical section: a worker that just evaluated its wait
    // predicate false cannot park between our increment and notify.
    const std::scoped_lock lock(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

void SimFarm::execute_chunk(const ChunkRef& chunk) {
  RunContext& ctx = *chunk.ctx;
  // Fail fast: once one chunk of the run failed, its siblings skip
  // their simulations but still retire through the countdown below.
  if (!ctx.failed.load(std::memory_order_acquire)) {
    try {
      ASCDG_ASSERT(tls_worker < worker_n_,
                   "batch chunk executing off the worker pool");
      const auto start = std::chrono::steady_clock::now();
      const Job& job = ctx.jobs[chunk.job];
      const std::size_t n = chunk.end - chunk.begin;
      Workspace& ws = batch_workspace();
      ws.seeds.resize(n);
      const util::SeedStream stream(job.seed_root);
      for (std::size_t i = 0; i < n; ++i) {
        ws.seeds[i] = stream.at(chunk.begin + i);
      }
      if (ws.vectors.size() < n) {
        ws.vectors.resize(n, coverage::CoverageVector(0));
      }
      ctx.duv->simulate_batch(
          *job.tmpl, ctx.compiled[chunk.job].get(),
          std::span<const std::uint64_t>(ws.seeds.data(), n),
          std::span<coverage::CoverageVector>(ws.vectors.data(), n));
      coverage::SimStats& acc =
          ctx.partial[tls_worker * ctx.job_n + chunk.job];
      for (std::size_t i = 0; i < n; ++i) acc.record(ws.vectors[i]);
      const auto wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      metrics_.simulations->add(n);
      metrics_.chunks->inc();
      metrics_.busy_ns->add(wall_ns);
      metrics_.chunk_latency_us->observe(wall_ns / 1000);
    } catch (...) {
      metrics_.exceptions->inc();
      const std::scoped_lock lock(ctx.mutex);
      if (ctx.error == nullptr) ctx.error = std::current_exception();
      ctx.failed.store(true, std::memory_order_release);
    }
  }
  // Every path retires the chunk; the last one wakes the caller. Once
  // all_done is published the caller may destroy the context, so this
  // must be the worker's final touch of ctx.
  if (ctx.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    const std::scoped_lock lock(ctx.mutex);
    ctx.all_done = true;
    ctx.done.notify_all();
  }
}

coverage::SimStats SimFarm::run(const duv::Duv& duv,
                                const tgen::TestTemplate& tmpl,
                                std::size_t count, std::uint64_t seed_root) {
  const Job job{&tmpl, count, seed_root};
  auto results = run_all(duv, std::span<const Job>(&job, 1));
  return std::move(results.front());
}

std::vector<coverage::SimStats> SimFarm::run_all(const duv::Duv& duv,
                                                 std::span<const Job> jobs) {
  // Keep the destructor from reaping the farm while this call is still
  // inside it (the workers themselves drain independently).
  active_runs_.fetch_add(1, std::memory_order_acq_rel);
  metrics_.active_runs->add(1);
  struct RunGuard {
    SimFarm* farm;
    ~RunGuard() {
      // Refresh the utilization gauge at every run retirement, so the
      // live scrape sees a current number without a sampler thread.
      farm->metrics_.busy_fraction_ppm->set(static_cast<std::int64_t>(
          farm->worker_busy_fraction() * 1e6));
      farm->metrics_.active_runs->sub(1);
      if (farm->active_runs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::scoped_lock lock(farm->sleep_mutex_);
        farm->idle_cv_.notify_all();
      }
    }
  } run_guard{this};

  const std::size_t event_count = duv.space().size();
  const std::size_t job_n = jobs.size();

  std::size_t chunk_count = 0;
  for (const Job& job : jobs) {
    ASCDG_ASSERT(job.tmpl != nullptr, "job with null template");
    chunk_count += (job.count + kChunk - 1) / kChunk;
  }
  if (chunk_count == 0) {
    // All jobs have count 0 (or there are none): nothing to schedule.
    metrics_.runs->inc();
    return std::vector<coverage::SimStats>(job_n,
                                           coverage::SimStats(event_count));
  }

  RunContext ctx;
  ctx.duv = &duv;
  ctx.jobs = jobs;
  ctx.job_n = job_n;
  ctx.compiled.resize(job_n);
  ctx.partial.assign(worker_n_ * job_n, coverage::SimStats(event_count));
  ctx.remaining.store(chunk_count, std::memory_order_relaxed);

  // Compile job j, then queue its chunks, before compiling job j+1: the
  // workers start on the first job while the caller still compiles the
  // rest. All chunks of a job share its read-only tables instead of
  // re-resolving (overrides, defaults) per simulation.
  std::size_t enqueued = 0;
  std::exception_ptr submit_error;
  for (std::size_t j = 0; j < job_n; ++j) {
    try {
      ctx.compiled[j] = duv.compile(*jobs[j].tmpl);
      for (std::size_t begin = 0; begin < jobs[j].count; begin += kChunk) {
        enqueue(ChunkRef{&ctx, j, begin, std::min(begin + kChunk,
                                                  jobs[j].count)});
        ++enqueued;
      }
    } catch (...) {
      // A compile threw or enqueue refused (farm stopping): the missing
      // chunks will never run, so retire them here, then wait out the
      // ones already queued. If that retires the whole run (nothing was
      // enqueued, or every queued chunk already finished), publish
      // all_done ourselves — no worker is left to do it.
      submit_error = std::current_exception();
      const std::size_t missing = chunk_count - enqueued;
      if (ctx.remaining.fetch_sub(missing, std::memory_order_acq_rel) ==
          missing) {
        const std::scoped_lock lock(ctx.mutex);
        ctx.all_done = true;
      }
      break;
    }
  }

  {
    std::unique_lock lock(ctx.mutex);
    ctx.done.wait(lock, [&ctx] { return ctx.all_done; });
  }
  metrics_.runs->inc();

  if (submit_error != nullptr) std::rethrow_exception(submit_error);
  if (ctx.failed.load(std::memory_order_acquire)) {
    // Safe without the mutex: all_done means every chunk retired, so no
    // worker can still be writing ctx.error.
    std::rethrow_exception(ctx.error);
  }

  std::vector<coverage::SimStats> out(job_n, coverage::SimStats(event_count));
  for (std::size_t w = 0; w < worker_n_; ++w) {
    for (std::size_t j = 0; j < job_n; ++j) {
      const coverage::SimStats& part = ctx.partial[w * job_n + j];
      if (part.sims() != 0) out[j].merge(part);
    }
  }
  return out;
}

TelemetrySnapshot SimFarm::telemetry() const {
  TelemetrySnapshot snap;
  snap.simulations = metrics_.simulations->value();
  snap.chunks = metrics_.chunks->value();
  snap.steals = metrics_.steals->value();
  snap.enqueued = metrics_.enqueued->value();
  snap.queue_depth = static_cast<std::size_t>(
      std::max<std::int64_t>(0, metrics_.queue_depth->value()));
  snap.max_queue_depth = static_cast<std::size_t>(
      std::max<std::int64_t>(0, metrics_.queue_depth->peak()));
  snap.exceptions = metrics_.exceptions->value();
  snap.runs = metrics_.runs->value();
  snap.active_runs = static_cast<std::size_t>(
      std::max<std::int64_t>(0, metrics_.active_runs->value()));
  snap.busy_ns = metrics_.busy_ns->value();
  snap.busy_fraction = worker_busy_fraction();
  for (std::size_t i = 0; i < TelemetrySnapshot::kLatencyBuckets; ++i) {
    snap.chunk_latency[i] = metrics_.chunk_latency_us->bucket(i);
  }
  return snap;
}

double SimFarm::worker_busy_fraction() const noexcept {
  const std::uint64_t elapsed = util::monotonic_ns() - created_ns_;
  if (elapsed == 0 || worker_n_ == 0) return 0.0;
  const double capacity =
      static_cast<double>(elapsed) * static_cast<double>(worker_n_);
  return std::min(1.0, static_cast<double>(metrics_.busy_ns->value()) /
                           capacity);
}

}  // namespace ascdg::batch
