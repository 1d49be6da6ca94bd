#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cip {

namespace internal {

std::optional<std::size_t> ParseThreadCount(const char* s) {
  if (s == nullptr || *s == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (errno == ERANGE) return std::nullopt;       // overflowed long
  if (end == s || *end != '\0') return std::nullopt;  // empty or trailing junk
  if (v < 1 || static_cast<unsigned long>(v) > kMaxParallelThreads) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(v);
}

}  // namespace internal

std::size_t ParallelThreads() {
  static const std::size_t kThreads = [] {
    if (const auto parsed = internal::ParseThreadCount(std::getenv("CIP_THREADS"))) {
      return *parsed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(std::clamp<unsigned>(hw, 1u, 8u));
  }();
  return kThreads;
}

namespace {

// > 0 while this thread executes inside a parallel region: permanently on
// pool workers, transiently on callers while they run their share of chunks.
// Guards against re-entrant pool dispatch (which would deadlock: the nested
// call would wait for workers that are busy running the outer region).
thread_local int t_parallel_depth = 0;

// Set when the pool singleton has been destroyed (static teardown order is
// unspecified; a ParallelFor from a later static destructor must not touch
// the dead pool). Trivially destructible, so reading it at any point of
// shutdown is safe.
std::atomic<bool> g_pool_destroyed{false};

// One dispatched parallel region. Lives on the caller's stack for the
// duration of the call; workers only touch it between the generation
// publish and their completion report, both of which synchronize through
// the pool mutex, so every field is stable when the caller reads it back.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 1;       // indices per chunk
  std::size_t num_chunks = 0;  // fixed by (n, budget): deterministic
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  // Claim and run chunks until none remain or a failure is flagged. Safe to
  // call from any number of runners concurrently; each chunk runs exactly
  // once. First exception wins; the flag makes other runners bail at their
  // next index so the caller sees the failure promptly.
  // CIP_HOT  (pool dispatch: every ParallelFor chunk runs through here)
  void RunChunks() {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const std::size_t lo = begin + c * chunk;
      const std::size_t hi = std::min(end, lo + chunk);
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          if (failed.load(std::memory_order_relaxed)) return;
          (*fn)(i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
};

// Lazily-started persistent worker pool. All workers participate in every
// dispatched job (those that find no unclaimed chunk just report done and
// park again); the actual parallelism of a job is bounded by its chunk
// count, which the dispatch derives from the caller's thread budget.
class WorkerPool {
 public:
  static WorkerPool& Instance() {
    static WorkerPool pool;
    return pool;
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Try to run `job` with the calling thread plus up to `extra_workers`
  // pool workers. The pool executes one region at a time; when another
  // top-level region currently owns it this returns false without touching
  // `job`, and the caller falls back to spawned helper threads. Falling
  // back (rather than blocking here) keeps concurrent regions progressing
  // independently: a region whose fn waits on progress made by another
  // caller's region would deadlock if that caller were parked on this
  // mutex. On a true return every runner has finished and job's error
  // state is stable.
  bool TryRun(Job& job, std::size_t extra_workers) {
    const std::unique_lock<std::mutex> run_lock(run_mutex_, std::try_to_lock);
    if (!run_lock.owns_lock()) return false;
    std::size_t participants = 0;
    {
      const std::lock_guard<std::mutex> lk(m_);
      // Grow on demand; workers spawned now read generation_ before the
      // publish below, so they participate in this very job.
      const std::size_t want =
          std::min(extra_workers, kMaxParallelThreads - 1);
      while (workers_.size() < want) {
        const std::uint64_t start_gen = generation_;
        // CIP_ANALYZE_OK(hot-alloc-container): pool grows monotonically to the thread budget once; steady state reuses workers
        workers_.emplace_back(
            [this, start_gen] { WorkerLoop(start_gen); });
      }
      job_ = &job;
      ++generation_;
      finished_ = 0;
      participants = participants_ = workers_.size();
    }
    cv_work_.notify_all();
    // The caller is a full runner: on a loaded machine it often drains the
    // whole range before a worker gets scheduled, which is exactly the
    // latency-optimal behavior for small dispatches.
    ++t_parallel_depth;
    job.RunChunks();
    --t_parallel_depth;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_done_.wait(lk, [&] { return finished_ == participants; });
      job_ = nullptr;
    }
    return true;
  }

  std::size_t WorkerCount() {
    const std::lock_guard<std::mutex> lk(m_);
    return workers_.size();
  }

 private:
  WorkerPool() = default;

  ~WorkerPool() {
    // Drain first: TryRun holds run_mutex_ for the whole dispatch, so once
    // we own it no worker is inside a job and the joins below cannot hang on
    // in-flight work. Threads other than the one running static destructors
    // must not issue new ParallelFor calls concurrently with teardown (see
    // parallel.h); a TryRun racing this lock takes the busy-pool fallback.
    const std::lock_guard<std::mutex> run_lock(run_mutex_);
    {
      const std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_work_.notify_all();
    workers_.clear();  // jthread dtor joins each worker
    g_pool_destroyed.store(true, std::memory_order_release);
  }

  void WorkerLoop(std::uint64_t seen_generation) {
    ++t_parallel_depth;  // workers run nested ParallelFor calls serially
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      cv_work_.wait(lk, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      Job* job = job_;
      lk.unlock();
      if (job != nullptr) job->RunChunks();
      lk.lock();
      if (++finished_ == participants_) cv_done_.notify_one();
    }
  }

  std::mutex run_mutex_;  // serializes top-level parallel regions
  std::mutex m_;          // guards everything below
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::jthread> workers_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t participants_ = 0;
  std::size_t finished_ = 0;
  bool stop_ = false;
};

// When the pool is busy, each extra spawned runner must be amortized by this
// multiple of the region's min_parallel threshold; smaller busy-pool regions
// get a smaller runner budget (never below two — see the fallback below).
// Derived from min_parallel so coarse regions (few indices, heavy bodies)
// keep a low bar while fine elementwise regions need real volume per spawn.
constexpr std::size_t kBusySpawnAmortizeFactor = 64;

// Shared chunk-per-runner core. min_parallel is the smallest range worth
// dispatching for; below it (or at a budget of 1, or nested inside another
// parallel region, or after pool teardown) the loop runs serially inline.
// CIP_HOT  (dispatch front door: pool hand-off or busy-pool fallback)
void RunChunked(std::size_t begin, std::size_t end,
                const std::function<void(std::size_t)>& fn,
                std::size_t max_threads, std::size_t min_parallel) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t threads = std::min(std::max<std::size_t>(max_threads, 1), n);
  if (threads <= 1 || n < min_parallel || t_parallel_depth > 0 ||
      g_pool_destroyed.load(std::memory_order_acquire)) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  Job job;
  job.fn = &fn;
  job.begin = begin;
  job.end = end;
  job.chunk = (n + threads - 1) / threads;
  job.num_chunks = (n + job.chunk - 1) / job.chunk;
  // The pool runs one region at a time; a second concurrent top-level
  // caller finds it busy and falls back. Chunk execution order (and the
  // partition itself) never affects results — the FL bit-identity suites
  // pin that across worker budgets — so the fallback below produces
  // bit-identical results.
  if (!WorkerPool::Instance().TryRun(job, threads - 1)) {
    // Busy-pool fallback. Spawning a jthread costs tens of microseconds of
    // thread start-up — worth it for a large region, pure thrash for the
    // many-small-top-level-regions regime (e.g. concurrent serving steps
    // dispatching small forwards while a training run owns the pool). Scale
    // the runner budget to what the region's volume amortizes, but never
    // below two: the region must NOT serialize, because a concurrent
    // top-level sibling may own the pool and rendezvous with our bodies
    // (ParallelStress.ConcurrentTopLevelRegionsMakeProgress is the
    // regression). The caller is one of the runners, so the cheapest
    // fallback costs a single spawn, and runners == chunks keeps the
    // progress guarantee: every chunk has a dedicated runner even if every
    // other body blocks.
    const std::size_t budget = std::clamp<std::size_t>(
        1 + n / (min_parallel * kBusySpawnAmortizeFactor), 2, threads);
    job.chunk = (n + budget - 1) / budget;
    job.num_chunks = (n + job.chunk - 1) / job.chunk;
    {
      std::vector<std::jthread> helpers;
      // CIP_ANALYZE_OK(hot-alloc-container): busy-pool fallback path, explicitly not the steady-state pool
      helpers.reserve(job.num_chunks - 1);
      for (std::size_t w = 1; w < job.num_chunks; ++w) {
        // CIP_ANALYZE_OK(hot-alloc-container): busy-pool fallback: helper jthreads are constructed fresh by design
        helpers.emplace_back([&job] {
          ++t_parallel_depth;
          job.RunChunks();
          --t_parallel_depth;
        });
      }
      ++t_parallel_depth;
      job.RunChunks();
      --t_parallel_depth;
    }  // helpers join here; job state is stable afterwards.
  }
  if (job.first_error != nullptr) std::rethrow_exception(job.first_error);
}

}  // namespace

namespace internal {

bool InParallelRegion() { return t_parallel_depth > 0; }

std::size_t PoolWorkerCount() {
  if (g_pool_destroyed.load(std::memory_order_acquire)) return 0;
  return WorkerPool::Instance().WorkerCount();
}

}  // namespace internal

void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t max_threads) {
  // Dispatch overhead dominates for tiny fine-grained ranges.
  RunChunked(begin, end, fn, max_threads, /*min_parallel=*/16);
}

void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn) {
  ParallelFor(begin, end, fn, ParallelThreads());
}

void ParallelForCoarse(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& fn,
                       std::size_t max_threads) {
  RunChunked(begin, end, fn,
             max_threads == 0 ? ParallelThreads() : max_threads,
             /*min_parallel=*/2);
}

}  // namespace cip
