// Minimal data-parallel helper backed by a persistent worker pool.
//
// ParallelFor splits [begin, end) into contiguous chunks and runs them on a
// lazily-started pool of persistent worker threads (condition-variable
// dispatch, idle workers parked between calls). The grain is coarse (one
// chunk per configured worker) because callers in this library parallelize
// over batch/output rows where work per index is uniform. Honors the
// CIP_THREADS environment variable; defaults to hardware_concurrency capped
// at 8.
//
// Pool lifecycle: the pool starts no threads until the first call that
// actually goes parallel; it grows on demand up to kMaxParallelThreads - 1
// workers (the calling thread always participates as the remaining runner)
// and is torn down — an in-flight region drained, then workers woken and
// joined — by a static destructor at process exit. Calls issued after
// teardown run serially. Threads other than the one running static
// destructors must not issue ParallelFor calls concurrently with process
// exit: teardown waits only for the region in flight, and a dispatch racing
// the destruction of the pool singleton itself is undefined.
//
// Chunking is deterministic: a call with budget T over n indices produces
// min(T, n) fixed contiguous chunks of ceil(n / min(T, n)) indices,
// independent of which worker executes which chunk. Every index is executed
// exactly once, so any fn writing to disjoint locations per index produces
// bit-identical results across budgets and dispatch paths.
//
// Nesting: a ParallelFor issued from inside a worker (or from a caller that
// is itself executing chunks) runs serially on that thread instead of
// re-entering the pool — nested calls can neither deadlock nor oversubscribe.
// The pool executes one region at a time, but independent top-level callers
// never block on each other: a caller that finds the pool busy runs that
// region on freshly spawned helper threads instead, re-chunked by a budget
// scaled to the region's size (every index still runs exactly once, so
// results stay bit-identical). Concurrent regions therefore always progress
// independently, even when one region's fn waits on progress made by
// another region.
//
// Exception safety: if any invocation of fn throws, the first exception (by
// completion order) is captured and rethrown on the calling thread after
// every participating runner has finished; remaining runners stop at their
// next index. Indices at or after the throwing one may therefore be skipped,
// but every invocation of fn either completes or its exception reaches the
// caller — a worker never takes the process down via std::terminate, and the
// pool remains usable afterwards.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

namespace cip {

/// Number of worker threads ParallelFor uses by default (>= 1). Reads
/// CIP_THREADS once; a malformed value (non-numeric, trailing garbage, zero,
/// negative, or > kMaxParallelThreads) is ignored in favor of the hardware
/// default.
std::size_t ParallelThreads();

/// Upper bound accepted from CIP_THREADS, and the cap on persistent pool
/// workers (an explicit budget above it still chunks by the budget but runs
/// on at most this many threads).
inline constexpr std::size_t kMaxParallelThreads = 256;

/// Run fn(i) for every i in [begin, end). fn must be safe to call
/// concurrently for distinct i. Falls back to serial execution for small
/// ranges or when only one thread is configured. Exceptions thrown by fn
/// propagate to the caller (see file comment).
void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn);

/// Same, but with an explicit worker-thread budget (still clamped to the
/// range size). Used by stress tests to force multi-threaded execution
/// regardless of CIP_THREADS / core count.
void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t max_threads);

/// ParallelFor for coarse work items (e.g. one FL client's local training
/// round): dispatches to the pool whenever the budget allows, without
/// ParallelFor's small-range serial fallback. A 4-item range at a budget of
/// 4 really runs on 4 concurrent runners. max_threads == 0 means
/// ParallelThreads(). Same chunking, determinism, and exception contract as
/// ParallelFor.
void ParallelForCoarse(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& fn,
                       std::size_t max_threads = 0);

namespace internal {

/// Strict parse of a CIP_THREADS-style value. Returns nullopt unless `s` is a
/// whole decimal integer in [1, kMaxParallelThreads] (leading whitespace per
/// strtol is accepted; trailing characters are not).
std::optional<std::size_t> ParseThreadCount(const char* s);

/// True while the current thread is executing inside a parallel region —
/// either as a persistent pool worker or as a caller running its share of
/// chunks. Nested ParallelFor calls from such a thread run serially.
bool InParallelRegion();

/// Number of persistent workers the pool has started so far (0 until the
/// first parallel dispatch). Test/diagnostic hook.
std::size_t PoolWorkerCount();

}  // namespace internal

}  // namespace cip
