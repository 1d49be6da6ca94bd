// Stress tests for ParallelFor / ParallelForCoarse — now backed by the
// persistent worker pool — and the federated round engine built on them:
// TSan-visible write patterns, spawn storms across changing budgets, nested
// dispatch from inside a worker, exception propagation from workers, the
// busy-pool fallback taken while another top-level thread owns the pool,
// and strict CIP_THREADS parsing. Designed to run under the `tsan` preset —
// the overlapping-write scenarios only touch shared state through atomics,
// so a clean run certifies the harness itself is race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/env.h"
#include "common/parallel.h"
#include "data/partition.h"
#include "fl/client_factory.h"
#include "fl/server.h"
#include "nn/conv2d.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace cip {
namespace {

constexpr std::size_t kN = 1 << 15;
constexpr std::size_t kThreads = 4;  // force real workers even on 1-core CI

/// Runs `fn` while a second top-level thread owns the worker pool, so every
/// parallel region `fn` issues takes the busy-pool fallback: helper threads
/// spawned per call, re-chunked by the fallback's own budget. Allowlisted
/// raw-thread use, as in ConcurrentTopLevelRegionsMakeProgress.
template <typename Fn>
void WithPoolHeldElsewhere(Fn&& fn) {
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  const std::jthread holder([&] {
    ParallelForCoarse(0, 2, [&](std::size_t) {
      held.store(true);
      while (!release.load()) std::this_thread::yield();
    }, 2);
  });
  // Declared after `holder`, so the holder is released (even if fn throws)
  // before its jthread joins.
  struct Releaser {
    std::atomic<bool>& flag;
    ~Releaser() { flag.store(true); }
  } releaser{release};
  while (!held.load()) std::this_thread::yield();
  fn();
}

TEST(ParallelStress, DisjointWritesCoverRange) {
  std::vector<int> hits(kN, 0);
  ParallelFor(0, kN, [&](std::size_t i) { hits[i] += 1; }, kThreads);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kN));
}

TEST(ParallelStress, OverlappingAtomicCounter) {
  // Every index increments the same counter: maximal contention, race-free
  // only because the counter is atomic. TSan certifies exactly that.
  std::atomic<std::size_t> counter{0};
  ParallelFor(0, kN, [&](std::size_t) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }, kThreads);
  EXPECT_EQ(counter.load(), kN);
}

TEST(ParallelStress, OverlappingSharedCells) {
  // All workers hammer a small set of shared cells (indices collide mod 8).
  std::vector<std::atomic<int>> cells(8);
  ParallelFor(0, kN, [&](std::size_t i) {
    cells[i % cells.size()].fetch_add(1, std::memory_order_relaxed);
  }, kThreads);
  int total = 0;
  for (auto& c : cells) total += c.load();
  EXPECT_EQ(total, static_cast<int>(kN));
}

TEST(ParallelStress, NestedParallelFor) {
  // Outer level parallel, inner level re-enters ParallelFor; must neither
  // deadlock nor race.
  std::atomic<std::size_t> counter{0};
  ParallelFor(0, 64, [&](std::size_t) {
    ParallelFor(0, 64, [&](std::size_t) {
      counter.fetch_add(1, std::memory_order_relaxed);
    }, 2);
  }, kThreads);
  EXPECT_EQ(counter.load(), 64u * 64u);
}

TEST(ParallelStress, WorkerExceptionPropagatesToCaller) {
  // A throw inside a worker must surface on the calling thread (historically
  // this killed the process via std::terminate in the jthread).
  EXPECT_THROW(
      ParallelFor(0, kN, [](std::size_t i) {
        if (i == kN / 2) throw std::runtime_error("worker failed");
      }, kThreads),
      std::runtime_error);
}

TEST(ParallelStress, WorkerCheckErrorPropagatesToCaller) {
  // The library's own contract system communicates misuse by throwing; a
  // CIP_CHECK tripping inside a parallel region must reach the caller.
  EXPECT_THROW(
      ParallelFor(0, kN, [](std::size_t i) { CIP_CHECK_LT(i, kN / 2); },
                  kThreads),
      CheckError);
}

TEST(ParallelStress, FirstExceptionWinsAndOthersAreSwallowed) {
  // Many workers throw; exactly one exception must arrive, and it must be one
  // of the thrown types. Later workers bail out early.
  try {
    ParallelFor(0, kN, [](std::size_t) { throw std::runtime_error("any"); },
                kThreads);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "any");
  }
}

TEST(ParallelStress, ExceptionOnSerialPathAlsoPropagates) {
  // Small ranges take the serial fast path; semantics must match.
  EXPECT_THROW(
      ParallelFor(0, 4, [](std::size_t) { throw std::logic_error("serial"); },
                  kThreads),
      std::logic_error);
}

TEST(ParallelStress, StateIsConsistentAfterWorkerException) {
  // Indices before the failing one in the same chunk are executed; the call
  // must not leak threads or corrupt the done-flags (TSan would flag both).
  std::vector<std::atomic<int>> done(kN);
  EXPECT_THROW(
      ParallelFor(0, kN, [&](std::size_t i) {
        if (i == 17) throw std::runtime_error("mid-chunk");
        done[i].store(1, std::memory_order_relaxed);
      }, kThreads),
      std::runtime_error);
  EXPECT_EQ(done[17].load(), 0);
  // Re-running on the same state works fine.
  ParallelFor(0, kN, [&](std::size_t i) {
    done[i].store(1, std::memory_order_relaxed);
  }, kThreads);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(done[i].load(), 1);
}

TEST(ParallelStress, EmptyAndReversedRangesAreNoOps) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, [&](std::size_t) { calls.fetch_add(1); }, kThreads);
  ParallelFor(9, 3, [&](std::size_t) { calls.fetch_add(1); }, kThreads);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelCoarseStress, SmallRangesStillRunOnWorkers) {
  // ParallelFor serializes n < 16; ParallelForCoarse must not — a 4-client
  // federated round is exactly a 4-element range. Prove genuine concurrency:
  // 4 workers all block until everyone has arrived; only real parallelism
  // (not time-slicing of a serial loop) lets the rendezvous complete.
  std::atomic<int> arrived{0};
  ParallelForCoarse(0, 4, [&](std::size_t) {
    arrived.fetch_add(1, std::memory_order_relaxed);
    while (arrived.load(std::memory_order_relaxed) < 4) {
      std::this_thread::yield();
    }
  }, kThreads);
  EXPECT_EQ(arrived.load(), 4);
}

TEST(ParallelCoarseStress, OverlappingAtomicCounter) {
  std::atomic<std::size_t> counter{0};
  ParallelForCoarse(0, kN, [&](std::size_t) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }, kThreads);
  EXPECT_EQ(counter.load(), kN);
}

TEST(ParallelCoarseStress, WorkerExceptionPropagatesToCaller) {
  EXPECT_THROW(
      ParallelForCoarse(0, 4, [](std::size_t i) {
        if (i == 2) throw std::runtime_error("coarse worker failed");
      }, kThreads),
      std::runtime_error);
}

TEST(ParallelCoarseStress, SingleElementRangeRunsSerially) {
  std::atomic<int> calls{0};
  ParallelForCoarse(3, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 3u);
    calls.fetch_add(1);
  }, kThreads);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelStress, SpawnStormAcrossChangingBudgets) {
  // Hundreds of back-to-back parallel regions with a different explicit
  // budget each time: exercises lazy pool growth, generation handoff, and
  // worker parking under maximal churn. Budgets above the current worker
  // count force mid-storm growth.
  std::atomic<std::size_t> counter{0};
  std::size_t expected = 0;
  for (std::size_t rep = 0; rep < 300; ++rep) {
    const std::size_t budget = (rep % 8) + 1;
    const std::size_t n = 16 + (rep % 61);
    ParallelForCoarse(0, n, [&](std::size_t) {
      counter.fetch_add(1, std::memory_order_relaxed);
    }, budget);
    expected += n;
  }
  EXPECT_EQ(counter.load(), expected);
  // Workers are persistent and bounded by the largest budget ever requested.
  EXPECT_LE(internal::PoolWorkerCount(), kMaxParallelThreads - 1);
}

TEST(ParallelStress, PoolGrowsLazilyAndPersists) {
  const std::size_t before = internal::PoolWorkerCount();
  ParallelForCoarse(0, 8, [](std::size_t) {}, kThreads);
  const std::size_t after = internal::PoolWorkerCount();
  // A budget of kThreads needs kThreads-1 workers (the caller participates).
  EXPECT_GE(after, kThreads - 1);
  EXPECT_GE(after, before);  // never shrinks
}

TEST(ParallelStress, NestedCallFromWorkerRunsInline) {
  // The pool runs one job at a time, so a nested ParallelFor issued from a
  // worker must run serially inline on that worker (not re-enter the pool,
  // which would deadlock). Assert every inner index runs on the thread that
  // issued the nested call.
  std::atomic<std::size_t> wrong_thread{0};
  std::atomic<std::size_t> inner_total{0};
  ParallelForCoarse(0, 4, [&](std::size_t) {
    EXPECT_TRUE(internal::InParallelRegion());
    const auto outer_id = std::this_thread::get_id();
    ParallelForCoarse(0, 8, [&](std::size_t) {
      if (std::this_thread::get_id() != outer_id) {
        wrong_thread.fetch_add(1, std::memory_order_relaxed);
      }
      inner_total.fetch_add(1, std::memory_order_relaxed);
    }, kThreads);
  }, kThreads);
  EXPECT_FALSE(internal::InParallelRegion());
  EXPECT_EQ(wrong_thread.load(), 0u);
  EXPECT_EQ(inner_total.load(), 4u * 8u);
}

TEST(ParallelStress, ExplicitBudgetOverload) {
  // Budget far beyond the range (and the machine): chunking clamps to one
  // index per chunk and every index still runs exactly once.
  std::vector<std::atomic<int>> hits(3);
  ParallelForCoarse(0, 3, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  }, /*max_threads=*/32);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // And a large range under a large budget, repeatedly.
  std::atomic<std::size_t> counter{0};
  for (int rep = 0; rep < 4; ++rep) {
    ParallelFor(0, kN, [&](std::size_t) {
      counter.fetch_add(1, std::memory_order_relaxed);
    }, /*max_threads=*/32);
  }
  EXPECT_EQ(counter.load(), 4 * kN);
}

TEST(ParallelStress, DistinctWorkersActuallyParticipate) {
  // With a blocking rendezvous the runners must be distinct OS threads:
  // collect their ids and require kThreads unique ones.
  std::mutex m;
  std::set<std::thread::id> ids;
  std::atomic<int> arrived{0};
  ParallelForCoarse(0, kThreads, [&](std::size_t) {
    {
      std::lock_guard<std::mutex> lock(m);
      ids.insert(std::this_thread::get_id());
    }
    arrived.fetch_add(1, std::memory_order_relaxed);
    while (arrived.load(std::memory_order_relaxed) <
           static_cast<int>(kThreads)) {
      std::this_thread::yield();
    }
  }, kThreads);
  EXPECT_EQ(ids.size(), kThreads);
}

TEST(ParallelStress, SpawnPerCallPathStillWorks) {
  // The busy-pool fallback (helper threads spawned per call) keeps the
  // pool's contract: disjoint writes cover the range exactly once and a
  // runner's exception reaches the caller.
  WithPoolHeldElsewhere([] {
    std::vector<int> hits(kN, 0);
    ParallelFor(0, kN, [&](std::size_t i) { hits[i] += 1; }, kThreads);
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(kN));
    EXPECT_THROW(
        ParallelFor(0, kN, [](std::size_t i) {
          if (i == 99) throw std::runtime_error("spawned worker failed");
        }, kThreads),
        std::runtime_error);
  });
}

TEST(ParallelStress, PoolIsReusableAfterException) {
  // A throw must not wedge the pool: the very next region runs fine.
  EXPECT_THROW(
      ParallelForCoarse(0, 8, [](std::size_t) {
        throw std::runtime_error("boom");
      }, kThreads),
      std::runtime_error);
  std::atomic<std::size_t> counter{0};
  ParallelForCoarse(0, 8, [&](std::size_t) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }, kThreads);
  EXPECT_EQ(counter.load(), 8u);
}

TEST(ParallelStress, GemmBitIdenticalAcrossDispatchModes) {
  // A GEMM index is one row block, whatever chunk it lands in — so a
  // parallel GEMM must be bit-identical between the pool and the busy-pool
  // fallback, which groups the row blocks into different chunks. This is the
  // kernel-level half of the FL round bit-identity invariant
  // (tests/test_round_engine.cpp holds the round-level half).
  Rng rng(123);
  Tensor a({128, 128}), b({128, 128});
  for (float& v : a.flat()) v = rng.Normal();
  for (float& v : b.flat()) v = rng.Normal();
  const Tensor pool_c = ops::Matmul(a, b);
  Tensor fallback_c;
  WithPoolHeldElsewhere([&] { fallback_c = ops::Matmul(a, b); });
  ASSERT_EQ(pool_c.size(), fallback_c.size());
  EXPECT_EQ(std::memcmp(pool_c.data(), fallback_c.data(),
                        pool_c.size() * sizeof(float)),
            0);
}

TEST(GemmIsa, BitIdenticalAcrossDispatchBackendsWithinIsa) {
  // The per-ISA extension of GemmBitIdenticalAcrossDispatchModes: within one
  // bound ISA the row-block partition is fixed, so the pool and the busy-pool
  // fallback must produce byte-equal output. Requests clamp down to what the
  // host supports, so every kernel it has is covered.
  struct IsaRestore {
    ~IsaRestore() {
      internal::SetIsaRequestForTesting(IsaRequest::kAuto);
      ops::internal::ResetGemmBindingForTesting();
    }
  } restore;
  Rng rng(5);
  Tensor a({128, 128}), b({128, 128});
  for (float& v : a.flat()) v = rng.Normal();
  for (float& v : b.flat()) v = rng.Normal();
  for (const IsaRequest req :
       {IsaRequest::kPortable, IsaRequest::kAvx2, IsaRequest::kAvx512}) {
    internal::SetIsaRequestForTesting(req);
    ops::internal::ResetGemmBindingForTesting();
    SCOPED_TRACE(::testing::Message()
                 << "isa=" << IsaName(ops::ActiveGemmIsa()));
    const Tensor pool_c = ops::Matmul(a, b);
    Tensor fallback_c;
    WithPoolHeldElsewhere([&] { fallback_c = ops::Matmul(a, b); });
    ASSERT_EQ(pool_c.size(), fallback_c.size());
    EXPECT_EQ(std::memcmp(pool_c.data(), fallback_c.data(),
                          pool_c.size() * sizeof(float)),
              0);
  }
}

TEST(ParallelStress, ConcurrentTopLevelRegionsMakeProgress) {
  // Two independent top-level regions whose bodies rendezvous with each
  // other. The pool runs one region at a time, so the second caller must
  // fall back to spawn dispatch instead of parking on the pool mutex — if
  // top-level callers serialized, the first region would spin forever
  // waiting for arrivals from a region that can never start. Regression
  // test for exactly that deadlock.
  std::atomic<int> arrived{0};
  const auto region = [&arrived] {
    ParallelForCoarse(0, 2, [&](std::size_t) {
      arrived.fetch_add(1, std::memory_order_relaxed);
      while (arrived.load(std::memory_order_relaxed) < 4) {
        std::this_thread::yield();
      }
    }, 2);
  };
  {
    // An external top-level caller thread; allowlisted raw-thread use — the
    // library API alone cannot produce two concurrent top-level regions
    // (anything launched through it is nested and runs inline).
    const std::jthread other(region);
    region();
  }
  EXPECT_EQ(arrived.load(), 4);
}

TEST(ParallelStress, ConvGemmTopLevelParallelIsRaceFree) {
  // Regression: Conv2d's im2col/col2im dispatches used to invoke non-const
  // Tensor::data() on the shared scratch tensor from inside the parallel
  // region, racing every worker on the (unsynchronized) version counter.
  // Batch >= 16 so the per-sample ParallelFor really goes parallel at top
  // level — FL-round suites run conv nested-serial under ParallelForCoarse
  // and cannot catch this. Per-sample work is sized so the caller cannot
  // drain every chunk before a pool worker wakes (a worker that never claims
  // a chunk never touches the counter and the race goes unobserved), and the
  // loop repeats to give the scheduler many windows. TSan certifies the fix.
  Rng rng(7);
  nn::Conv2d conv(3, 8, /*kernel=*/3, /*stride=*/1, /*padding=*/1, rng, "c");
  Tensor x({32, 3, 24, 24});
  for (float& v : x.flat()) v = rng.Normal();
  for (int rep = 0; rep < 8; ++rep) {
    const Tensor y = conv.Forward(x, /*train=*/true);
    const Tensor g(y.shape(), 0.5f);
    const Tensor dx = conv.Backward(g);
    ASSERT_EQ(dx.shape(), x.shape());
  }
}

TEST(RoundEngineStress, ParallelFederationIsRaceFree) {
  // The real round engine under TSan: 8 tiny MLP clients training
  // concurrently on 8 workers for 2 rounds. Any shared mutable state in the
  // client phase (models, optimizers, RNGs, telemetry slots) shows up here.
  constexpr std::size_t kClients = 8;
  Rng rng(6);
  data::Dataset full = testing::TwoBlobs(16 * kClients, 4, rng);
  for (float& v : full.inputs.flat()) {
    v = std::clamp(0.5f + 0.25f * v, 0.0f, 1.0f);
  }
  const auto shards = data::PartitionIid(full, kClients, rng);

  fl::ClientSpec spec;
  spec.kind = fl::ClientKind::kLegacy;
  spec.model.arch = nn::Arch::kMLP;
  spec.model.input_shape = {4};
  spec.model.num_classes = 2;
  spec.model.width = 4;
  spec.model.seed = 3;
  spec.train.lr = 0.1f;
  fl::ClientStore store;
  for (std::size_t k = 0; k < kClients; ++k) {
    spec.data = shards[k];
    spec.seed = 60 + k;
    store.Add(fl::MakeClient(spec));
  }

  fl::FlOptions opts;
  opts.rounds = 2;
  opts.max_parallel_clients = kClients;
  fl::FederatedAveraging server(fl::InitialStateFor(spec), opts);
  const fl::FlLog log = server.Run(store, 61);
  EXPECT_EQ(log.telemetry.rounds.size(), 2u);
  EXPECT_EQ(log.client_losses.at(0).size(), kClients);
}

TEST(ParallelThreadsEnv, DefaultIsAtLeastOne) {
  EXPECT_GE(ParallelThreads(), 1u);
  EXPECT_LE(ParallelThreads(), kMaxParallelThreads);
}

TEST(ParallelThreadsEnv, ParseAcceptsWholeDecimalIntegers) {
  EXPECT_EQ(internal::ParseThreadCount("1"), 1u);
  EXPECT_EQ(internal::ParseThreadCount("8"), 8u);
  EXPECT_EQ(internal::ParseThreadCount("256"), 256u);
  EXPECT_EQ(internal::ParseThreadCount("  16"), 16u);  // strtol skips leading ws
}

TEST(ParallelThreadsEnv, ParseRejectsGarbage) {
  EXPECT_EQ(internal::ParseThreadCount(nullptr), std::nullopt);
  EXPECT_EQ(internal::ParseThreadCount(""), std::nullopt);
  EXPECT_EQ(internal::ParseThreadCount("abc"), std::nullopt);
  EXPECT_EQ(internal::ParseThreadCount("4cores"), std::nullopt);
  EXPECT_EQ(internal::ParseThreadCount("4 "), std::nullopt);
  EXPECT_EQ(internal::ParseThreadCount("4.5"), std::nullopt);
}

TEST(ParallelThreadsEnv, ParseRejectsNonPositiveAndOverflow) {
  // The old strtol path silently mapped these to "no threads configured".
  EXPECT_EQ(internal::ParseThreadCount("0"), std::nullopt);
  EXPECT_EQ(internal::ParseThreadCount("-3"), std::nullopt);
  EXPECT_EQ(internal::ParseThreadCount("257"), std::nullopt);  // > cap
  EXPECT_EQ(internal::ParseThreadCount("99999999999999999999"), std::nullopt);
  EXPECT_EQ(internal::ParseThreadCount("9223372036854775807"), std::nullopt);
}

}  // namespace
}  // namespace cip
