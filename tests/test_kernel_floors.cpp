// Kernel speed floors, re-measured on the build under test:
//   - conv forward: im2col + GEMM >= 3x the naive loops at 4 threads and
//     >= 1.5x at 1 thread (backbone-sized shape, as BM_Conv2dForward);
//   - GEMM: the SIMD kernel >= 3x the portable kernel at 1 thread
//     (256^3, as BM_Matmul/256); skipped where only the portable kernel
//     binds.
// Each floor times its two sides alternately and keeps each side's best
// repeat, so load from other processes slows both sides alike instead of
// failing the ratio. ctest runs this binary at CIP_THREADS=4, the budget the
// multi-threaded conv floor is defined at. Timing floors hold only in
// optimized, unsanitized builds; elsewhere the tests skip and say so.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <limits>

#include "common/env.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nn/conv2d.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"

namespace cip {
namespace {

#if defined(NDEBUG) && !defined(CIP_SANITIZED)
constexpr bool kFloorsEnforced = true;
#else
constexpr bool kFloorsEnforced = false;
#endif

constexpr double kMinConvSpeedupMulti = 3.0;   // at 4 threads
constexpr double kMinConvSpeedupSingle = 1.5;  // at 1 thread
constexpr double kMinSimdSpeedup = 3.0;        // at 1 thread

Tensor RandomTensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (float& v : t.flat()) v = rng.Normal();
  return t;
}

/// Seconds per call of `fn` over `calls` timed calls, after one untimed
/// call that absorbs one-off setup (buffer growth, kernel binding).
double SecondsPerCall(const std::function<void()>& fn, int calls) {
  fn();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < calls; ++i) fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() /
         calls;
}

/// How many times faster `fast` is than `slow`: each side's best of
/// `repeats` batches, the sides alternating within every repeat.
double BestSpeedup(const std::function<void()>& slow,
                   const std::function<void()>& fast, int repeats,
                   int calls) {
  double slow_s = std::numeric_limits<double>::infinity();
  double fast_s = slow_s;
  for (int r = 0; r < repeats; ++r) {
    slow_s = std::min(slow_s, SecondsPerCall(slow, calls));
    fast_s = std::min(fast_s, SecondsPerCall(fast, calls));
  }
  return slow_s / fast_s;
}

/// Runs `fn` with every parallel region inside it serial: a region nested
/// in another parallel region runs inline on its caller (common/parallel.h).
void SingleThreaded(const std::function<void()>& fn) {
  ParallelForCoarse(0, 2, [&](std::size_t i) {
    if (i == 0) fn();
  }, 2);
}

TEST(KernelFloor, ConvGemmBeatsNaive) {
  if (!kFloorsEnforced) {
    GTEST_SKIP() << "timing floor skipped (sanitized or unoptimized build)";
  }
  struct NaiveRestore {
    ~NaiveRestore() { internal::SetNaiveConvForTesting(false); }
  } restore;
  Rng rng(13);
  nn::Conv2d conv(3, 32, /*kernel=*/3, /*stride=*/1, /*padding=*/1, rng,
                  "floor_conv");
  const Tensor x = RandomTensor({32, 3, 32, 32}, 14);
  const auto forward = [&](bool naive) {
    return [&conv, &x, naive] {
      internal::SetNaiveConvForTesting(naive);
      (void)conv.Forward(x, /*train=*/false);
    };
  };
  const double multi =
      BestSpeedup(forward(true), forward(false), /*repeats=*/7, /*calls=*/3);
  double single = 0.0;
  SingleThreaded([&] {
    single = BestSpeedup(forward(true), forward(false), 7, 3);
  });
  std::cout << "conv GEMM vs naive: " << multi << "x at "
            << ParallelThreads() << " threads, " << single
            << "x at 1 thread\n";
  EXPECT_GE(multi, kMinConvSpeedupMulti);
  EXPECT_GE(single, kMinConvSpeedupSingle);
}

TEST(KernelFloor, SimdGemmBeatsPortable) {
  if (!kFloorsEnforced) {
    GTEST_SKIP() << "timing floor skipped (sanitized or unoptimized build)";
  }
  struct IsaRestore {
    ~IsaRestore() {
      internal::SetIsaRequestForTesting(IsaRequest::kAuto);
      ops::internal::ResetGemmBindingForTesting();
    }
  } restore;
  internal::SetIsaRequestForTesting(IsaRequest::kAuto);
  ops::internal::ResetGemmBindingForTesting();
  const IsaLevel best = ops::ActiveGemmIsa();
  if (best == IsaLevel::kPortable) {
    GTEST_SKIP() << "only the portable GEMM kernel binds on this host";
  }
  const Tensor a = RandomTensor({256, 256}, 1);
  const Tensor b = RandomTensor({256, 256}, 2);
  const auto matmul = [&](IsaRequest request) {
    return [&a, &b, request] {
      internal::SetIsaRequestForTesting(request);
      ops::internal::ResetGemmBindingForTesting();
      (void)ops::Matmul(a, b);
    };
  };
  double speedup = 0.0;
  SingleThreaded([&] {
    speedup = BestSpeedup(matmul(IsaRequest::kPortable),
                          matmul(IsaRequest::kAuto), /*repeats=*/7,
                          /*calls=*/5);
  });
  std::cout << "GEMM " << IsaName(best) << " vs portable: " << speedup
            << "x at 1 thread\n";
  EXPECT_GE(speedup, kMinSimdSpeedup);
}

}  // namespace
}  // namespace cip
