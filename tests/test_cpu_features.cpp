// Dispatcher-layer tests: the CPUID probe, strict CIP_ISA parsing, the
// bind-once GEMM kernel registry, per-ISA parity against a double-precision
// oracle, and the PackedB per-ISA layout invalidation consumed by
// Linear/Conv2d weight caches. Within-ISA bit-identity across dispatch paths
// lives in tests/test_parallel_stress.cpp, which may start the second
// top-level thread it needs.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "common/cpu_features.h"
#include "common/env.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"

namespace cip {
namespace {

Tensor RandomTensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (float& v : t.flat()) v = rng.Normal();
  return t;
}

/// Forces one CIP_ISA request and rebinds the registry; always restores
/// auto + rebind on scope exit, even if an assertion fails mid-test.
class IsaGuard {
 public:
  explicit IsaGuard(IsaRequest request) {
    internal::SetIsaRequestForTesting(request);
    ops::internal::ResetGemmBindingForTesting();
  }
  ~IsaGuard() {
    internal::SetIsaRequestForTesting(IsaRequest::kAuto);
    ops::internal::ResetGemmBindingForTesting();
  }
};

/// Every ISA request this host can actually honor with a distinct kernel
/// (portable always; avx2/avx512 when both the binary and the CPU have them).
std::vector<IsaRequest> UsableRequests() {
  std::vector<IsaRequest> reqs{IsaRequest::kPortable};
  const CpuFeatures& f = GetCpuFeatures();
  if (IsaSupported(IsaLevel::kAvx2, f) &&
      ops::internal::Avx2GemmKernel() != nullptr) {
    reqs.push_back(IsaRequest::kAvx2);
  }
  if (IsaSupported(IsaLevel::kAvx512, f) &&
      ops::internal::Avx512GemmKernel() != nullptr) {
    reqs.push_back(IsaRequest::kAvx512);
  }
  return reqs;
}

// Per-ISA pinned tolerance against the sequential double-precision reference.
// All kernels accumulate per element in ascending-k float order; FMA
// contraction (avx2/avx512) only shrinks the rounding error, so one bound
// holds everywhere — pinned per ISA anyway so a future kernel cannot silently
// widen it for everyone.
double PinnedTolerance(IsaLevel isa) {
  switch (isa) {
    case IsaLevel::kAvx512:
      return 1e-5;
    case IsaLevel::kAvx2:
      return 1e-5;
    case IsaLevel::kPortable:
      break;
  }
  return 1e-5;
}

void ExpectTensorsNear(const Tensor& a, const Tensor& b, double tol,
                       const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  double worst = 0.0;
  std::size_t worst_i = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scaled =
        std::abs(a[i] - b[i]) / (1.0 + std::abs(static_cast<double>(b[i])));
    if (scaled > worst) {
      worst = scaled;
      worst_i = i;
    }
  }
  EXPECT_LE(worst, tol) << what << ": worst mismatch at flat index " << worst_i
                        << ": " << a[worst_i] << " vs " << b[worst_i];
}

Tensor RefMatmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        s += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(s);
    }
  }
  return c;
}

TEST(CpuFeatures, ProbeIsCachedAndConsistent) {
  const CpuFeatures& first = GetCpuFeatures();
  const CpuFeatures& second = GetCpuFeatures();
  EXPECT_EQ(&first, &second);  // one probe per process
  // The support lattice must be monotone in the enum order.
  EXPECT_TRUE(IsaSupported(IsaLevel::kPortable, first));
  if (IsaSupported(IsaLevel::kAvx512, first)) {
    EXPECT_TRUE(first.avx512f);
  }
  const IsaLevel best = BestSupportedIsa();
  EXPECT_TRUE(IsaSupported(best, first));
}

TEST(CpuFeatures, IsaNamesAreStable) {
  EXPECT_STREQ(IsaName(IsaLevel::kPortable), "portable");
  EXPECT_STREQ(IsaName(IsaLevel::kAvx2), "avx2");
  EXPECT_STREQ(IsaName(IsaLevel::kAvx512), "avx512");
}

TEST(CpuFeatures, StrictIsaParsing) {
  // Exact strings parse; everything else is rejected (and IsaRequested then
  // falls back to auto), mirroring the CIP_THREADS / CIP_NAIVE_CONV parsers.
  EXPECT_EQ(internal::ParseIsaRequest("auto"), IsaRequest::kAuto);
  EXPECT_EQ(internal::ParseIsaRequest("portable"), IsaRequest::kPortable);
  EXPECT_EQ(internal::ParseIsaRequest("avx2"), IsaRequest::kAvx2);
  EXPECT_EQ(internal::ParseIsaRequest("avx512"), IsaRequest::kAvx512);
  EXPECT_EQ(internal::ParseIsaRequest(nullptr), std::nullopt);
  EXPECT_EQ(internal::ParseIsaRequest(""), std::nullopt);
  EXPECT_EQ(internal::ParseIsaRequest("AVX2"), std::nullopt);
  EXPECT_EQ(internal::ParseIsaRequest(" avx2"), std::nullopt);
  EXPECT_EQ(internal::ParseIsaRequest("avx2 "), std::nullopt);
  EXPECT_EQ(internal::ParseIsaRequest("avx-512"), std::nullopt);
  EXPECT_EQ(internal::ParseIsaRequest("sse"), std::nullopt);
  EXPECT_EQ(internal::ParseIsaRequest("auto2"), std::nullopt);
  EXPECT_EQ(internal::ParseIsaRequest("1"), std::nullopt);
}

TEST(GemmIsa, ForcedRequestsBindExpectedKernels) {
  {
    IsaGuard guard(IsaRequest::kPortable);
    EXPECT_EQ(ops::ActiveGemmIsa(), IsaLevel::kPortable);
    const ops::GemmKernel& k = ops::ActiveGemmKernel();
    EXPECT_STREQ(k.name, "portable");
    EXPECT_EQ(k.mc % k.mr, 0u);  // block partition must respect micro-tiles
  }
  {
    // Requests above what the host/binary supports clamp down, never crash.
    IsaGuard guard(IsaRequest::kAvx512);
    const ops::GemmKernel& k = ops::ActiveGemmKernel();
    EXPECT_TRUE(IsaSupported(k.isa, GetCpuFeatures()));
    EXPECT_EQ(k.mc % k.mr, 0u);
  }
  {
    IsaGuard guard(IsaRequest::kAuto);
    // Auto binds the best supported compiled-in kernel.
    const ops::GemmKernel& k = ops::ActiveGemmKernel();
    EXPECT_TRUE(IsaSupported(k.isa, GetCpuFeatures()));
  }
}

TEST(GemmIsa, RegistryBindsExactlyOnceUnderParallelStress) {
  IsaGuard guard(IsaRequest::kAuto);  // resets the binding on entry
  const std::uint64_t binds_before = ops::internal::GemmBindCount();
  std::atomic<const ops::GemmKernel*> seen{nullptr};
  std::atomic<int> disagreements{0};
  ParallelFor(
      0, 512,
      [&](std::size_t) {
        const ops::GemmKernel& k = ops::ActiveGemmKernel();
        const ops::GemmKernel* expected = nullptr;
        if (!seen.compare_exchange_strong(expected, &k) && expected != &k) {
          disagreements.fetch_add(1);
        }
      },
      /*threads=*/8);
  EXPECT_EQ(disagreements.load(), 0);
  EXPECT_EQ(ops::internal::GemmBindCount() - binds_before, 1u);
  // Further calls reuse the binding: no new binds.
  (void)ops::ActiveGemmKernel();
  EXPECT_EQ(ops::internal::GemmBindCount() - binds_before, 1u);
}

TEST(GemmIsa, EveryIsaMatchesDoubleOracleWithinPinnedTolerance) {
  // Sizes straddle the blocked threshold and every tile tail of every
  // kernel: m % 6, m % 8, n % 16, k % 256 all nonzero somewhere.
  const struct {
    std::size_t m, k, n;
  } kCases[] = {{4, 8, 8},    {17, 33, 9},    {33, 17, 40},
                {64, 64, 64}, {65, 31, 70},   {128, 300, 12},
                {96, 256, 48}, {100, 257, 35}};
  for (const IsaRequest req : UsableRequests()) {
    IsaGuard guard(req);
    const IsaLevel isa = ops::ActiveGemmIsa();
    SCOPED_TRACE(::testing::Message() << "isa=" << IsaName(isa));
    const double tol = PinnedTolerance(isa);
    for (const auto& mc : kCases) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << mc.m << " k=" << mc.k << " n=" << mc.n);
      const Tensor a = RandomTensor({mc.m, mc.k}, 100 + mc.m);
      const Tensor b = RandomTensor({mc.k, mc.n}, 200 + mc.n);
      ExpectTensorsNear(ops::Matmul(a, b), RefMatmul(a, b), tol, "Matmul");
    }
  }
}

TEST(GemmIsa, ForcedPortableMatchesAutoWithinPinnedTolerance) {
  const Tensor a = RandomTensor({96, 128}, 17);
  const Tensor b = RandomTensor({128, 80}, 18);
  Tensor auto_c, portable_c;
  {
    IsaGuard guard(IsaRequest::kAuto);
    auto_c = ops::Matmul(a, b);
  }
  {
    IsaGuard guard(IsaRequest::kPortable);
    portable_c = ops::Matmul(a, b);
  }
  // Same values up to FMA-contraction rounding; bit-identical when auto
  // resolves to portable.
  ExpectTensorsNear(auto_c, portable_c, 1e-5, "auto vs portable");
}

TEST(GemmIsa, PackedBRecordsIsaAndRejectsStaleLayout) {
  const Tensor w = RandomTensor({64, 64}, 33);
  const Tensor x = RandomTensor({64, 64}, 34);
  Tensor y({64, 64});
  const std::vector<IsaRequest> reqs = UsableRequests();
  {
    IsaGuard guard(IsaRequest::kPortable);
    ops::PackedB packed;
    ops::PackBForMatmulInto(w, packed);
    EXPECT_EQ(packed.isa(), IsaLevel::kPortable);
    ops::MatmulPackedInto(x, packed, y);  // matching layout: fine
  }
  if (reqs.size() < 2) {
    GTEST_SKIP() << "host has only the portable kernel; no stale-layout pair";
  }
  ops::PackedB packed;
  {
    IsaGuard guard(IsaRequest::kPortable);
    ops::PackBForMatmulInto(w, packed);
  }
  {
    // Portable packs 8-wide panels, the SIMD kernels 16-wide: feeding the
    // stale packing to the rebound kernel must CHECK-fail, not misread.
    IsaGuard guard(reqs.back());
    ASSERT_NE(ops::ActiveGemmIsa(), IsaLevel::kPortable);
    EXPECT_THROW(ops::MatmulPackedInto(x, packed, y), CheckError);
  }
}

TEST(GemmIsa, LinearAndConvCachesRepackAfterIsaChange) {
  // Layer weight caches key on isa() as well as Tensor::version(); flipping
  // the bound kernel mid-process must transparently repack, and the outputs
  // must agree within the pinned tolerance.
  Rng rng_a(77), rng_b(77), rng_c(77), rng_d(77);
  nn::Linear lin_auto(64, 48, rng_a);
  nn::Linear lin_flip(64, 48, rng_b);
  nn::Conv2d conv_auto(3, 8, 3, 1, 1, rng_c, "conv");
  nn::Conv2d conv_flip(3, 8, 3, 1, 1, rng_d, "conv");
  const Tensor x = RandomTensor({32, 64}, 70);
  const Tensor img = RandomTensor({4, 3, 12, 12}, 71);

  Tensor y_auto, z_auto;
  {
    IsaGuard guard(IsaRequest::kAuto);
    y_auto = lin_auto.Forward(x, /*train=*/false);
    z_auto = conv_auto.Forward(img, /*train=*/false);
  }
  Tensor y_flip, z_flip;
  {
    IsaGuard guard(IsaRequest::kAuto);
    (void)lin_flip.Forward(x, false);  // warm the cache under auto
    (void)conv_flip.Forward(img, false);
  }
  {
    IsaGuard guard(IsaRequest::kPortable);
    y_flip = lin_flip.Forward(x, false);  // must repack, not feed stale panels
    z_flip = conv_flip.Forward(img, false);
  }
  ExpectTensorsNear(y_flip, y_auto, 1e-5, "linear across ISAs");
  ExpectTensorsNear(z_flip, z_auto, 1e-5, "conv across ISAs");
}

}  // namespace
}  // namespace cip
