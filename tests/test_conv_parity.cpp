// Parity oracle for the convolution rewrite: the im2col/GEMM fast path and
// the CIP_NAIVE_CONV reference path must agree (forward, dX, dW, db) within
// 1e-5 across stride/padding/kernel edge cases, and every Matmul variant must
// match a double-precision triple-loop reference. Runs under the asan/ubsan/
// tsan presets like every other test, so the blocked kernels are also checked
// for memory and threading bugs.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "common/cpu_features.h"
#include "common/env.h"
#include "common/rng.h"
#include "nn/conv2d.h"
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

/// Flips the conv implementation and always restores the GEMM default, even
/// if an assertion fails mid-test.
class NaiveConvGuard {
 public:
  explicit NaiveConvGuard(bool naive) {
    internal::SetNaiveConvForTesting(naive);
  }
  ~NaiveConvGuard() { internal::SetNaiveConvForTesting(false); }
};

void ExpectTensorsNear(const Tensor& a, const Tensor& b, double tol,
                       const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what << ": shape " << ShapeToString(a.shape())
                              << " vs " << ShapeToString(b.shape());
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

struct ConvCase {
  std::size_t n, ic, oc, k, stride, pad, h, w;
};

// Odd shapes on purpose: 1×1 kernels, single-pixel inputs, strides that do
// not divide the extent, padding larger than stride, non-square images, an
// even kernel, and one backbone-sized case.
const ConvCase kConvCases[] = {
    {2, 3, 4, 3, 1, 1, 8, 8},     // vanilla 3x3 same-conv
    {1, 1, 1, 1, 1, 0, 1, 1},     // single pixel through a 1x1
    {3, 2, 5, 1, 1, 0, 7, 5},     // 1x1 kernel, non-square image
    {2, 3, 2, 3, 2, 0, 9, 7},     // stride 2, no padding, odd extents
    {2, 2, 3, 3, 2, 1, 6, 6},     // stride 2 with padding
    {1, 4, 6, 5, 1, 2, 11, 9},    // 5x5 kernel, pad 2
    {2, 1, 2, 3, 3, 1, 10, 10},   // stride 3
    {1, 2, 2, 4, 2, 2, 4, 4},     // even kernel, pad == 2
    {1, 3, 2, 3, 1, 2, 3, 3},     // padding bigger than the image core
    {4, 3, 32, 3, 1, 1, 12, 12},  // backbone-sized
};

TEST(ConvParity, ForwardBackwardAgreeAcrossShapes) {
  for (const ConvCase& c : kConvCases) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << c.n << " ic=" << c.ic << " oc=" << c.oc
                 << " k=" << c.k << " s=" << c.stride << " p=" << c.pad
                 << " h=" << c.h << " w=" << c.w);
    // Same seed -> bit-identical weights in both layers.
    Rng rng_a(42), rng_b(42);
    nn::Conv2d fast(c.ic, c.oc, c.k, c.stride, c.pad, rng_a, "fast");
    nn::Conv2d naive(c.ic, c.oc, c.k, c.stride, c.pad, rng_b, "naive");
    const Tensor x = RandomTensor({c.n, c.ic, c.h, c.w}, 7);
    const std::size_t oh = fast.OutExtent(c.h), ow = fast.OutExtent(c.w);
    const Tensor grad_out = RandomTensor({c.n, c.oc, oh, ow}, 8);

    Tensor y_fast, dx_fast, y_naive, dx_naive;
    {
      NaiveConvGuard guard(false);
      y_fast = fast.Forward(x, /*train=*/true);
      dx_fast = fast.Backward(grad_out);
    }
    {
      NaiveConvGuard guard(true);
      y_naive = naive.Forward(x, /*train=*/true);
      dx_naive = naive.Backward(grad_out);
    }

    ExpectTensorsNear(y_fast, y_naive, 1e-5, "forward");
    ExpectTensorsNear(dx_fast, dx_naive, 1e-5, "dX");
    ExpectTensorsNear(fast.Parameters()[0]->grad, naive.Parameters()[0]->grad,
                      1e-5, "dW");
    ExpectTensorsNear(fast.Parameters()[1]->grad, naive.Parameters()[1]->grad,
                      1e-5, "db");
  }
}

// The dual-channel model runs forward(ch1), forward(ch2), backward(ch2),
// backward(ch1) on one shared backbone, so each GEMM-path Backward must use
// the lowering its own Forward kept, whatever ran in between. Each case runs
// one call sequence on both paths and compares every returned tensor plus
// the accumulated dW and db.
TEST(ConvParity, DoubleForwardLifoBackwardMatchesNaive) {
  const Tensor x1 = RandomTensor({2, 3, 6, 6}, 1);
  const Tensor x2 = RandomTensor({2, 3, 6, 6}, 2);
  const Tensor x3 = RandomTensor({3, 3, 5, 7}, 5);  // other batch and extents
  const Tensor g1 = RandomTensor({2, 4, 6, 6}, 3);
  const Tensor g2 = RandomTensor({2, 4, 6, 6}, 4);
  const Tensor g3 = RandomTensor({3, 4, 5, 7}, 6);

  using Outputs = std::vector<Tensor>;
  struct Case {
    const char* name;
    std::function<Outputs(nn::Conv2d&)> run;
  };
  const Case cases[] = {
      {"two forwards, LIFO backwards",
       [&](nn::Conv2d& c) {
         c.Forward(x1, true);
         c.Forward(x2, true);
         Tensor dx2 = c.Backward(g2);
         return Outputs{dx2, c.Backward(g1)};
       }},
      {"two forwards of different batch sizes",
       [&](nn::Conv2d& c) {
         c.Forward(x1, true);
         c.Forward(x3, true);
         Tensor dx3 = c.Backward(g3);
         return Outputs{dx3, c.Backward(g1)};
       }},
      {"forward abandoned by ClearCache",
       [&](nn::Conv2d& c) {
         c.Forward(x3, true);
         c.ClearCache();
         c.Forward(x1, true);
         Tensor dx1 = c.Backward(g1);
         EXPECT_THROW(c.Backward(g3), CheckError);  // nothing left to pop
         return Outputs{dx1};
       }},
      {"eval forwards between a forward and its backward",
       [&](nn::Conv2d& c) {
         c.Forward(x1, true);
         Tensor y2 = c.Forward(x2, false);
         Tensor y3 = c.EvalForward(x3);
         return Outputs{y2, y3, c.Backward(g1)};
       }},
      {"CIP_NAIVE_CONV flipped between a forward and its backward",
       [&](nn::Conv2d& c) {
         c.Forward(x1, true);
         internal::SetNaiveConvForTesting(!NaiveConvEnabled());
         return Outputs{c.Backward(g1)};
       }},
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.name);
    Rng rng_a(11), rng_b(11);
    nn::Conv2d fast(3, 4, 3, 1, 1, rng_a, "fast");
    nn::Conv2d naive(3, 4, 3, 1, 1, rng_b, "naive");
    Outputs out_fast, out_naive;
    {
      NaiveConvGuard guard(false);
      out_fast = tc.run(fast);
    }
    {
      NaiveConvGuard guard(true);
      out_naive = tc.run(naive);
    }
    ASSERT_EQ(out_fast.size(), out_naive.size());
    for (std::size_t i = 0; i < out_fast.size(); ++i) {
      ExpectTensorsNear(out_fast[i], out_naive[i], 1e-5, "returned tensor");
    }
    ExpectTensorsNear(fast.Parameters()[0]->grad, naive.Parameters()[0]->grad,
                      1e-5, "dW");
    ExpectTensorsNear(fast.Parameters()[1]->grad, naive.Parameters()[1]->grad,
                      1e-5, "db");
  }
}

// <Im2Col(x), c> == <x, Col2Im(c)>: the lowering and its scatter-add are
// exact adjoints, which is what makes the GEMM backward correct.
TEST(ConvParity, Im2ColCol2ImAreAdjoint) {
  const ops::Conv2dGeom g{3, 7, 5, 3, 2, 1};
  const Tensor x = RandomTensor({2, 3, 7, 5}, 21);
  const Tensor c = RandomTensor({g.OutH() * g.OutW(), g.PatchSize()}, 22);
  for (std::size_t i = 0; i < 2; ++i) {
    const Tensor col = ops::Im2Col(x, i, g);
    Tensor back({2, 3, 7, 5});
    ops::Col2ImInto(c, 0, g, back, i);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t j = 0; j < col.size(); ++j) lhs += col[j] * c[j];
    for (std::size_t j = 0; j < x.size(); ++j) rhs += x[j] * back[j];
    EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(rhs)));
  }
}

// ---- Matmul vs double-precision reference oracle ---------------------------

Tensor RefMatmul(const Tensor& a, const Tensor& b, bool trans_a,
                 bool trans_b) {
  const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        s += static_cast<double>(av) * bv;
      }
      c[i * n + j] = static_cast<float>(s);
    }
  }
  return c;
}

struct MatmulCase {
  std::size_t m, k, n;
};

// Sizes straddle the blocked-kernel threshold and every tile tail:
// m % 4, n % 8, k % 256 all nonzero somewhere.
const MatmulCase kMatmulCases[] = {
    {1, 1, 1}, {3, 5, 2},   {4, 8, 8},    {17, 33, 9},
    {33, 17, 40}, {64, 64, 64}, {65, 31, 70}, {128, 300, 12},
};

TEST(MatmulOracle, AllVariantsMatchDoubleReference) {
  for (const MatmulCase& mc : kMatmulCases) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << mc.m << " k=" << mc.k << " n=" << mc.n);
    const Tensor a = RandomTensor({mc.m, mc.k}, 100 + mc.m);
    const Tensor b = RandomTensor({mc.k, mc.n}, 200 + mc.n);
    const Tensor bt = RandomTensor({mc.n, mc.k}, 300 + mc.n);
    const Tensor at = RandomTensor({mc.k, mc.m}, 400 + mc.m);

    ExpectTensorsNear(ops::Matmul(a, b), RefMatmul(a, b, false, false), 1e-5,
                      "Matmul");
    ExpectTensorsNear(ops::MatmulTransB(a, bt), RefMatmul(a, bt, false, true),
                      1e-5, "MatmulTransB");
    ExpectTensorsNear(ops::MatmulTransA(at, b), RefMatmul(at, b, true, false),
                      1e-5, "MatmulTransA");

    // Into variants write the same values into caller-owned scratch.
    Tensor c({mc.m, mc.n}, /*fill=*/123.0f);
    ops::MatmulInto(a, b, c);
    ExpectTensorsNear(c, RefMatmul(a, b, false, false), 1e-5, "MatmulInto");
    c.Fill(-7.0f);
    ops::MatmulTransBInto(a, bt, c);
    ExpectTensorsNear(c, RefMatmul(a, bt, false, true), 1e-5,
                      "MatmulTransBInto");
    c.Fill(0.25f);
    ops::MatmulTransAInto(at, b, c);
    ExpectTensorsNear(c, RefMatmul(at, b, true, false), 1e-5,
                      "MatmulTransAInto");
  }
}

TEST(MatmulOracle, ShapeMismatchThrows) {
  const Tensor a = RandomTensor({4, 5}, 1);
  const Tensor b = RandomTensor({6, 7}, 2);
  EXPECT_THROW(ops::Matmul(a, b), CheckError);
  Tensor c({4, 7});
  EXPECT_THROW(ops::MatmulInto(a, b, c), CheckError);
  Tensor wrong({3, 3});
  const Tensor b_ok = RandomTensor({5, 7}, 3);
  EXPECT_THROW(ops::MatmulInto(a, b_ok, wrong), CheckError);
}

// ---- per-ISA parity --------------------------------------------------------

/// Forces one CIP_ISA request and rebinds the registry; restores auto on
/// scope exit (see tests/test_cpu_features.cpp for the dispatcher's own
/// tests — this file only pins naive-vs-kernel parity per ISA).
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

/// Pinned naive-vs-kernel tolerance per ISA. One bound for all current
/// kernels (FMA contraction only tightens rounding), pinned per ISA so a
/// future kernel cannot silently widen the shared bound.
double PinnedConvTolerance(IsaLevel isa) {
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

TEST(ConvParity, ForwardBackwardAgreeAcrossIsas) {
  // Backbone-sized case (the GEMM is big enough to take the blocked kernel)
  // plus a tail-heavy case, naive-vs-kernel per usable ISA.
  const ConvCase kIsaCases[] = {
      {4, 3, 32, 3, 1, 1, 12, 12},
      {2, 3, 2, 3, 2, 0, 9, 7},
  };
  for (const IsaRequest req : UsableRequests()) {
    IsaGuard isa_guard(req);
    const double tol = PinnedConvTolerance(ops::ActiveGemmIsa());
    SCOPED_TRACE(::testing::Message()
                 << "isa=" << IsaName(ops::ActiveGemmIsa()));
    for (const ConvCase& c : kIsaCases) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << c.n << " ic=" << c.ic << " oc=" << c.oc
                   << " k=" << c.k << " s=" << c.stride << " p=" << c.pad
                   << " h=" << c.h << " w=" << c.w);
      Rng rng_a(42), rng_b(42);
      nn::Conv2d fast(c.ic, c.oc, c.k, c.stride, c.pad, rng_a, "fast");
      nn::Conv2d naive(c.ic, c.oc, c.k, c.stride, c.pad, rng_b, "naive");
      const Tensor x = RandomTensor({c.n, c.ic, c.h, c.w}, 7);
      const std::size_t oh = fast.OutExtent(c.h), ow = fast.OutExtent(c.w);
      const Tensor grad_out = RandomTensor({c.n, c.oc, oh, ow}, 8);

      Tensor y_fast, dx_fast, y_naive, dx_naive;
      {
        NaiveConvGuard guard(false);
        y_fast = fast.Forward(x, /*train=*/true);
        dx_fast = fast.Backward(grad_out);
      }
      {
        NaiveConvGuard guard(true);
        y_naive = naive.Forward(x, /*train=*/true);
        dx_naive = naive.Backward(grad_out);
      }
      ExpectTensorsNear(y_fast, y_naive, tol, "forward");
      ExpectTensorsNear(dx_fast, dx_naive, tol, "dX");
      ExpectTensorsNear(fast.Parameters()[0]->grad,
                        naive.Parameters()[0]->grad, tol, "dW");
      ExpectTensorsNear(fast.Parameters()[1]->grad,
                        naive.Parameters()[1]->grad, tol, "db");
    }
  }
}

TEST(NaiveConvEnv, StrictBoolParsing) {
  EXPECT_EQ(internal::ParseBoolFlag(nullptr), std::nullopt);
  EXPECT_EQ(internal::ParseBoolFlag(""), std::nullopt);
  EXPECT_EQ(internal::ParseBoolFlag("1"), true);
  EXPECT_EQ(internal::ParseBoolFlag("0"), false);
  EXPECT_EQ(internal::ParseBoolFlag("true"), std::nullopt);
  EXPECT_EQ(internal::ParseBoolFlag("01"), std::nullopt);
  EXPECT_EQ(internal::ParseBoolFlag(" 1"), std::nullopt);
  EXPECT_EQ(internal::ParseBoolFlag("2"), std::nullopt);
}

}  // namespace
}  // namespace cip
