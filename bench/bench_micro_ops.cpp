// Micro-benchmarks (google-benchmark) for the numeric kernels every
// experiment is built on: matmul (blocked GEMM and pool dispatch),
// im2col/GEMM vs naive convolution, softmax/cross-entropy, the CIP blending
// function, and a full dual-channel forward/backward step. A developer tool
// with no gates: the kernel speed floors are re-measured by
// tests/test_kernel_floors.cpp, and docs/BENCHMARKS.md lists every gate.
//
// The JSON context carries "cip_build_type" ("release"/"debug"), "cip_isa"
// (the GEMM kernel the run actually bound) and "cip_isa_request" (what
// CIP_ISA asked for), so every number names the build and microkernel that
// produced it.
#include <benchmark/benchmark.h>

#include <atomic>

#include "common/env.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/blend.h"
#include "nn/backbones.h"
#include "nn/conv2d.h"
#include "tensor/ops.h"

namespace cip {
namespace {

Tensor RandomTensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (float& v : t.flat()) v = rng.Normal();
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = RandomTensor({n, n}, 1);
  const Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// GEMM against a pre-packed weight (the PackedB cache layers keep for frozen
// weights) — isolates the per-call packing pass BM_Matmul still pays.
void BM_MatmulPacked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = RandomTensor({n, n}, 1);
  const Tensor b = RandomTensor({n, n}, 2);
  ops::PackedB packed;
  ops::PackBForMatmulInto(b, packed);
  Tensor c({n, n});
  for (auto _ : state) {
    ops::MatmulPackedInto(a, packed, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_MatmulPacked)->Arg(64)->Arg(256);

// Pure dispatch overhead: a ParallelForCoarse over 4 near-empty chunks with
// an explicit budget of 4 measures the pool's wake/rendezvous latency.
void BM_ParallelForDispatch(benchmark::State& state) {
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    ParallelForCoarse(
        0, 4,
        [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); },
        /*max_threads=*/4);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ParallelForDispatch);

void BM_MatmulTransB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = RandomTensor({n, n}, 1);
  const Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatmulTransB(a, b));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_MatmulTransB)->Arg(64)->Arg(256);

// --- convolution: im2col/GEMM fast path vs the CIP_NAIVE_CONV reference ----
//
// Backbone-sized shape (batch 32, 3->32 channels, 32x32, k3 s1 p1), the
// same shape tests/test_kernel_floors.cpp gates the GEMM/naive ratio on.

constexpr std::size_t kConvN = 32, kConvIC = 3, kConvOC = 32, kConvHW = 32;

nn::Conv2d MakeBenchConv() {
  Rng rng(13);
  return nn::Conv2d(kConvIC, kConvOC, /*kernel=*/3, /*stride=*/1,
                    /*padding=*/1, rng, "bench_conv");
}

void RunConvForward(benchmark::State& state, bool naive) {
  internal::SetNaiveConvForTesting(naive);
  nn::Conv2d conv = MakeBenchConv();
  const Tensor x = RandomTensor({kConvN, kConvIC, kConvHW, kConvHW}, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, /*train=*/false));
  }
  internal::SetNaiveConvForTesting(false);
  // One MAC = 2 flops; items = MACs of the convolution.
  state.SetItemsProcessed(
      static_cast<long>(state.iterations()) *
      static_cast<long>(kConvN * kConvOC * kConvHW * kConvHW * kConvIC * 9));
}

void BM_Conv2dForward(benchmark::State& state) {
  RunConvForward(state, /*naive=*/false);
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dForwardNaive(benchmark::State& state) {
  RunConvForward(state, /*naive=*/true);
}
BENCHMARK(BM_Conv2dForwardNaive);

void RunConvBackward(benchmark::State& state, bool naive) {
  internal::SetNaiveConvForTesting(naive);
  nn::Conv2d conv = MakeBenchConv();
  const Tensor x = RandomTensor({kConvN, kConvIC, kConvHW, kConvHW}, 15);
  const Tensor grad = RandomTensor({kConvN, kConvOC, kConvHW, kConvHW}, 16);
  for (auto _ : state) {
    conv.Forward(x, /*train=*/true);
    benchmark::DoNotOptimize(conv.Backward(grad));
    conv.ZeroGrad();
  }
  internal::SetNaiveConvForTesting(false);
}

void BM_Conv2dBackward(benchmark::State& state) {
  RunConvBackward(state, /*naive=*/false);
}
BENCHMARK(BM_Conv2dBackward);

void BM_Conv2dBackwardNaive(benchmark::State& state) {
  RunConvBackward(state, /*naive=*/true);
}
BENCHMARK(BM_Conv2dBackwardNaive);

void BM_Im2Col(benchmark::State& state) {
  const ops::Conv2dGeom g{kConvIC, kConvHW, kConvHW, 3, 1, 1};
  const Tensor x = RandomTensor({kConvN, kConvIC, kConvHW, kConvHW}, 17);
  Tensor col({kConvN * g.OutH() * g.OutW(), g.PatchSize()});
  for (auto _ : state) {
    for (std::size_t i = 0; i < kConvN; ++i) {
      ops::Im2ColInto(x, i, g, col, i * g.OutH() * g.OutW());
    }
    benchmark::DoNotOptimize(col.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(col.size()));
}
BENCHMARK(BM_Im2Col);

void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor logits = RandomTensor({n, 50}, 3);
  std::vector<int> labels(n, 7);
  Tensor grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops::SoftmaxCrossEntropy(logits, labels, &grad));
  }
}
BENCHMARK(BM_SoftmaxCrossEntropy)->Arg(32)->Arg(256);

void BM_Blend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Tensor x = RandomTensor({n, 3, 12, 12}, 4);
  ops::ClipInPlace(x, 0.0f, 1.0f);
  Tensor t = RandomTensor({3, 12, 12}, 5);
  ops::ClipInPlace(t, 0.0f, 1.0f);
  core::BlendConfig cfg;
  cfg.alpha = 0.5f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Blend(x, t, cfg));
  }
}
BENCHMARK(BM_Blend)->Arg(32)->Arg(256);

void BM_DualChannelTrainStep(benchmark::State& state) {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kResNet;
  spec.input_shape = {3, 12, 12};
  spec.num_classes = 20;
  spec.width = static_cast<std::size_t>(state.range(0));
  spec.seed = 6;
  auto model = nn::MakeDualChannelClassifier(spec);
  const Tensor x1 = RandomTensor({32, 3, 12, 12}, 7);
  const Tensor x2 = RandomTensor({32, 3, 12, 12}, 8);
  std::vector<int> labels(32, 3);
  for (auto _ : state) {
    const Tensor logits = model->Forward(x1, x2, true);
    Tensor dlogits;
    ops::SoftmaxCrossEntropy(logits, labels, &dlogits);
    benchmark::DoNotOptimize(model->Backward(dlogits));
    model->ZeroGrad();
  }
}
BENCHMARK(BM_DualChannelTrainStep)->Arg(8)->Arg(12);

void BM_SingleChannelTrainStep(benchmark::State& state) {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kResNet;
  spec.input_shape = {3, 12, 12};
  spec.num_classes = 20;
  spec.width = static_cast<std::size_t>(state.range(0));
  spec.seed = 9;
  auto model = nn::MakeClassifier(spec);
  const Tensor x = RandomTensor({32, 3, 12, 12}, 10);
  std::vector<int> labels(32, 3);
  for (auto _ : state) {
    const Tensor logits = model->Forward(x, true);
    Tensor dlogits;
    ops::SoftmaxCrossEntropy(logits, labels, &dlogits);
    benchmark::DoNotOptimize(model->Backward(dlogits));
    model->ZeroGrad();
  }
}
BENCHMARK(BM_SingleChannelTrainStep)->Arg(8)->Arg(12);

}  // namespace
}  // namespace cip

// Hand-rolled BENCHMARK_MAIN so the JSON context records the build type and
// the bound GEMM kernel.
namespace {

const char* IsaRequestName(cip::IsaRequest request) {
  switch (request) {
    case cip::IsaRequest::kPortable:
      return "portable";
    case cip::IsaRequest::kAvx2:
      return "avx2";
    case cip::IsaRequest::kAvx512:
      return "avx512";
    case cip::IsaRequest::kAuto:
      break;
  }
  return "auto";
}

}  // namespace

int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("cip_build_type", "release");
#else
  benchmark::AddCustomContext("cip_build_type", "debug");
#endif
  benchmark::AddCustomContext("cip_isa",
                              cip::IsaName(cip::ops::ActiveGemmIsa()));
  benchmark::AddCustomContext("cip_isa_request",
                              IsaRequestName(cip::IsaRequested()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
