// Steady-state allocation discipline of the hot paths.
//
// The acceptance contract of the persistent-pool / scratch-arena work: after
// a warm-up call has grown every per-layer scratch tensor, per-thread GEMM
// arena, and cached PackedB weight, repeated forward (and train-step) calls
// must perform no heap allocation beyond the tensors they hand back to the
// caller. Verified through two hooks:
//   * cip::internal::TensorAllocCount() — process-wide counter bumped by
//     every Tensor element-buffer allocation (constructions and
//     capacity-growing assignments);
//   * cip::ops::internal::GemmArenaBytes()/PackCount() — the calling
//     thread's GEMM scratch capacity and packing-pass count.
//
// These tests run the layers serially (no explicit thread budget) so all
// arena traffic lands on this thread; the pool's workers amortize their own
// thread-local arenas the same way because they are persistent.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cip_client.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client_factory.h"
#include "nn/backbones.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "serve/serve_engine.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace cip {
namespace {

Tensor RandomTensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (float& v : t.flat()) v = rng.Normal();
  return t;
}

std::uint64_t AllocCount() { return internal::TensorAllocCount(); }

TEST(AllocFree, TensorCountersTrackAllocations) {
  const std::uint64_t before = AllocCount();
  Tensor t({4, 4});
  EXPECT_EQ(AllocCount(), before + 1);
  Tensor copy = t;  // copy ctor allocates
  EXPECT_EQ(AllocCount(), before + 2);
  Tensor moved = std::move(copy);  // move does not
  EXPECT_EQ(AllocCount(), before + 2);
  Tensor small({2, 2});
  EXPECT_EQ(AllocCount(), before + 3);
  small = t;  // grows capacity -> counts
  EXPECT_EQ(AllocCount(), before + 4);
  small = moved;  // fits in capacity -> free
  EXPECT_EQ(AllocCount(), before + 4);
}

TEST(AllocFree, TensorVersionBumpsOnMutatingAccessOnly) {
  Tensor t({2, 2});
  const std::uint64_t v0 = t.version();
  (void)std::as_const(t).data();
  (void)std::as_const(t)[0];
  (void)std::as_const(t).At(0, 0);
  EXPECT_EQ(t.version(), v0);
  (void)t.data();
  EXPECT_GT(t.version(), v0);
  const std::uint64_t v1 = t.version();
  t.Fill(1.0f);
  EXPECT_GT(t.version(), v1);
}

TEST(AllocFree, MatmulSteadyStateDoesNotAllocate) {
  // 64x64 is in the blocked (packing) regime; the per-call pack must land in
  // the thread-local arena, so after one warm-up call the arena stops
  // growing and MatmulInto performs zero tensor allocations.
  const Tensor a = RandomTensor({64, 64}, 1);
  const Tensor b = RandomTensor({64, 64}, 2);
  Tensor c({64, 64});
  ops::MatmulInto(a, b, c);  // warm-up: grows the arena
  const std::size_t arena = ops::internal::GemmArenaBytes();
  const std::uint64_t allocs = AllocCount();
  for (int i = 0; i < 10; ++i) ops::MatmulInto(a, b, c);
  EXPECT_EQ(AllocCount(), allocs);
  EXPECT_EQ(ops::internal::GemmArenaBytes(), arena);
}

TEST(AllocFree, MatmulTransAUsesArenaForTranspose) {
  const Tensor a = RandomTensor({64, 64}, 3);
  const Tensor b = RandomTensor({64, 64}, 4);
  Tensor c({64, 64});
  ops::MatmulTransAInto(a, b, c);  // warm-up
  const std::uint64_t allocs = AllocCount();
  for (int i = 0; i < 10; ++i) ops::MatmulTransAInto(a, b, c);
  EXPECT_EQ(AllocCount(), allocs);
}

TEST(AllocFree, PackedBSkipsRepacking) {
  const Tensor a = RandomTensor({64, 64}, 5);
  const Tensor b = RandomTensor({64, 64}, 6);
  ops::PackedB packed;
  ops::PackBForMatmulInto(b, packed);
  Tensor c({64, 64});
  const std::uint64_t packs = ops::internal::PackCount();
  for (int i = 0; i < 10; ++i) ops::MatmulPackedInto(a, packed, c);
  EXPECT_EQ(ops::internal::PackCount(), packs);  // no packing pass at all
  // Same numbers as the pack-per-call path (both run the blocked kernel).
  Tensor ref({64, 64});
  ops::MatmulInto(a, b, ref);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(std::as_const(ref)[i], std::as_const(c)[i]);
  }
}

TEST(AllocFree, Conv2dEvalForwardAllocatesOnlyTheOutput) {
  // The acceptance gate: steady-state Conv2d forward performs zero heap
  // allocations beyond the returned output tensor — im2col scratch, GEMM
  // product scratch, the packed weight, and the GEMM arena are all reused.
  Rng rng(7);
  nn::Conv2d conv(3, 32, /*kernel=*/3, /*stride=*/1, /*padding=*/1, rng);
  const Tensor x = RandomTensor({8, 3, 16, 16}, 8);
  (void)conv.Forward(x, /*train=*/false);  // warm-up: scratch + pack
  const std::size_t arena = ops::internal::GemmArenaBytes();
  const std::uint64_t packs = ops::internal::PackCount();
  const std::uint64_t allocs = AllocCount();
  constexpr int kIters = 10;
  for (int i = 0; i < kIters; ++i) {
    const Tensor y = conv.Forward(x, /*train=*/false);
    ASSERT_EQ(y.dim(1), 32u);
  }
  // Exactly one allocation per call: the returned output.
  EXPECT_EQ(AllocCount(), allocs + kIters);
  EXPECT_EQ(ops::internal::PackCount(), packs);  // weight unchanged: no repack
  EXPECT_EQ(ops::internal::GemmArenaBytes(), arena);
}

TEST(AllocFree, Conv2dRepacksAfterWeightUpdate) {
  Rng rng(9);
  nn::Conv2d conv(3, 32, /*kernel=*/3, /*stride=*/1, /*padding=*/1, rng);
  const Tensor x = RandomTensor({8, 3, 16, 16}, 10);
  (void)conv.Forward(x, /*train=*/false);
  const std::uint64_t packs = ops::internal::PackCount();
  // Touch the weight the way an optimizer step does.
  std::vector<nn::Parameter*> params;
  conv.CollectParameters(params);
  params[0]->value.data()[0] += 0.5f;
  (void)conv.Forward(x, /*train=*/false);
  EXPECT_GT(ops::internal::PackCount(), packs);  // version moved: repacked
}

TEST(AllocFree, LinearSteadyStateAllocatesOnlyTheOutput) {
  Rng rng(11);
  nn::Linear linear(256, 64, rng);
  const Tensor x = RandomTensor({32, 256}, 12);
  (void)linear.Forward(x, /*train=*/false);  // warm-up
  const std::uint64_t allocs = AllocCount();
  constexpr int kIters = 10;
  for (int i = 0; i < kIters; ++i) {
    (void)linear.Forward(x, /*train=*/false);
  }
  EXPECT_EQ(AllocCount(), allocs + kIters);
}

TEST(AllocFree, TrainStepSteadyStateAllocationIsBounded) {
  // Full forward/backward keeps per-call allocations to the tensors handed
  // across the Module API: each forward's output and each backward's dx. The
  // lowering a forward keeps for its backward reuses the layer's buffers.
  // Measure one steady-state step, single-channel and in the dual-channel
  // order (two forwards, then two LIFO backwards), and pin the budget.
  Rng rng(13);
  nn::Conv2d conv(3, 8, /*kernel=*/3, /*stride=*/1, /*padding=*/1, rng);
  const Tensor x = RandomTensor({4, 3, 12, 12}, 14);
  const Tensor x2 = RandomTensor({4, 3, 12, 12}, 16);
  const Tensor grad = RandomTensor({4, 8, 12, 12}, 15);
  const Tensor grad2 = RandomTensor({4, 8, 12, 12}, 17);
  struct Step {
    const char* name;
    std::function<void()> run;
    std::uint64_t budget;  // outputs + dx, and nothing else
  };
  const Step steps[] = {
      {"single",
       [&] {
         (void)conv.Forward(x, /*train=*/true);
         (void)conv.Backward(grad);
       },
       2},
      {"dual-channel order",
       [&] {
         (void)conv.Forward(x, /*train=*/true);
         (void)conv.Forward(x2, /*train=*/true);
         (void)conv.Backward(grad2);
         (void)conv.Backward(grad);
       },
       4},
  };
  for (const Step& step : steps) {
    SCOPED_TRACE(step.name);
    step.run();  // warm-up
    step.run();  // settle capacity-reusing assignments
    const std::uint64_t allocs = AllocCount();
    step.run();
    const std::uint64_t per_step = AllocCount() - allocs;
    EXPECT_LE(per_step, step.budget);
    // And it stays flat: 5 more steps cost exactly 5x as much.
    const std::uint64_t before = AllocCount();
    for (int i = 0; i < 5; ++i) step.run();
    EXPECT_EQ(AllocCount() - before, 5 * per_step);
  }
}

TEST(AllocFree, MakingAClientToReadItsStateBuildsNoModel) {
  // The serving t-cache's miss path constructs a never-trained client only
  // to read its state. Clients build their model on first use, so that
  // construction plus ExportState allocates fewer tensors than building the
  // model alone would.
  Rng rng(23);
  const data::SyntheticPurchase gen(data::Purchase50Like());
  fl::ClientSpec spec;
  spec.model.arch = nn::Arch::kMLP;
  spec.model.input_shape = gen.SampleShape();
  spec.model.num_classes = gen.config().num_classes;
  spec.model.width = 16;
  spec.model.seed = 3;
  spec.data = gen.Sample(16, rng);
  spec.seed = 9;
  for (const fl::ClientKind kind :
       {fl::ClientKind::kCip, fl::ClientKind::kLegacy}) {
    spec.kind = kind;
    const bool cip = kind == fl::ClientKind::kCip;
    std::uint64_t before = AllocCount();
    if (cip) {
      (void)nn::MakeDualChannelClassifier(spec.model);
    } else {
      (void)nn::MakeClassifier(spec.model);
    }
    const std::uint64_t model_allocs = AllocCount() - before;
    before = AllocCount();
    (void)fl::MakeClient(spec)->ExportState();
    EXPECT_LT(AllocCount() - before, model_allocs)
        << (cip ? "kCip" : "kLegacy");
  }
}

TEST(AllocFree, MakeClientTakesOverATemporarySpecsData) {
  // A cold store builds each client from a fresh spec,
  // MakeClient(spec_for(id)). The client takes that spec's dataset over, so
  // a build from a temporary allocates exactly one tensor (the data's
  // inputs) fewer than a build from an lvalue spec with the same content,
  // whose dataset the client must copy.
  Rng rng(29);
  const data::SyntheticPurchase gen(data::Purchase50Like());
  fl::ClientSpec spec;
  spec.model.arch = nn::Arch::kMLP;
  spec.model.input_shape = gen.SampleShape();
  spec.model.num_classes = gen.config().num_classes;
  spec.model.width = 16;
  spec.model.seed = 3;
  spec.data = gen.Sample(16, rng);
  spec.seed = 9;
  for (const fl::ClientKind kind :
       {fl::ClientKind::kCip, fl::ClientKind::kLegacy}) {
    spec.kind = kind;
    std::uint64_t before = AllocCount();
    (void)fl::MakeClient(spec);
    const std::uint64_t from_lvalue = AllocCount() - before;
    fl::ClientSpec temporary = spec;  // copied outside the counted region
    before = AllocCount();
    (void)fl::MakeClient(std::move(temporary));
    const std::uint64_t from_temporary = AllocCount() - before;
    EXPECT_EQ(from_temporary + 1, from_lvalue)
        << (kind == fl::ClientKind::kCip ? "kCip" : "kLegacy");
  }
}

TEST(AllocFree, ServeEngineSteadyStateIsAllocationFree) {
  // The serving acceptance gate: after one warmup flush at the largest
  // batch, a warm-t-cache ServeEngine performs ZERO element-buffer
  // allocations at batch 1, 16, and 128 — the request arena, the blended
  // channel chunks, the logits, and every model-side eval scratch all
  // reuse capacity. The warmup below also cycles a client through LRU
  // eviction and re-admission, so the counted region includes hits on a
  // previously evicted client (the miss may allocate; its hits must not).
  const std::size_t kDim = 4;
  Rng data_rng(17);
  data::Dataset full = testing::TwoBlobs(32, kDim, data_rng);
  const auto shards = data::PartitionIid(full, 4, data_rng);
  std::vector<fl::ClientSpec> specs;
  for (std::size_t k = 0; k < 4; ++k) {
    fl::ClientSpec spec;
    spec.kind = fl::ClientKind::kCip;
    spec.model.arch = nn::Arch::kMLP;
    spec.model.input_shape = {kDim};
    spec.model.num_classes = 2;
    spec.model.width = 6;
    spec.model.seed = 77;
    spec.data = shards[k];
    spec.seed = 50 + k;
    specs.push_back(std::move(spec));
  }
  std::unique_ptr<core::CipClient> global = fl::MakeCipClient(specs[0]);
  fl::ClientStore store = fl::MakeClientStore(specs);
  serve::ServeOptions opts;
  opts.blend = global->config().blend;
  opts.max_batch_rows = 128;
  opts.t_cache_entries = 2;  // small on purpose: forces eviction churn
  serve::ServeEngine engine(global->model(), store, opts);

  const Tensor x1 = RandomTensor({std::size_t{1}, kDim}, 20);
  const Tensor x16 = RandomTensor({std::size_t{16}, kDim}, 21);
  const Tensor x128 = RandomTensor({std::size_t{128}, kDim}, 22);

  // Warmup. Serving 0..3 through a 2-entry cache evicts client 0 (and 1);
  // the largest flush grows the arenas; the two-request flush grows the
  // request list; the final pair re-admits 0 and 1 as the cached residents.
  for (std::size_t k = 0; k < 4; ++k) (void)engine.Serve(k, x1);
  (void)engine.Serve(0, x128);
  engine.Enqueue(0, x16);
  engine.Enqueue(1, x16);
  (void)engine.Flush();
  ASSERT_GE(engine.stats().t_evictions, 1u);  // client 0 was evicted above
  const std::size_t warm_hits = engine.stats().t_hits;
  const std::size_t warm_misses = engine.stats().t_misses;

  // Steady state: batch 1/16/128 on the warm residents, single and fused —
  // every query a t-cache hit, zero tensor allocations anywhere.
  const std::uint64_t allocs = AllocCount();
  for (int i = 0; i < 5; ++i) {
    (void)engine.Serve(0, x1);
    (void)engine.Serve(1, x16);
    (void)engine.Serve(0, x128);
    engine.Enqueue(0, x16);
    engine.Enqueue(1, x16);
    (void)engine.Flush();
  }
  EXPECT_EQ(AllocCount(), allocs);
  EXPECT_EQ(engine.stats().t_misses, warm_misses);  // hits only
  EXPECT_EQ(engine.stats().t_hits, warm_hits + 25u);
}

}  // namespace
}  // namespace cip
