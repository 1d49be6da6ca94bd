// 2-D convolution over NCHW ([N, C, H, W]) tensors with stride and symmetric
// zero padding.
//
// Two implementations share one layer:
//  * GEMM path (default, fast): the whole batch is lowered with
//    ops::Im2ColInto into a per-layer lowering buffer, the convolution runs
//    as one cache-blocked GEMM (ops::MatmulTransBInto against the [OC, C·K·K]
//    weight), and a training forward keeps that lowering for its own
//    Backward: dW = gyᵀ·col (MatmulTransA), then dcol = gy·W overwrites the
//    now-dead lowering and Col2Im scatters it into dX; db is the column sum of
//    gy. Lowering buffers and the other scratch tensors are layer members
//    reused across steps — steady-state training allocates only the returned
//    output and dX.
//  * Naive path (reference): direct six-nested-loop convolution, selected by
//    the CIP_NAIVE_CONV=1 environment variable (see src/common/env.h) or
//    internal::SetNaiveConvForTesting. Its training forward keeps a copy of
//    x. tests/test_conv_parity.cpp holds the two paths to agreement within
//    1e-5.
//
// Threading: Forward/Backward parallelize internally with ParallelFor
// (samples for the lowering/scatter, row blocks inside the GEMM). A Conv2d
// instance is NOT safe to call from two threads at once — the forward stack
// and the scratch buffers are per-instance state. Distinct instances are
// independent.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace cip::nn {

class Conv2d : public Module {
 public:
  /// Weight layout is [out_channels, in_channels·kernel·kernel] (He-normal
  /// initialized), bias is [out_channels]. Requires kernel, stride >= 1.
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         Rng& rng, std::string name = "conv");

  /// x: [N, in_channels, H, W] -> [N, out_channels, OutH, OutW]. When
  /// `train`, pushes what the matching Backward needs (the lowering of x on
  /// the GEMM path, a copy of x on the naive path) on the forward stack.
  Tensor Forward(const Tensor& x, bool train) override;
  /// grad_out: [N, out_channels, OutH, OutW] -> gradient w.r.t. the matching
  /// Forward's input; accumulates into the weight/bias .grad tensors. Runs
  /// the path that Forward ran, whatever CIP_NAIVE_CONV says now.
  Tensor Backward(const Tensor& grad_out) override;
  /// Inference forward into the persistent eval buffer: same GEMM core as
  /// Forward (bit-identical), zero allocations once the scratch is warm.
  const Tensor& EvalForward(const Tensor& x) override;
  void CollectParameters(std::vector<Parameter*>& out) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

  /// Number of output channels (rows of the [OC, C·K·K] weight matrix).
  std::size_t out_channels() const { return oc_; }

  /// Spatial output size for an input extent: (in + 2·pad − K)/stride + 1.
  std::size_t OutExtent(std::size_t in) const {
    CIP_CHECK_GE(in + 2 * pad_, k_);
    return (in + 2 * pad_ - k_) / stride_ + 1;
  }

 private:
  /// Conv geometry for an input of spatial size h × w.
  ops::Conv2dGeom Geom(std::size_t h, std::size_t w) const {
    return {ic_, h, w, k_, stride_, pad_};
  }

  /// What one training Forward leaves for its Backward: on the GEMM path
  /// `buf` is the batched lowering of x ([N·OH·OW, C·K·K]), on the naive
  /// path a copy of x (`lowered` tells which).
  struct Saved {
    Tensor buf;
    std::size_t n = 0, h = 0, w = 0;
    bool lowered = false;
  };

  /// saved_[depth_]: the first slot above the pending forwards, created on
  /// first use.
  Saved& FreeSlot();

  void ForwardGemmInto(const Tensor& x, std::size_t n, std::size_t oh,
                       std::size_t ow, Tensor& col, Tensor& y);
  Tensor ForwardNaive(const Tensor& x, std::size_t n, std::size_t oh,
                      std::size_t ow) const;
  Tensor BackwardGemm(Saved& s, const Tensor& grad_out);
  Tensor BackwardNaive(const Tensor& x, const Tensor& grad_out);

  std::size_t ic_, oc_, k_, stride_, pad_;
  std::string name_;
  Parameter w_;  // [OC, IC*K*K]
  Parameter b_;  // [OC]

  // The forward stack: saved_[0, depth_) belong to the pending training
  // forwards, newest last. Backward pops the top slot and ClearCache empties
  // the stack; both keep the slots' buffers for reuse. An eval forward lowers
  // into FreeSlot() without pushing. So the layer holds one lowering buffer
  // per forward pending at once, plus one for an eval run while the stack is
  // at its deepest: two in the dual-channel order (fwd ch1, fwd ch2, bwd ch2,
  // bwd ch1) with evals run before or after it.
  std::vector<Saved> saved_;
  std::size_t depth_ = 0;

  // GEMM-path scratch, reused across steps (reallocated only on shape
  // change). gemm_y_: [N·OH·OW, OC] forward product; gy_: [N·OH·OW, OC]
  // grad_out in row-major GEMM layout; dw_: [OC, IC·K·K] per-call weight
  // gradient before accumulation.
  Tensor gemm_y_, gy_, dw_;

  // Forward weight pre-packed for the blocked GEMM, rebuilt only when
  // w_.value.version() moves (i.e. after an optimizer step) or when the
  // bound GEMM ISA differs from the one it was packed for (panel layouts
  // are per-ISA, docs/KERNELS.md). Keeps the steady-state eval forward
  // free of the per-call packing pass.
  ops::PackedB packed_w_;
  std::uint64_t packed_w_version_ = 0;
};

}  // namespace cip::nn
