#include "nn/conv2d.h"

#include <utility>

#include "common/env.h"
#include "common/parallel.h"
#include "nn/init.h"

namespace cip::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng, std::string name)
    : ic_(in_channels),
      oc_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      name_(std::move(name)),
      w_(name_ + ".w", Tensor({out_channels, in_channels * kernel * kernel})),
      b_(name_ + ".b", Tensor({out_channels})) {
  CIP_CHECK_GT(ic_, 0u);
  CIP_CHECK_GT(oc_, 0u);
  CIP_CHECK_GT(k_, 0u);
  CIP_CHECK_GT(stride_, 0u);
  HeNormal(w_.value, ic_ * k_ * k_, rng);
}

Conv2d::Saved& Conv2d::FreeSlot() {
  // CIP_ANALYZE_OK(hot-alloc-container): grow-once — the slot list grows to the deepest forward stack the layer has seen, then is reused
  if (depth_ == saved_.size()) saved_.emplace_back();
  return saved_[depth_];
}

// CIP_HOT  (conv core: writes into caller-owned lowering and output scratch)
void Conv2d::ForwardGemmInto(const Tensor& x, std::size_t n, std::size_t oh,
                             std::size_t ow, Tensor& col, Tensor& y) {
  const std::size_t h = x.dim(2), w = x.dim(3);
  const ops::Conv2dGeom geom = Geom(h, w);
  const std::size_t rows = n * oh * ow;
  const std::size_t patch = geom.PatchSize();
  EnsureShape(col, {rows, patch});
  // Pointers hoisted out of the parallel region: a non-const data() bumps the
  // tensor's version counter, which must not happen concurrently (tensor.h).
  {
    const float* px_all = x.data();
    float* pcol = col.data();
    ParallelFor(0, n, [&](std::size_t i) {
      ops::Im2ColInto(px_all + i * ic_ * h * w, geom,
                      pcol + i * oh * ow * patch);
    });
  }
  EnsureShape(gemm_y_, {rows, oc_});
  if (ops::internal::UsesBlockedGemm(rows, patch, oc_)) {
    // Blocked regime: multiply against the cached pre-packed weight, repacking
    // only when the weight actually changed (optimizer steps bump version()).
    // Bit-identical to MatmulTransBInto, which packs the same panels per call.
    if (packed_w_.empty() || packed_w_version_ != w_.value.version() ||
        packed_w_.isa() != ops::ActiveGemmIsa()) {
      ops::PackBForMatmulTransBInto(w_.value, packed_w_);
      packed_w_version_ = w_.value.version();
    }
    ops::MatmulPackedInto(col, packed_w_, gemm_y_);  // [rows, oc]
  } else {
    ops::MatmulTransBInto(col, w_.value, gemm_y_);  // [rows, oc]
  }
  // Scatter [N·OH·OW, OC] back to NCHW and add the bias.
  EnsureShape(y, {n, oc_, oh, ow});
  const float* pg = std::as_const(gemm_y_).data();
  const float* pb = std::as_const(b_.value).data();
  float* py_all = y.data();
  ParallelFor(0, n, [&](std::size_t i) {
    const float* grow = pg + i * oh * ow * oc_;
    float* py = py_all + i * oc_ * oh * ow;
    for (std::size_t pos = 0; pos < oh * ow; ++pos) {
      const float* orow = grow + pos * oc_;
      for (std::size_t c = 0; c < oc_; ++c) {
        py[c * oh * ow + pos] = orow[c] + pb[c];
      }
    }
  });
}

Tensor Conv2d::ForwardNaive(const Tensor& x, std::size_t n, std::size_t oh,
                            std::size_t ow) const {
  const std::size_t h = x.dim(2), w = x.dim(3);
  // CIP_ANALYZE_OK(hot-alloc-tensor): CIP_NAIVE_CONV reference path — correctness over speed, allocates by design; the default eval path is ForwardGemmInto into reusable scratch
  Tensor y({n, oc_, oh, ow});
  const float* pw = w_.value.data();
  const float* pb = b_.value.data();
  const float* px_all = x.data();
  float* py_all = y.data();
  ParallelFor(0, n, [&](std::size_t i) {
    const float* px = px_all + i * ic_ * h * w;
    float* py = py_all + i * oc_ * oh * ow;
    for (std::size_t co = 0; co < oc_; ++co) {
      const float* wrow = pw + co * ic_ * k_ * k_;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = pb[co];
          for (std::size_t c = 0; c < ic_; ++c) {
            for (std::size_t ky = 0; ky < k_; ++ky) {
              const long iy = static_cast<long>(oy * stride_ + ky) -
                              static_cast<long>(pad_);
              if (iy < 0 || iy >= static_cast<long>(h)) continue;
              for (std::size_t kx = 0; kx < k_; ++kx) {
                const long ix = static_cast<long>(ox * stride_ + kx) -
                                static_cast<long>(pad_);
                if (ix < 0 || ix >= static_cast<long>(w)) continue;
                acc += px[c * h * w + static_cast<std::size_t>(iy) * w +
                          static_cast<std::size_t>(ix)] *
                       wrow[c * k_ * k_ + ky * k_ + kx];
              }
            }
          }
          py[co * oh * ow + oy * ow + ox] = acc;
        }
      }
    }
  });
  return y;
}

Tensor Conv2d::Forward(const Tensor& x, bool train) {
  CIP_CHECK_EQ(x.rank(), 4u);
  CIP_CHECK_EQ(x.dim(1), ic_);
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = OutExtent(h), ow = OutExtent(w);
  CIP_DCHECK_GT(oh, 0u);
  CIP_DCHECK_GT(ow, 0u);
  const bool naive = NaiveConvEnabled();
  Saved& slot = FreeSlot();
  Tensor y;
  if (naive) {
    y = ForwardNaive(x, n, oh, ow);
    if (train) slot.buf = x;
  } else {
    ForwardGemmInto(x, n, oh, ow, slot.buf, y);
  }
  if (train) {
    slot.n = n;
    slot.h = h;
    slot.w = w;
    slot.lowered = !naive;
    ++depth_;
  }
  return y;
}

// CIP_HOT  (serve-path conv forward: zero allocations once scratch is warm)
const Tensor& Conv2d::EvalForward(const Tensor& x) {
  CIP_CHECK_EQ(x.rank(), 4u);
  CIP_CHECK_EQ(x.dim(1), ic_);
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = OutExtent(h), ow = OutExtent(w);
  CIP_DCHECK_GT(oh, 0u);
  CIP_DCHECK_GT(ow, 0u);
  if (NaiveConvEnabled()) {
    // Reference path: correctness over speed, allocates like Forward.
    eval_out_ = ForwardNaive(x, n, oh, ow);
  } else {
    ForwardGemmInto(x, n, oh, ow, FreeSlot().buf, eval_out_);
  }
  return eval_out_;
}

Tensor Conv2d::BackwardGemm(Saved& s, const Tensor& grad_out) {
  const std::size_t n = s.n, h = s.h, w = s.w;
  const ops::Conv2dGeom geom = Geom(h, w);
  const std::size_t oh = geom.OutH(), ow = geom.OutW();
  const std::size_t rows = n * oh * ow;
  const std::size_t patch = geom.PatchSize();
  Tensor& col = s.buf;
  CIP_DCHECK(col.shape() == Shape({rows, patch}));

  // grad_out [N, OC, OH, OW] -> gy_ [N·OH·OW, OC] (the GEMM layout).
  EnsureShape(gy_, {rows, oc_});
  const float* pg_all = grad_out.data();
  float* pgy = gy_.data();
  ParallelFor(0, n, [&](std::size_t i) {
    const float* pg = pg_all + i * oc_ * oh * ow;
    float* grow = pgy + i * oh * ow * oc_;
    for (std::size_t c = 0; c < oc_; ++c) {
      for (std::size_t pos = 0; pos < oh * ow; ++pos) {
        grow[pos * oc_ + c] = pg[c * oh * ow + pos];
      }
    }
  });

  // Bias gradient: column sums of gy_, accumulated without a temporary.
  ops::SumRowsAccumInto(gy_, b_.grad);

  // Weight gradient: dW = gyᵀ · col, one GEMM for the whole batch, from the
  // lowering the matching Forward saved.
  EnsureShape(dw_, {oc_, patch});
  ops::MatmulTransAInto(gy_, col, dw_);
  ops::AddInPlace(w_.grad, dw_);

  // Input gradient: back to column space with one GEMM, written over the
  // lowering (dead after dW), then scatter-add.
  ops::MatmulInto(gy_, w_.value, col);
  Tensor dx({n, ic_, h, w});
  {
    const float* pdcol = std::as_const(col).data();
    float* pdx = dx.data();
    ParallelFor(0, n, [&](std::size_t i) {
      ops::Col2ImInto(pdcol + i * oh * ow * patch, geom,
                      pdx + i * ic_ * h * w);
    });
  }
  return dx;
}

Tensor Conv2d::BackwardNaive(const Tensor& x, const Tensor& grad_out) {
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = OutExtent(h), ow = OutExtent(w);
  Tensor dx({n, ic_, h, w});
  // Serial on purpose: dw/db accumulate across every sample and output
  // position, and the reference path favors determinism over speed.
  const float* pw = w_.value.data();
  float* pdw = w_.grad.data();
  float* pdb = b_.grad.data();
  for (std::size_t i = 0; i < n; ++i) {
    const float* px = x.data() + i * ic_ * h * w;
    const float* pg = grad_out.data() + i * oc_ * oh * ow;
    float* pdx = dx.data() + i * ic_ * h * w;
    for (std::size_t co = 0; co < oc_; ++co) {
      const float* wrow = pw + co * ic_ * k_ * k_;
      float* dwrow = pdw + co * ic_ * k_ * k_;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = pg[co * oh * ow + oy * ow + ox];
          pdb[co] += g;
          if (g == 0.0f) continue;
          for (std::size_t c = 0; c < ic_; ++c) {
            for (std::size_t ky = 0; ky < k_; ++ky) {
              const long iy = static_cast<long>(oy * stride_ + ky) -
                              static_cast<long>(pad_);
              if (iy < 0 || iy >= static_cast<long>(h)) continue;
              for (std::size_t kx = 0; kx < k_; ++kx) {
                const long ix = static_cast<long>(ox * stride_ + kx) -
                                static_cast<long>(pad_);
                if (ix < 0 || ix >= static_cast<long>(w)) continue;
                const std::size_t xi = c * h * w +
                                       static_cast<std::size_t>(iy) * w +
                                       static_cast<std::size_t>(ix);
                const std::size_t wi = c * k_ * k_ + ky * k_ + kx;
                dwrow[wi] += g * px[xi];
                pdx[xi] += g * wrow[wi];
              }
            }
          }
        }
      }
    }
  }
  return dx;
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  CIP_CHECK_MSG(depth_ > 0, name_ << ": backward without forward");
  Saved& s = saved_[--depth_];
  CIP_CHECK_EQ(grad_out.dim(0), s.n);
  CIP_CHECK_EQ(grad_out.dim(1), oc_);
  CIP_CHECK_EQ(grad_out.dim(2), OutExtent(s.h));
  CIP_CHECK_EQ(grad_out.dim(3), OutExtent(s.w));
  return s.lowered ? BackwardGemm(s, grad_out) : BackwardNaive(s.buf, grad_out);
}

void Conv2d::CollectParameters(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

void Conv2d::ClearCache() { depth_ = 0; }

}  // namespace cip::nn
