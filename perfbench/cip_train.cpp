// cip_train: in-process CIP federated rounds over a cold client store.
//
// 64 CIP clients (tiny ResNet, width 8, CIFAR-100-like 3x12x12 inputs, 20
// classes, 64 samples each), participation 0.125 so every round trains a
// cohort of 8 on the default thread budget. Nearly all the time is training
// compute plus the coordinator's serial store path; net and serve do no
// work, so this is the no-change workload for their optimisations.
//
// The run is timed in two Run calls: two calibration rounds, then a Resume
// from an in-memory checkpoint for as many rounds as fill --seconds (at
// least MinRounds()). The traced pass replays exactly that round count, so
// its final global must match the untraced pass byte for byte.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "attacks/output_attacks.h"
#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/cip_client.h"
#include "core/cip_model.h"
#include "data/synthetic.h"
#include "fl/client_factory.h"
#include "fl/server.h"
#include "tensor/ops.h"

namespace perfbench {
namespace {

using namespace cip;

constexpr std::size_t kFleet = 64;
constexpr std::size_t kSamplesPerClient = 64;
constexpr float kParticipation = 0.125f;
constexpr std::size_t kCalibrationRounds = 2;
/// Cohort size: participation of the fleet, as fl/sampler.h computes it.
constexpr auto kCohort = static_cast<std::size_t>(kParticipation * kFleet);
constexpr std::size_t kMaxRounds = 400;
constexpr std::size_t kHeldOut = 512;
constexpr std::size_t kSetupReps = 5;

/// Everything set-up builds: data, model spec and the initial global.
struct Fleet {
  nn::ModelSpec spec;
  std::vector<data::Dataset> client_data;
  data::Dataset heldout;
  data::Dataset nonmembers;
  fl::ModelState initial;
  std::uint64_t seed = 0;
};

Fleet MakeFleet(std::uint64_t seed) {
  Fleet f;
  f.seed = seed;
  data::VisionConfig vc = data::Cifar100Like();
  vc.seed = DeriveStream(seed, 0, 0).NextU64();
  const data::SyntheticVision gen(vc);
  f.spec.arch = nn::Arch::kResNet;
  f.spec.input_shape = gen.SampleShape();
  f.spec.num_classes = vc.num_classes;
  f.spec.width = 8;
  f.spec.seed = DeriveStream(seed, 0, 1).NextU64();
  f.client_data.reserve(kFleet);
  for (std::size_t k = 0; k < kFleet; ++k) {
    Rng rng = DeriveStream(seed, 1, k);
    f.client_data.push_back(gen.Sample(kSamplesPerClient, rng));
  }
  Rng held = DeriveStream(seed, 2, 0);
  f.heldout = gen.Sample(kHeldOut, held);
  Rng non = DeriveStream(seed, 3, 0);
  f.nonmembers = gen.Sample(kHeldOut, non);
  f.initial = core::InitialDualState(f.spec);
  return f;
}

fl::ClientSpec SpecFor(const Fleet& f, std::size_t k) {
  fl::ClientSpec s;
  s.kind = fl::ClientKind::kCip;
  s.model = f.spec;
  s.data = f.client_data[k];
  s.seed = DeriveStream(f.seed, 4, k).NextU64();
  return s;
}

/// Names of the client-round spans, interned once.
struct Names {
  std::uint32_t round = trace::Intern("fl.round");
  std::uint32_t construct = trace::Intern("fl.store.construct");
  std::uint32_t restore = trace::Intern("fl.store.restore_state");
  std::uint32_t set_global = trace::Intern("fl.client.set_global");
  std::uint32_t train = trace::Intern("fl.client.train_local");
  std::uint32_t export_state = trace::Intern("fl.store.export_state");
};

const Names& N() {
  static const Names n;
  return n;
}

/// The round currently running, published by the coordinator's round hook
/// before it materializes the cohort and read by client spans on workers
/// (the pool dispatch orders the write before their reads).
std::atomic<std::size_t> g_round{0};

/// ClientBase decorator that records a span around every store- and
/// round-facing call, keyed by (round, client).
class TracedClient : public fl::ClientBase {
 public:
  TracedClient(std::unique_ptr<fl::ClientBase> inner, std::size_t id)
      : inner_(std::move(inner)), id_(id) {}

  void SetGlobal(const fl::ModelState& global) override {
    const trace::Scope s(N().set_global, Round(), id_);
    inner_->SetGlobal(global);
  }
  fl::ModelState TrainLocal(fl::RoundContext ctx) override {
    const trace::Scope s(N().train, ctx.round, id_);
    return inner_->TrainLocal(std::move(ctx));
  }
  double EvalAccuracy(const data::Dataset& d) override {
    return inner_->EvalAccuracy(d);
  }
  float LastTrainLoss() const override { return inner_->LastTrainLoss(); }
  const data::Dataset& LocalData() const override {
    return inner_->LocalData();
  }
  fl::ClientState ExportState() const override {
    const trace::Scope s(N().export_state, Round(), id_);
    return inner_->ExportState();
  }
  void RestoreState(const fl::ClientState& state) override {
    const trace::Scope s(N().restore, Round(), id_);
    inner_->RestoreState(state);
  }

 private:
  static std::size_t Round() { return g_round.load(std::memory_order_relaxed); }

  std::unique_ptr<fl::ClientBase> inner_;
  std::size_t id_;
};

/// A cold store over the fleet whose factory counts its calls and, for
/// the traced pass, wraps every client in a TracedClient.
struct Store {
  std::size_t constructs = 0;
  fl::ClientStore store;

  Store(const Fleet& f, bool traced)
      : store(
            kFleet,
            [this, &f, traced](std::size_t k)
                -> std::unique_ptr<fl::ClientBase> {
              ++constructs;
              if (!traced) return fl::MakeClient(SpecFor(f, k));
              const trace::Scope s(N().construct, g_round.load(), k);
              return std::make_unique<TracedClient>(
                  fl::MakeClient(SpecFor(f, k)), k);
            },
            fl::StoreOptions{}) {}
};

/// What set-up builds: the data and initial model, then a cold store.
struct Built {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Store> store;
};

/// One timed federated run and what it observed from outside.
struct Pass {
  fl::ModelState final_global;
  std::vector<fl::RoundStats> rounds;
  std::vector<double> round_ms;  ///< wall time of each round
  double wall_s = 0.0;           ///< sum of the timed Run calls
  std::size_t constructs = 0;    ///< store factory calls
  std::uint64_t tensor_allocs = 0;
  Tensor client0_t;  ///< client 0's perturbation after the run (if it trained)
  std::vector<SpanRecord> spans;  ///< traced pass only
};

/// Fewest rounds that give the round median and the client-round p90 at
/// least 10 samples beyond them.
std::size_t MinRounds() {
  return std::max(MinSamplesFor(0.5),
                  (MinSamplesFor(0.9) + kCohort - 1) / kCohort);
}

fl::FlOptions FlOpts(std::size_t stop_after) {
  fl::FlOptions o;
  o.rounds = kMaxRounds;
  o.participation = kParticipation;
  o.stop_after_round = stop_after;
  return o;
}

/// Run rounds 1..total (total == 0: calibrate it from the first two rounds
/// and write it back) over the fresh cold store `st`.
Pass RunPass(const Fleet& f, Store& st, double seconds, bool traced,
             std::size_t& total) {
  Pass p;
  fl::ClientStore& store = st.store;

  std::int64_t round_start = 0;
  std::size_t open_round = 0;
  const auto close_round = [&](std::int64_t now) {
    if (open_round == 0) return;
    p.round_ms.push_back(static_cast<double>(now - round_start) / 1e6);
    trace::Record(N().round, round_start, now, open_round);
  };
  // The round hook is an honest pass-through: it marks each round's start.
  const auto hook = [&](std::size_t round, const fl::ModelState& honest) {
    const std::int64_t now = NowNs();
    close_round(now);
    open_round = round;
    round_start = now;
    g_round.store(round, std::memory_order_relaxed);
    return honest;
  };
  const auto run_chunk = [&](fl::FlLog log) {
    const std::int64_t end = NowNs();
    close_round(end);
    open_round = 0;
    for (fl::RoundStats& r : log.telemetry.rounds) p.rounds.push_back(r);
    return log.final_global;
  };

  trace::Enable(traced);
  const std::uint64_t allocs0 = internal::TensorAllocCount();
  std::int64_t t0 = NowNs();
  fl::FederatedAveraging first(f.initial, FlOpts(kCalibrationRounds));
  first.set_tamper(hook);
  fl::ModelState global = run_chunk(first.Run(store, f.seed));
  const double calib_s = static_cast<double>(NowNs() - t0) / 1e9;
  p.wall_s += calib_s;
  if (total == 0) {
    const double per_round = calib_s / kCalibrationRounds;
    total = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(seconds / per_round)), MinRounds(),
        kMaxRounds);
  }

  // Untimed: the in-memory checkpoint the second chunk resumes from.
  fl::Checkpoint ckpt;
  ckpt.run_seed = f.seed;
  ckpt.total_rounds = kMaxRounds;
  ckpt.next_round = kCalibrationRounds + 1;
  ckpt.telemetry_rounds = kCalibrationRounds;
  ckpt.global = global;
  ckpt.client_states = store.ExportStates();

  t0 = NowNs();
  fl::FederatedAveraging rest(global, FlOpts(total));
  rest.set_tamper(hook);
  p.final_global = run_chunk(rest.Resume(store, ckpt));
  p.wall_s += static_cast<double>(NowNs() - t0) / 1e9;
  p.tensor_allocs = internal::TensorAllocCount() - allocs0;
  trace::Enable(false);
  p.constructs = st.constructs;
  fl::ClientState client0;
  if (store.PeekState(0, client0)) p.client0_t = client0.tensors.front();
  if (traced) p.spans = trace::Collect();
  return p;
}

std::vector<double> Ms(const std::vector<fl::RoundStats>& rounds,
                       double fl::RoundStats::*field) {
  std::vector<double> v;
  for (const fl::RoundStats& r : rounds) v.push_back(r.*field * 1e3);
  return v;
}

std::vector<double> ClientMs(const std::vector<fl::RoundStats>& rounds,
                             double fl::ClientRoundStats::*field) {
  std::vector<double> v;
  for (const fl::RoundStats& r : rounds) {
    for (const fl::ClientRoundStats& c : r.clients) v.push_back(c.*field * 1e3);
  }
  return v;
}

std::size_t ClientRounds(const Pass& p) {
  std::size_t n = 0;
  for (const fl::RoundStats& r : p.rounds) n += r.clients.size();
  return n;
}

/// The workload's named end-to-end metrics for one pass.
std::vector<Value> NamedMetrics(const Pass& p) {
  const std::size_t client_rounds = ClientRounds(p);
  const Percentile round_p50 = NearestRank(p.round_ms, 0.5);
  const Percentile client_p90 =
      NearestRank(ClientMs(p.rounds, &fl::ClientRoundStats::train_seconds),
                  0.90);
  return {
      {"client_rounds_per_s", static_cast<double>(client_rounds) / p.wall_s,
       "1/s", "higher", client_rounds},
      {"round_p50_ms", round_p50.value, "ms", "lower", round_p50.samples},
      {"client_round_p90_ms", client_p90.value, "ms", "lower",
       client_p90.samples},
  };
}

bool SameBytes(const fl::ModelState& a, const fl::ModelState& b) {
  return a.size() == b.size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(float)) == 0;
}

bool AllFinite(const fl::ModelState& s) {
  return std::all_of(s.values().begin(), s.values().end(),
                     [](float v) { return std::isfinite(v); });
}

/// test_acc and mia_acc of the final global, computed after the timed runs.
void Quality(const Fleet& f, const Pass& p, Report& rep) {
  auto model = nn::MakeDualChannelClassifier(f.spec);
  p.final_global.ApplyTo(model->Parameters());
  // One fixed client's own t: client 0's, as trained (or as constructed
  // when the sampler never picked it).
  auto client = fl::MakeCipClient(SpecFor(f, 0));
  const core::BlendConfig blend = client->config().blend;
  const Tensor& t =
      p.client0_t.size() > 0 ? p.client0_t : client->perturbation();
  const double test_acc = core::DualAccuracy(*model, f.heldout, t, blend);
  // Members: the local data of the first clients, as many samples as the
  // non-member pool, queried raw through B(x, 0).
  data::Dataset members = f.client_data[0];
  for (std::size_t k = 1; members.size() < f.nonmembers.size(); ++k) {
    members = data::Dataset::Concat(members, f.client_data[k]);
  }
  members = members.Slice(0, f.nonmembers.size());
  core::CipQuery raw(*model, blend);
  attacks::ObLabel attack;
  const double mia_acc =
      attacks::EvaluateAttack(attack, raw, members, f.nonmembers).accuracy;
  rep.named.push_back({"test_acc", test_acc, "ratio", "higher", kHeldOut});
  rep.named.push_back(
      {"mia_acc", mia_acc, "ratio", "lower", 2 * f.nonmembers.size()});
  rep.Check(std::isfinite(test_acc) && test_acc >= 0.0 && test_acc <= 1.0,
            "cip_train: test_acc is not a finite ratio");
  rep.Check(std::isfinite(mia_acc) && mia_acc >= 0.0 && mia_acc <= 1.0,
            "cip_train: mia_acc is not a finite ratio");
}

/// Step-I, Step-II and GEMM probes at the workload's exact shapes, run at
/// one thread inside a parallel region like the client phase they mirror.
void Probes(const Fleet& f, const fl::ModelState& global, Report& rep) {
  constexpr std::size_t kReps = 40;
  const core::CipConfig cfg;
  auto model = nn::MakeDualChannelClassifier(f.spec);
  const std::vector<nn::Parameter*> params = model->Parameters();
  global.ApplyTo(params);
  const data::Dataset& data = f.client_data[0];
  auto client = fl::MakeCipClient(SpecFor(f, 0));
  Tensor t = client->perturbation();
  Rng rng = DeriveStream(f.seed, 5, 0);

  struct Part {
    const char* name;
    std::uint32_t id;
    std::vector<double> ms;
  };
  std::vector<Part> parts;
  for (const char* name :
       {"data.subset_ms", "core.blend_ms", "nn.dual_forward_ms",
        "tensor.softmax_ce_ms", "nn.dual_backward_ms", "nn.zero_grad_ms",
        "core.blend_grad_t_ms", "core.t_update_ms"}) {
    const std::string span(name, std::strlen(name) - 3);  // drop "_ms"
    parts.push_back({name, trace::Intern(span), {}});
  }
  std::vector<double> step_ms, sgd_ms, state_ms;
  double conv_gmacs = 0.0, peak_gmacs = 0.0;
  const std::uint32_t probe_step = trace::Intern("core.step1.probe");
  const std::uint32_t probe_ref = trace::Intern("core.optimize_perturbation");
  const std::uint32_t probe_sgd = trace::Intern("optim.sgd_step");
  const std::uint32_t probe_state = trace::Intern("fl.model_state");
  const std::uint32_t probe_gemm = trace::Intern("tensor.matmul");

  const auto timed = [](Part& part, auto&& fn) {
    const trace::Scope s(part.id);
    const std::int64_t t0 = NowNs();
    fn();
    part.ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  };
  const auto probe = [&] {
    const std::size_t bsz = std::min(cfg.perturb_batch, data.size());
    // Split iterations alternate with whole OptimizePerturbation steps, so
    // a slow spell of the host weighs on both sides of the comparison.
    for (std::size_t rep_i = 0; rep_i <= kReps; ++rep_i) {
      {
        const trace::Scope s(probe_ref);
        const std::int64_t t0 = NowNs();
        core::OptimizePerturbation(*model, data, t, cfg.blend, cfg.lambda_t,
                                   cfg.lr_t, 1, cfg.perturb_batch, rng);
        if (rep_i > 0) {
          step_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        }
      }
      // One Step-I iteration, split at every call OptimizePerturbation
      // makes (core/cip_client.cpp).
      const trace::Scope s(probe_step);
      std::vector<std::size_t> idx(bsz);
      for (std::size_t i = 0; i < bsz; ++i) idx[i] = rng.Index(data.size());
      data::Dataset batch;
      core::Blended blended;
      Tensor logits, dlogits, g1, g2, gt;
      timed(parts[0], [&] { batch = data.Subset(idx); });
      timed(parts[1],
            [&] { blended = core::Blend(batch.inputs, t, cfg.blend); });
      timed(parts[2],
            [&] { logits = model->Forward(blended.c1, blended.c2, true); });
      timed(parts[3], [&] {
        ops::SoftmaxCrossEntropy(logits, batch.labels, &dlogits);
      });
      timed(parts[4], [&] { std::tie(g1, g2) = model->Backward(dlogits); });
      timed(parts[5], [&] { model->ZeroGrad(); });
      timed(parts[6], [&] {
        gt = core::BlendGradT(blended, g1, g2, cfg.blend.alpha);
      });
      timed(parts[7], [&] {
        ops::Axpy(gt, cfg.lambda_t, ops::Sign(t));
        ops::Axpy(t, -cfg.lr_t, gt);
        ops::ClipInPlace(t, cfg.blend.clip_lo, cfg.blend.clip_hi);
      });
      if (rep_i == 0) {
        for (Part& p : parts) p.ms.clear();  // warm-up iteration
      }
    }
    // Step II's optimizer step and the model-state snapshot/apply.
    optim::Sgd opt(cfg.train.lr, cfg.train.momentum, cfg.train.weight_decay,
                   cfg.train.grad_clip);
    std::vector<std::size_t> idx(std::min(cfg.train.batch_size, data.size()));
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    const data::Dataset batch = data.Subset(idx);
    for (std::size_t rep_i = 0; rep_i <= kReps; ++rep_i) {
      const core::Blended b = core::Blend(batch.inputs, t, cfg.blend);
      const Tensor logits = model->Forward(b.c1, b.c2, true);
      Tensor dlogits;
      ops::SoftmaxCrossEntropy(logits, batch.labels, &dlogits);
      model->Backward(dlogits);
      std::int64_t t0 = NowNs();
      {
        const trace::Scope s(probe_sgd);
        opt.Step(params);
      }
      if (rep_i > 0) sgd_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      t0 = NowNs();
      {
        const trace::Scope s(probe_state);
        const fl::ModelState st = fl::ModelState::From(params);
        st.ApplyTo(params);
      }
      if (rep_i > 0) {
        state_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      }
    }
    // GEMM throughput: the stem conv's im2col GEMM ([N*H*W, C*3*3] x
    // [C*3*3, width]) at the Step-I batch, and a square 256^3 reference.
    const auto gmacs = [&](std::size_t m, std::size_t k, std::size_t n) {
      Rng g(7);
      Tensor a({m, k}), b({k, n});
      for (float& v : a.flat()) v = g.Uniform();
      for (float& v : b.flat()) v = g.Uniform();
      const double ms = MedianMs(kReps, [&] {
        const trace::Scope s(probe_gemm, m, n);
        const Tensor c = ops::Matmul(a, b);
      });
      return static_cast<double>(m * k * n) / (ms * 1e-3) / 1e9;
    };
    const Shape& in = f.spec.input_shape;
    conv_gmacs = gmacs(bsz * in[1] * in[2], in[0] * 9, f.spec.width);
    peak_gmacs = gmacs(256, 256, 256);
  };
  ParallelForCoarse(
      0, 2,
      [&](std::size_t i) {
        if (i == 0) probe();
      },
      2);

  double parts_sum = 0.0;
  for (const Part& p : parts) {
    const double ms = Median(p.ms);
    parts_sum += ms;
    rep.layer.push_back({p.name, ms, "ms", "lower", p.ms.size()});
  }
  const double step = Median(step_ms);
  rep.layer.push_back(
      {"core.step1_iter_ms", step, "ms", "lower", step_ms.size()});
  rep.layer.push_back(
      {"optim.sgd_step_ms", Median(sgd_ms), "ms", "lower", sgd_ms.size()});
  rep.layer.push_back(
      {"fl.model_state_ms", Median(state_ms), "ms", "lower", state_ms.size()});
  rep.layer.push_back(
      {"tensor.conv_gemm_gmacs", conv_gmacs, "GMAC/s", "higher", kReps});
  rep.layer.push_back(
      {"tensor.gemm_peak_gmacs", peak_gmacs, "GMAC/s", "higher", kReps});
  const std::string gap = "step-I probe: parts sum " +
                          std::to_string(parts_sum) +
                          " ms vs one OptimizePerturbation step " +
                          std::to_string(step) + " ms (" +
                          std::to_string(100.0 * (parts_sum / step - 1.0)) +
                          "% apart)";
  rep.notes.push_back(gap);
  if (std::abs(parts_sum / step - 1.0) > 0.10) {
    rep.invalid_reasons.push_back(gap + ", more than 10%");
  }
}

/// Per-layer metrics read from the untraced pass's telemetry and the
/// traced pass's spans.
void LayerMetrics(const Pass& plain, const Pass& traced, Report& rep) {
  const std::size_t rounds = plain.rounds.size();
  const std::size_t cohort = plain.rounds.front().clients.size();
  const std::size_t budget = std::min(ParallelThreads(), cohort);
  double busy = 0.0, wall = 0.0;
  for (const fl::RoundStats& r : plain.rounds) {
    wall += r.train_wall_seconds;
    for (const fl::ClientRoundStats& c : r.clients) busy += c.train_seconds;
  }
  const auto add_median = [&](const char* name, std::vector<double> v) {
    const std::size_t n = v.size();
    rep.layer.push_back({name, Median(std::move(v)), "ms", "lower", n});
  };
  add_median("fl.round.coord_ms",
             Ms(plain.rounds, &fl::RoundStats::broadcast_seconds));
  add_median("fl.round.aggregate_ms",
             Ms(plain.rounds, &fl::RoundStats::aggregate_seconds));
  rep.layer.push_back({"fl.round.client_idle_share",
                       1.0 - busy / (static_cast<double>(budget) * wall),
                       "ratio", "lower", rounds});
  add_median("core.step1_ms",
             ClientMs(plain.rounds, &fl::ClientRoundStats::step1_seconds));
  add_median("core.step2_ms",
             ClientMs(plain.rounds, &fl::ClientRoundStats::step2_seconds));
  rep.layer.push_back({"tensor.allocs_per_client_round",
                       static_cast<double>(plain.tensor_allocs) /
                           static_cast<double>(ClientRounds(plain)),
                       "count", "lower", ClientRounds(plain)});
  rep.layer.push_back({"fl.store.constructs_per_round",
                       static_cast<double>(plain.constructs) /
                           static_cast<double>(rounds),
                       "count", "lower", rounds});

  const std::vector<SpanRecord>& spans = traced.spans;
  std::vector<Span> plain_spans;
  for (const SpanRecord& s : spans) plain_spans.push_back(s.span);
  const std::vector<std::int64_t> self = SelfTimesNs(plain_spans);
  std::vector<double> construct, restore, export_state;
  double min_cover = 1.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i].span;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.name == N().construct) construct.push_back(ms);
    if (s.name == N().restore) restore.push_back(ms);
    if (s.name == N().export_state) export_state.push_back(ms);
    if (s.name == N().round && s.end_ns > s.start_ns) {
      min_cover = std::min(
          min_cover, 1.0 - static_cast<double>(self[i]) /
                               static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  add_median("fl.store.construct_ms", construct);
  add_median("fl.store.restore_ms", restore);
  add_median("fl.store.export_ms", export_state);
  rep.layer.push_back(
      {"trace.round_coverage", min_cover, "ratio", "higher", rounds});
  rep.notes.push_back("traced spans cover at least " +
                      std::to_string(100.0 * min_cover) +
                      "% of every round's wall time");
  if (min_cover < 0.95) {
    rep.invalid_reasons.push_back("a round's spans cover less than 95% of it");
  }
}

}  // namespace

Report RunCipTrain(const Options& opts) {
  Report rep;
  rep.threads = ParallelThreads();
  std::size_t total = 0;
  const Built built = TimedSetups(kSetupReps, rep, [&] {
    Built b;
    b.fleet = std::make_unique<Fleet>(MakeFleet(opts.seed));
    b.store = std::make_unique<Store>(*b.fleet, /*traced=*/false);
    return b;
  });
  const Fleet& fleet = *built.fleet;
  const Pass plain =
      RunPass(fleet, *built.store, opts.seconds, /*traced=*/false, total);
  const std::vector<Value> named = NamedMetrics(plain);
  rep.named.insert(rep.named.end(), named.begin(), named.end());
  rep.Gate("throughput_per_s", "client_rounds_per_s");
  rep.Gate("latency_ms", "round_p50_ms");
  rep.Gate("setup_s", "setup_s");

  std::size_t dropped = 0, skipped = 0;
  for (const fl::RoundStats& r : plain.rounds) {
    if (r.skipped) skipped += r.clients.size();
    for (const fl::ClientRoundStats& c : r.clients) dropped += c.dropped;
  }
  rep.attempted = ClientRounds(plain);
  rep.failed = dropped + skipped;
  rep.succeeded = rep.attempted - rep.failed;
  rep.Check(plain.rounds.size() == total,
            "cip_train: ran " + std::to_string(plain.rounds.size()) +
                " rounds, planned " + std::to_string(total));
  rep.Check(AllFinite(plain.final_global),
            "cip_train: final global has non-finite values");
  rep.Check(!SameBytes(plain.final_global, fleet.initial),
            "cip_train: final global equals the initial model");
  rep.notes.push_back("rounds: " + std::to_string(total) + " (cohort " +
                      std::to_string(plain.rounds.front().clients.size()) +
                      ", fleet " + std::to_string(kFleet) + ")");
  Quality(fleet, plain, rep);

  if (opts.trace) {
    Store traced_store(fleet, /*traced=*/true);
    Pass traced =
        RunPass(fleet, traced_store, opts.seconds, /*traced=*/true, total);
    AdoptByKey(traced.spans, N().round);
    rep.traced_named = NamedMetrics(traced);
    rep.Check(SameBytes(plain.final_global, traced.final_global),
              "cip_train: traced and untraced runs ended on different "
              "final-global bytes");
    LayerMetrics(plain, traced, rep);
    trace::Enable(true);
    Probes(fleet, plain.final_global, rep);
    trace::Enable(false);
    FinishTrace(opts, std::move(traced.spans), rep);
  }
  return rep;
}

}  // namespace perfbench
