// The CIP federated-learning client (the paper's core contribution).
//
// Per round, the client alternates (Sec. III-B):
//   Step I  — optimize its secret perturbation t to minimize
//             CE(θ, B(x,t)) + λ_t·|t|₁ over its local data (Eq. 3);
//   Step II — optimize θ to minimize
//             CE(θ, B(x,t)) − λ_m·CE(θ, B(x,0)) (Eq. 4), where B(x,0) is the
//             raw-query path an uninformed adversary uses.
// The perturbation never leaves the client; only θ is communicated.
#pragma once

#include <memory>

#include "core/blend.h"
#include "core/cip_model.h"
#include "core/perturbation.h"
#include "fl/client.h"
#include "nn/backbones.h"

namespace cip::core {

struct CipConfig {
  BlendConfig blend;            ///< α and the clip range
  float lambda_t = 1e-4f;       ///< ℓ1 weight in Eq. 3 (paper: 1e-6..1e-12,
                                ///< rescaled to our model/loss magnitudes)
  float lambda_m = 0.05f;       ///< raw-loss weight in Eq. 4 (paper: ≤1e-6)
  /// Ceiling for the raw-path loss: ascent stops once the batch's raw loss
  /// reaches this value, implementing the paper's intent that original
  /// samples "assemble other non-members" without abnormally high loss
  /// (Sec. III-B / RQ4-Knowledge-4). 0 = use ln(num_classes), the loss of an
  /// uninformative prediction.
  float raw_loss_ceiling = 0.0f;
  std::size_t perturb_steps = 10;  ///< Step-I SGD iterations per round
  std::size_t perturb_batch = 32;
  float lr_t = 5e-2f;           ///< Step-I learning rate
  fl::TrainConfig train;        ///< Step-II optimizer settings
  /// Optional public seed for t's initialization (Knowledge-1 scenario);
  /// noise weight 1 = fully random init (the default, secret t).
  Tensor init_seed;
  float init_noise_weight = 1.0f;
};

class CipClient : public fl::ClientBase {
 public:
  CipClient(const nn::ModelSpec& spec, data::Dataset local_data,
            CipConfig cfg, std::uint64_t seed);

  void SetGlobal(const fl::ModelState& global) override;
  fl::ModelState TrainLocal(fl::RoundContext ctx) override;
  double EvalAccuracy(const data::Dataset& data) override;
  float LastTrainLoss() const override { return last_loss_; }
  const data::Dataset& LocalData() const override { return data_; }
  /// Snapshot layout: the secret perturbation t first, then the Step-II
  /// optimizer's momentum tensors. t never leaves the client during
  /// training; a checkpoint containing it must be protected like the client
  /// key material it is (see docs/ROBUSTNESS.md).
  fl::ClientState ExportState() const override;
  void RestoreState(const fl::ClientState& state) override;

  /// The client's dual-channel model (mutable: evaluation helpers feed it).
  /// Built from the spec on the first call that needs it — this accessor,
  /// SetGlobal, TrainLocal, EvalAccuracy or BlendedDataLoss — so a client
  /// constructed only to read its state (the serving t-cache's miss path)
  /// never initializes weights it does not read. The model's init stream is
  /// Rng(spec.seed), separate from t's, so when it is built changes no byte.
  nn::DualChannelClassifier& model();
  const Tensor& perturbation() const { return t_.tensor(); }
  const CipConfig& config() const { return cfg_; }

  /// Mean blended training loss over the local data (used by Fig. 7's EMD
  /// analysis of client loss distributions).
  float BlendedDataLoss();

 private:
  void StepIOptimizePerturbation(Rng& rng);
  float StepIITrainModel(Rng& rng);

  nn::ModelSpec spec_;
  std::unique_ptr<nn::DualChannelClassifier> model_;  ///< null until model()
  data::Dataset data_;
  CipConfig cfg_;
  optim::Sgd opt_;
  Rng init_rng_;  ///< construction-time randomness (perturbation init) only
  Perturbation t_;
  float last_loss_ = 0.0f;
};

/// Optimize a perturbation t against a *fixed* model on the given data for
/// `steps` SGD iterations (Eq. 3); returns the final mean blended loss.
/// Shared by CipClient's Step I and the Optimization-1 adaptive attack.
float OptimizePerturbation(nn::DualChannelClassifier& model,
                           const data::Dataset& data, Tensor& t,
                           const BlendConfig& blend, float lambda_t,
                           float lr_t, std::size_t steps,
                           std::size_t batch_size, Rng& rng);

/// ModelState with the initial weights of a dual-channel spec.
fl::ModelState InitialDualState(const nn::ModelSpec& spec);

}  // namespace cip::core
