// FL client interface and the legacy (no-defense) client.
//
// A client owns its local data and local model; each round it receives the
// global ModelState, trains locally, and returns its updated state. The CIP
// client (src/core) and defense clients (src/defenses) implement the same
// interface so the server and the experiment harness are defense-agnostic.
#pragma once

#include <memory>

#include "data/dataset.h"
#include "fl/model_state.h"
#include "fl/round_context.h"
#include "fl/trainer.h"
#include "nn/backbones.h"

namespace cip::fl {

/// A client's cross-round private state for checkpoint/resume: everything a
/// client carries *between* rounds that is not re-broadcast by the server
/// (optimizer momentum, the CIP secret perturbation t, …). The tensor layout
/// is client-kind-defined but stable: RestoreState on a freshly constructed
/// client of the same kind/config/seed reproduces subsequent TrainLocal
/// results bit-identically (see docs/ROBUSTNESS.md).
struct ClientState {
  std::vector<Tensor> tensors;
};

class ClientBase {
 public:
  virtual ~ClientBase() = default;

  /// Install the aggregated global model for the coming round.
  virtual void SetGlobal(const ModelState& global) = 0;

  /// Run one round of local training; returns the updated local state. The
  /// context carries this client's private RNG stream and the round's
  /// learning-rate scale; taken by value so the client may consume the
  /// stream freely. Must be safe to call concurrently on *distinct* client
  /// objects (the round engine trains sampled clients in parallel).
  virtual ModelState TrainLocal(RoundContext ctx) = 0;

  /// Client-side accuracy on a dataset using the client's own inference path
  /// (the CIP client blends inputs with its secret perturbation here).
  virtual double EvalAccuracy(const data::Dataset& data) = 0;

  /// Mean training loss of the most recent TrainLocal call.
  virtual float LastTrainLoss() const = 0;

  /// Local training data (members of this client, for attack evaluation).
  virtual const data::Dataset& LocalData() const = 0;

  /// Snapshot the client's cross-round private state (see ClientState). The
  /// default returns an empty state — correct only for clients that carry
  /// nothing between rounds; stateful clients must override this pair or
  /// checkpoint resume will silently restart their private state.
  virtual ClientState ExportState() const { return {}; }

  /// Install a snapshot produced by ExportState on the same client kind and
  /// configuration. The default accepts only an empty snapshot and throws
  /// cip::CheckError otherwise (a non-empty snapshot reaching a client that
  /// did not export one is a checkpoint/client mismatch).
  virtual void RestoreState(const ClientState& state);
};

/// Standard FedAvg client: single-channel classifier, plain SGD.
class LegacyClient : public ClientBase {
 public:
  /// `seed` is kept for constructor-shape uniformity across client kinds;
  /// round-time randomness comes exclusively from the RoundContext stream.
  LegacyClient(const nn::ModelSpec& spec, data::Dataset local_data,
               TrainConfig train_cfg, std::uint64_t seed);

  void SetGlobal(const ModelState& global) override;
  ModelState TrainLocal(RoundContext ctx) override;
  double EvalAccuracy(const data::Dataset& data) override;
  float LastTrainLoss() const override { return last_loss_; }
  const data::Dataset& LocalData() const override { return data_; }
  ClientState ExportState() const override;
  void RestoreState(const ClientState& state) override;

  /// The client's local model (mutable: evaluation helpers feed it). Built
  /// from the spec on the first call that needs it — this accessor,
  /// SetGlobal, TrainLocal or EvalAccuracy — so constructing a client to
  /// read or restore its state initializes no weights. The init stream is
  /// Rng(spec.seed), so when the model is built changes no byte.
  nn::Classifier& model();

 private:
  nn::ModelSpec spec_;
  std::unique_ptr<nn::Classifier> model_;  ///< null until model()
  data::Dataset data_;
  TrainConfig cfg_;
  optim::Sgd opt_;
  float last_loss_ = 0.0f;
};

/// Build a fresh ModelState with the initial weights of a spec (what the
/// server broadcasts at round 0).
ModelState InitialState(const nn::ModelSpec& spec);

}  // namespace cip::fl
