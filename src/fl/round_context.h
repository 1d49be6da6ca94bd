// Per-(round, client) context handed to ClientBase::TrainLocal.
//
// The old API threaded one shared mutable Rng& through every client, which
// made concurrent client execution a data race by construction. RoundContext
// replaces it with a value the coordinator builds per participant: the RNG
// stream inside is a pure function of (run seed, round, client index) — see
// DeriveStream in common/rng.h — so a client's randomness is identical
// whether rounds run serially or on CIP_THREADS workers, and bit-identical
// results across thread counts become a testable invariant instead of an
// accident of scheduling.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "fl/telemetry.h"
#include "fl/trainer.h"
#include "optim/optimizer.h"

namespace cip::fl {

struct RoundContext {
  std::size_t round = 1;         ///< 1-based round index
  std::size_t client_index = 0;  ///< index into the Run() clients span
  /// Server-side multiplier on the client's scheduled learning rate
  /// (FlOptions::lr_decay schedule; 1.0 when disabled).
  float lr_scale = 1.0f;
  /// Private RNG stream for this (round, client). Owned by the context;
  /// clients draw from it freely without touching any shared state.
  Rng rng{0};
  /// Optional sink for defense-internal timings (e.g. CIP Step I/II split).
  /// The server fills train_seconds/loss itself; may be null when TrainLocal
  /// is driven outside the round engine.
  ClientRoundStats* telemetry = nullptr;

  /// The learning rate a client should apply this round: the server's scale
  /// on top of the client's own piecewise schedule.
  float LrFor(const TrainConfig& cfg) const {
    return lr_scale * LrAtRound(cfg, round);
  }
};

/// The server-side lr_scale for 1-based `round`: lr_decay applied once per
/// completed block of lr_decay_every rounds, or 1 when lr_decay_every is 0.
/// FederatedAveraging and the wire AsyncRoundEngine both hand out this value,
/// so it is part of their bit-identity contract.
inline float LrScaleAtRound(float lr_decay, std::size_t lr_decay_every,
                            std::size_t round) {
  if (lr_decay_every == 0) return 1.0f;
  return optim::StepDecaySchedule(1.0f, lr_decay, lr_decay_every)
      .LrAt(round - 1);
}

/// Build the context the round engine hands to `client_index` in `round`.
/// Exposed so tests and benches that drive TrainLocal directly get the same
/// stream derivation as FederatedAveraging::Run.
inline RoundContext MakeRoundContext(std::uint64_t run_seed, std::size_t round,
                                     std::size_t client_index,
                                     float lr_scale = 1.0f) {
  RoundContext ctx;
  ctx.round = round;
  ctx.client_index = client_index;
  ctx.lr_scale = lr_scale;
  ctx.rng = DeriveStream(run_seed, round, client_index);
  return ctx;
}

}  // namespace cip::fl
