// Streaming tree aggregation of client model updates.
//
// FedAvg's aggregate is a mean over the round's surviving updates. The naive
// left fold (out += update, repeated) keeps one running sum but accumulates
// float error linearly in the cohort size; holding all updates to reduce
// pairwise costs O(cohort) state held live through aggregation. The
// TreeAccumulator streams: updates are folded into a binomial-counter ladder
// of partial sums — slot i holds the sum of exactly 2^i consecutive inputs —
// so at most ceil(log2(count)) + 1 partial ModelStates are alive at once and
// the reduction tree has O(log count) depth for error growth.
//
// Determinism contract: the fold order is a fixed function of the input
// sequence alone (carry-propagate on arrival, then one fixed low-to-high
// merge in FinishMean). Feeding the same updates in the same order always
// produces the bit-identical mean, on any thread budget; both the round
// engine's per-round aggregate and ModelState::Average delegate here, so
// replaying recorded client updates through this fold reproduces the
// server's global exactly.
#pragma once

#include <cstddef>
#include <vector>

#include "fl/model_state.h"

namespace cip::fl {

/// Order-deterministic streaming mean over ModelStates of one common size.
/// Add updates one by one (cheapest by rvalue), then call FinishMean once.
class TreeAccumulator {
 public:
  /// Fold one update into the ladder. All updates of one accumulation must
  /// be non-empty and of equal size (CHECK-failed on mismatch).
  void Add(ModelState update);

  /// Number of updates folded in so far.
  std::size_t count() const { return count_; }

  /// The element-wise mean of every added update; CHECK-fails when empty.
  /// Consumes the accumulator's state — reset to empty afterwards.
  ModelState FinishMean();

 private:
  std::vector<ModelState> levels_;  ///< levels_[i]: sum of 2^i inputs, or empty
  std::size_t count_ = 0;
};

}  // namespace cip::fl
