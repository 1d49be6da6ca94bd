// Transport-agnostic round state machine for the standalone FL server.
//
// The engine is the socket server's brain with the sockets removed: the
// server (net/server.h) translates connection events into OnJoin / OnUpdate
// / OnDisconnect calls, and the engine answers with encoded frames to send.
// Keeping it free of file descriptors makes the asynchronous-aggregation
// semantics unit-testable byte-for-byte (tests/test_net.cpp drives it with
// hand-built events, including arrival-order permutations).
//
// Round semantics — buffered asynchronous aggregation (docs/PROTOCOL.md §5):
// the server is always "in" exactly one round r. Every kUpdate that arrives
// is folded into round r's buffer, *including* updates trained against an
// older round's global (stragglers — counted in RoundStats::
// folded_stragglers). A client whose update is buffered waits; the round
// closes as soon as the buffer holds min(quorum, deliverable) updates,
// where deliverable counts connected clients plus fleet ids that have not
// joined yet (a seat stays reserved for a slow starter, so startup order
// cannot change which updates a round folds), at
// which point the buffer is folded in ascending client-id order through the
// PR 8 TreeAccumulator — the identical fold the in-process engine uses, so
// the aggregate is a function of *which* updates were buffered, never of
// their network arrival order. Waiting clients then receive kRound(r+1);
// a straggler rejoins at whatever round is current when its late update
// lands. A connection drop is a client dropout (fl/fault.h kDropout): the
// client leaves the live set and the close condition is re-evaluated, which
// is how a mid-round kill degrades exactly like the in-process FaultPlan
// run. If every live client has delivered but the buffer is still below
// min_quorum, the round is skipped (global unchanged) — QuorumPolicy::
// kSkipRound on the wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fl/model_state.h"
#include "fl/telemetry.h"
#include "net/frame.h"

namespace cip::net {

/// One frame the caller must transmit, and whether to hang up afterwards.
struct EngineSend {
  std::uint64_t client_id = 0;  ///< destination client
  /// Complete encoded frame, or null for none. A broadcast is encoded once
  /// and every recipient's send shares that one immutable buffer.
  std::shared_ptr<const std::string> frame;
  /// Close the connection after sending (kFinal delivered, or the peer
  /// committed a protocol violation and `frame` is null).
  bool then_close = false;
};

/// Counters the engine keeps across the run (served to telemetry/bench).
struct EngineStats {
  std::size_t rounds_completed = 0;   ///< rounds aggregated into the global
  std::size_t rounds_skipped = 0;     ///< rounds closed below min_quorum
  std::size_t updates_accepted = 0;   ///< kUpdate frames folded into a buffer
  std::size_t folded_stragglers = 0;  ///< accepted updates tagged an older round
  std::size_t protocol_errors = 0;    ///< peers dropped for violating the spec
};

/// The round state machine behind cip_server. See the header comment for the
/// asynchronous-aggregation contract.
class AsyncRoundEngine {
 public:
  /// Run shape. quorum is K in "first K of N": a round may close before
  /// every live client has delivered. quorum == fleet_size gives fully
  /// synchronous rounds (the bit-identity configuration of the e2e test).
  struct Options {
    std::size_t total_rounds = 1;  ///< rounds to aggregate before kFinal
    std::size_t fleet_size = 1;    ///< N: admitted ids are [0, fleet_size)
    std::size_t quorum = 1;        ///< K: close at min(K, live) updates
    std::size_t min_quorum = 1;    ///< skip a closed round below this
    std::uint64_t run_seed = 0;    ///< root of every client RNG stream
    float lr_decay = 0.5f;         ///< mirror of FlOptions::lr_decay
    std::size_t lr_decay_every = 0;  ///< 0 = constant lr_scale of 1
  };

  /// Start a run from the initial broadcast state. CHECK-fails on an
  /// out-of-domain Options (quorum 0, min_quorum > fleet, ...).
  AsyncRoundEngine(fl::ModelState initial, Options options);

  /// A client claimed `client_id` with kHello. Admits ids in [0, fleet_size)
  /// that are not already live: the reply is kWelcome plus kRound(current)
  /// (or kFinal when the run already ended). Rejections carry no frame and
  /// then_close — admission *capacity* (kBusy) is the server's job, identity
  /// validity is the engine's.
  std::vector<EngineSend> OnJoin(std::uint64_t client_id);

  /// A complete kUpdate arrived from `client_id` (already frame-decoded).
  /// Moves the update into the current round's buffer and closes the round
  /// when the buffer reaches the close target. A violation — unknown/ghost
  /// sender, id mismatch, a round from the future, a duplicate for one leg,
  /// or a state size mismatch — drops the sender as a protocol error.
  std::vector<EngineSend> OnUpdate(std::uint64_t client_id, UpdateMsg m);

  /// `client_id`'s connection is gone (drop == fl/fault.h kDropout). The
  /// close condition is re-evaluated: a round waiting only on the vanished
  /// client completes from the survivors, exactly like the in-process
  /// engine under an equivalent FaultPlan.
  std::vector<EngineSend> OnDisconnect(std::uint64_t client_id);

  /// True once total_rounds rounds have closed. Clients that were waiting
  /// at the last close have received kFinal; in-flight stragglers receive
  /// it in reply to their late update (OnUpdate never errors on them).
  bool done() const { return done_; }

  /// True once the run is done() AND every fleet id is settled: it received
  /// kFinal, or it disconnected/violated the protocol after joining. A fleet
  /// id that never joined is unsettled — the server keeps serving so a slow
  /// starter can still collect the result (the join itself answers kWelcome
  /// + kFinal once done()). This is what CipServer's drain_fleet shutdown
  /// condition waits on; without it, a quorum run that finishes before the
  /// slowest client ever connects would strand that client.
  bool fleet_settled() const {
    return done_ && settled_.size() == options_.fleet_size;
  }

  /// The current global model (the final aggregate once done()).
  const fl::ModelState& global() const { return global_; }

  /// The 1-based round currently accepting updates (total_rounds after the
  /// run ends).
  std::size_t current_round() const { return round_; }

  /// Clients currently admitted and connected.
  std::size_t live_clients() const { return live_.size(); }

  /// Run-wide counters (see EngineStats).
  const EngineStats& stats() const { return stats_; }

  /// Per-round telemetry in the fl/telemetry.h shape: one RoundStats per
  /// closed round with survivors / skipped / folded_stragglers filled in.
  const fl::RoundTelemetry& telemetry() const { return telemetry_; }

 private:
  /// Close the current round if the buffer has reached the close target
  /// min(quorum, live + never-joined); appends the broadcasts to `out`.
  void MaybeCloseRound(std::vector<EngineSend>& out);
  /// Drop `client_id` for violating the protocol.
  std::vector<EngineSend> ProtocolError(std::uint64_t client_id);
  /// The kRound frame for the current round, encoded once from global_ in
  /// place; every recipient of the broadcast shares it.
  std::shared_ptr<const std::string> RoundFrame() const;

  struct Buffered {
    fl::ModelState update;
    float loss = 0.0f;
    bool straggler = false;  ///< trained against an older round's global
  };

  Options options_;
  fl::ModelState global_;
  std::size_t round_ = 1;  ///< 1-based round currently accepting updates
  bool done_ = false;
  std::set<std::uint64_t> live_;     ///< admitted, connected client ids
  std::set<std::uint64_t> ever_joined_;  ///< ids that have connected at least once
  std::set<std::uint64_t> waiting_;  ///< live ids buffered for this round
  std::set<std::uint64_t> settled_;  ///< got kFinal, or left after joining
  std::map<std::uint64_t, Buffered> buffer_;  ///< id -> update (sorted fold)
  EngineStats stats_;
  fl::RoundTelemetry telemetry_;
};

}  // namespace cip::net
