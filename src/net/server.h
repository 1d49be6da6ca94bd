// Single-threaded poll(2) event loop around AsyncRoundEngine — the cip_server
// binary's core, also driven in-process by tests and the load bench.
//
// Threading: none. The repo confines <thread> to common/parallel.cpp, and a
// round server's work is I/O-bound multiplexing plus one aggregation fold per
// round — a readiness loop handles ~1k connections on one core (the load
// bench measures exactly that). The loop is exposed as Step(timeout_ms), one
// poll cycle per call, so a bench or test can interleave the server with a
// client load generator in a single thread; Serve() is the run-to-completion
// wrapper the binary uses.
//
// Backpressure and admission control (docs/PROTOCOL.md §6): at most
// ServerOptions::max_connections peers are admitted — the rest receive kBusy
// with a retry-after hint and an orderly close. Each connection's receive
// side is bounded by the FrameReader payload cap, and its send side by
// ServerOptions::max_send_buffer: a peer that stops draining its socket
// while broadcasts pile up is dropped (== client dropout) instead of growing
// the server's memory without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/round_engine.h"
#include "net/socket.h"

namespace cip::serve {
class ServeEngine;
}  // namespace cip::serve

namespace cip::net {

/// Listener + admission + backpressure knobs for CipServer.
struct ServerOptions {
  std::string host = "127.0.0.1";  ///< dotted IPv4 to bind
  std::uint16_t port = 0;          ///< 0 = ephemeral (read back via port())
  int backlog = 128;               ///< listen(2) backlog
  /// Admitted-connection cap; peers beyond it get kBusy + close.
  std::size_t max_connections = 1024;
  /// Retry hint carried in kBusy frames.
  std::uint32_t busy_retry_ms = 50;
  /// Per-connection inbound frame payload cap (FrameReader bound).
  std::uint64_t max_frame_payload = kDefaultMaxPayloadBytes;
  /// Per-connection outbound buffer cap; a peer that lets this fill is
  /// dropped (slow-consumer backpressure). Must hold at least one full
  /// frame (kRound with the broadcast global).
  std::size_t max_send_buffer = std::size_t{64} << 20;  // 64 MiB
  /// Step() poll timeout used by Serve(), in milliseconds.
  int poll_timeout_ms = 50;
  /// Keep serving after the last round until every fleet id is settled
  /// (AsyncRoundEngine::fleet_settled): a quorum run can finish before the
  /// slowest client has even connected, and without draining, that client
  /// would dial a server that already shut down. Disable for load drivers
  /// (the bench) that own both sides and stop on their own clock.
  bool drain_fleet = true;
};

/// Event-loop counters (connection plumbing; round semantics live in
/// EngineStats).
struct ServerStats {
  std::size_t accepted_connections = 0;  ///< connections taken off the listener
  std::size_t busy_rejections = 0;       ///< kBusy-and-close admissions
  std::size_t dropped_connections = 0;   ///< peers lost to error/EOF/backpressure
  std::size_t protocol_errors = 0;       ///< peers dropped for bad bytes/frames
  std::uint64_t bytes_received = 0;      ///< total inbound payload traffic
  std::uint64_t bytes_sent = 0;          ///< total outbound traffic
  std::size_t queries_answered = 0;      ///< kQuery frames answered with kLogits
};

/// The standalone FL server: owns the listener, the per-connection buffers,
/// and an AsyncRoundEngine; maps socket events onto engine events.
class CipServer {
 public:
  /// Configure a run. Nothing touches the network until Listen().
  CipServer(fl::ModelState initial, AsyncRoundEngine::Options engine_options,
            ServerOptions options);
  ~CipServer();
  CipServer(const CipServer&) = delete;
  CipServer& operator=(const CipServer&) = delete;

  /// Bind and start listening; throws cip::CheckError on failure. Call
  /// before spawning clients so the port is accepting by the time they
  /// connect.
  void Listen();

  /// The bound port (after Listen(); resolves port 0 to the ephemeral pick).
  std::uint16_t port() const;

  /// Run one poll cycle: accept, read, dispatch frames to the engine, flush
  /// writes, reap dead connections. Waits at most timeout_ms for readiness
  /// (0 = non-blocking). Returns true while the run still has work to do —
  /// i.e. !finished().
  bool Step(int timeout_ms);

  /// Drive Step() until the run is finished (all rounds closed and every
  /// connection drained and closed).
  void Serve();

  /// True once the engine is done, every connection is drained and closed,
  /// and (with ServerOptions::drain_fleet) every fleet id is settled.
  bool finished() const;

  /// Attach a serving engine: kQuery frames become batched inference against
  /// it, answered with kLogits (docs/PROTOCOL.md §Serving). All kQuery
  /// frames read in one poll cycle coalesce into ONE ServeEngine::Flush —
  /// the wire front door inherits the engine's fused blend+forward batching
  /// across connections. The engine is borrowed and must outlive the server;
  /// pass nullptr to detach (kQuery reverts to a protocol error). Queries
  /// obey the same admission (kBusy + retry) and send-buffer backpressure
  /// rules as round traffic.
  void EnableServing(serve::ServeEngine* engine) { serve_ = engine; }

  /// The attached serving engine, or nullptr when not serving.
  serve::ServeEngine* serving() const { return serve_; }

  /// The round state machine (globals, round counters, EngineStats).
  const AsyncRoundEngine& engine() const { return *engine_; }

  /// Event-loop counters.
  const ServerStats& stats() const { return stats_; }

 private:
  struct Connection;

  /// One kQuery awaiting this step's coalesced Flush: the connection to
  /// answer and its row span within the fused batch.
  struct PendingQuery {
    Connection* conn;
    std::size_t row_begin;
    std::size_t rows;
  };

  void AcceptPending();
  /// Read whatever is available, feed the frame parser, dispatch frames.
  void HandleReadable(Connection& c);
  /// Dispatch one parsed frame from connection `c` to the engine; `f`
  /// views c's reader buffer.
  void HandleFrame(Connection& c, const FrameView& f);
  /// Send `frame` to `c`: straight from `frame` while c's outbox is empty,
  /// queueing only the bytes the socket did not take. Follow it with
  /// FlushWrites(c), which reports a send error and completes a close.
  void Enqueue(Connection& c, std::string_view frame);
  /// Send engine-produced frames to the addressed connections.
  void ApplySends(const std::vector<EngineSend>& sends);
  /// Run the step's coalesced ServeEngine::Flush and answer every pending
  /// kQuery with its logits slice.
  void FlushQueries();
  void FlushWrites(Connection& c);
  /// Drop a connection now, informing the engine when it was admitted.
  void Drop(Connection& c, bool count_protocol_error);
  /// Erase connections marked dead and finished flushing.
  void Reap();

  ServerOptions options_;
  std::unique_ptr<AsyncRoundEngine> engine_;
  Socket listener_;
  std::vector<std::unique_ptr<Connection>> connections_;
  /// Admitted client id -> connection, for round-close broadcasts.
  std::unordered_map<std::uint64_t, Connection*> by_id_;
  ServerStats stats_;
  serve::ServeEngine* serve_ = nullptr;       ///< borrowed; null = not serving
  std::vector<PendingQuery> pending_queries_; ///< cleared every FlushQueries
};

}  // namespace cip::net
