// The benchmark's load generator: one thread driving non-blocking loopback
// connections to a CipServer running on its own thread.
//
// Open-loop queries are timed from when each was due, so a stall in the
// server also delays the queries behind it (no coordinated omission), and
// the generator reports how late it ran. Query frames are encoded once per
// input in set-up; only the client-id field is rewritten per query, so the
// generator itself builds no tensors while the clock runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "fl/client_store.h"
#include "fl/model_state.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "nn/backbones.h"
#include "bench.h"
#include "serve/serve_engine.h"
#include "stats.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Write a little-endian u64 into `frame` at byte `off` (frame fields such
/// as a kQuery's client id or a kUpdate's round, docs/PROTOCOL.md).
void PatchU64(std::string& frame, std::size_t off, std::uint64_t v);
/// Read a little-endian u64 from `bytes` at `off`.
std::uint64_t ReadU64(const std::string& bytes, std::size_t off);

/// Byte offset of the round in an encoded kUpdate frame.
inline constexpr std::size_t kUpdateRoundOffset = cip::net::kFrameHeaderBytes;

/// Query inputs the generator draws from: rows mostly 1, sometimes 2-8.
struct QueryPool {
  std::vector<cip::Tensor> inputs;       ///< [rows, ...sample]
  std::vector<std::string> frames;  ///< EncodeQuery(client 0, inputs[i])
};

/// One open-loop query and what became of it.
struct Query {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;  ///< generator appended it to the socket (0: never)
  std::int64_t done_ns = 0;  ///< its kLogits was fully read (0: unanswered)
  std::uint32_t client = 0;
  std::uint32_t pool = 0;   ///< index into the QueryPool
  bool keep = false;        ///< store the reply for the output check
  bool refused = false;     ///< answered with something other than kLogits
  std::string reply;        ///< kLogits payload when keep
};

/// `count` Poisson arrivals at `rate` per second from start_ns on.
std::vector<std::int64_t> PoissonDue(double rate, std::size_t count,
                                     std::int64_t start_ns, cip::Rng& rng);

/// Latency of each query in ms (+inf when unanswered), over [lo, hi).
std::vector<double> LatenciesMs(const std::vector<Query>& qs, std::size_t lo,
                                std::size_t hi);

/// How late the generator sent each of queries [lo, hi) that it sent, in
/// ms: send time minus due time.
std::vector<double> LatenessMs(const std::vector<Query>& qs, std::size_t lo,
                               std::size_t hi);

/// Output check: the logits served for the kept queries (at most
/// `max_checks` of them) must match an in-process Serve of the same
/// (client, rows) on `engine` within the cross-regime kernel tolerance of
/// docs/KERNELS.md (1e-5, relative). Failures go to rep under `workload`.
void CheckReplies(const std::string& workload, cip::serve::ServeEngine& engine,
                  const QueryPool& pool, const std::vector<Query>& qs,
                  std::size_t max_checks, Report& rep);

/// One non-blocking connection with its frame parser and outbox.
struct Conn {
  cip::net::Socket sock;
  cip::net::FrameReader reader;
  std::string outbox;
  std::size_t out_off = 0;
  std::uint64_t appended = 0;  ///< bytes ever appended to the outbox
  std::uint64_t sent = 0;      ///< bytes ever handed to the kernel
  /// Queries whose bytes are queued: (appended-count at their end, index).
  std::deque<std::pair<std::uint64_t, std::size_t>> sending;
  /// Queries fully sent and awaiting their kLogits, in order.
  std::deque<std::size_t> inflight;
  std::int64_t rx_start_ns = 0;  ///< when the current read burst began
  bool failed = false;
};

/// Send query qi: stamp its client id into its pool frame, append the
/// frame, remember where it ends, and try to flush.
void SendQuery(Conn& c, std::vector<Query>& qs, std::size_t qi,
               QueryPool& pool);
/// Append raw bytes (round traffic); the caller flushes.
void SendBytes(Conn& c, const std::string& bytes);
/// Push queued bytes until the socket would block; marks queries sent.
void Flush(Conn& c, std::vector<Query>& qs);

/// One wait-and-service cycle over the connections: waits until a socket is
/// ready or `wake_ns` passes, flushes writable outboxes, and hands every
/// complete inbound frame to `on_frame(conn index, frame)`.
void Pump(std::vector<Conn>& conns, std::vector<Query>& qs,
          std::int64_t wake_ns,
          const std::function<void(std::size_t, cip::net::Frame&)>& on_frame);

/// Answer to a kLogits frame: pop the connection's oldest in-flight query.
void OnReply(Conn& c, std::vector<Query>& qs, cip::net::Frame& f);

/// Serving counters accumulated between two snapshots.
cip::serve::ServeStats ServeDelta(const cip::serve::ServeStats& now,
                             const cip::serve::ServeStats& before);

/// The served side of both network workloads: a Purchase-like MLP (200-d,
/// 50 classes, width 16) behind a ServeEngine over a cold store of CIP
/// clients, and the query inputs the generator draws from.
struct Serving {
  std::shared_ptr<const cip::data::SyntheticPurchase> gen;
  cip::nn::ModelSpec spec;
  std::unique_ptr<cip::fl::ClientStore> store;
  std::unique_ptr<cip::nn::DualChannelClassifier> model;
  std::unique_ptr<cip::serve::ServeEngine> engine;
  QueryPool pool;
  cip::serve::ServeStats before;  ///< counters once the t-cache is warm
};

/// Build the served side of a `fleet`-client store from `seed`, then warm
/// the t-cache with one in-process query for each of `warm_ids`.
Serving MakeServing(std::uint64_t seed, std::size_t fleet,
                    const std::vector<std::size_t>& warm_ids);

/// Runs the server's own loop on its own thread: Step(timeout_ms), as
/// CipServer::Serve does with ServerOptions::poll_timeout_ms, until stopped.
/// CipServer accepts calls from one thread only, so the server's stats are
/// read after Stop().
class ServerThread {
 public:
  /// Start stepping `server`, recording a net.server.step span around
  /// every Step (its wait in poll(2) included) when tracing is on.
  ServerThread(cip::net::CipServer& server, int timeout_ms);
  ~ServerThread();
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  /// CPU time the loop thread has used so far (CLOCK_THREAD_CPUTIME_ID of
  /// that thread); only while it runs, i.e. before Stop().
  double CpuSeconds();
  /// Stop stepping and join (within one poll timeout); rethrows what the
  /// loop threw.
  void Stop();

 private:
  cip::net::CipServer& server_;
  int timeout_ms_;
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after the members it uses
};

/// A listening CipServer that serves `engine`, stepping on its own thread,
/// and the generator's connections to it. Members are destroyed in reverse
/// order: the connections close, the thread stops, then the server goes.
struct Wire {
  std::unique_ptr<cip::net::CipServer> server;
  std::unique_ptr<ServerThread> thread;
  std::vector<Conn> conns;
};

/// Start a Wire whose server begins from `initial` with engine options
/// `eo`, and open `conns` connections to it.
Wire StartWire(cip::fl::ModelState initial,
               const cip::net::AsyncRoundEngine::Options& eo,
               cip::serve::ServeEngine& engine, std::size_t conns);

}  // namespace perfbench
