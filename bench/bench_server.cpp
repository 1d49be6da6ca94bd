// Standalone-server load gate (the cip_server_gate ctest).
//
// Drives the socket server (net/server.h) with ~1k concurrent TCP clients
// from a single thread: one CipServer::Step(0) interleaved with a poll(2)
// loop over non-blocking client state machines, all on loopback. Checks the
// wire stack and exits non-zero when a check fails:
//   1. load — 1000 concurrent connections, first-900-of-1000 asynchronous
//      rounds, 20 rounds: every round closes, stragglers fold into the next
//      round, zero protocol errors; >= 1.0 rounds/sec and peak RSS
//      <= 256 MiB. Reports steady-state p50/p99 round-close latency.
//   2. admission — 10 extra dials beyond max_connections must each receive
//      kBusy with a retry hint and an orderly close.
//   3. determinism — a small synchronous run (quorum == fleet) over real
//      sockets must be bit-identical to feeding AsyncRoundEngine directly,
//      and every client's kFinal payload must equal the server's aggregate.
//
// No training happens here: clients answer each kRound with a cheap
// deterministic function of (global, round, id), so the numbers measure
// framing, multiplexing and the aggregation fold — not SGD.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "net/frame.h"
#include "net/round_engine.h"
#include "net/server.h"
#include "net/socket.h"

using namespace cip;
using namespace cip::net;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMaxPeakRssMib = 256.0;
constexpr double kMinRoundsPerSecond = 1.0;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool SameBits(const fl::ModelState& a, const fl::ModelState& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.values().data(), b.values().data(),
                                   a.size() * sizeof(float)) == 0);
}

/// Deterministic non-trivial initial global: the run must aggregate real
/// numbers, not zeros, for the bit-identity check to mean anything.
fl::ModelState InitialState(std::size_t floats) {
  std::vector<float> v(floats);
  for (std::size_t j = 0; j < floats; ++j) {
    v[j] = 0.001f * static_cast<float>(j % 97) - 0.048f;
  }
  return fl::ModelState(std::move(v));
}

/// The stand-in for local training: a pure function of (global, round, id),
/// identical on the wire path and the direct-engine path so the two runs
/// fold byte-identical updates.
fl::ModelState MakeUpdate(const fl::ModelState& global, std::uint64_t round,
                          std::uint64_t id) {
  const std::span<const float> g = global.values();
  std::vector<float> v(g.begin(), g.end());
  for (std::size_t j = 0; j < v.size(); ++j) {
    const std::uint64_t h = id * 31 + round * 7 + j;
    v[j] = 0.9f * v[j] + 0.001f * static_cast<float>(h % 13) - 0.006f;
  }
  return fl::ModelState(std::move(v));
}

/// One non-blocking client state machine for the load loop. An `extra`
/// client never sends kHello — it only exists to be refused with kBusy by
/// admission control.
struct FsmClient {
  enum class State {
    kConnecting,  ///< non-blocking connect in flight (poll for writable)
    kRunning,     ///< connected; exchanging frames
    kDone,        ///< got kFinal (fleet) or kBusy (extra); socket closed
    kFailed,      ///< unexpected EOF/error/frame — the run must not see any
  };

  Socket sock;
  FrameReader reader;
  std::string outbox;  ///< queued bytes; [out_off, size) still unsent
  std::size_t out_off = 0;
  std::uint64_t id = 0;
  State state = State::kConnecting;
  bool extra = false;          ///< dialed past the admission cap, expects kBusy
  bool welcomed = false;       ///< kWelcome received
  bool busy_refused = false;   ///< kBusy received (extras only)
  fl::ModelState final_global; ///< kFinal payload, checked against the server
};

/// Run shape for one socket fleet run.
struct RunConfig {
  std::size_t clients = 1000;      ///< fleet size == admission cap
  std::size_t quorum = 900;        ///< first K of N closes a round
  std::size_t rounds = 20;
  std::size_t model_floats = 2048; ///< ~8 KiB kRound/kUpdate payloads
  std::size_t extra_dials = 10;    ///< over-cap dials that must get kBusy
};

/// Everything a run reports back for the table/JSON.
struct RunResult {
  fl::ModelState final_global;
  double seconds = 0.0;
  std::vector<double> close_ts;  ///< seconds from start, one per round close
  EngineStats estats;
  ServerStats sstats;
  std::size_t busy_seen = 0;     ///< kBusy frames the extra clients received
  bool finals_match = true;      ///< every kFinal payload == server aggregate
  bool any_failed = false;
};

void FlushClient(FsmClient& c) {
  while (c.state == FsmClient::State::kRunning &&
         c.out_off < c.outbox.size()) {
    const IoResult r = SendSome(
        c.sock, std::span<const char>(c.outbox.data() + c.out_off,
                                      c.outbox.size() - c.out_off));
    if (r.would_block) return;
    if (r.error || r.closed) {
      c.state = FsmClient::State::kFailed;
      c.sock.Close();
      return;
    }
    c.out_off += r.bytes;
  }
  if (c.out_off >= c.outbox.size()) {
    c.outbox.clear();
    c.out_off = 0;
  }
}

void OnClientFrame(FsmClient& c, const Frame& f, RunResult& res) {
  switch (f.type) {
    case MsgType::kWelcome:
      DecodeWelcome(f.payload);
      c.welcomed = true;
      return;
    case MsgType::kRound: {
      const RoundMsg r = DecodeRound(f.payload);
      UpdateMsg u;
      u.round = r.round;
      u.client_id = c.id;
      u.loss = 0.5f;
      u.update = MakeUpdate(r.global, r.round, c.id);
      c.outbox.append(EncodeUpdate(u));
      return;
    }
    case MsgType::kFinal: {
      FinalMsg fin = DecodeFinal(f.payload);
      c.final_global = std::move(fin.global);
      c.state = FsmClient::State::kDone;
      c.sock.Close();
      return;
    }
    case MsgType::kBusy:
      DecodeBusy(f.payload);
      c.busy_refused = true;
      ++res.busy_seen;
      c.state = FsmClient::State::kDone;
      c.sock.Close();
      return;
    default:
      c.state = FsmClient::State::kFailed;
      c.sock.Close();
      return;
  }
}

void ReadClient(FsmClient& c, RunResult& res) {
  char buf[16384];
  while (c.state == FsmClient::State::kRunning) {
    const IoResult r = RecvSome(c.sock, std::span<char>(buf, sizeof(buf)));
    if (r.would_block) return;
    if (r.closed || r.error) {
      // The client closes its own socket on kFinal/kBusy, so EOF while
      // still running means the server hung up unexpectedly.
      c.state = FsmClient::State::kFailed;
      c.sock.Close();
      return;
    }
    c.reader.Feed(std::string_view(buf, r.bytes));
    while (c.state == FsmClient::State::kRunning) {
      const std::optional<Frame> f = c.reader.Next();
      if (!f) break;
      OnClientFrame(c, *f, res);
    }
    FlushClient(c);  // a kRound usually queues an update; push it now
  }
}

/// One poll cycle over every live client FSM. timeout_ms bounds the idle
/// wait, exactly like CipServer::Step.
void PumpClients(std::vector<FsmClient>& fsm, int timeout_ms, RunResult& res) {
  std::vector<PollItem> items(fsm.size());
  for (std::size_t i = 0; i < fsm.size(); ++i) {
    const FsmClient& c = fsm[i];
    PollItem& item = items[i];
    const bool live = c.state == FsmClient::State::kConnecting ||
                      c.state == FsmClient::State::kRunning;
    item.fd = live ? c.sock.fd() : -1;
    item.want_read = c.state == FsmClient::State::kRunning;
    item.want_write = c.state == FsmClient::State::kConnecting ||
                      (live && c.out_off < c.outbox.size());
  }
  Poll(items, timeout_ms);
  for (std::size_t i = 0; i < fsm.size(); ++i) {
    FsmClient& c = fsm[i];
    const PollItem& item = items[i];
    if (item.fd < 0) continue;
    if (item.broken) {
      c.state = FsmClient::State::kFailed;
      c.sock.Close();
      continue;
    }
    if (item.writable) {
      // Writability on a connecting socket means the handshake finished.
      if (c.state == FsmClient::State::kConnecting) {
        c.state = FsmClient::State::kRunning;
      }
      FlushClient(c);
    }
    if (item.readable) ReadClient(c, res);
  }
}

/// Drive one full fleet run over real sockets, single-threaded: the server's
/// Step(0) interleaved with the client poll loop until the run finishes and
/// every client reached a terminal state.
RunResult RunFleet(const RunConfig& cfg) {
  AsyncRoundEngine::Options eopts;
  eopts.total_rounds = cfg.rounds;
  eopts.fleet_size = cfg.clients;
  eopts.quorum = cfg.quorum;
  eopts.min_quorum = 1;
  eopts.run_seed = 2026;
  ServerOptions sopts;
  sopts.backlog = 256;
  sopts.max_connections = cfg.clients;
  CipServer server(InitialState(cfg.model_floats), eopts, sopts);
  server.Listen();
  const std::uint16_t port = server.port();

  RunResult res;
  std::vector<FsmClient> fsm;
  fsm.reserve(cfg.clients + cfg.extra_dials);
  std::size_t dialed = 0;
  bool extras_dialed = cfg.extra_dials == 0;
  std::size_t rounds_seen = 0;
  const Clock::time_point t0 = Clock::now();

  const auto pump_server = [&] {
    server.Step(0);
    const std::size_t closed = server.engine().telemetry().rounds.size();
    while (rounds_seen < closed) {
      ++rounds_seen;
      res.close_ts.push_back(SecondsSince(t0));
    }
  };

  while (true) {
    if (dialed < cfg.clients) {
      // Dial in batches well under the listen backlog, pumping the accept
      // loop in between, so the kernel queue never overflows.
      const std::size_t batch = std::min<std::size_t>(64, cfg.clients - dialed);
      for (std::size_t i = 0; i < batch; ++i, ++dialed) {
        FsmClient c;
        c.id = dialed;
        c.sock = ConnectTcpNonBlocking("127.0.0.1", port);
        HelloMsg hello;
        hello.client_id = c.id;
        c.outbox = EncodeHello(hello);
        fsm.push_back(std::move(c));
      }
    } else if (!extras_dialed &&
               std::all_of(fsm.begin(), fsm.end(), [](const FsmClient& c) {
                 return c.welcomed || c.state == FsmClient::State::kDone;
               })) {
      // Every admitted slot is occupied: dials past max_connections must be
      // refused with kBusy. Extras never send kHello — admission control
      // answers before identity is ever claimed.
      for (std::size_t i = 0; i < cfg.extra_dials; ++i) {
        FsmClient c;
        c.id = cfg.clients + i;
        c.sock = ConnectTcpNonBlocking("127.0.0.1", port);
        c.extra = true;
        fsm.push_back(std::move(c));
      }
      extras_dialed = true;
    }

    pump_server();
    // 1 ms idle bound: returns immediately whenever bytes are in flight, and
    // keeps the single-core loop from spinning hot when nothing is.
    PumpClients(fsm, /*timeout_ms=*/1, res);
    pump_server();

    const bool clients_terminal =
        std::all_of(fsm.begin(), fsm.end(), [](const FsmClient& c) {
          return c.state == FsmClient::State::kDone ||
                 c.state == FsmClient::State::kFailed;
        });
    if (server.finished() && dialed == cfg.clients && extras_dialed &&
        clients_terminal) {
      break;
    }
  }

  res.seconds = SecondsSince(t0);
  res.final_global = server.engine().global();
  res.estats = server.engine().stats();
  res.sstats = server.stats();
  for (const FsmClient& c : fsm) {
    if (c.state == FsmClient::State::kFailed) res.any_failed = true;
    if (!c.extra && !SameBits(c.final_global, res.final_global)) {
      res.finals_match = false;
    }
  }
  return res;
}

/// The same run shape fed to AsyncRoundEngine directly — no sockets, no
/// frames. With quorum == fleet the wire run must match this bit-for-bit.
fl::ModelState DirectRun(const RunConfig& cfg) {
  AsyncRoundEngine::Options eopts;
  eopts.total_rounds = cfg.rounds;
  eopts.fleet_size = cfg.clients;
  eopts.quorum = cfg.quorum;
  eopts.min_quorum = 1;
  eopts.run_seed = 2026;
  AsyncRoundEngine eng(InitialState(cfg.model_floats), eopts);
  for (std::uint64_t id = 0; id < cfg.clients; ++id) eng.OnJoin(id);
  for (std::uint64_t r = 1; r <= cfg.rounds; ++r) {
    const fl::ModelState g = eng.global();  // snapshot: the last id closes r
    for (std::uint64_t id = 0; id < cfg.clients; ++id) {
      UpdateMsg u;
      u.round = r;
      u.client_id = id;
      u.loss = 0.5f;
      u.update = MakeUpdate(g, r, id);
      eng.OnUpdate(id, u);
    }
  }
  return eng.global();
}

/// Percentile over `v` (copied and sorted), p in [0, 1].
double PercentileMs(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()))) -
          (p > 0.0 ? 1 : 0));
  return v[idx] * 1000.0;
}

}  // namespace

int main() {
  const RunConfig cfg;
  bench::PrintHeader(
      "Standalone server load — 1k concurrent connections, async rounds",
      "n/a (infrastructure bench; cross-device FL servers multiplex "
      "thousands of clients)",
      "single poll(2) thread sustains the fleet; quorum closes rounds "
      "before stragglers, admission overflow answers kBusy");
  bench::BenchTimer timer;

  EnsureFdLimit(2 * (cfg.clients + cfg.extra_dials) + 64);

  // ---- bit-identity: sockets vs direct engine feed ---------------------------
  // quorum == fleet makes the run synchronous, so the only degrees of freedom
  // left are framing and the event loop — which must contribute nothing.
  RunConfig small;
  small.clients = 8;
  small.quorum = 8;
  small.rounds = 5;
  small.model_floats = 64;
  small.extra_dials = 0;
  const RunResult small_run = RunFleet(small);
  const bool wire_identical =
      !small_run.any_failed && small_run.finals_match &&
      SameBits(small_run.final_global, DirectRun(small));
  std::cout << "determinism (8-client synchronous run, wire vs direct): "
            << (wire_identical ? "bit-identical" : "MISMATCH") << "\n";

  // ---- the 1k-connection load run --------------------------------------------
  const RunResult load = RunFleet(cfg);
  const double rounds_per_second =
      load.close_ts.empty() ? 0.0
                            : static_cast<double>(load.close_ts.size()) /
                                  load.close_ts.back();
  // Steady-state close-to-close latency: the delta series skips the first
  // close, whose timing is dominated by the 1k-connection ramp-up.
  std::vector<double> deltas;
  for (std::size_t i = 1; i < load.close_ts.size(); ++i) {
    deltas.push_back(load.close_ts[i] - load.close_ts[i - 1]);
  }
  const double p50_ms = PercentileMs(deltas, 0.50);
  const double p99_ms = PercentileMs(deltas, 0.99);
  const double peak_rss_mib = bench::PeakRssMib();

  TextTable table({"Metric", "Value"});
  table.AddRow({"clients (quorum)", std::to_string(cfg.clients) + " (" +
                                        std::to_string(cfg.quorum) + ")"});
  table.AddRow({"rounds completed",
                std::to_string(load.estats.rounds_completed)});
  table.AddRow({"wall seconds", TextTable::Num(load.seconds, 2)});
  table.AddRow({"rounds/sec", TextTable::Num(rounds_per_second, 2)});
  table.AddRow({"round latency p50 ms", TextTable::Num(p50_ms, 2)});
  table.AddRow({"round latency p99 ms", TextTable::Num(p99_ms, 2)});
  table.AddRow({"updates accepted",
                std::to_string(load.estats.updates_accepted)});
  table.AddRow({"folded stragglers",
                std::to_string(load.estats.folded_stragglers)});
  table.AddRow({"busy rejections",
                std::to_string(load.sstats.busy_rejections)});
  table.AddRow({"protocol errors",
                std::to_string(load.estats.protocol_errors +
                               load.sstats.protocol_errors)});
  table.AddRow({"MiB sent / received",
                TextTable::Num(static_cast<double>(load.sstats.bytes_sent) /
                                   (1 << 20), 1) + " / " +
                    TextTable::Num(
                        static_cast<double>(load.sstats.bytes_received) /
                            (1 << 20), 1)});
  table.AddRow({"peak RSS MiB", TextTable::Num(peak_rss_mib, 1)});
  table.Print(std::cout);

  // ---- gates -----------------------------------------------------------------
  const std::size_t protocol_errors =
      load.estats.protocol_errors + load.sstats.protocol_errors;
  bench::Gate gate;
  gate.Check(wire_identical,
             "wire run bit-identical to the direct engine feed");
  gate.Check(!load.any_failed && load.finals_match,
             "every load client finished with the server's final aggregate");
  gate.Check(load.estats.rounds_completed == cfg.rounds,
             "completed " + std::to_string(load.estats.rounds_completed) +
                 " of " + std::to_string(cfg.rounds) + " rounds");
  gate.Check(load.estats.folded_stragglers > 0,
             "folded " + std::to_string(load.estats.folded_stragglers) +
                 " stragglers (need > 0)");
  gate.Check(load.busy_seen == cfg.extra_dials &&
                 load.sstats.busy_rejections >= cfg.extra_dials,
             std::to_string(load.busy_seen) + " of " +
                 std::to_string(cfg.extra_dials) +
                 " over-cap dials saw kBusy");
  gate.Check(protocol_errors == 0,
             std::to_string(protocol_errors) + " protocol errors (need 0)");
  gate.Floor(rounds_per_second >= kMinRoundsPerSecond,
             "rounds/sec " + TextTable::Num(rounds_per_second, 2) +
                 " (need >= " + TextTable::Num(kMinRoundsPerSecond, 1) + ")");
  gate.Floor(peak_rss_mib <= kMaxPeakRssMib,
             "peak RSS " + TextTable::Num(peak_rss_mib, 1) + " MiB (need <= " +
                 TextTable::Num(kMaxPeakRssMib, 0) + ")");
  return gate.ExitCode();
}
