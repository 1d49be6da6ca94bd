// wire_mixed: round traffic and queries sharing one server loop.
//
// Three closed-loop round clients exchange ~1 MiB model payloads (262,144
// floats) with a CipServer whose fleet is 3 with quorum 2, so the slowest
// update of a round folds into the next one as a straggler. Each client
// answers a kRound with a fixed per-client update, re-stamped with the
// round number, so the generator's own cost per update is a copy. A fourth
// connection sends open-loop kQuery traffic at a fixed low rate against a
// warm t-cache. Closing a round decodes, folds and encodes ~1 MiB on the
// thread that also answers the queries, so a gain for rounds that costs
// query latency shows here.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fl/aggregate.h"
#include "loadgen.h"
#include "serve/serve_engine.h"

namespace perfbench {
namespace {

using namespace cip;

constexpr std::size_t kPayloadFloats = 262144;
constexpr std::size_t kRoundClients = 3;
constexpr std::size_t kQuorum = 2;
/// Rounds per run: --seconds at the rate this workload closes rounds on a
/// 4-core host, but never fewer than a round-close p99 needs for 10
/// samples beyond it.
constexpr double kNominalRoundsPerS = 180.0;
constexpr double kQueryRate = 500.0;
constexpr std::size_t kServeFleet = 256;
constexpr std::size_t kSetupReps = 3;
/// Latency limit the generator's lateness is judged against: a run whose
/// generator lateness p99 exceeds kMaxLateShare of it is invalid.
constexpr double kLimitMs = 50.0;
constexpr double kMaxLateShare = 0.2;
constexpr std::size_t kCheckEvery = 50, kCheckMax = 200;
/// Rates and medians are taken per tenth of the run (the p99s, which need
/// 1,000 samples, over the whole run) and the ten are combined by
/// TrimmedMean: a stall of the host (CPU steal comes in bursts of seconds
/// on a virtual machine) that hits one tenth does not move the run's
/// figures. Each round churns megabytes of freshly faulted pages through
/// glibc's adaptive mmap and trim thresholds, and a run steps between a
/// faster and a slower regime of that churn at moments that vary from run
/// to run; the trimmed mean weighs the two by time.
constexpr std::size_t kSegments = 10;

/// Everything set-up builds; the wire goes first on destruction, since
/// its server borrows the serving engine.
struct Service {
  Serving serving;
  std::vector<std::string> updates;  ///< one encoded kUpdate per client
  std::size_t rounds = 0;
  Wire wire;  ///< conns [0, 3): round clients; 3: queries
};

std::unique_ptr<Service> Setup(const Options& opts) {
  const std::uint64_t seed = opts.seed;
  auto s = std::make_unique<Service>();
  std::vector<std::size_t> all(kServeFleet);
  std::iota(all.begin(), all.end(), std::size_t{0});
  s->serving = MakeServing(seed, kServeFleet, all);

  Rng init_rng = DeriveStream(seed, 4, 0);
  std::vector<float> init(kPayloadFloats);
  for (float& v : init) v = init_rng.Normal(0.0f, 0.01f);
  for (std::size_t k = 0; k < kRoundClients; ++k) {
    net::UpdateMsg u;
    u.client_id = k;
    u.loss = 0.5f;
    std::vector<float> v = init;
    for (std::size_t j = 0; j < v.size(); ++j) {
      v[j] += 0.001f * static_cast<float>((k + 1) * (j % 7));
    }
    u.update = fl::ModelState(std::move(v));
    s->updates.push_back(net::EncodeUpdate(u));
  }
  s->rounds = std::max<std::size_t>(
      MinSamplesFor(0.99) + 1,
      static_cast<std::size_t>(opts.seconds * kNominalRoundsPerS));
  net::AsyncRoundEngine::Options eo;
  eo.total_rounds = s->rounds;
  eo.fleet_size = kRoundClients;
  eo.quorum = kQuorum;
  eo.min_quorum = 1;
  eo.run_seed = seed;
  s->wire = StartWire(fl::ModelState(std::move(init)), eo,
                      *s->serving.engine, kRoundClients + 1);
  return s;
}

struct Pass {
  std::vector<Query> qs;
  std::vector<std::int64_t> closes;  ///< when each round's close was seen
  std::vector<std::string> finals;   ///< kFinal payload per round client
  std::vector<double> update_ms;     ///< generator cost per update sent
  std::vector<std::int64_t> update_sent;  ///< when each update was sent
  std::int64_t t0 = 0, end = 0;      ///< the timed region
  std::size_t unexpected = 0;        ///< frames no client should receive
  double server_cpu_s = 0.0;
  serve::ServeStats serve;
  net::ServerStats server;
  net::EngineStats engine;
  fl::ModelState global;
  std::vector<SpanRecord> spans;
};

Pass RunPass(Service& s, const Options& opts, bool traced) {
  Pass p;
  p.finals.resize(kRoundClients);
  Rng rng = DeriveStream(opts.seed, 10, 0);
  const std::uint32_t update_name = trace::Intern("gen.update");
  std::size_t finals = 0, answered = 0, last_round = 0;
  Conn& qconn = s.wire.conns[kRoundClients];
  const auto on_frame = [&](std::size_t ci, net::Frame& f) {
    if (ci == kRoundClients) {
      OnReply(qconn, p.qs, f);
      ++answered;
      return;
    }
    const std::int64_t now = NowNs();
    switch (f.type) {
      case net::MsgType::kWelcome:
        return;
      case net::MsgType::kRound: {
        const std::uint64_t round = ReadU64(f.payload, 0);
        if (round > last_round) {
          if (last_round > 0) p.closes.push_back(now);
          last_round = round;
        }
        const trace::Scope span(update_name, round, ci);
        std::string& frame = s.updates[ci];
        PatchU64(frame, kUpdateRoundOffset, round);
        SendBytes(s.wire.conns[ci], frame);
        Flush(s.wire.conns[ci], p.qs);
        p.update_ms.push_back(static_cast<double>(NowNs() - now) / 1e6);
        p.update_sent.push_back(now);
        return;
      }
      case net::MsgType::kFinal:
        if (finals == 0) p.closes.push_back(now);
        p.finals[ci] = std::move(f.payload);
        ++finals;
        return;
      default:
        ++p.unexpected;
        return;
    }
  };

  trace::Enable(traced);
  const double cpu0 = s.wire.thread->CpuSeconds();
  const std::int64_t t0 = NowNs();
  for (std::size_t k = 0; k < kRoundClients; ++k) {
    net::HelloMsg h;
    h.client_id = k;
    SendBytes(s.wire.conns[k], net::EncodeHello(h));
    Flush(s.wire.conns[k], p.qs);
  }
  std::int64_t due = t0;
  const std::int64_t give_up =
      t0 + static_cast<std::int64_t>((opts.seconds * 4.0 + 20.0) * 1e9);
  std::int64_t end = 0;
  while (true) {
    const std::int64_t now = NowNs();
    if (finals < kRoundClients) {
      // Open-loop queries, generated one ahead, until the rounds finish.
      while (p.qs.empty() || p.qs.back().due_ns <= now) {
        if (!p.qs.empty()) {
          SendQuery(qconn, p.qs, p.qs.size() - 1, s.serving.pool);
        }
        const double u = static_cast<double>(rng.NextU64() >> 11) * 0x1.0p-53;
        due += static_cast<std::int64_t>(-std::log1p(-u) / kQueryRate * 1e9);
        Query q;
        q.due_ns = due;
        q.client = static_cast<std::uint32_t>(rng.Index(kServeFleet));
        q.pool = static_cast<std::uint32_t>(
            rng.Index(s.serving.pool.frames.size()));
        q.keep = rng.Index(kCheckEvery) == 0;
        p.qs.push_back(q);
      }
    } else if (end == 0) {
      end = now;
      p.qs.pop_back();  // generated ahead, never due
    }
    const std::size_t sent_queries = end == 0 ? p.qs.size() - 1 : p.qs.size();
    if (end != 0 && answered == sent_queries) break;
    if (now > give_up || qconn.failed) break;
    const std::int64_t wake = end == 0 ? p.qs.back().due_ns : now + 1'000'000;
    Pump(s.wire.conns, p.qs, wake, on_frame);
  }
  if (end == 0) end = NowNs();
  p.t0 = t0;
  p.end = end;
  p.server_cpu_s = s.wire.thread->CpuSeconds() - cpu0;
  s.wire.thread->Stop();
  trace::Enable(false);
  if (traced) p.spans = trace::Collect();
  p.serve = ServeDelta(s.serving.engine->stats(), s.serving.before);
  p.server = s.wire.server->stats();
  p.engine = s.wire.server->engine().stats();
  p.global = s.wire.server->engine().global();
  return p;
}

std::vector<Value> NamedMetrics(const Pass& p, Report* rep) {
  const auto seg_len = (p.end - p.t0) / static_cast<std::int64_t>(kSegments);
  const auto seg_of = [&](std::int64_t t) {
    return static_cast<std::size_t>(std::clamp<std::int64_t>(
        (t - p.t0) / seg_len, 0, kSegments - 1));
  };
  std::vector<std::vector<double>> rounds(kSegments), lat(kSegments);
  std::vector<double> updates(kSegments, 0.0);
  std::vector<double> all_rounds;
  for (std::size_t i = 1; i < p.closes.size(); ++i) {
    const double ms = static_cast<double>(p.closes[i] - p.closes[i - 1]) / 1e6;
    rounds[seg_of(p.closes[i])].push_back(ms);
    all_rounds.push_back(ms);
  }
  for (const std::int64_t t : p.update_sent) updates[seg_of(t)] += 1.0;
  const std::vector<double> all_lat = LatenciesMs(p.qs, 0, p.qs.size());
  for (std::size_t i = 0; i < p.qs.size(); ++i) {
    lat[seg_of(p.qs[i].due_ns)].push_back(all_lat[i]);
  }
  std::vector<double> rate, r50, q50;
  for (std::size_t g = 0; g < kSegments; ++g) {
    rate.push_back(updates[g] / (static_cast<double>(seg_len) / 1e9));
    r50.push_back(NearestRank(rounds[g], 0.5).value);
    q50.push_back(NearestRank(lat[g], 0.5).value);
    if (rep != nullptr) {
      rep->notes.push_back(
          "segment " + std::to_string(g) + ": " + std::to_string(rate.back()) +
          " updates/s, round p50 " + std::to_string(r50.back()) +
          " ms, query p50 " + std::to_string(q50.back()) + " ms");
    }
  }
  return {
      {"client_rounds_per_s", TrimmedMean(rate), "1/s", "higher",
       p.update_sent.size()},
      {"round_p50_ms", TrimmedMean(r50), "ms", "lower", all_rounds.size()},
      {"round_p99_ms", NearestRank(all_rounds, 0.99).value, "ms", "lower",
       all_rounds.size()},
      {"query_p50_ms", TrimmedMean(q50), "ms", "lower", p.qs.size()},
      {"query_p99_ms", NearestRank(all_lat, 0.99).value, "ms", "lower",
       p.qs.size()},
  };
}

Percentile Lateness(const Pass& p) {
  return NearestRank(LatenessMs(p.qs, 0, p.qs.size()), 0.99);
}

void CheckAndAccount(Service& s, const Pass& p, Report& rep) {
  std::size_t finals_ok = 0;
  for (const std::string& payload : p.finals) {
    if (payload.empty()) continue;
    const fl::ModelState got = net::DecodeFinal(payload).global;
    finals_ok += got.size() == p.global.size() &&
                 std::memcmp(got.values().data(), p.global.values().data(),
                             got.size() * sizeof(float)) == 0;
  }
  rep.Check(finals_ok == kRoundClients,
            "wire_mixed: " + std::to_string(finals_ok) + " of " +
                std::to_string(kRoundClients) +
                " round clients got a kFinal equal to the server's global");
  rep.Check(p.engine.rounds_completed == s.rounds,
            "wire_mixed: " + std::to_string(p.engine.rounds_completed) +
                " rounds aggregated, planned " + std::to_string(s.rounds));
  CheckReplies("wire_mixed", *s.serving.engine, s.serving.pool, p.qs,
               kCheckMax, rep);

  rep.attempted = p.update_sent.size() + p.qs.size();
  std::size_t bad_queries = 0;
  for (const Query& q : p.qs) bad_queries += q.done_ns == 0 || q.refused;
  rep.failed = bad_queries + (kRoundClients - finals_ok) + p.unexpected +
               p.server.protocol_errors + p.server.busy_rejections +
               p.server.dropped_connections + p.engine.protocol_errors +
               p.engine.rounds_skipped;
  rep.succeeded = rep.attempted > rep.failed ? rep.attempted - rep.failed : 0;
  const double late = Lateness(p).value;
  if (late > kMaxLateShare * kLimitMs) {
    rep.invalid_reasons.push_back(
        "generator lateness p99 " + std::to_string(late) + " ms exceeds " +
        std::to_string(kMaxLateShare * kLimitMs) + " ms");
  }
  rep.notes.push_back(
      "rounds " + std::to_string(p.engine.rounds_completed) + ", updates " +
      std::to_string(p.engine.updates_accepted) + " (stragglers " +
      std::to_string(p.engine.folded_stragglers) + "), queries " +
      std::to_string(p.qs.size()) + ", generator lateness p99 " +
      std::to_string(late) + " ms");
}

void LayerMetrics(Service& s, const Pass& p, Report& rep) {
  const double rounds = static_cast<double>(p.engine.rounds_completed);
  rep.layer.push_back(
      {"serve.rows_per_flush",
       p.serve.batches ? static_cast<double>(p.serve.rows) / p.serve.batches
                       : 0.0,
       "rows", "higher", p.serve.batches});
  const double wall_s = static_cast<double>(p.end - p.t0) / 1e9;
  rep.layer.push_back({"net.server.cpu_share", p.server_cpu_s / wall_s,
                       "ratio", "lower", 1});
  rep.layer.push_back({"net.engine.stragglers_per_round",
                       static_cast<double>(p.engine.folded_stragglers) / rounds,
                       "count", "lower", p.engine.rounds_completed});
  rep.layer.push_back(
      {"net.bytes_per_round",
       static_cast<double>(p.server.bytes_sent + p.server.bytes_received) /
           rounds,
       "B", "lower", p.engine.rounds_completed});
  const Percentile late = Lateness(p);
  rep.layer.push_back(
      {"gen.lateness_p99_ms", late.value, "ms", "lower", late.samples});
  rep.layer.push_back({"gen.update_ms", Median(p.update_ms), "ms", "lower",
                       p.update_ms.size()});

  // Probes at the payload size, on this thread (the server has stopped).
  constexpr std::size_t kReps = 30;
  net::RoundMsg rm;
  rm.round = 1;
  rm.global = p.global;
  const std::uint32_t enc = trace::Intern("net.frame.round_encode");
  const std::uint32_t dec = trace::Intern("net.frame.update_decode");
  const std::uint32_t fold = trace::Intern("fl.aggregate.fold");
  const double encode_ms = MedianMs(kReps, [&] {
    const trace::Scope span(enc);
    (void)net::EncodeRound(rm);
  });
  const std::string payload = s.updates[0].substr(net::kFrameHeaderBytes);
  const double decode_ms = MedianMs(kReps, [&] {
    const trace::Scope span(dec);
    (void)net::DecodeUpdate(payload);
  });
  std::vector<fl::ModelState> ups;
  for (const std::string& u : s.updates) {
    ups.push_back(net::DecodeUpdate(u.substr(net::kFrameHeaderBytes)).update);
  }
  std::vector<std::vector<fl::ModelState>> copies(kReps + 1);
  for (auto& c : copies) c.assign(ups.begin(), ups.begin() + kQuorum);
  std::size_t rep_i = 0;
  const double fold_ms = MedianMs(kReps, [&] {
    const trace::Scope span(fold);
    fl::TreeAccumulator acc;
    for (fl::ModelState& u : copies[rep_i]) acc.Add(std::move(u));
    (void)acc.FinishMean();
    ++rep_i;
  });
  rep.layer.push_back(
      {"net.frame.round_encode_ms", encode_ms, "ms", "lower", kReps});
  rep.layer.push_back(
      {"net.frame.update_decode_ms", decode_ms, "ms", "lower", kReps});
  rep.layer.push_back({"fl.aggregate.fold_ms", fold_ms, "ms", "lower", kReps});
}

}  // namespace

Report RunWireMixed(const Options& opts) {
  Report rep;
  rep.threads = ParallelThreads();
  std::unique_ptr<Service> svc =
      TimedSetups(kSetupReps, rep, [&] { return Setup(opts); });
  const Pass plain = RunPass(*svc, opts, /*traced=*/false);
  const std::vector<Value> named = NamedMetrics(plain, &rep);
  rep.named.insert(rep.named.end(), named.begin(), named.end());
  rep.Gate("throughput_per_s", "client_rounds_per_s");
  rep.Gate("latency_ms", "round_p50_ms");
  rep.Gate("setup_s", "setup_s");
  CheckAndAccount(*svc, plain, rep);

  if (opts.trace) {
    svc.reset();
    svc = Setup(opts);
    Pass traced = RunPass(*svc, opts, /*traced=*/true);
    rep.traced_named = NamedMetrics(traced, nullptr);
    trace::Enable(true);
    LayerMetrics(*svc, traced, rep);
    trace::Enable(false);
    FinishTrace(opts, std::move(traced.spans), rep);
  }
  return rep;
}

}  // namespace perfbench
