// serve_open: open-loop kQuery traffic against a serving CipServer.
//
// One generator thread sends Poisson arrivals over 4 loopback connections
// to a CipServer running its poll loop on its own thread, with a
// ServeEngine attached. The model is a Purchase-like MLP (200-d, 50
// classes, width 16) and the fleet is a cold store of 65,536 registered
// clients. Client ids follow a Zipf law (s = 1) over the whole fleet and
// the t-cache keeps its default 4,096 entries, so at least the Zipf mass
// beyond rank 4,096 (23.8%) of the queries miss; the LRU misses more. Each
// miss constructs a whole client to read its t and evicts an entry. Set-up
// fills the cache with what an LRU holds in its steady state under this
// traffic, so the miss share does not drift from the first query on. There
// is no training, aggregation or conv, so this is the no-change workload
// for core, for training in nn, and for conv in tensor.
//
// After a short warm-up, a pass alternates K stretches at the reference
// rate with K closed-loop saturation bursts, then climbs a fixed ladder of
// rates above the reference until the first rung that misses the latency
// limit or whose backlog grows. Every stretch, burst and rung drains
// before the next starts. The reference p99 pools the K stretches; the
// reference p50 and the saturated throughput are medians over them, so a
// host stall during one of them does not move the run's figures.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "loadgen.h"
#include "serve/serve_engine.h"

namespace perfbench {
namespace {

using namespace cip;

constexpr std::size_t kFleet = 65536;
constexpr double kZipfS = 1.0;
constexpr std::size_t kConns = 4;
constexpr std::size_t kSetupReps = 3;
/// The fixed latency limit on query_p99_ms.
constexpr double kLimitMs = 25.0;
/// A run whose generator lateness p99 exceeds this share of the limit is
/// invalid: the generator, not the server, would be shaping the latencies.
constexpr double kMaxLateShare = 0.2;
/// The ladder; the first rung is the reference rate. The climb starts
/// below the knee, which is near 800 q/s on a 4-core host.
constexpr double kLadder[] = {300, 600, 750, 900, 1050, 1200, 1400, 1700};
/// Queries per stretch: sized by count, not time. Three reference
/// stretches pool 1,050 queries, so the reference p99 has 10 beyond it, as
/// has every ladder rung's.
constexpr std::size_t kWarmQueries = 200, kRefQueries = 350,
                      kRungQueries = 1000;
/// Queries in each closed-loop saturation burst.
constexpr std::size_t kSaturationQueries = 2000;
/// Reference stretches and bursts per pass: one pair per 5 s of --seconds,
/// and at least this many.
constexpr std::size_t kMinStretches = 3;
/// Queries whose replies are kept for the output check.
constexpr std::size_t kCheckEvery = 50, kCheckMax = 200;

/// Everything set-up builds; the wire goes first on destruction, since
/// its server borrows the serving engine.
struct Service {
  Serving serving;
  Wire wire;
};

std::unique_ptr<Service> Setup(std::uint64_t seed, const ZipfIds& zipf) {
  auto s = std::make_unique<Service>();
  Rng warm = DeriveStream(seed, 11, 0);
  s->serving = MakeServing(
      seed, kFleet,
      LruSteadyState(zipf, serve::ServeOptions{}.t_cache_entries, warm));
  // No round traffic here: the round engine's defaults are never exercised.
  s->wire = StartWire(fl::ModelState(std::vector<float>{0.0f}), {},
                      *s->serving.engine, kConns);
  return s;
}

/// One open-loop stretch at one rate: its query range and whether the
/// number of outstanding queries kept growing.
struct Stretch {
  double rate = 0.0;
  std::size_t lo = 0, hi = 0;
  bool backlog_grew = false;
};

/// One timed pass and what it measured.
struct Pass {
  std::vector<Query> qs;
  std::vector<Stretch> ref;    ///< the reference-rate stretches
  std::vector<Stretch> climb;  ///< ladder rungs above the reference
  std::vector<double> saturated_qps;  ///< one per burst
  double wall_s = 0.0;
  double server_cpu_s = 0.0;
  std::uint64_t tensor_allocs = 0;
  serve::ServeStats serve;  ///< deltas over the pass
  net::ServerStats server;
  std::vector<SpanRecord> spans;
};

/// Queue `n` queries drawn from the Zipf law; returns their index range.
std::pair<std::size_t, std::size_t> Draw(Service& s, Pass& p, std::size_t n,
                                         const ZipfIds& zipf, Rng& rng) {
  const std::size_t lo = p.qs.size();
  for (std::size_t i = 0; i < n; ++i) {
    Query q;
    q.client = static_cast<std::uint32_t>(zipf.Next(rng));
    q.pool = static_cast<std::uint32_t>(
        rng.Index(s.serving.pool.frames.size()));
    q.keep = rng.Index(kCheckEvery) == 0;
    p.qs.push_back(q);
  }
  return {lo, p.qs.size()};
}

/// Send `queries` Poisson arrivals at `rate` on time, then wait for their
/// replies (at most three seconds past the last arrival).
Stretch RunOpen(Service& s, Pass& p, double rate, std::size_t queries,
                const ZipfIds& zipf, Rng& rng) {
  Stretch st;
  st.rate = rate;
  std::tie(st.lo, st.hi) = Draw(s, p, queries, zipf, rng);
  const std::int64_t start = NowNs() + 1'000'000;
  const std::vector<std::int64_t> due = PoissonDue(rate, queries, start, rng);
  for (std::size_t i = 0; i < queries; ++i) p.qs[st.lo + i].due_ns = due[i];
  std::size_t next = st.lo, answered = 0;
  const auto on_frame = [&](std::size_t ci, net::Frame& f) {
    OnReply(s.wire.conns[ci], p.qs, f);
    ++answered;
  };
  std::vector<double> depth;
  const std::int64_t sample_every =
      std::max<std::int64_t>(1'000'000, (due.back() - start) / 30);
  std::int64_t next_sample = start;
  const std::int64_t give_up = due.back() + 3'000'000'000;
  while (true) {
    const std::int64_t now = NowNs();
    while (next < st.hi && p.qs[next].due_ns <= now) {
      SendQuery(s.wire.conns[next % kConns], p.qs, next, s.serving.pool);
      ++next;
    }
    if (now >= next_sample && next < st.hi) {
      depth.push_back(static_cast<double>(next - st.lo - answered));
      next_sample += sample_every;
    }
    if (answered == queries || now > give_up) break;
    for (const Conn& c : s.wire.conns) {
      if (c.failed) return st;
    }
    const std::int64_t wake =
        next < st.hi ? std::min(p.qs[next].due_ns, next_sample)
                     : now + 1'000'000;
    Pump(s.wire.conns, p.qs, wake, on_frame);
  }
  st.backlog_grew = BacklogGrows(depth, queries);
  return st;
}

/// Closed-loop saturation burst: every connection keeps kDepth queries in
/// flight, so the server never waits for work and the answer rate is its
/// capacity. Returns queries answered per second.
double RunSaturation(Service& s, Pass& p, const ZipfIds& zipf, Rng& rng) {
  constexpr std::size_t kDepth = 8;
  const auto [lo, hi] = Draw(s, p, kSaturationQueries, zipf, rng);
  std::size_t next = lo, answered = 0;
  const auto on_frame = [&](std::size_t ci, net::Frame& f) {
    OnReply(s.wire.conns[ci], p.qs, f);
    ++answered;
  };
  const std::int64_t t0 = NowNs();
  const std::int64_t give_up = t0 + 20'000'000'000;
  while (answered < hi - lo && NowNs() < give_up) {
    for (Conn& c : s.wire.conns) {
      if (c.failed) return 0.0;
      while (next < hi && c.inflight.size() + c.sending.size() < kDepth) {
        p.qs[next].due_ns = NowNs();
        SendQuery(c, p.qs, next, s.serving.pool);
        ++next;
      }
    }
    Pump(s.wire.conns, p.qs, NowNs(), on_frame);
  }
  return static_cast<double>(answered) /
         (static_cast<double>(NowNs() - t0) / 1e9);
}

/// Latencies of a set of stretches, pooled.
std::vector<double> Pooled(const Pass& p, const std::vector<Stretch>& sts) {
  std::vector<double> ms;
  for (const Stretch& st : sts) {
    const std::vector<double> v = LatenciesMs(p.qs, st.lo, st.hi);
    ms.insert(ms.end(), v.begin(), v.end());
  }
  return ms;
}

/// The reference stretches as the ladder's first rung.
Rung ReferenceRung(const Pass& p) {
  Rung r{kLadder[0], NearestRank(Pooled(p, p.ref), 0.99).value, false};
  for (const Stretch& st : p.ref) r.backlog_grew |= st.backlog_grew;
  return r;
}

bool Passes(const Rung& r) { return r.p99_ms <= kLimitMs && !r.backlog_grew; }

Pass RunPass(Service& s, const Options& opts, const ZipfIds& zipf,
             bool traced) {
  Pass p;
  Rng rng = DeriveStream(opts.seed, 10, 0);
  trace::Enable(traced);
  const std::uint64_t allocs0 = internal::TensorAllocCount();
  const double cpu0 = s.wire.thread->CpuSeconds();
  const std::int64_t t0 = NowNs();
  RunOpen(s, p, kLadder[0], kWarmQueries, zipf, rng);  // warm-up, not reported
  const std::size_t stretches = std::max(
      kMinStretches, static_cast<std::size_t>(std::lround(opts.seconds / 5.0)));
  for (std::size_t k = 0; k < stretches; ++k) {
    p.ref.push_back(RunOpen(s, p, kLadder[0], kRefQueries, zipf, rng));
    p.saturated_qps.push_back(RunSaturation(s, p, zipf, rng));
  }
  for (std::size_t r = 1; r < std::size(kLadder) && Passes(ReferenceRung(p));
       ++r) {
    const Stretch st = RunOpen(s, p, kLadder[r], kRungQueries, zipf, rng);
    p.climb.push_back(st);
    const Rung rung{st.rate,
                    NearestRank(LatenciesMs(p.qs, st.lo, st.hi), 0.99).value,
                    st.backlog_grew};
    if (!Passes(rung)) break;
  }
  p.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  p.server_cpu_s = s.wire.thread->CpuSeconds() - cpu0;
  s.wire.thread->Stop();
  p.tensor_allocs = internal::TensorAllocCount() - allocs0;
  trace::Enable(false);
  if (traced) p.spans = trace::Collect();
  p.serve = ServeDelta(s.serving.engine->stats(), s.serving.before);
  p.server = s.wire.server->stats();
  return p;
}

/// Generator lateness over every open-loop query of the pass.
Percentile Lateness(const Pass& p) {
  std::vector<double> late;
  for (const std::vector<Stretch>* sts : {&p.ref, &p.climb}) {
    for (const Stretch& st : *sts) {
      const std::vector<double> v = LatenessMs(p.qs, st.lo, st.hi);
      late.insert(late.end(), v.begin(), v.end());
    }
  }
  return NearestRank(std::move(late), 0.99);
}

/// About a third of the queries miss, and a miss delays every query fused
/// with it, so query latencies fall in two modes: hits answered at once
/// (a fraction of a millisecond) and queries behind a miss (milliseconds).
/// The hit mode holds only about half the queries at the reference rate,
/// so the median sits where the modes meet and swings between them from
/// run to run. The gated latency is therefore the p75, inside the miss
/// mode. The p25, inside the hit mode, is mostly the time the server's
/// loop takes to wake from poll(2), which doubles with the CPU steal of a
/// virtual machine; it is reported beside the p50 and p99.
std::vector<Value> NamedMetrics(const Pass& p, Report* rep) {
  std::vector<double> p25, p50, p75;
  for (const Stretch& st : p.ref) {
    const std::vector<double> ms = LatenciesMs(p.qs, st.lo, st.hi);
    p25.push_back(NearestRank(ms, 0.25).value);
    p50.push_back(NearestRank(ms, 0.5).value);
    p75.push_back(NearestRank(ms, 0.75).value);
  }
  const std::vector<double> ref_ms = Pooled(p, p.ref);
  const Percentile ref_p99 = NearestRank(ref_ms, 0.99);
  std::vector<Rung> ladder = {ReferenceRung(p)};
  for (const Stretch& st : p.climb) {
    ladder.push_back({st.rate,
                      NearestRank(LatenciesMs(p.qs, st.lo, st.hi), 0.99).value,
                      st.backlog_grew});
  }
  const SloPick pick = QpsAtSlo(ladder, kLimitMs);
  if (rep != nullptr) {
    std::string deciles = "reference latency deciles (ms):";
    for (int d = 1; d <= 9; ++d) {
      deciles += " " + std::to_string(NearestRank(ref_ms, d / 10.0).value);
    }
    rep->notes.push_back(deciles);
    for (std::size_t k = 0; k < p.ref.size(); ++k) {
      rep->notes.push_back(
          "stretch " + std::to_string(k) + ": p25 " + std::to_string(p25[k]) +
          " ms, p50 " + std::to_string(p50[k]) + " ms, then " +
          std::to_string(p.saturated_qps[k]) + " q/s saturated");
    }
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      rep->notes.push_back(
          std::to_string(static_cast<int>(ladder[i].rate)) + " q/s: p99 " +
          std::to_string(ladder[i].p99_ms) + " ms" +
          (ladder[i].backlog_grew ? ", backlog grew" : ""));
    }
    rep->notes.push_back("qps_at_slo " + std::to_string(pick.qps) +
                         (pick.saturated ? " (ladder top)" : ""));
    const Percentile late = Lateness(p);
    if (late.value > kMaxLateShare * kLimitMs) {
      rep->invalid_reasons.push_back(
          "generator lateness p99 " + std::to_string(late.value) +
          " ms exceeds " + std::to_string(kMaxLateShare * kLimitMs) + " ms");
    }
    if (ladder[0].backlog_grew) {
      rep->invalid_reasons.push_back("backlog grew at the reference rate");
    }
    rep->Check(ref_p99.resolved, "serve_open: reference p99 has fewer than "
                                 "10 samples beyond it");
  }
  return {
      {"qps_max", Median(p.saturated_qps), "q/s", "higher",
       p.saturated_qps.size() * kSaturationQueries},
      {"qps_at_slo", pick.qps, "q/s", "higher", ladder.size()},
      {"query_p25_ms", Median(p25), "ms", "lower", ref_p99.samples},
      {"query_p50_ms", Median(p50), "ms", "lower", ref_p99.samples},
      {"query_p75_ms", Median(p75), "ms", "lower", ref_p99.samples},
      {"query_p99_ms", ref_p99.value, "ms", "lower", ref_p99.samples},
  };
}

/// Errors: unanswered or refused queries and every connection-level fault.
void Account(const Pass& p, Report& rep) {
  for (const Query& q : p.qs) {
    ++rep.attempted;
    if (q.done_ns > 0 && !q.refused) {
      ++rep.succeeded;
    } else {
      ++rep.failed;
    }
  }
  rep.failed += p.server.protocol_errors + p.server.busy_rejections +
                p.server.dropped_connections;
}

void LayerMetrics(Service& s, const Pass& p, const ZipfIds& zipf,
                  Report& rep) {
  std::size_t answered = 0;
  for (const Query& q : p.qs) answered += q.done_ns > 0 && !q.refused;
  const double rows_per_flush =
      p.serve.batches ? static_cast<double>(p.serve.rows) / p.serve.batches
                      : 0.0;
  const std::size_t lookups =
      p.serve.t_hits + p.serve.t_misses + p.serve.t_stale;
  rep.layer.push_back({"serve.rows_per_flush", rows_per_flush, "rows",
                       "higher", p.serve.batches});
  rep.layer.push_back({"serve.tcache_hit_ratio",
                       static_cast<double>(p.serve.t_hits) / lookups, "ratio",
                       "higher", lookups});
  rep.layer.push_back({"serve.tcache_misses",
                       static_cast<double>(p.serve.t_misses), "count",
                       "lower", lookups});
  rep.layer.push_back({"net.bytes_per_query",
                       static_cast<double>(p.server.bytes_sent +
                                           p.server.bytes_received) /
                           p.server.queries_answered,
                       "B", "lower", p.server.queries_answered});
  rep.layer.push_back({"tensor.allocs_per_query",
                       static_cast<double>(p.tensor_allocs) / answered,
                       "count", "lower", answered});
  rep.layer.push_back({"net.server.cpu_share", p.server_cpu_s / p.wall_s,
                       "ratio", "lower", 1});
  const Percentile late = Lateness(p);
  rep.layer.push_back(
      {"gen.lateness_p99_ms", late.value, "ms", "lower", late.samples});
  const std::size_t entries = s.serving.engine->options().t_cache_entries;
  rep.notes.push_back(
      "t-cache over the traced pass: " + std::to_string(p.serve.t_misses) +
      " misses, " + std::to_string(p.serve.t_evictions) + " evictions in " +
      std::to_string(lookups) + " lookups; Zipf mass beyond the cache " +
      std::to_string(zipf.MassBeyond(entries)));

  // Probes, on this thread now that the server thread has stopped.
  constexpr std::size_t kReps = 200;
  const std::uint32_t flush_name = trace::Intern("serve.flush");
  const std::uint32_t miss_name = trace::Intern("serve.miss");
  const std::uint32_t codec_name = trace::Intern("net.frame.query_codec");
  const Tensor& one_row = s.serving.pool.inputs[0].dim(0) == 1
                              ? s.serving.pool.inputs[0]
                              : s.serving.pool.inputs[1];
  const auto k =
      static_cast<std::size_t>(std::max(1.0, std::round(rows_per_flush)));
  const double flush_ms = MedianMs(kReps, [&] {
    for (std::size_t i = 0; i < k; ++i) {
      s.serving.engine->Enqueue(zipf.IdOfRank(i), one_row);
    }
    const trace::Scope span(flush_name);
    (void)s.serving.engine->Flush();
  });
  // Least popular clients first; a call that turns out to be a hit (the
  // client was queried or warmed before) is not a miss sample.
  std::vector<double> miss;
  for (std::size_t r = kFleet; r-- > 0 && miss.size() < 64;) {
    const std::size_t id = zipf.IdOfRank(r);
    const std::size_t misses = s.serving.engine->stats().t_misses;
    const trace::Scope span(miss_name, id);
    const std::int64_t t0 = NowNs();
    (void)s.serving.engine->Serve(id, one_row);
    const std::int64_t t1 = NowNs();
    if (s.serving.engine->stats().t_misses > misses) {
      miss.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
  }
  const std::size_t pool = s.serving.pool.frames.size();
  const double codec_ms = MedianMs(20, [&] {
    for (std::size_t i = 0; i < pool; ++i) {
      const trace::Scope span(codec_name, i);
      const std::string& frame = s.serving.pool.frames[i];
      const net::QueryMsg q =
          net::DecodeQuery(frame.substr(net::kFrameHeaderBytes));
      net::LogitsMsg m;
      m.logits = Tensor({q.inputs.dim(0), s.serving.spec.num_classes}, 0.25f);
      const std::string reply = net::EncodeLogits(m);
      (void)net::DecodeLogits(reply.substr(net::kFrameHeaderBytes));
      (void)net::EncodeQuery(q);
    }
  });
  rep.layer.push_back({"serve.flush_ms", flush_ms, "ms", "lower", kReps});
  rep.layer.push_back(
      {"serve.miss_ms", Median(miss), "ms", "lower", miss.size()});
  rep.layer.push_back({"net.frame.query_codec_us", codec_ms * 1e3 / pool,
                       "us", "lower", 20 * pool});
}

}  // namespace

Report RunServeOpen(const Options& opts) {
  Report rep;
  rep.threads = ParallelThreads();
  const ZipfIds zipf(kFleet, kZipfS);
  std::unique_ptr<Service> svc =
      TimedSetups(kSetupReps, rep, [&] { return Setup(opts.seed, zipf); });
  const Pass plain = RunPass(*svc, opts, zipf, /*traced=*/false);
  const std::vector<Value> named = NamedMetrics(plain, &rep);
  rep.named.insert(rep.named.end(), named.begin(), named.end());
  rep.Gate("throughput_per_s", "qps_max");
  rep.Gate("latency_ms", "query_p75_ms");
  rep.Gate("setup_s", "setup_s");
  Account(plain, rep);
  CheckReplies("serve_open", *svc->serving.engine, svc->serving.pool,
               plain.qs, kCheckMax, rep);

  if (opts.trace) {
    svc.reset();
    svc = Setup(opts.seed, zipf);
    Pass traced = RunPass(*svc, opts, zipf, /*traced=*/true);
    rep.traced_named = NamedMetrics(traced, nullptr);
    trace::Enable(true);
    LayerMetrics(*svc, traced, zipf, rep);
    trace::Enable(false);
    FinishTrace(opts, std::move(traced.spans), rep);
  }
  return rep;
}

}  // namespace perfbench
