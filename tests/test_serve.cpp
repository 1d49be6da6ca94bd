// Batched serving engine tests: fused-batch bit-identity against the
// per-request and eval-helper paths, the t-cache's hit/miss/stale/eviction
// semantics over a cold ClientStore, hostile-request rejection before any
// batch-arena mutation, and the kQuery/kLogits wire front door answering
// bit-identically to an in-process ServeEngine (the acceptance claim of the
// serving PR).
//
// Model scale note: the fleet here is a tiny MLP, so every GEMM on the path
// stays in the streaming (non-blocked) regime regardless of how many
// requests fuse into a chunk — which upgrades the fused-vs-single checks
// from tolerance comparisons to memcmp bit-identity (docs/SERVING.md
// "Determinism" works out why batch composition is otherwise only
// tolerance-stable across GEMM regimes).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/cip_client.h"
#include "core/cip_model.h"
#include "data/partition.h"
#include "fl/client_factory.h"
#include "fl/client_store.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/serve_engine.h"
#include "testing_util.h"

namespace cip {
namespace {

constexpr std::size_t kDim = 4;
constexpr std::size_t kClasses = 2;

/// CIP client specs over a tiny MLP: client k's secret t is its
/// construction-time random init (no training rounds needed to serve).
std::vector<fl::ClientSpec> CipSpecs(std::size_t num_clients) {
  Rng rng(5);
  data::Dataset full = testing::TwoBlobs(8 * num_clients, kDim, rng);
  const auto shards = data::PartitionIid(full, num_clients, rng);
  fl::ClientSpec proto;
  proto.kind = fl::ClientKind::kCip;
  proto.model.arch = nn::Arch::kMLP;
  proto.model.input_shape = {kDim};
  proto.model.num_classes = kClasses;
  proto.model.width = 6;
  proto.model.seed = 77;
  proto.train.lr = 0.1f;
  std::vector<fl::ClientSpec> specs;
  for (std::size_t k = 0; k < num_clients; ++k) {
    fl::ClientSpec spec = proto;
    spec.data = shards[k];
    spec.seed = 50 + k;
    specs.push_back(std::move(spec));
  }
  return specs;
}

Tensor RandomInputs(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({rows, kDim});
  for (float& v : x.flat()) v = rng.Normal();
  return x;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The serving deployment under test: a shared dual-channel model (the
/// global), a cold store of CIP clients holding the per-client secrets, and
/// an engine over both.
struct Deployment {
  std::unique_ptr<core::CipClient> global;  // owns the served model
  fl::ClientStore store;
  serve::ServeOptions opts;

  explicit Deployment(std::size_t num_clients,
                      std::size_t max_batch_rows = 128,
                      std::size_t t_cache_entries = 64)
      : global(fl::MakeCipClient(CipSpecs(1)[0])),
        store(fl::MakeClientStore(CipSpecs(num_clients))) {
    opts.blend = global->config().blend;
    opts.max_batch_rows = max_batch_rows;
    opts.t_cache_entries = t_cache_entries;
  }

  serve::ServeEngine Engine() {
    return serve::ServeEngine(global->model(), store, opts);
  }

  /// Client k's current t, read non-destructively (factory construction for
  /// never-participated clients — the same path the engine's cache takes).
  Tensor TOf(std::size_t k) {
    fl::ClientState st;
    if (store.PeekState(k, st)) return std::move(st.tensors.front());
    const fl::ClientStore::Handle h = store.Materialize(k);
    st = h->ExportState();
    return std::move(st.tensors.front());
  }
};

TEST(ServeEngine, OptionsValidationRejectsOutOfDomain) {
  Deployment dep(2);
  {
    serve::ServeOptions bad = dep.opts;
    bad.max_batch_rows = 0;
    EXPECT_THROW(serve::ServeEngine(dep.global->model(), dep.store, bad),
                 CheckError);
  }
  {
    serve::ServeOptions bad = dep.opts;
    bad.t_cache_entries = 0;
    EXPECT_THROW(serve::ServeEngine(dep.global->model(), dep.store, bad),
                 CheckError);
  }
  {
    serve::ServeOptions bad = dep.opts;
    bad.blend.alpha = 1.0f;
    EXPECT_THROW(serve::ServeEngine(dep.global->model(), dep.store, bad),
                 CheckError);
  }
  {
    serve::ServeOptions bad = dep.opts;
    bad.blend.clip_lo = bad.blend.clip_hi;
    EXPECT_THROW(serve::ServeEngine(dep.global->model(), dep.store, bad),
                 CheckError);
  }
}

TEST(ServeEngine, ServeMatchesDualLogitsWithTheClientsT) {
  // The engine's answer for (k, x) must be exactly the eval helper's
  // DualLogits(model, x, t_k) — same blend arithmetic, same forward.
  Deployment dep(3);
  serve::ServeEngine engine = dep.Engine();
  for (std::size_t k = 0; k < 3; ++k) {
    const Tensor x = RandomInputs(4, 100 + k);
    const Tensor expected =
        core::DualLogits(dep.global->model(), x, dep.TOf(k), dep.opts.blend);
    const Tensor& got = engine.Serve(k, x);
    EXPECT_TRUE(SameBits(got, expected)) << "client " << k;
  }
  EXPECT_EQ(engine.stats().queries, 3u);
  EXPECT_EQ(engine.stats().rows, 12u);
  EXPECT_EQ(engine.stats().t_misses, 3u);
}

TEST(ServeEngine, MissServesTheConstructionTimeT) {
  // A never-trained client's t is its construction-time init: uniform from
  // Rng(seed), or mixed from the public init_seed when one is set
  // (Knowledge-1). A miss must serve exactly those bytes, and the store
  // must still hold no record for the client afterwards.
  Tensor public_seed({kDim});
  for (std::size_t i = 0; i < kDim; ++i) public_seed[i] = 0.2f * i;
  constexpr float kNoiseWeight = 0.25f;
  for (const bool seeded : {false, true}) {
    SCOPED_TRACE(seeded ? "init_seed" : "random init");
    std::vector<fl::ClientSpec> specs = CipSpecs(3);
    if (seeded) {
      for (fl::ClientSpec& spec : specs) {
        spec.cip.init_seed = public_seed;
        spec.cip.init_noise_weight = kNoiseWeight;
      }
    }
    const std::unique_ptr<core::CipClient> global =
        fl::MakeCipClient(specs[0]);
    fl::ClientStore store = fl::MakeClientStore(specs);
    serve::ServeOptions opts;
    opts.blend = global->config().blend;
    serve::ServeEngine engine(global->model(), store, opts);
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const core::BlendConfig& blend = specs[k].cip.blend;
      Rng init_rng(specs[k].seed);
      const core::Perturbation expected =
          seeded ? core::Perturbation::FromSeed(public_seed, kNoiseWeight,
                                                init_rng, blend.clip_lo,
                                                blend.clip_hi)
                 : core::Perturbation::Random(Shape{kDim}, init_rng,
                                              blend.clip_lo, blend.clip_hi);
      const Tensor x = RandomInputs(2, 300 + k);
      EXPECT_TRUE(SameBits(engine.Serve(k, x),
                           core::DualLogits(global->model(), x,
                                            expected.tensor(), opts.blend)))
          << "client " << k;
      fl::ClientState st;
      EXPECT_FALSE(store.PeekState(k, st)) << "client " << k;
      const fl::ClientStore::Handle h = store.Materialize(k);
      EXPECT_TRUE(SameBits(h->ExportState().tensors.front(),
                           expected.tensor()))
          << "client " << k;
    }
    EXPECT_EQ(engine.stats().t_misses, specs.size());
  }
}

TEST(ServeEngine, FusedBatchBitIdenticalToSingleRequests) {
  // Many clients' rows fused into one forward must answer every request
  // with the same bits as serving each request alone (streaming-GEMM model,
  // see the file comment).
  Deployment dep(3);
  serve::ServeEngine fused = dep.Engine();
  serve::ServeEngine single = dep.Engine();
  const std::vector<std::size_t> rows = {1, 5, 2};
  std::vector<Tensor> inputs;
  std::vector<std::size_t> offsets;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    inputs.push_back(RandomInputs(rows[k], 200 + k));
    offsets.push_back(fused.Enqueue(k, inputs.back()));
  }
  const Tensor& logits = fused.Flush();
  ASSERT_EQ(logits.dim(0), 8u);
  EXPECT_EQ(fused.stats().batches, 1u);  // 8 rows fit one 128-row chunk
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Tensor got = logits.Slice(offsets[k], offsets[k] + rows[k]);
    const Tensor& expected = single.Serve(k, inputs[k]);
    EXPECT_TRUE(SameBits(got, expected)) << "request " << k;
  }
}

TEST(ServeEngine, FlushRepeatsBitIdentically) {
  // Same request sequence, same answer bits — serving is deterministic.
  Deployment dep(2);
  serve::ServeEngine engine = dep.Engine();
  const Tensor x0 = RandomInputs(3, 7);
  const Tensor x1 = RandomInputs(2, 8);
  engine.Enqueue(0, x0);
  engine.Enqueue(1, x1);
  const Tensor first = engine.Flush();  // copy: the arena is reused
  engine.Enqueue(0, x0);
  engine.Enqueue(1, x1);
  const Tensor& second = engine.Flush();
  EXPECT_TRUE(SameBits(first, second));
}

TEST(ServeEngine, GreedyChunkingPacksWholeRequests) {
  Deployment dep(4, /*max_batch_rows=*/4);
  serve::ServeEngine engine = dep.Engine();
  EXPECT_EQ(engine.Enqueue(0, RandomInputs(3, 1)), 0u);
  EXPECT_EQ(engine.Enqueue(1, RandomInputs(3, 2)), 3u);
  EXPECT_EQ(engine.Enqueue(2, RandomInputs(1, 3)), 6u);
  EXPECT_EQ(engine.Enqueue(3, RandomInputs(6, 4)), 7u);  // oversized alone
  EXPECT_EQ(engine.pending_rows(), 13u);
  const Tensor& logits = engine.Flush();
  EXPECT_EQ(logits.dim(0), 13u);
  EXPECT_EQ(logits.dim(1), kClasses);
  // Chunks: [req0] (3+3 > 4), [req1, req2] (3+1), [req3] (6 > 4, never
  // split) — requests never straddle a forward.
  EXPECT_EQ(engine.stats().batches, 3u);
  EXPECT_EQ(engine.pending_rows(), 0u);
}

TEST(ServeEngine, TCacheCountsHitsMissesAndLruEvictions) {
  Deployment dep(3, /*max_batch_rows=*/128, /*t_cache_entries=*/2);
  serve::ServeEngine engine = dep.Engine();
  const Tensor x = RandomInputs(1, 9);
  engine.Serve(0, x);
  engine.Serve(0, x);
  EXPECT_EQ(engine.stats().t_misses, 1u);
  EXPECT_EQ(engine.stats().t_hits, 1u);
  engine.Serve(1, x);
  engine.Serve(2, x);  // capacity 2: client 0 (LRU) falls out
  EXPECT_EQ(engine.stats().t_evictions, 1u);
  engine.Serve(0, x);  // evicted -> must re-read the store
  EXPECT_EQ(engine.stats().t_misses, 4u);
}

TEST(ServeEngine, StoreStateChangeIsPickedUpAsStale) {
  Deployment dep(2);
  serve::ServeEngine engine = dep.Engine();
  const Tensor x = RandomInputs(2, 11);
  const Tensor before = engine.Serve(0, x);  // copy

  // The client trains (simulated: its exported t changes) and its record
  // re-enters the store -> state_version moves -> the cached t is stale.
  fl::ClientState st;
  {
    const fl::ClientStore::Handle h = dep.store.Materialize(0);
    st = h->ExportState();
  }
  for (std::size_t i = 0; i < st.tensors.front().size(); ++i) {
    st.tensors.front()[i] += 1.0f;
  }
  dep.store.RestoreStates({{0, st}});

  const Tensor& after = engine.Serve(0, x);
  EXPECT_EQ(engine.stats().t_stale, 1u);
  EXPECT_FALSE(SameBits(before, after));
  const Tensor expected = core::DualLogits(
      dep.global->model(), x, st.tensors.front(), dep.opts.blend);
  EXPECT_TRUE(SameBits(after, expected));
  // And the refreshed entry is a plain hit on the next query.
  engine.Serve(0, x);
  EXPECT_EQ(engine.stats().t_stale, 1u);
  EXPECT_EQ(engine.stats().t_hits, 1u);
}

TEST(ServeEngine, InvalidateClientForcesAStoreReRead) {
  Deployment dep(2);
  serve::ServeEngine engine = dep.Engine();
  const Tensor x = RandomInputs(1, 13);
  engine.Serve(0, x);
  engine.InvalidateClient(0);
  engine.Serve(0, x);
  EXPECT_EQ(engine.stats().t_misses, 2u);
  EXPECT_EQ(engine.stats().t_hits, 0u);
}

TEST(ServeEngine, HostileRequestsRejectedBeforeTouchingTheBatch) {
  Deployment dep(2);
  serve::ServeEngine engine = dep.Engine();
  // Unknown client id.
  EXPECT_THROW(engine.Enqueue(2, RandomInputs(1, 1)), CheckError);
  // Rank-1 input (no batch dimension).
  EXPECT_THROW(engine.Enqueue(0, Tensor({kDim})), CheckError);
  // Pin the geometry, then present a different sample shape.
  engine.Serve(0, RandomInputs(1, 1));
  EXPECT_THROW(engine.Enqueue(0, Tensor({1, kDim + 1})), CheckError);
  EXPECT_THROW(engine.Enqueue(0, Tensor({1, kDim, 1})), CheckError);
  // Nothing above left rows pending.
  EXPECT_EQ(engine.pending_rows(), 0u);
}

// ---- the wire front door ---------------------------------------------------

/// Step `server` enough poll cycles to accept a fresh connection, read the
/// query the client already SendAll'd, flush the coalesced answer, and reap
/// drops — then block-read one reply frame off the client socket. Returns
/// nullopt when the server closed the connection instead of answering.
std::optional<net::Frame> ReadReply(net::CipServer& server, net::Socket& sock,
                                    std::size_t steps = 4) {
  // Cycle 1 accepts; cycle 2 reads + flushes; the extras absorb straddled
  // reads. A dropped connection is closed by Reap within the same cycles,
  // so the RecvAll below never blocks: it sees either a frame or EOF.
  for (std::size_t i = 0; i < steps; ++i) server.Step(0);
  std::string header(net::kFrameHeaderBytes, '\0');
  if (!net::RecvAll(sock, std::span<char>(header.data(), header.size()))) {
    return std::nullopt;
  }
  std::uint64_t len = 0;  // payload_len: the header's trailing LE u64
  for (std::size_t b = 0; b < 8; ++b) {
    len |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(header[12 + b]))
           << (8 * b);
  }
  std::string payload(len, '\0');
  if (len > 0 &&
      !net::RecvAll(sock, std::span<char>(payload.data(), payload.size()))) {
    return std::nullopt;
  }
  net::FrameReader reader;
  reader.Feed(header);
  reader.Feed(payload);
  return reader.Next();
}

net::CipServer MakeServingServer(std::size_t fleet_size,
                                 std::size_t max_connections = 16) {
  net::AsyncRoundEngine::Options eng;
  eng.total_rounds = 1;
  eng.fleet_size = fleet_size;
  eng.quorum = fleet_size;
  net::ServerOptions sopts;
  sopts.max_connections = max_connections;
  sopts.drain_fleet = false;
  return net::CipServer(fl::ModelState(std::vector<float>{0.0f}), eng, sopts);
}

TEST(ServeWire, QueryRoundTripBitIdenticalToInProcessServe) {
  Deployment dep(3);
  serve::ServeEngine wire_engine = dep.Engine();
  serve::ServeEngine local_engine = dep.Engine();

  net::CipServer server = MakeServingServer(3);
  server.EnableServing(&wire_engine);
  server.Listen();

  const Tensor x = RandomInputs(4, 21);
  const Tensor expected = local_engine.Serve(1, x);  // copy

  net::Socket sock = net::ConnectTcp("127.0.0.1", server.port());
  net::QueryMsg q;
  q.client_id = 1;
  q.inputs = x;
  const std::string frame = net::EncodeQuery(q);
  ASSERT_TRUE(net::SendAll(sock,
                           std::span<const char>(frame.data(), frame.size())));
  const auto reply = ReadReply(server, sock);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, net::MsgType::kLogits);
  const net::LogitsMsg logits = net::DecodeLogits(reply->payload);
  EXPECT_TRUE(SameBits(logits.logits, expected));
  EXPECT_EQ(server.stats().queries_answered, 1u);
  EXPECT_EQ(wire_engine.stats().queries, 1u);
}

TEST(ServeWire, QueriesFromManyConnectionsFuseIntoOneFlush) {
  Deployment dep(3);
  serve::ServeEngine wire_engine = dep.Engine();
  serve::ServeEngine local_engine = dep.Engine();

  net::CipServer server = MakeServingServer(3);
  server.EnableServing(&wire_engine);
  server.Listen();

  std::vector<net::Socket> socks;
  std::vector<Tensor> inputs;
  for (std::size_t k = 0; k < 3; ++k) {
    socks.push_back(net::ConnectTcp("127.0.0.1", server.port()));
    inputs.push_back(RandomInputs(2 + k, 30 + k));
    net::QueryMsg q;
    q.client_id = k;
    q.inputs = inputs.back();
    const std::string frame = net::EncodeQuery(q);
    ASSERT_TRUE(net::SendAll(
        socks.back(), std::span<const char>(frame.data(), frame.size())));
  }
  for (std::size_t k = 0; k < 3; ++k) {
    const auto reply = ReadReply(server, socks[k]);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, net::MsgType::kLogits);
    const net::LogitsMsg logits = net::DecodeLogits(reply->payload);
    const Tensor& expected = local_engine.Serve(k, inputs[k]);
    EXPECT_TRUE(SameBits(logits.logits, expected)) << "connection " << k;
  }
  EXPECT_EQ(server.stats().queries_answered, 3u);
  // All three queries arrived before the first Step, so they fused into at
  // most two Flushes (connection reads can straddle one poll cycle) — and
  // the bits above prove fusion does not change any client's answer.
  EXPECT_LE(wire_engine.stats().batches, 2u);
}

TEST(ServeWire, HostileQueryDropsTheConnectionNotTheServer) {
  Deployment dep(2);
  serve::ServeEngine engine = dep.Engine();
  net::CipServer server = MakeServingServer(2);
  server.EnableServing(&engine);
  server.Listen();

  // Out-of-fleet client id: structurally valid frame, rejected by Enqueue.
  net::Socket bad = net::ConnectTcp("127.0.0.1", server.port());
  net::QueryMsg q;
  q.client_id = 99;
  q.inputs = RandomInputs(1, 40);
  const std::string frame = net::EncodeQuery(q);
  ASSERT_TRUE(net::SendAll(bad,
                           std::span<const char>(frame.data(), frame.size())));
  EXPECT_FALSE(ReadReply(server, bad).has_value());  // dropped, no reply
  EXPECT_EQ(server.stats().protocol_errors, 1u);

  // The server still answers honest peers afterwards.
  net::Socket good = net::ConnectTcp("127.0.0.1", server.port());
  net::QueryMsg ok;
  ok.client_id = 0;
  ok.inputs = RandomInputs(1, 41);
  const std::string frame2 = net::EncodeQuery(ok);
  ASSERT_TRUE(net::SendAll(
      good, std::span<const char>(frame2.data(), frame2.size())));
  const auto reply = ReadReply(server, good);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MsgType::kLogits);
}

TEST(ServeWire, QueryWithoutAServingEngineIsAProtocolError) {
  net::CipServer server = MakeServingServer(2);  // EnableServing never called
  server.Listen();
  net::Socket sock = net::ConnectTcp("127.0.0.1", server.port());
  net::QueryMsg q;
  q.client_id = 0;
  q.inputs = RandomInputs(1, 50);
  const std::string frame = net::EncodeQuery(q);
  ASSERT_TRUE(net::SendAll(sock,
                           std::span<const char>(frame.data(), frame.size())));
  EXPECT_FALSE(ReadReply(server, sock).has_value());
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

}  // namespace
}  // namespace cip
