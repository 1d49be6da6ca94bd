// Wire-protocol and round-engine tests. Mostly socket-free (the loopback
// end-to-end runs live in test_net_e2e.cpp); the one exception is the
// busy-server query-path test at the bottom, which needs a real listener to
// prove kBusy admission applies to kQuery traffic.
//
// Hostile-input coverage mirrors the fl/serialize suites: every message type
// is fuzzed by truncation at every byte (frame level and payload level), bad
// magic/version/type frames and oversized length prefixes must be rejected
// before any payload buffer is sized, and trailing bytes anywhere must
// throw. The AsyncRoundEngine tests pin the buffered-asynchronous-
// aggregation semantics: arrival-order invariance, straggler folding,
// duplicate/future-round rejection, below-quorum skips, and dropout-driven
// round completion.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/cip_client.h"
#include "data/partition.h"
#include "fl/aggregate.h"
#include "fl/client_factory.h"
#include "fl/model_state.h"
#include "fl/server.h"
#include "net/frame.h"
#include "net/round_engine.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/serve_engine.h"
#include "testing_util.h"

using namespace cip;

namespace {

// Heap allocations of at least kLargeAllocBytes made by this binary. The
// hostile-state test reads it around a decode that must throw: a float
// buffer for its 1000-float state, or a copy of its payload, is that large,
// while nothing a rejecting decoder needs is, so a count that does not move
// proves neither was made.
constexpr std::size_t kLargeAllocBytes = 3072;
std::atomic<std::size_t> g_large_allocs{0};

void* CountedAlloc(std::size_t n) noexcept {
  if (n >= kLargeAllocBytes) {
    g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
// Not inlined: GCC would otherwise see free() meet operator new's pointers.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

fl::ModelState SmallState(float base) {
  return fl::ModelState(std::vector<float>{base, base + 0.5f, -base, 2.0f});
}

bool SameBits(const fl::ModelState& a, const fl::ModelState& b) {
  return a.size() == b.size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(float)) == 0;
}

/// FNV-1a 64 of a byte string (golden-frame fingerprints).
std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Every frame the v1 protocol can emit, with distinctive field values.
std::vector<std::pair<net::MsgType, std::string>> AllFrames() {
  net::HelloMsg hello;
  hello.client_id = 7;
  net::WelcomeMsg welcome;
  welcome.client_id = 7;
  welcome.run_seed = 0x123456789ABCDEFull;
  welcome.total_rounds = 5;
  welcome.fleet_size = 9;
  net::RoundMsg round;
  round.round = 3;
  round.lr_scale = 0.25f;
  round.global = SmallState(1.0f);
  net::UpdateMsg update;
  update.round = 3;
  update.client_id = 7;
  update.loss = 0.75f;
  update.update = SmallState(-2.0f);
  net::FinalMsg fin;
  fin.global = SmallState(4.0f);
  net::BusyMsg busy;
  busy.retry_after_ms = 250;
  net::QueryMsg query;
  query.client_id = 7;
  query.inputs = Tensor({2, 3});
  for (std::size_t i = 0; i < query.inputs.size(); ++i) {
    query.inputs[i] = 0.25f * static_cast<float>(i) - 0.5f;
  }
  net::LogitsMsg logits;
  logits.logits = Tensor({2, 2});
  for (std::size_t i = 0; i < logits.logits.size(); ++i) {
    logits.logits[i] = static_cast<float>(i) - 1.5f;
  }
  return {
      {net::MsgType::kHello, net::EncodeHello(hello)},
      {net::MsgType::kWelcome, net::EncodeWelcome(welcome)},
      {net::MsgType::kRound, net::EncodeRound(round)},
      {net::MsgType::kUpdate, net::EncodeUpdate(update)},
      {net::MsgType::kFinal, net::EncodeFinal(fin)},
      {net::MsgType::kBusy, net::EncodeBusy(busy)},
      {net::MsgType::kBye, net::EncodeBye()},
      {net::MsgType::kQuery, net::EncodeQuery(query)},
      {net::MsgType::kLogits, net::EncodeLogits(logits)},
  };
}

/// Decode a payload as its type (throws on anything malformed).
void DecodeAs(net::MsgType type, const std::string& payload) {
  switch (type) {
    case net::MsgType::kHello:
      net::DecodeHello(payload);
      return;
    case net::MsgType::kWelcome:
      net::DecodeWelcome(payload);
      return;
    case net::MsgType::kRound:
      net::DecodeRound(payload);
      return;
    case net::MsgType::kUpdate:
      net::DecodeUpdate(payload);
      return;
    case net::MsgType::kFinal:
      net::DecodeFinal(payload);
      return;
    case net::MsgType::kBusy:
      net::DecodeBusy(payload);
      return;
    case net::MsgType::kBye:
      return;
    case net::MsgType::kQuery:
      net::DecodeQuery(payload);
      return;
    case net::MsgType::kLogits:
      net::DecodeLogits(payload);
      return;
  }
}

}  // namespace

// ---- framing ---------------------------------------------------------------

TEST(NetFrame, RoundTripEveryMessageType) {
  for (const auto& [type, bytes] : AllFrames()) {
    net::FrameReader reader;
    reader.Feed(bytes);
    const auto f = reader.Next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, type);
    EXPECT_EQ(reader.buffered(), 0u);
    EXPECT_NO_THROW(DecodeAs(type, f->payload));
  }
}

TEST(NetFrame, GoldenBytesOfEveryMessageType) {
  // Length and FNV-1a 64 of every AllFrames() frame as the first protocol-v1
  // encoder (payload through an ostringstream, then a header splice) wrote
  // them. However the encoder builds a frame, these bytes never change.
  struct Golden {
    net::MsgType type;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  const Golden golden[] = {
      {net::MsgType::kHello, 28, 0xd89465a9473492c8ull},
      {net::MsgType::kWelcome, 52, 0xbdfeac35ff56ebbfull},
      {net::MsgType::kRound, 64, 0xfd1bf8713406f553ull},
      {net::MsgType::kUpdate, 72, 0x384cf72769a348c8ull},
      {net::MsgType::kFinal, 52, 0xcf230b5f1dc1781dull},
      {net::MsgType::kBusy, 24, 0xa4fab9e6c3acac6eull},
      {net::MsgType::kBye, 20, 0x5b381a703867e4a1ull},
      {net::MsgType::kQuery, 76, 0x5bf211301eec53cbull},
      {net::MsgType::kLogits, 60, 0x13eabc9d018a8565ull},
  };
  const auto frames = AllFrames();
  ASSERT_EQ(frames.size(), std::size(golden));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].first, golden[i].type) << "frame " << i;
    EXPECT_EQ(frames[i].second.size(), golden[i].bytes) << "frame " << i;
    EXPECT_EQ(Fnv1a64(frames[i].second), golden[i].fnv)
        << "frame " << i << " fnv 0x" << std::hex
        << Fnv1a64(frames[i].second);
  }

  // The same at a realistic size: a 1000-float global in a kRound.
  std::vector<float> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = 0.001f * static_cast<float>(i) - 0.3f;
  }
  net::RoundMsg round;
  round.round = 4;
  round.lr_scale = 0.25f;
  round.global = fl::ModelState(std::move(v));
  const std::string frame = net::EncodeRound(round);
  EXPECT_EQ(frame.size(), 4048u);
  EXPECT_EQ(Fnv1a64(frame), 0xa7958b01a988b53cull);
  // The engine's in-place encoders write the same bytes as the messages.
  EXPECT_EQ(net::EncodeRound(round.round, round.lr_scale, round.global),
            frame);
  net::FinalMsg fin;
  fin.global = round.global;
  EXPECT_EQ(net::EncodeFinal(round.global), net::EncodeFinal(fin));
}

TEST(NetFrame, TypedFieldsSurviveTheWire) {
  net::UpdateMsg update;
  update.round = 11;
  update.client_id = 42;
  update.loss = 1.5f;
  update.update = SmallState(3.0f);
  net::FrameReader reader;
  reader.Feed(net::EncodeUpdate(update));
  const auto f = reader.Next();
  ASSERT_TRUE(f.has_value());
  const net::UpdateMsg back = net::DecodeUpdate(f->payload);
  EXPECT_EQ(back.round, 11u);
  EXPECT_EQ(back.client_id, 42u);
  EXPECT_EQ(back.loss, 1.5f);
  EXPECT_TRUE(SameBits(back.update, update.update));
}

TEST(NetFrame, TruncationAtEveryByteNeverYieldsAFrame) {
  // A prefix of a valid frame must parse to "incomplete", never to a frame
  // and never to a crash. (Feed itself cannot throw on these prefixes: the
  // header they start with is valid.)
  for (const auto& [type, bytes] : AllFrames()) {
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      net::FrameReader reader;
      reader.Feed(std::string_view(bytes).substr(0, cut));
      EXPECT_FALSE(reader.Next().has_value())
          << "type " << static_cast<unsigned>(type) << " cut at " << cut;
    }
  }
}

TEST(NetFrame, PayloadTruncationAtEveryByteThrows) {
  // Below the frame layer: every proper prefix of every message payload
  // must throw out of the typed decoder (kBye has an empty payload — no
  // prefixes to test).
  for (const auto& [type, bytes] : AllFrames()) {
    net::FrameReader reader;
    reader.Feed(bytes);
    const auto f = reader.Next();
    ASSERT_TRUE(f.has_value());
    for (std::size_t cut = 0; cut < f->payload.size(); ++cut) {
      EXPECT_THROW(DecodeAs(type, f->payload.substr(0, cut)), CheckError)
          << "type " << static_cast<unsigned>(type) << " cut at " << cut;
    }
  }
}

TEST(NetFrame, TrailingBytesThrow) {
  for (const auto& [type, bytes] : AllFrames()) {
    if (type == net::MsgType::kBye) continue;  // payload-less
    net::FrameReader reader;
    reader.Feed(bytes);
    const auto f = reader.Next();
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(DecodeAs(type, f->payload + std::string(1, '\0')),
                 CheckError)
        << "type " << static_cast<unsigned>(type);
  }
}

TEST(NetFrame, BadMagicVersionTypeRejected) {
  const auto header = [](std::uint32_t magic, std::uint32_t version,
                         std::uint32_t type, std::uint64_t len) {
    std::string h;
    net::PutU32(h, magic);
    net::PutU32(h, version);
    net::PutU32(h, type);
    net::PutU64(h, len);
    return h;
  };
  {
    net::FrameReader reader;
    EXPECT_THROW(reader.Feed(header(0xDEADBEEF, net::kProtocolVersion,
                                    1, 0)),
                 CheckError);
  }
  {
    net::FrameReader reader;
    EXPECT_THROW(reader.Feed(header(net::kFrameMagic,
                                    net::kProtocolVersion + 1, 1, 0)),
                 CheckError);
  }
  {
    net::FrameReader reader;  // type 0 and type 10 are both undefined in v1
    EXPECT_THROW(reader.Feed(header(net::kFrameMagic, net::kProtocolVersion,
                                    0, 0)),
                 CheckError);
  }
  {
    net::FrameReader reader;
    EXPECT_THROW(reader.Feed(header(net::kFrameMagic, net::kProtocolVersion,
                                    10, 0)),
                 CheckError);
  }
}

TEST(NetFrame, OversizedLengthRejectedBeforeBuffering) {
  // A hostile header claiming a huge payload must throw at header time —
  // the reader never sizes a buffer from the claim. Bound the reader small
  // so the test proves rejection is the *bound*, not an allocation failure.
  net::FrameReader reader(/*max_payload=*/1024);
  std::string h;
  net::PutU32(h, net::kFrameMagic);
  net::PutU32(h, net::kProtocolVersion);
  net::PutU32(h, static_cast<std::uint32_t>(net::MsgType::kHello));
  net::PutU64(h, 1025);
  EXPECT_THROW(reader.Feed(h), CheckError);
  // And the u64 extreme: ~16 EiB cannot slip past as a size_t truncation.
  net::FrameReader reader2(/*max_payload=*/1024);
  std::string h2;
  net::PutU32(h2, net::kFrameMagic);
  net::PutU32(h2, net::kProtocolVersion);
  net::PutU32(h2, static_cast<std::uint32_t>(net::MsgType::kHello));
  net::PutU64(h2, ~std::uint64_t{0});
  EXPECT_THROW(reader2.Feed(h2), CheckError);
}

TEST(NetFrame, OneByteFeedsReassembleAStream) {
  // Arbitrary fragmentation must be invisible: feed a multi-frame stream a
  // byte at a time and collect every frame.
  std::string stream;
  const auto frames = AllFrames();
  for (const auto& [type, bytes] : frames) stream += bytes;
  net::FrameReader reader;
  std::vector<net::Frame> got;
  for (const char byte : stream) {
    reader.Feed(std::string_view(&byte, 1));
    while (auto f = reader.Next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, frames[i].first);
    EXPECT_NO_THROW(DecodeAs(got[i].type, got[i].payload));
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(NetFrame, HostileEmbeddedModelStateRejected) {
  // Every frame type that embeds a CIPS model state, crossed with every way
  // that state's header can lie: magic, version, and an element count one
  // off either way, one past the 2^31 bound, or 2^64 - 1. The typed decoder
  // must throw on each, and on the count lies before any float buffer is
  // sized (a 1000-float state, so that buffer would be 3996+ bytes).
  const fl::ModelState state(std::vector<float>(1000, 0.5f));
  net::RoundMsg round;
  round.round = 1;
  round.global = state;
  net::UpdateMsg update;
  update.round = 1;
  update.client_id = 2;
  update.update = state;
  net::FinalMsg fin;
  fin.global = state;
  struct Carrier {
    net::MsgType type;
    std::string frame;
    std::size_t state_at;  ///< offset of the CIPS header in the payload
  };
  const Carrier carriers[] = {
      {net::MsgType::kRound, net::EncodeRound(round), 8 + 4},
      {net::MsgType::kUpdate, net::EncodeUpdate(update), 8 + 8 + 4},
      {net::MsgType::kFinal, net::EncodeFinal(fin), 0},
  };
  struct Lie {
    const char* name;
    std::size_t at;     ///< offset within the CIPS header
    std::size_t width;  ///< bytes overwritten, little-endian
    std::uint64_t value;
    bool count;
  };
  const Lie lies[] = {
      {"bad magic", 0, 4, 0x43495053u ^ 0x5Au, false},
      {"bad version", 4, 4, 2, false},
      {"count + 1", 8, 8, 1001, true},
      {"count - 1", 8, 8, 999, true},
      {"count 2^31 + 1", 8, 8, (std::uint64_t{1} << 31) + 1, true},
      {"count 2^64 - 1", 8, 8, ~std::uint64_t{0}, true},
  };
  for (const Carrier& carrier : carriers) {
    for (const Lie& lie : lies) {
      std::string payload = carrier.frame.substr(net::kFrameHeaderBytes);
      for (std::size_t b = 0; b < lie.width; ++b) {
        payload[carrier.state_at + lie.at + b] =
            static_cast<char>((lie.value >> (8 * b)) & 0xFF);
      }
      const std::size_t large_before = g_large_allocs.load();
      EXPECT_THROW(DecodeAs(carrier.type, payload), CheckError)
          << "type " << static_cast<unsigned>(carrier.type) << ", "
          << lie.name;
      if (lie.count) {
        EXPECT_EQ(g_large_allocs.load(), large_before)
            << "type " << static_cast<unsigned>(carrier.type) << ", "
            << lie.name << ": a float buffer was sized from the lie";
      }
    }
  }
}

TEST(NetFrame, NextViewMatchesNext) {
  // NextView hands out payloads inside the reader's buffer and Next copies
  // them out. Fed the same stream whole, a byte at a time, or in 7-byte
  // pieces, both must yield every frame with its exact payload bytes and
  // end with nothing buffered.
  const auto frames = AllFrames();
  std::string stream;
  for (const auto& [type, bytes] : frames) stream += bytes;
  for (const std::size_t piece :
       {stream.size(), std::size_t{1}, std::size_t{7}}) {
    net::FrameReader by_view;
    net::FrameReader by_copy;
    std::vector<std::pair<net::MsgType, std::string>> views, copies;
    for (std::size_t at = 0; at < stream.size(); at += piece) {
      const std::string_view chunk = std::string_view(stream).substr(at, piece);
      by_view.Feed(chunk);
      while (const auto f = by_view.NextView()) {
        views.emplace_back(f->type, std::string(f->payload));
      }
      by_copy.Feed(chunk);
      while (auto f = by_copy.Next()) {
        copies.emplace_back(f->type, std::move(f->payload));
      }
    }
    ASSERT_EQ(views.size(), frames.size()) << "piece " << piece;
    ASSERT_EQ(copies.size(), frames.size()) << "piece " << piece;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(views[i].first, frames[i].first) << "piece " << piece;
      EXPECT_EQ(copies[i].first, frames[i].first) << "piece " << piece;
      const std::string payload =
          frames[i].second.substr(net::kFrameHeaderBytes);
      EXPECT_EQ(views[i].second, payload) << "piece " << piece;
      EXPECT_EQ(copies[i].second, payload) << "piece " << piece;
    }
    EXPECT_EQ(by_view.buffered(), 0u) << "piece " << piece;
    EXPECT_EQ(by_copy.buffered(), 0u) << "piece " << piece;
  }
}

TEST(NetFrame, BadHeaderBehindAFrameInOneChunkRejected) {
  // Feed checks the header at the front of its buffer; a frame that
  // arrives behind another in the same chunk is checked when NextView
  // reaches it, so no header check is skipped for it.
  const std::string good = AllFrames()[0].second;  // kHello, 8-byte payload
  const std::vector<std::pair<std::size_t, std::uint32_t>> lies = {
      {0, 0xDEADBEEFu},                    // magic
      {4, net::kProtocolVersion + 1},      // version
      {8, 10},                             // type
      {12, 1025},                          // payload length past the bound
  };
  for (const auto& [at, value] : lies) {
    std::string bad = good;
    for (std::size_t b = 0; b < 4; ++b) {
      bad[at + b] = static_cast<char>((value >> (8 * b)) & 0xFF);
    }
    net::FrameReader reader(/*max_payload=*/1024);
    reader.Feed(good + bad);
    ASSERT_TRUE(reader.NextView().has_value()) << "header offset " << at;
    EXPECT_THROW(reader.NextView(), CheckError) << "header offset " << at;
  }
}

TEST(NetFrame, HostileQueryBatchCountRejectedBeforeSizing) {
  // A kQuery payload whose rank/dims claim an absurd batch must throw
  // before any tensor is sized from the claim: the element-buffer
  // allocation counter must not move across the rejection.
  const auto query_payload = [](std::uint64_t rank,
                                const std::vector<std::uint64_t>& dims) {
    std::string p;
    net::PutU64(p, /*client_id=*/7);
    net::PutU64(p, rank);
    for (const std::uint64_t d : dims) net::PutU64(p, d);
    return p;
  };
  const std::vector<std::string> hostile = {
      // One dim past the per-dim wire bound (2^31).
      query_payload(2, {std::uint64_t{1} << 40, 4}),
      // Each dim in bounds, product overflows the element cap.
      query_payload(2, {std::uint64_t{1} << 30, std::uint64_t{1} << 30}),
      // Zero dim (empty batches are not a thing on the wire).
      query_payload(2, {0, 4}),
      // Rank outside [2, 8].
      query_payload(0, {}),
      query_payload(1, {4}),
      query_payload(9, {1, 1, 1, 1, 1, 1, 1, 1, 1}),
      // Plausible dims, no data behind them: length checked before sizing.
      query_payload(2, {1000, 1000}),
  };
  const std::size_t allocs_before = internal::TensorAllocCount();
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_THROW(net::DecodeQuery(hostile[i]), CheckError) << "case " << i;
  }
  EXPECT_EQ(internal::TensorAllocCount(), allocs_before);
}

// ---- the round engine ------------------------------------------------------

namespace {

net::AsyncRoundEngine::Options EngineOpts(std::size_t rounds,
                                          std::size_t fleet,
                                          std::size_t quorum,
                                          std::size_t min_quorum = 1) {
  net::AsyncRoundEngine::Options o;
  o.total_rounds = rounds;
  o.fleet_size = fleet;
  o.quorum = quorum;
  o.min_quorum = min_quorum;
  o.run_seed = 99;
  return o;
}

net::UpdateMsg Update(std::uint64_t id, std::uint64_t round, float base) {
  net::UpdateMsg u;
  u.round = round;
  u.client_id = id;
  u.loss = 0.1f;
  u.update = SmallState(base);
  return u;
}

/// True when any send in `sends` addressed `id` with a frame of `type`.
bool Sent(const std::vector<net::EngineSend>& sends, std::uint64_t id,
          net::MsgType type) {
  for (const net::EngineSend& s : sends) {
    if (s.client_id != id || !s.frame) continue;
    net::FrameReader r;
    r.Feed(*s.frame);
    // A send may carry several concatenated frames; scan them all.
    while (auto f = r.Next()) {
      if (f->type == type) return true;
    }
  }
  return false;
}

}  // namespace

TEST(AsyncRoundEngine, JoinHandsWelcomeAndCurrentRound) {
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(2, 2, 2));
  const auto sends = eng.OnJoin(0);
  EXPECT_TRUE(Sent(sends, 0, net::MsgType::kWelcome));
  EXPECT_TRUE(Sent(sends, 0, net::MsgType::kRound));
  EXPECT_EQ(eng.live_clients(), 1u);
}

TEST(AsyncRoundEngine, BroadcastSharesOneFrame) {
  // A round close encodes its broadcast once: the kRound sends of one close
  // all point at one buffer, and so do the kFinal sends of the last close.
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(2, 3, 3));
  for (std::uint64_t id : {0, 1, 2}) eng.OnJoin(id);
  std::vector<net::EngineSend> rounds;
  for (std::uint64_t id : {0, 1, 2}) {
    rounds = eng.OnUpdate(id, Update(id, 1, 1.0f + static_cast<float>(id)));
  }
  ASSERT_EQ(rounds.size(), 3u);
  ASSERT_NE(rounds[0].frame, nullptr);
  for (const net::EngineSend& s : rounds) {
    EXPECT_TRUE(Sent({s}, s.client_id, net::MsgType::kRound));
    EXPECT_EQ(s.frame, rounds[0].frame) << "client " << s.client_id;
  }

  std::vector<net::EngineSend> finals;
  for (std::uint64_t id : {0, 1, 2}) {
    finals = eng.OnUpdate(id, Update(id, 2, 1.0f + static_cast<float>(id)));
  }
  ASSERT_TRUE(eng.done());
  ASSERT_EQ(finals.size(), 3u);
  ASSERT_NE(finals[0].frame, nullptr);
  for (const net::EngineSend& s : finals) {
    EXPECT_TRUE(Sent({s}, s.client_id, net::MsgType::kFinal));
    EXPECT_TRUE(s.then_close);
    EXPECT_EQ(s.frame, finals[0].frame) << "client " << s.client_id;
  }
}

TEST(AsyncRoundEngine, RejectsOutOfFleetAndDuplicateIds) {
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(2, 2, 2));
  auto bad = eng.OnJoin(2);  // ids are [0, fleet_size)
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(bad[0].then_close);
  EXPECT_EQ(bad[0].frame, nullptr);
  eng.OnJoin(0);
  auto dup = eng.OnJoin(0);
  ASSERT_EQ(dup.size(), 1u);
  EXPECT_TRUE(dup[0].then_close);
  EXPECT_EQ(eng.stats().protocol_errors, 2u);
}

TEST(AsyncRoundEngine, SynchronousRoundsFoldInAscendingIdOrder) {
  // quorum == fleet: the round closes only when every live client has
  // delivered, and the fold must equal a hand-built ascending-id tree mean
  // regardless of arrival order.
  const std::vector<std::vector<std::uint64_t>> arrival_orders = {
      {0, 1, 2}, {2, 1, 0}, {1, 0, 2}};
  fl::ModelState expected;
  for (std::size_t variant = 0; variant < arrival_orders.size(); ++variant) {
    net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(1, 3, 3));
    for (std::uint64_t id : {0, 1, 2}) eng.OnJoin(id);
    std::vector<net::EngineSend> last;
    for (std::uint64_t id : arrival_orders[variant]) {
      last = eng.OnUpdate(id, Update(id, 1, 1.0f + static_cast<float>(id)));
    }
    EXPECT_TRUE(eng.done());
    for (std::uint64_t id : {0, 1, 2}) {
      EXPECT_TRUE(Sent(last, id, net::MsgType::kFinal));
    }
    if (variant == 0) {
      fl::TreeAccumulator acc;
      for (float base : {1.0f, 2.0f, 3.0f}) acc.Add(SmallState(base));
      expected = acc.FinishMean();
    }
    EXPECT_TRUE(SameBits(eng.global(), expected)) << "variant " << variant;
  }
}

TEST(AsyncRoundEngine, QuorumClosesEarlyAndFoldsStragglerNextRound) {
  // K=1 of N=2: the fast client closes round 1 alone; the slow client's
  // round-1 update arrives during round 2 and must fold there as a
  // straggler (telemetry counts it), closing round 2 in turn.
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(3, 2, 1));
  eng.OnJoin(0);
  eng.OnJoin(1);
  auto sends = eng.OnUpdate(0, Update(0, 1, 2.0f));
  EXPECT_EQ(eng.current_round(), 2u);
  EXPECT_TRUE(Sent(sends, 0, net::MsgType::kRound));
  EXPECT_FALSE(Sent(sends, 1, net::MsgType::kRound));  // still in flight

  sends = eng.OnUpdate(1, Update(1, 1, 5.0f));  // late round-1 update
  EXPECT_EQ(eng.current_round(), 3u);           // folded, closed round 2
  EXPECT_TRUE(Sent(sends, 1, net::MsgType::kRound));
  EXPECT_EQ(eng.stats().folded_stragglers, 1u);
  ASSERT_EQ(eng.telemetry().rounds.size(), 2u);
  EXPECT_EQ(eng.telemetry().rounds[1].folded_stragglers, 1u);
  EXPECT_EQ(eng.telemetry().rounds[1].survivors, 1u);
}

TEST(AsyncRoundEngine, UnjoinedFleetMemberHoldsItsSeat) {
  // quorum == fleet == 2 but only client 0 has connected: its update must
  // NOT close the round — the unjoined client 1 still counts as a pending
  // delivery, or startup order would decide what round 1 aggregates.
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(1, 2, 2));
  eng.OnJoin(0);
  eng.OnUpdate(0, Update(0, 1, 2.0f));
  EXPECT_FALSE(eng.done());
  EXPECT_EQ(eng.telemetry().rounds.size(), 0u);
  // The slow starter arrives, trains, delivers: now the round closes with
  // both updates.
  eng.OnJoin(1);
  eng.OnUpdate(1, Update(1, 1, 4.0f));
  EXPECT_TRUE(eng.done());
  fl::TreeAccumulator acc;
  acc.Add(SmallState(2.0f));
  acc.Add(SmallState(4.0f));
  EXPECT_TRUE(SameBits(eng.global(), acc.FinishMean()));
}

TEST(AsyncRoundEngine, NeverJoinedSeatReleasedOnlyByNothingButQuorum) {
  // With quorum 1 of 2, an absent client never blocks progress: the seat
  // reservation caps the close target at quorum, not at fleet size.
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(1, 2, 1));
  eng.OnJoin(0);
  eng.OnUpdate(0, Update(0, 1, 2.0f));
  EXPECT_TRUE(eng.done());
}

TEST(AsyncRoundEngine, DuplicateUpdateIsAProtocolError) {
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(2, 2, 2));
  eng.OnJoin(0);
  eng.OnJoin(1);
  eng.OnUpdate(0, Update(0, 1, 2.0f));
  const auto sends = eng.OnUpdate(0, Update(0, 1, 2.0f));
  ASSERT_FALSE(sends.empty());
  EXPECT_TRUE(sends[0].then_close);
  EXPECT_EQ(eng.stats().protocol_errors, 1u);
  EXPECT_EQ(eng.live_clients(), 1u);
}

TEST(AsyncRoundEngine, FutureRoundAndWrongIdAreProtocolErrors) {
  {
    net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(2, 2, 2));
    eng.OnJoin(0);
    const auto sends = eng.OnUpdate(0, Update(0, 2, 2.0f));  // round 2 early
    ASSERT_FALSE(sends.empty());
    EXPECT_TRUE(sends[0].then_close);
  }
  {
    net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(2, 2, 2));
    eng.OnJoin(0);
    const auto sends = eng.OnUpdate(0, Update(1, 1, 2.0f));  // claims id 1
    ASSERT_FALSE(sends.empty());
    EXPECT_TRUE(sends[0].then_close);
  }
}

TEST(AsyncRoundEngine, MismatchedUpdateSizeIsAProtocolError) {
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(2, 2, 2));
  eng.OnJoin(0);
  net::UpdateMsg u = Update(0, 1, 2.0f);
  u.update = fl::ModelState(std::vector<float>{1.0f});  // wrong size
  const auto sends = eng.OnUpdate(0, u);
  ASSERT_FALSE(sends.empty());
  EXPECT_TRUE(sends[0].then_close);
  EXPECT_EQ(eng.stats().protocol_errors, 1u);
}

TEST(AsyncRoundEngine, DropoutCompletesARoundWaitingOnlyOnTheDead) {
  // N=3 synchronous; clients 0 and 1 delivered, client 2's connection dies.
  // The round must complete from the survivors — the wire version of the
  // in-process forced-kDropout degradation.
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(1, 3, 3));
  for (std::uint64_t id : {0, 1, 2}) eng.OnJoin(id);
  eng.OnUpdate(0, Update(0, 1, 2.0f));
  eng.OnUpdate(1, Update(1, 1, 4.0f));
  EXPECT_FALSE(eng.done());
  const auto sends = eng.OnDisconnect(2);
  EXPECT_TRUE(eng.done());
  EXPECT_TRUE(eng.fleet_settled());  // 0,1 got kFinal; 2 joined then left
  EXPECT_TRUE(Sent(sends, 0, net::MsgType::kFinal));
  EXPECT_TRUE(Sent(sends, 1, net::MsgType::kFinal));
  fl::TreeAccumulator acc;
  acc.Add(SmallState(2.0f));
  acc.Add(SmallState(4.0f));
  EXPECT_TRUE(SameBits(eng.global(), acc.FinishMean()));
  ASSERT_EQ(eng.telemetry().rounds.size(), 1u);
  EXPECT_EQ(eng.telemetry().rounds[0].survivors, 2u);
}

TEST(AsyncRoundEngine, BelowMinQuorumSkipsTheRound) {
  // min_quorum 2 but only one survivor: the round closes *skipped* and the
  // global is bit-unchanged — QuorumPolicy::kSkipRound on the wire.
  const fl::ModelState initial = SmallState(1.0f);
  net::AsyncRoundEngine eng(initial, EngineOpts(2, 2, 2, /*min_quorum=*/2));
  eng.OnJoin(0);
  eng.OnJoin(1);
  eng.OnUpdate(0, Update(0, 1, 9.0f));
  eng.OnDisconnect(1);  // live drops to 1; round closes with 1 < min_quorum
  ASSERT_EQ(eng.telemetry().rounds.size(), 1u);
  EXPECT_TRUE(eng.telemetry().rounds[0].skipped);
  EXPECT_EQ(eng.stats().rounds_skipped, 1u);
  EXPECT_TRUE(SameBits(eng.global(), initial));
  EXPECT_EQ(eng.current_round(), 2u);  // a skipped round still advances
}

TEST(AsyncRoundEngine, LateJoinerAfterFinalGetsTheAggregate) {
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(1, 2, 1));
  eng.OnJoin(0);
  eng.OnUpdate(0, Update(0, 1, 2.0f));
  ASSERT_TRUE(eng.done());
  // Client 1 never joined, so the run is done but the fleet is not settled:
  // a draining server must keep listening for exactly this joiner.
  EXPECT_FALSE(eng.fleet_settled());
  const auto sends = eng.OnJoin(1);
  EXPECT_TRUE(Sent(sends, 1, net::MsgType::kWelcome));
  EXPECT_TRUE(Sent(sends, 1, net::MsgType::kFinal));
  ASSERT_FALSE(sends.empty());
  EXPECT_TRUE(sends.back().then_close);
  EXPECT_TRUE(eng.fleet_settled());
}

TEST(AsyncRoundEngine, InFlightStragglerAtRunEndGetsFinalNotAnError) {
  // K=1 of N=2, one round: client 0 closes the run while client 1 is still
  // training. Client 1's late update must be answered with kFinal.
  net::AsyncRoundEngine eng(SmallState(1.0f), EngineOpts(1, 2, 1));
  eng.OnJoin(0);
  eng.OnJoin(1);
  eng.OnUpdate(0, Update(0, 1, 2.0f));
  ASSERT_TRUE(eng.done());
  EXPECT_FALSE(eng.fleet_settled());  // client 1 is still in flight
  const auto sends = eng.OnUpdate(1, Update(1, 1, 5.0f));
  EXPECT_TRUE(Sent(sends, 1, net::MsgType::kFinal));
  EXPECT_TRUE(eng.fleet_settled());
  EXPECT_EQ(eng.stats().protocol_errors, 0u);
  // The post-final update is not aggregated: the run's global is client 0's
  // round alone.
  EXPECT_TRUE(SameBits(eng.global(), SmallState(2.0f)));
}

TEST(AsyncRoundEngine, LrScaleMatchesInProcessSchedule) {
  // Part of the wire/in-process bit-identity contract: under an LR decay,
  // every kRound frame carries exactly the lr_scale bits FederatedAveraging
  // hands its clients through RoundContext for the same round.
  constexpr std::size_t kRounds = 5;
  struct ScaleProbe : fl::ClientBase {
    std::vector<float> scales;
    data::Dataset data;
    fl::ModelState state;

    void SetGlobal(const fl::ModelState& global) override { state = global; }
    fl::ModelState TrainLocal(fl::RoundContext ctx) override {
      scales.push_back(ctx.lr_scale);
      return state;
    }
    double EvalAccuracy(const data::Dataset&) override { return 0.0; }
    float LastTrainLoss() const override { return 0.0f; }
    const data::Dataset& LocalData() const override { return data; }
  };
  ScaleProbe probe;
  fl::ClientBase* ptr = &probe;
  fl::FlOptions fl_opts;
  fl_opts.rounds = kRounds;
  fl_opts.lr_decay = 0.5f;
  fl_opts.lr_decay_every = 2;
  fl::FederatedAveraging server(SmallState(1.0f), fl_opts);
  fl::ClientStore store{std::span<fl::ClientBase* const>(&ptr, 1)};
  server.Run(store, 7);

  net::AsyncRoundEngine::Options opts = EngineOpts(kRounds, 1, 1);
  opts.lr_decay = fl_opts.lr_decay;
  opts.lr_decay_every = fl_opts.lr_decay_every;
  net::AsyncRoundEngine eng(SmallState(1.0f), opts);
  std::vector<float> wire;
  std::vector<net::EngineSend> sends = eng.OnJoin(0);
  for (std::uint64_t round = 1; round <= kRounds; ++round) {
    for (const net::EngineSend& send : sends) {
      if (!send.frame) continue;
      net::FrameReader reader;
      reader.Feed(*send.frame);
      while (auto f = reader.Next()) {
        if (f->type == net::MsgType::kRound) {
          wire.push_back(net::DecodeRound(f->payload).lr_scale);
        }
      }
    }
    sends = eng.OnUpdate(0, Update(0, round, 1.0f));
  }

  ASSERT_EQ(probe.scales.size(), kRounds);
  ASSERT_EQ(wire.size(), kRounds);
  EXPECT_EQ(std::memcmp(wire.data(), probe.scales.data(),
                        kRounds * sizeof(float)),
            0);
  EXPECT_EQ(wire.back(), 0.25f);  // the decay really applied: 0.5^2
}

// ---- admission control on the query path -----------------------------------

namespace {

/// Minimal serving fixture for the admission test: a 2-client CIP fleet over
/// a tiny MLP (geometry matches tests/test_serve.cpp's deployment).
std::vector<fl::ClientSpec> ServingSpecs(std::size_t num_clients) {
  Rng rng(5);
  data::Dataset full = cip::testing::TwoBlobs(8 * num_clients, 4, rng);
  const auto shards = data::PartitionIid(full, num_clients, rng);
  std::vector<fl::ClientSpec> specs;
  for (std::size_t k = 0; k < num_clients; ++k) {
    fl::ClientSpec spec;
    spec.kind = fl::ClientKind::kCip;
    spec.model.arch = nn::Arch::kMLP;
    spec.model.input_shape = {4};
    spec.model.num_classes = 2;
    spec.model.width = 6;
    spec.model.seed = 77;
    spec.data = shards[k];
    spec.seed = 50 + k;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Block-read one frame after stepping the server (same single-thread pump
/// as tests/test_serve.cpp); nullopt when the server closed the connection.
std::optional<net::Frame> ReadOneFrame(net::CipServer& server,
                                       net::Socket& sock) {
  for (int i = 0; i < 4; ++i) server.Step(0);
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

}  // namespace

TEST(NetServer, BusyServerRejectsQueryPeerWhoRetriesAfterward) {
  // Queries obey the same admission rule as round traffic: a peer past
  // max_connections gets kBusy + close even though it only wanted inference,
  // and succeeds on retry once a seat frees up.
  const auto specs = ServingSpecs(2);
  std::unique_ptr<core::CipClient> global = fl::MakeCipClient(specs[0]);
  fl::ClientStore store = fl::MakeClientStore(specs);
  serve::ServeOptions sopts;
  sopts.blend = global->config().blend;
  serve::ServeEngine engine(global->model(), store, sopts);

  net::AsyncRoundEngine::Options eng;
  eng.fleet_size = 2;
  eng.quorum = 2;
  net::ServerOptions server_opts;
  server_opts.max_connections = 1;
  server_opts.drain_fleet = false;
  net::CipServer server(fl::ModelState(std::vector<float>{0.0f}), eng,
                        server_opts);
  server.EnableServing(&engine);
  server.Listen();

  net::QueryMsg q;
  q.client_id = 0;
  Rng rng(3);
  q.inputs = Tensor({2, 4});
  for (float& v : q.inputs.flat()) v = rng.Normal();
  const std::string query_frame = net::EncodeQuery(q);

  // Seat-holder connects first and does nothing.
  net::Socket holder = net::ConnectTcp("127.0.0.1", server.port());
  server.Step(0);  // accept the holder

  // The query peer is over capacity: its query is never read — it gets
  // kBusy with the retry hint, then an orderly close.
  net::Socket peer = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(net::SendAll(
      peer, std::span<const char>(query_frame.data(), query_frame.size())));
  const auto busy = ReadOneFrame(server, peer);
  ASSERT_TRUE(busy.has_value());
  ASSERT_EQ(busy->type, net::MsgType::kBusy);
  const net::BusyMsg hint = net::DecodeBusy(busy->payload);
  EXPECT_EQ(hint.retry_after_ms, server_opts.busy_retry_ms);
  EXPECT_FALSE(ReadOneFrame(server, peer).has_value());  // closed after kBusy
  EXPECT_EQ(server.stats().busy_rejections, 1u);
  EXPECT_EQ(engine.stats().queries, 0u);

  // The seat frees; the retry is admitted and answered with logits.
  holder.Close();
  for (int i = 0; i < 4; ++i) server.Step(0);  // observe EOF, reap the seat
  net::Socket retry = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(net::SendAll(
      retry, std::span<const char>(query_frame.data(), query_frame.size())));
  const auto reply = ReadOneFrame(server, retry);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, net::MsgType::kLogits);
  const net::LogitsMsg logits = net::DecodeLogits(reply->payload);
  EXPECT_EQ(logits.logits.dim(0), 2u);
  EXPECT_EQ(logits.logits.dim(1), 2u);
  EXPECT_EQ(engine.stats().queries, 1u);
}
