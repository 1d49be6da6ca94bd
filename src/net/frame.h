// Length-prefixed wire framing for the standalone FL server.
//
// Every byte that crosses a socket is part of exactly one frame:
//
//   magic "CIPN" (u32 LE) | version (u32) | type (u32) | payload_len (u64)
//   | payload_len bytes of payload
//
// and every count/offset is validated before anything is sized from it —
// the same hostile-input discipline as the "CIPS"/"CIPT"/"CIPH"/"CIPR"
// loaders in fl/serialize and fl/checkpoint. Model payloads ARE the
// fl/serialize ModelState layout ("CIPS" magic and all): encoders append it
// with fl::AppendModelState, and decoders parse it in place with
// fl::ParseModelState, which shares its header checks with the stream
// loader and also requires the element count to fill the payload exactly.
// The full spec — message payloads, the round state machine, versioning
// rules, and the hostile-peer threat model — lives in docs/PROTOCOL.md.
//
// Every encoder sizes its frame first and writes header, fields and model
// state into one reserved buffer. Decoders take a std::string_view, so the
// server decodes straight from FrameReader's buffer (NextView) without
// copying a payload out first.
//
// The byte-level primitives here use shift arithmetic, not casts: the
// `reinterpret` lint rule keeps reinterpret_cast out of this layer entirely.
// Incremental parsing goes through FrameReader, whose internal buffer is
// bounded by the configured maximum frame size — a hostile peer cannot make
// a connection buffer grow without limit (backpressure is enforced one layer
// up, in net/server.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fl/model_state.h"
#include "tensor/tensor.h"

namespace cip::net {

/// Protocol magic ("CIPN" little-endian) and the one supported version.
/// Version bumps are breaking by definition; see docs/PROTOCOL.md §Versioning.
inline constexpr std::uint32_t kFrameMagic = 0x4E504943;  // "CIPN"
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Fixed frame header size in bytes: magic + version + type + payload_len.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 4 + 8;

/// Default ceiling on a single frame's payload. Large enough for any model
/// this library trains (fl/serialize caps states at 2^31 floats, but a wire
/// peer is less trusted than a local checkpoint file), small enough that one
/// connection cannot claim unbounded memory with one header.
inline constexpr std::uint64_t kDefaultMaxPayloadBytes =
    std::uint64_t{256} << 20;  // 256 MiB

/// Every message type in protocol v1. Values are wire-stable: new types
/// append, existing values never change meaning (docs/PROTOCOL.md).
enum class MsgType : std::uint32_t {
  kHello = 1,    ///< client -> server: join with a claimed client id
  kWelcome = 2,  ///< server -> client: admission + run parameters
  kRound = 3,    ///< server -> client: round begin, global model inside
  kUpdate = 4,   ///< client -> server: trained update for a round
  kFinal = 5,    ///< server -> client: final aggregate; connection done
  kBusy = 6,     ///< server -> client: admission refused, retry later
  kBye = 7,      ///< client -> server: orderly leave
  kQuery = 8,    ///< client -> server: inference batch for the served model
  kLogits = 9,   ///< server -> client: logits answering one kQuery
};

/// True when `t` is a defined protocol-v1 message type.
bool KnownMsgType(std::uint32_t t);

/// One parsed frame: its type plus the raw payload bytes.
struct Frame {
  MsgType type = MsgType::kBye;
  std::string payload;
};

/// One parsed frame whose payload still lives in the FrameReader's buffer
/// (see FrameReader::NextView for how long the view stays valid).
struct FrameView {
  MsgType type = MsgType::kBye;
  std::string_view payload;
};

// --- typed message payloads -------------------------------------------------

/// kHello payload: the id the client claims within the expected fleet.
struct HelloMsg {
  std::uint64_t client_id = 0;
};

/// kWelcome payload: everything a client needs to train deterministically —
/// the seed its per-round RNG streams derive from, the run shape, and its
/// admitted id echoed back.
struct WelcomeMsg {
  std::uint64_t client_id = 0;
  std::uint64_t run_seed = 0;
  std::uint64_t total_rounds = 0;
  std::uint64_t fleet_size = 0;
};

/// kRound payload header fields; the global model follows as a CIPS stream.
struct RoundMsg {
  std::uint64_t round = 0;  ///< 1-based round index
  float lr_scale = 1.0f;    ///< server-side learning-rate multiplier
  fl::ModelState global;    ///< the broadcast global model
};

/// kUpdate payload header fields; the update follows as a CIPS stream.
struct UpdateMsg {
  std::uint64_t round = 0;      ///< round the client trained on
  std::uint64_t client_id = 0;  ///< sender (must match the admitted id)
  float loss = 0.0f;            ///< mean local training loss
  fl::ModelState update;        ///< the trained local state
};

/// kFinal payload: the last aggregate, delivered before orderly close.
struct FinalMsg {
  fl::ModelState global;
};

/// kBusy payload: admission control's reject-with-retry-after hint.
struct BusyMsg {
  std::uint32_t retry_after_ms = 0;
};

/// kQuery payload: one client's inference batch for the serving engine —
/// the sender's id, then its raw (UNblended) inputs [N, ...sample dims] as
/// rank, dims, and IEEE-754 f32 rows. The server blends with the client's
/// stored perturbation t; the wire never carries t (it is the secret the
/// defense is built on, docs/PROTOCOL.md §Serving).
struct QueryMsg {
  std::uint64_t client_id = 0;
  Tensor inputs;  ///< [N, ...], N >= 1
};

/// kLogits payload: the logits [rows, classes] answering one kQuery, rows
/// in the query's sample order, bit-identical to an in-process
/// serve::ServeEngine answer for the same (client_id, inputs).
struct LogitsMsg {
  Tensor logits;  ///< [rows, classes]
};

// --- encoding ---------------------------------------------------------------

/// Append a little-endian u32 to `out` (shift arithmetic, no casts).
void PutU32(std::string& out, std::uint32_t v);
/// Append a little-endian u64 to `out`.
void PutU64(std::string& out, std::uint64_t v);
/// Append a float as the little-endian bytes of its IEEE-754 bit pattern.
void PutF32(std::string& out, float v);

/// Encode each typed message as a complete frame, ready to send. Every
/// encoder CHECK-fails if its payload would exceed kDefaultMaxPayloadBytes
/// (an encoder producing an unparseable frame is a programming error, not a
/// peer fault).
std::string EncodeHello(const HelloMsg& m);
/// Encode a kWelcome frame.
std::string EncodeWelcome(const WelcomeMsg& m);
/// Encode a kRound frame from its fields, reading `global` in place — the
/// round engine broadcasts its global without copying it into a RoundMsg.
std::string EncodeRound(std::uint64_t round, float lr_scale,
                        const fl::ModelState& global);
/// Encode a kRound frame (model serialized via fl/serialize).
std::string EncodeRound(const RoundMsg& m);
/// Encode a kUpdate frame (model serialized via fl/serialize).
std::string EncodeUpdate(const UpdateMsg& m);
/// Encode a kFinal frame carrying `global`, read in place.
std::string EncodeFinal(const fl::ModelState& global);
/// Encode a kFinal frame.
std::string EncodeFinal(const FinalMsg& m);
/// Encode a kBusy frame.
std::string EncodeBusy(const BusyMsg& m);
/// Encode a payload-less kBye frame.
std::string EncodeBye();
/// Encode a kQuery frame (id + rank + dims + f32 rows).
std::string EncodeQuery(const QueryMsg& m);
/// Encode a kLogits frame (rows + classes + f32 data).
std::string EncodeLogits(const LogitsMsg& m);

// --- decoding ---------------------------------------------------------------

/// Decode each typed message from a frame payload. Throws cip::CheckError on
/// truncation at any byte, trailing bytes, or a hostile embedded stream —
/// the caller treats any throw as a protocol violation by the peer.
HelloMsg DecodeHello(std::string_view payload);
/// Decode a kWelcome payload.
WelcomeMsg DecodeWelcome(std::string_view payload);
/// Decode a kRound payload, validating the embedded CIPS state.
RoundMsg DecodeRound(std::string_view payload);
/// Decode a kUpdate payload, validating the embedded CIPS state.
UpdateMsg DecodeUpdate(std::string_view payload);
/// Decode a kFinal payload, validating the embedded CIPS state.
FinalMsg DecodeFinal(std::string_view payload);
/// Decode a kBusy payload.
BusyMsg DecodeBusy(std::string_view payload);
/// Decode a kQuery payload. Rank, every dim, the overflow-checked element
/// count, and the exact remaining byte length are all validated BEFORE the
/// input tensor is sized — a hostile batch count cannot drive an allocation.
QueryMsg DecodeQuery(std::string_view payload);
/// Decode a kLogits payload with the same count-before-sizing discipline.
LogitsMsg DecodeLogits(std::string_view payload);

/// Incremental frame parser over a byte stream. Feed arbitrary chunks in
/// arrival order; NextView() / Next() yield complete frames. Every frame's
/// header is validated (magic, version, known type, payload bound) before
/// its payload is used, and the internal buffer never holds more than one
/// maximal frame beyond the last fed chunk — a hostile peer's options are a
/// clean parse or a thrown CheckError, never unbounded growth.
class FrameReader {
 public:
  /// `max_payload` bounds every accepted frame's payload length.
  explicit FrameReader(std::uint64_t max_payload = kDefaultMaxPayloadBytes)
      : max_payload_(max_payload) {}

  /// Append received bytes, first dropping the frames consumed since the
  /// last Feed. Throws cip::CheckError as soon as the buffered prefix is
  /// provably not a valid frame (bad magic/version/type, payload length past
  /// the bound) — corrupt input fails at the first bad header, before any
  /// payload is buffered.
  void Feed(std::string_view bytes);

  /// The next complete frame, its payload a view into this reader's buffer,
  /// or nullopt until more bytes arrive. The view stays valid until the next
  /// Feed, Next or NextView call. Throws cip::CheckError on a bad header.
  std::optional<FrameView> NextView();

  /// NextView() with the payload copied out.
  std::optional<Frame> Next();

  /// Bytes buffered and not yet consumed (bounded by header + max_payload
  /// plus the last fed chunk).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::uint64_t max_payload_;
  std::string buf_;
  std::size_t pos_ = 0;  ///< start of the first unconsumed frame in buf_
};

}  // namespace cip::net
