#include "net/frame.h"

#include <bit>
#include <utility>

#include "common/check.h"
#include "fl/serialize.h"

namespace cip::net {

namespace {

/// Bounds-checked read cursor over a payload. Every Take* CHECK-fails on
/// truncation, so a short or trailing-garbage payload can never yield a
/// silently wrong value — the wire twin of fl/serialize's readers.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  std::uint32_t TakeU32() {
    Need(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(bytes_[pos_ + i]);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t TakeU64() {
    Need(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(bytes_[pos_ + i]);
    }
    pos_ += 8;
    return v;
  }

  float TakeF32() { return std::bit_cast<float>(TakeU32()); }

  /// The unread remainder of the payload (an embedded CIPS state).
  std::string_view Rest() const { return bytes_.substr(pos_); }

  /// CHECK that exactly `n` unread bytes remain — an embedded array's
  /// claimed count must account for the rest of the payload precisely,
  /// BEFORE anything is sized from it.
  void NeedExact(std::uint64_t n) const {
    CIP_CHECK_MSG(bytes_.size() - pos_ == n,
                  "embedded array claims " << n << " bytes but "
                                           << bytes_.size() - pos_
                                           << " remain in the payload");
  }

  void ExpectDone() const {
    CIP_CHECK_MSG(pos_ == bytes_.size(),
                  "trailing bytes after message payload: " << pos_ << " of "
                                                           << bytes_.size()
                                                           << " consumed");
  }

 private:
  void Need(std::size_t n) const {
    CIP_CHECK_MSG(pos_ + n <= bytes_.size(),
                  "truncated message payload: need " << n << " bytes at offset "
                                                     << pos_ << " of "
                                                     << bytes_.size());
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// A frame buffer sized for `payload_len` payload bytes, header written:
/// the caller appends exactly that many bytes. CHECK-fails past
/// kDefaultMaxPayloadBytes.
std::string StartFrame(MsgType type, std::size_t payload_len) {
  CIP_CHECK_MSG(payload_len <= kDefaultMaxPayloadBytes,
                "frame payload too large to encode: " << payload_len);
  std::string out;
  // CIP_ANALYZE_OK(hot-alloc): the frame's one allocation, sized up front
  out.reserve(kFrameHeaderBytes + payload_len);
  PutU32(out, kFrameMagic);
  PutU32(out, kProtocolVersion);
  PutU32(out, static_cast<std::uint32_t>(type));
  PutU64(out, payload_len);
  return out;
}

/// Validate the frame header at the start of `bytes` (at least
/// kFrameHeaderBytes long) and return its type and payload length.
std::pair<MsgType, std::uint64_t> CheckHeader(std::string_view bytes,
                                              std::uint64_t max_payload) {
  Cursor c(bytes);
  const std::uint32_t magic = c.TakeU32();
  CIP_CHECK_MSG(magic == kFrameMagic,
                "bad frame magic 0x" << std::hex << magic);
  const std::uint32_t version = c.TakeU32();
  CIP_CHECK_MSG(version == kProtocolVersion,
                "unsupported protocol version " << version);
  const std::uint32_t type = c.TakeU32();
  CIP_CHECK_MSG(KnownMsgType(type), "unknown message type " << type);
  const std::uint64_t len = c.TakeU64();
  CIP_CHECK_MSG(len <= max_payload, "frame payload length "
                                        << len << " exceeds the "
                                        << max_payload << "-byte bound");
  return {static_cast<MsgType>(type), len};
}

// Bounds for wire tensors (kQuery/kLogits), matching fl/serialize: rank in
// [1, 8], overflow-checked element product below 2^31. A 256 MiB frame can
// only carry ~2^26 floats anyway, but the count is rejected on its own
// merits before the payload length is even consulted.
constexpr std::uint64_t kMaxWireElements = std::uint64_t{1} << 31;

// Read rank + dims + f32 data from `c`, validating rank, every dim, the
// overflow-checked element count, and the exact byte length BEFORE the
// tensor is sized — the count-before-sizing rule of docs/PROTOCOL.md §8.
Tensor TakeTensor(Cursor& c, std::uint64_t min_rank) {
  const std::uint64_t rank = c.TakeU64();
  CIP_CHECK_MSG(rank >= min_rank && rank <= 8,
                "implausible wire tensor rank " << rank);
  Shape shape(rank);
  std::uint64_t n = 1;
  for (std::uint64_t i = 0; i < rank; ++i) {
    const std::uint64_t d = c.TakeU64();
    CIP_CHECK_MSG(d >= 1 && d <= kMaxWireElements,
                  "implausible wire tensor dim " << d);
    CIP_CHECK_MSG(n <= kMaxWireElements / d,
                  "wire tensor element count overflows: dim " << d);
    n *= d;
    shape[i] = d;
  }
  c.NeedExact(4 * n);  // the claimed count must match the bytes on the wire
  // CIP_ANALYZE_OK(hot-alloc-tensor): rank/dims/count/length all validated above
  Tensor t(shape);
  for (std::uint64_t i = 0; i < n; ++i) t[i] = c.TakeF32();
  return t;
}

void PutTensor(std::string& out, const Tensor& t) {
  PutU64(out, t.rank());
  for (std::size_t i = 0; i < t.rank(); ++i) PutU64(out, t.dim(i));
  for (std::size_t i = 0; i < t.size(); ++i) PutF32(out, t[i]);
}

}  // namespace

bool KnownMsgType(std::uint32_t t) {
  return t >= static_cast<std::uint32_t>(MsgType::kHello) &&
         t <= static_cast<std::uint32_t>(MsgType::kLogits);
}

// CIP_HOT  (wire encode: every outbound byte passes through these)
void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    // CIP_ANALYZE_OK(hot-alloc): appends into the caller's one frame buffer
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

// CIP_HOT  (wire encode: every outbound byte passes through these)
void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    // CIP_ANALYZE_OK(hot-alloc): appends into the caller's one frame buffer
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutF32(std::string& out, float v) {
  PutU32(out, std::bit_cast<std::uint32_t>(v));
}

std::string EncodeHello(const HelloMsg& m) {
  std::string out = StartFrame(MsgType::kHello, 8);
  PutU64(out, m.client_id);
  return out;
}

std::string EncodeWelcome(const WelcomeMsg& m) {
  std::string out = StartFrame(MsgType::kWelcome, 4 * 8);
  PutU64(out, m.client_id);
  PutU64(out, m.run_seed);
  PutU64(out, m.total_rounds);
  PutU64(out, m.fleet_size);
  return out;
}

std::string EncodeRound(std::uint64_t round, float lr_scale,
                        const fl::ModelState& global) {
  std::string out =
      StartFrame(MsgType::kRound, 8 + 4 + fl::ModelStateBytes(global));
  PutU64(out, round);
  PutF32(out, lr_scale);
  fl::AppendModelState(out, global);
  return out;
}

std::string EncodeRound(const RoundMsg& m) {
  return EncodeRound(m.round, m.lr_scale, m.global);
}

std::string EncodeUpdate(const UpdateMsg& m) {
  std::string out =
      StartFrame(MsgType::kUpdate, 8 + 8 + 4 + fl::ModelStateBytes(m.update));
  PutU64(out, m.round);
  PutU64(out, m.client_id);
  PutF32(out, m.loss);
  fl::AppendModelState(out, m.update);
  return out;
}

std::string EncodeFinal(const fl::ModelState& global) {
  std::string out = StartFrame(MsgType::kFinal, fl::ModelStateBytes(global));
  fl::AppendModelState(out, global);
  return out;
}

std::string EncodeFinal(const FinalMsg& m) { return EncodeFinal(m.global); }

std::string EncodeBusy(const BusyMsg& m) {
  std::string out = StartFrame(MsgType::kBusy, 4);
  PutU32(out, m.retry_after_ms);
  return out;
}

std::string EncodeBye() { return StartFrame(MsgType::kBye, 0); }

// CIP_HOT  (serve wire encode: one frame per query on the serving fast path)
std::string EncodeQuery(const QueryMsg& m) {
  std::string out = StartFrame(
      MsgType::kQuery, 8 + 8 + 8 * m.inputs.rank() + 4 * m.inputs.size());
  PutU64(out, m.client_id);
  PutTensor(out, m.inputs);
  return out;
}

// CIP_HOT  (serve wire encode: one frame per answered query)
std::string EncodeLogits(const LogitsMsg& m) {
  std::string out = StartFrame(
      MsgType::kLogits, 8 + 8 * m.logits.rank() + 4 * m.logits.size());
  PutTensor(out, m.logits);
  return out;
}

HelloMsg DecodeHello(std::string_view payload) {
  Cursor c(payload);
  HelloMsg m;
  m.client_id = c.TakeU64();
  c.ExpectDone();
  return m;
}

WelcomeMsg DecodeWelcome(std::string_view payload) {
  Cursor c(payload);
  WelcomeMsg m;
  m.client_id = c.TakeU64();
  m.run_seed = c.TakeU64();
  m.total_rounds = c.TakeU64();
  m.fleet_size = c.TakeU64();
  c.ExpectDone();
  return m;
}

RoundMsg DecodeRound(std::string_view payload) {
  Cursor c(payload);
  RoundMsg m;
  m.round = c.TakeU64();
  m.lr_scale = c.TakeF32();
  m.global = fl::ParseModelState(c.Rest());
  return m;
}

UpdateMsg DecodeUpdate(std::string_view payload) {
  Cursor c(payload);
  UpdateMsg m;
  m.round = c.TakeU64();
  m.client_id = c.TakeU64();
  m.loss = c.TakeF32();
  m.update = fl::ParseModelState(c.Rest());
  return m;
}

FinalMsg DecodeFinal(std::string_view payload) {
  FinalMsg m;
  m.global = fl::ParseModelState(payload);
  return m;
}

BusyMsg DecodeBusy(std::string_view payload) {
  Cursor c(payload);
  BusyMsg m;
  m.retry_after_ms = c.TakeU32();
  c.ExpectDone();
  return m;
}

// CIP_HOT  (serve wire decode: validates every count before sizing anything)
QueryMsg DecodeQuery(std::string_view payload) {
  Cursor c(payload);
  QueryMsg m;
  m.client_id = c.TakeU64();
  m.inputs = TakeTensor(c, /*min_rank=*/2);  // [N, ...sample dims]
  c.ExpectDone();
  return m;
}

// CIP_HOT  (serve wire decode: validates every count before sizing anything)
LogitsMsg DecodeLogits(std::string_view payload) {
  Cursor c(payload);
  LogitsMsg m;
  m.logits = TakeTensor(c, /*min_rank=*/2);  // [rows, classes]
  CIP_CHECK_MSG(m.logits.rank() == 2,
                "kLogits tensor rank " << m.logits.rank() << " != 2");
  c.ExpectDone();
  return m;
}

// CIP_HOT  (frame decode: every inbound byte is buffered through Feed)
void FrameReader::Feed(std::string_view bytes) {
  // Drop every frame consumed since the last Feed in one move.
  buf_.erase(0, pos_);
  pos_ = 0;
  // CIP_ANALYZE_OK(hot-alloc): buffer growth is bounded by header + max_payload (NextView drains)
  buf_.append(bytes);
  // Validate the header eagerly: corrupt input fails at the first bad
  // header, before its claimed payload occupies the buffer.
  if (buf_.size() >= kFrameHeaderBytes) CheckHeader(buf_, max_payload_);
}

// CIP_HOT  (frame decode: the server reads every frame in place through here)
std::optional<FrameView> FrameReader::NextView() {
  const std::string_view rest = std::string_view(buf_).substr(pos_);
  if (rest.size() < kFrameHeaderBytes) return std::nullopt;
  // Re-checked here, not only in Feed: a chunk can hold several frames.
  const auto [type, len] = CheckHeader(rest, max_payload_);
  if (rest.size() - kFrameHeaderBytes < len) return std::nullopt;
  pos_ += kFrameHeaderBytes + static_cast<std::size_t>(len);
  return FrameView{type, rest.substr(kFrameHeaderBytes,
                                     static_cast<std::size_t>(len))};
}

std::optional<Frame> FrameReader::Next() {
  const std::optional<FrameView> v = NextView();
  if (!v) return std::nullopt;
  return Frame{v->type, std::string(v->payload)};
}

}  // namespace cip::net
