#include "fl/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/check.h"

namespace cip::fl {

namespace {

constexpr std::uint32_t kStateMagic = 0x43495053;   // "CIPS"
constexpr std::uint32_t kTensorMagic = 0x43495054;  // "CIPT"
constexpr std::uint32_t kVersion = 1;
// Model-state header: magic + version + element count.
constexpr std::size_t kStateHeaderBytes = 4 + 4 + 8;

// Upper bound on deserialized element counts: a hostile or corrupt length
// prefix must fail a check here, before we size a buffer and bulk-read into
// it. 2^31 floats = 8 GiB, far above any model this library trains.
constexpr std::uint64_t kMaxElements = std::uint64_t{1} << 31;

// Overflow-checked product of the deserialized dims; CIP_CHECKs that the
// total stays below kMaxElements so NumElements cannot silently wrap.
std::uint64_t CheckedNumElements(const Shape& shape) {
  std::uint64_t n = 1;
  for (std::size_t d : shape) {
    CIP_CHECK_MSG(d == 0 || n <= kMaxElements / d,
                  "serialized shape overflows element count: "
                      << ShapeToString(shape));
    n *= d;
  }
  CIP_CHECK_MSG(n <= kMaxElements,
                "serialized tensor implausibly large: " << n << " elements");
  return n;
}

/// The header checks every model-state reader makes, stream or span.
std::uint64_t CheckStateHeader(std::uint32_t magic, std::uint32_t version,
                               std::uint64_t n) {
  CIP_CHECK_MSG(magic == kStateMagic, "not a CIP model-state stream");
  CIP_CHECK_MSG(version == kVersion, "unsupported model-state version");
  CIP_CHECK_MSG(n <= kMaxElements,
                "model-state length prefix implausibly large: " << n);
  return n;
}

void WriteFloats(std::ostream& os, std::span<const float> v) {
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

void ReadFloats(std::istream& is, std::span<float> v) {
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(float)));
  CIP_CHECK_MSG(is.good(), "truncated stream while reading float payload");
}

}  // namespace

namespace wire {

void WriteU32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteU64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t ReadU32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  CIP_CHECK_MSG(is.good(), "truncated stream while reading u32");
  return v;
}

std::uint64_t ReadU64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  CIP_CHECK_MSG(is.good(), "truncated stream while reading u64");
  return v;
}

}  // namespace wire

using wire::ReadU32;
using wire::ReadU64;
using wire::WriteU32;
using wire::WriteU64;

void SaveModelState(const ModelState& state, std::ostream& os) {
  WriteU32(os, kStateMagic);
  WriteU32(os, kVersion);
  WriteU64(os, state.size());
  WriteFloats(os, state.values());
  CIP_CHECK_MSG(os.good(), "write failed");
}

ModelState LoadModelState(std::istream& is) {
  const std::uint32_t magic = ReadU32(is);
  const std::uint32_t version = ReadU32(is);
  const std::uint64_t n = CheckStateHeader(magic, version, ReadU64(is));
  std::vector<float> values(static_cast<std::size_t>(n));
  ReadFloats(is, values);
  return ModelState(std::move(values));
}

std::size_t ModelStateBytes(const ModelState& state) {
  return kStateHeaderBytes + state.size() * sizeof(float);
}

void AppendModelState(std::string& out, const ModelState& state) {
  const auto put = [&out](auto v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(kStateMagic);
  put(kVersion);
  put(std::uint64_t{state.size()});
  const std::span<const float> v = state.values();
  out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(float));
}

ModelState ParseModelState(std::string_view bytes) {
  CIP_CHECK_MSG(bytes.size() >= kStateHeaderBytes,
                "truncated model-state header: " << bytes.size() << " bytes");
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t n = 0;
  std::memcpy(&magic, bytes.data(), 4);
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&n, bytes.data() + 8, 8);
  CheckStateHeader(magic, version, n);
  bytes.remove_prefix(kStateHeaderBytes);
  // n <= 2^31, so the byte count cannot overflow.
  CIP_CHECK_MSG(bytes.size() == n * sizeof(float),
                "model state claims " << n << " floats but " << bytes.size()
                                      << " bytes remain");
  std::vector<float> values(static_cast<std::size_t>(n));
  if (n != 0) std::memcpy(values.data(), bytes.data(), bytes.size());
  return ModelState(std::move(values));
}

void SaveModelStateFile(const ModelState& state, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  CIP_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  SaveModelState(state, os);
}

ModelState LoadModelStateFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  CIP_CHECK_MSG(is.is_open(), "cannot open " << path);
  return LoadModelState(is);
}

void SaveTensor(const Tensor& t, std::ostream& os) {
  WriteU32(os, kTensorMagic);
  WriteU32(os, kVersion);
  WriteU64(os, t.rank());
  for (std::size_t d : t.shape()) WriteU64(os, d);
  WriteFloats(os, t.flat());
  CIP_CHECK_MSG(os.good(), "write failed");
}

Tensor LoadTensor(std::istream& is) {
  CIP_CHECK_MSG(ReadU32(is) == kTensorMagic, "not a CIP tensor stream");
  CIP_CHECK_MSG(ReadU32(is) == kVersion, "unsupported tensor version");
  const std::uint64_t rank = ReadU64(is);
  CIP_CHECK_MSG(rank >= 1 && rank <= 8, "implausible tensor rank " << rank);
  Shape shape(rank);
  for (std::uint64_t i = 0; i < rank; ++i) {
    const std::uint64_t d = ReadU64(is);
    CIP_CHECK_MSG(d <= kMaxElements, "implausible tensor dim " << d);
    shape[i] = static_cast<std::size_t>(d);
  }
  CheckedNumElements(shape);
  // Deserialization target — when reached from a hot path (cold-client
  // materialization) this tensor IS the state being produced.
  // CIP_ANALYZE_OK(hot-alloc): dims and element count validated before sizing
  Tensor t(shape);
  ReadFloats(is, t.flat());
  return t;
}

void SaveTensorFile(const Tensor& t, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  CIP_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  SaveTensor(t, os);
}

Tensor LoadTensorFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  CIP_CHECK_MSG(is.is_open(), "cannot open " << path);
  return LoadTensor(is);
}

}  // namespace cip::fl
