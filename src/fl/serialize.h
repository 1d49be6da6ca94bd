// Binary (de)serialization of model states and tensors — checkpoints for
// long federated runs, persistent storage of a client's secret
// perturbation, and the model states embedded in wire frames. Format:
// magic, version, payload sizes, raw little-endian float data. Errors (bad
// magic, bad version, truncation, hostile length prefixes) throw
// cip::CheckError before any buffer is sized from untrusted input. A model
// state has two readers that make the same checks: the stream one for files
// and records, and a byte-span one for payloads already in memory. The
// byte-level primitives live in the wire namespace so higher layers
// (fl/checkpoint) can compose framed formats without touching raw bytes
// themselves; reinterpret_cast stays confined to serialize.cpp (lint rule
// `reinterpret`). See docs/ROBUSTNESS.md for the checkpoint format built on
// top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "fl/model_state.h"
#include "tensor/tensor.h"

namespace cip::fl {

/// Write a ModelState (magic + version + length-prefixed floats).
void SaveModelState(const ModelState& state, std::ostream& os);
/// Read a ModelState written by SaveModelState; throws CheckError on bad
/// magic/version, truncation, or an implausible length prefix.
ModelState LoadModelState(std::istream& is);

/// Bytes SaveModelState / AppendModelState write for `state`.
std::size_t ModelStateBytes(const ModelState& state);
/// Append the SaveModelState bytes of `state` to `out`, without a stream;
/// reserve ModelStateBytes(state) first to write it in one pass.
void AppendModelState(std::string& out, const ModelState& state);
/// Parse a model state that fills `bytes` exactly. Checks the magic, the
/// version, the element-count bound and that the count accounts for every
/// remaining byte before the values are sized, so truncation and trailing
/// bytes both throw CheckError.
ModelState ParseModelState(std::string_view bytes);

/// SaveModelState to a file; throws CheckError if the file cannot be opened.
void SaveModelStateFile(const ModelState& state, const std::string& path);
/// LoadModelState from a file; throws CheckError on open or parse failure.
ModelState LoadModelStateFile(const std::string& path);

/// Write a Tensor (magic + version + rank + dims + floats).
void SaveTensor(const Tensor& t, std::ostream& os);
/// Read a Tensor written by SaveTensor; throws CheckError on bad
/// magic/version, truncation, implausible rank/dims, or element-count
/// overflow.
Tensor LoadTensor(std::istream& is);

/// SaveTensor to a file; throws CheckError if the file cannot be opened.
void SaveTensorFile(const Tensor& t, const std::string& path);
/// LoadTensor from a file; throws CheckError on open or parse failure.
Tensor LoadTensorFile(const std::string& path);

// Audited little-endian wire primitives shared by every framed format in
// this library (model states, tensors, fl/checkpoint). Readers CHECK-fail on
// truncation so corrupt input can never yield a silently wrong value.
namespace wire {

/// Write a 32-bit value, little-endian.
void WriteU32(std::ostream& os, std::uint32_t v);
/// Write a 64-bit value, little-endian.
void WriteU64(std::ostream& os, std::uint64_t v);
/// Read a 32-bit little-endian value; throws CheckError on truncation.
std::uint32_t ReadU32(std::istream& is);
/// Read a 64-bit little-endian value; throws CheckError on truncation.
std::uint64_t ReadU64(std::istream& is);

}  // namespace wire

}  // namespace cip::fl
