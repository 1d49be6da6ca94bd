#include "common/env.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

namespace cip {

double BenchScale() {
  static const double kScale = [] {
    if (const char* env = std::getenv("CIP_SCALE")) {
      const double v = std::strtod(env, nullptr);
      if (v > 0.0) return std::max(v, 0.1);
    }
    return 1.0;
  }();
  return kScale;
}

std::size_t Scaled(std::size_t nominal, std::size_t min_value) {
  const auto scaled =
      static_cast<std::size_t>(static_cast<double>(nominal) * BenchScale());
  return std::max(scaled, min_value);
}

namespace internal {

std::optional<bool> ParseBoolFlag(const char* s) {
  if (s == nullptr) return std::nullopt;
  if (std::strcmp(s, "1") == 0) return true;
  if (std::strcmp(s, "0") == 0) return false;
  return std::nullopt;
}

std::optional<IsaRequest> ParseIsaRequest(const char* s) {
  if (s == nullptr) return std::nullopt;
  if (std::strcmp(s, "auto") == 0) return IsaRequest::kAuto;
  if (std::strcmp(s, "portable") == 0) return IsaRequest::kPortable;
  if (std::strcmp(s, "avx2") == 0) return IsaRequest::kAvx2;
  if (std::strcmp(s, "avx512") == 0) return IsaRequest::kAvx512;
  return std::nullopt;
}

namespace {

// -1: not yet read from the environment; 0/1: resolved.
std::atomic<int> g_naive_conv{-1};
// -1: not yet read from the environment; otherwise an IsaRequest value.
std::atomic<int> g_isa_request{-1};

}  // namespace

void SetNaiveConvForTesting(bool enabled) {
  g_naive_conv.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void SetIsaRequestForTesting(IsaRequest request) {
  g_isa_request.store(static_cast<int>(request), std::memory_order_relaxed);
}

}  // namespace internal

bool NaiveConvEnabled() {
  int v = internal::g_naive_conv.load(std::memory_order_relaxed);
  if (v < 0) {
    v = internal::ParseBoolFlag(std::getenv("CIP_NAIVE_CONV")).value_or(false)
            ? 1
            : 0;
    internal::g_naive_conv.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

IsaRequest IsaRequested() {
  int v = internal::g_isa_request.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(internal::ParseIsaRequest(std::getenv("CIP_ISA"))
                             .value_or(IsaRequest::kAuto));
    internal::g_isa_request.store(v, std::memory_order_relaxed);
  }
  return static_cast<IsaRequest>(v);
}

}  // namespace cip
