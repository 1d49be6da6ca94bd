// Environment-variable knobs: bench scaling and kernel-path selection.
// README "Configuration" documents every variable in one place.
#pragma once

#include <cstddef>
#include <optional>

namespace cip {

/// CIP_SCALE (default 1.0, min 0.1): multiplies dataset sizes and round
/// counts in benches. Raise to approach paper scale; lower for smoke runs.
double BenchScale();

/// Scale a nominal count, keeping at least `min_value`.
std::size_t Scaled(std::size_t nominal, std::size_t min_value = 1);

/// CIP_NAIVE_CONV (default 0): when 1, Conv2d uses the reference direct
/// convolution loops instead of the im2col + GEMM fast path. Strict parsing:
/// only the exact strings "0" and "1" are honored; anything else is ignored
/// (fast path). Read once at first use; parity tests flip the path at
/// runtime via internal::SetNaiveConvForTesting.
bool NaiveConvEnabled();

/// What CIP_ISA asked for. `kAuto` means "bind the best kernel the host
/// supports"; the explicit levels force that kernel (clamped down to what the
/// host supports — forcing avx512 on an AVX2-only box binds avx2's fallback
/// chain, never an illegal instruction).
enum class IsaRequest {
  kAuto = 0,
  kPortable = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// CIP_ISA (default auto): which GEMM microkernel ISA to bind. Strict
/// parsing: only the exact strings "auto", "portable", "avx2", "avx512" are
/// honored; anything else is ignored (auto). Read once at first use; the
/// dispatcher tests flip the request at runtime via
/// internal::SetIsaRequestForTesting. See docs/KERNELS.md for the full
/// dispatch flow.
IsaRequest IsaRequested();

namespace internal {

/// Strict parse of a 0/1 flag value. Returns nullopt unless `s` is exactly
/// "0" or "1".
std::optional<bool> ParseBoolFlag(const char* s);

/// Override NaiveConvEnabled() for the rest of the process, bypassing the
/// environment. For parity tests and the naive-vs-GEMM benches only.
void SetNaiveConvForTesting(bool enabled);

/// Strict parse of a CIP_ISA value. Returns nullopt unless `s` is exactly
/// one of "auto", "portable", "avx2", "avx512".
std::optional<IsaRequest> ParseIsaRequest(const char* s);

/// Override IsaRequested() for the rest of the process, bypassing the
/// environment. Callers that already bound a kernel are not rebound; pair
/// with ops::internal::ResetGemmBindingForTesting. For dispatcher tests and
/// the per-ISA benches only.
void SetIsaRequestForTesting(IsaRequest request);

}  // namespace internal

}  // namespace cip
