#!/usr/bin/env bash
# One-command correctness gate: repo lint, static analysis, then Release
# build+test, the clang-tidy gate, then ASan+UBSan and UBSan build+test.
# Pass --tsan to append the (slow) ThreadSanitizer pass; pass --bench to
# append a one-iteration smoke run of the kernel micro-benchmarks (catches
# bench-only build/runtime breakage without paying for a full timing run).
# Run from anywhere inside the repo.
#
# Stage order is cheapest-first so failures surface before expensive work:
# lint and the analyzer run before any compile, the analyzer re-runs with
# compile_commands.json after the Release build (libclang refinement when the
# bindings exist), and the sanitizer builds come after both. --bench smoke
# runs last of all — it only matters once everything is known-correct.
#
#   scripts/check.sh               # lint + analyze + release + tidy + asan + ubsan
#   scripts/check.sh --no-analyze  # skip the cip_analyze stages
#   scripts/check.sh --tsan        # ... + tsan
#   scripts/check.sh --bench       # ... + benchmark smoke run
#   CIP_CHECK_JOBS=8 scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${CIP_CHECK_JOBS:-$(nproc)}"
run_tsan=0
run_bench=0
run_analyze=1
for arg in "$@"; do
  case "$arg" in
    --tsan) run_tsan=1 ;;
    --bench) run_bench=1 ;;
    --analyze) run_analyze=1 ;;
    --no-analyze) run_analyze=0 ;;
    *) echo "usage: scripts/check.sh [--tsan] [--bench] [--no-analyze]" >&2
       exit 2 ;;
  esac
done

step() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

step "lint (tools/cip_lint.py)"
python3 tools/cip_lint.py --root .
python3 tools/cip_lint.py --self-test

if [[ "$run_analyze" == 1 ]]; then
  # Pre-build pass: heuristic engine, no compile_commands.json needed. The
  # analyzer prints a per-rule summary (findings + suppressed counts) every
  # run; rules and suppression syntax are specified in
  # docs/STATIC_ANALYSIS.md.
  step "static analysis (tools/cip_analyze.py, pre-build)"
  python3 tools/cip_analyze.py --root .
  python3 tools/cip_analyze.py --root . --self-test
fi

presets=(release asan ubsan)
if [[ "$run_tsan" == 1 ]]; then
  presets+=(tsan)
fi

for preset in "${presets[@]}"; do
  step "configure+build+test [$preset]"
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  ctest --preset "$preset" -j "$jobs"

  # The ctest pass above ran under CIP_ISA=auto (best SIMD kernel the host
  # supports). Re-run the GEMM/conv parity and dispatcher suites with the
  # portable kernel forced, so both sides of the runtime ISA dispatch stay
  # covered on every preset — on a machine without AVX2 the two passes
  # coincide, which is exactly the point (docs/KERNELS.md).
  step "GEMM parity, portable kernel forced [$preset]"
  CIP_ISA=portable ctest --preset "$preset" -j "$jobs" \
    -R 'ConvParity|MatmulOracle|CpuFeatures|GemmIsa' \
    --no-tests=error --output-on-failure

  if [[ "$preset" != release ]]; then
    # Server loopback smoke under the sanitizers: real sockets, spawned
    # client processes, a mid-round kill. The full suite above already ran
    # these; re-running the NetLoopback filter explicitly means a renamed or
    # filtered-out e2e suite fails this gate loudly instead of silently
    # shrinking sanitizer coverage of the wire stack (docs/PROTOCOL.md).
    step "server loopback smoke [$preset]"
    ctest --preset "$preset" -R 'NetLoopback' \
      --no-tests=error --output-on-failure
  fi

  if [[ "$preset" == release ]]; then
    if [[ "$run_analyze" == 1 ]]; then
      # Post-build pass with the Release compile_commands.json: identical
      # rules, but the libclang engine (when the Python bindings are
      # installed) upgrades the purity family to AST-based detection.
      step "static analysis (tools/cip_analyze.py, compile-commands)"
      python3 tools/cip_analyze.py --root . -p build-release
    fi
    # The tidy gate: .clang-tidy promotes every enabled check to an error,
    # so a single finding fails this build target. Skipping when the tool
    # is absent is explicit and loud — cip_analyze above still gates the
    # concurrency/determinism invariants heuristically.
    if command -v clang-tidy >/dev/null 2>&1; then
      step "clang-tidy gate [release]"
      cmake --build --preset release --target tidy
    else
      step "clang-tidy gate SKIPPED (clang-tidy not installed)"
    fi
  fi
done

if [[ "$run_tsan" == 1 ]]; then
  # The execution engine's race-freedom certificate: the persistent worker
  # pool (spawn storms, nested dispatch, exception propagation, the busy-pool
  # fallback), the coarse-grained ParallelForCoarse patterns, and
  # a real multi-client federation, all forced onto real worker threads,
  # under ThreadSanitizer. Already part of the preset's ctest run above;
  # repeated here explicitly so a filtered-out or renamed stress suite fails
  # loudly instead of silently shrinking coverage.
  step "pool + round-engine stress [tsan]"
  ctest --preset tsan -R 'ParallelStress|ParallelCoarseStress|RoundEngineStress' \
    --no-tests=error --output-on-failure
fi

if [[ "$run_bench" == 1 ]]; then
  # Smoke mode: ~1ms per benchmark, enough to exercise every registered case
  # (catches bench-only build/runtime breakage). The performance gates run in
  # ctest above; see docs/BENCHMARKS.md. Runs after analyze + sanitizers by
  # design: perf smoke on a tree that fails correctness gates is wasted time.
  step "benchmark smoke run [release]"
  cmake --build --preset release -j "$jobs" --target bench_micro_ops
  ./build-release/bench/bench_micro_ops --benchmark_min_time=0.001
fi

step "all checks passed"
