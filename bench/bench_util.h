// Shared helpers for the table/figure reproduction benches.
//
// Every bench prints (i) what the paper reports, (ii) what this reproduction
// measures at the current CIP_SCALE, and (iii) the qualitative expectation
// that should hold ("shape"). Absolute numbers differ from the paper —
// models and datasets are laptop-scale stand-ins (DESIGN.md §2) — but the
// orderings and trends are the reproduction target.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <iostream>
#include <string>

#include "common/env.h"
#include "common/table.h"

namespace cip::bench {

inline void PrintHeader(const std::string& experiment_id,
                        const std::string& paper_claim,
                        const std::string& expected_shape) {
  std::cout << "==========================================================\n"
            << experiment_id << "\n"
            << "----------------------------------------------------------\n"
            << "Paper:  " << paper_claim << "\n"
            << "Shape:  " << expected_shape << "\n"
            << "Scale:  CIP_SCALE=" << BenchScale()
            << " (raise for closer-to-paper sizes)\n"
            << "==========================================================\n";
}

/// Memory ceilings and timing floors hold only for an optimized, unsanitized
/// build (NDEBUG defined, CIP_SANITIZE empty): sanitizer shadow memory,
/// quarantine and instrumentation move both. Correctness checks hold in every
/// build.
#if defined(NDEBUG) && !defined(CIP_SANITIZED)
inline constexpr bool kFloorsEnforced = true;
#else
inline constexpr bool kFloorsEnforced = false;
#endif

/// Verdict of a self-checking bench; its exit status is the bench's ctest
/// gate. Every check prints one line, so a gate's output records the value
/// it measured against each threshold.
class Gate {
 public:
  /// A correctness property: enforced in every build.
  void Check(bool ok, const std::string& what) {
    (ok ? std::cout : std::cerr) << (ok ? "check ok:   " : "FAIL check: ")
                                 << what << "\n";
    ok_ = ok_ && ok;
  }

  /// A memory ceiling or timing floor: enforced only when kFloorsEnforced,
  /// otherwise reported as skipped.
  void Floor(bool ok, const std::string& what) {
    if (!kFloorsEnforced) {
      std::cout << "floor skipped (sanitized or unoptimized build): " << what
                << "\n";
      return;
    }
    (ok ? std::cout : std::cerr) << (ok ? "floor ok:   " : "FAIL floor: ")
                                 << what << "\n";
    ok_ = ok_ && ok;
  }

  int ExitCode() const { return ok_ ? 0 : 1; }

 private:
  bool ok_ = true;
};

/// Peak resident set size of this process so far, in MiB (Linux reports
/// ru_maxrss in KiB).
inline double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Prints elapsed wall time at scope exit.
class BenchTimer {
 public:
  explicit BenchTimer(std::string label = "total")
      : label_(std::move(label)), start_(std::chrono::steady_clock::now()) {}
  ~BenchTimer() {
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::cout << "[" << label_ << ": " << TextTable::Num(secs, 1) << "s]\n";
  }

 private:
  std::string label_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cip::bench
