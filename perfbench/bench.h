// Shared shapes of the benchmark: run options, reported values, and the
// report every workload fills in. main.cpp turns a Report into the printed
// result; the workload files fill it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its span file
};

/// One reported number with its unit, direction and evidence.
struct Value {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;       ///< "lower" or "higher"
  std::size_t samples = 0;  ///< observations behind the value
};

/// A gated end-to-end metric: a name BENCHMARK.json lists and the named
/// metric that carries it on this workload.
struct Gated {
  std::string name;
  Value from;
};

/// Everything one workload reports.
struct Report {
  /// Output checks: any failure makes the run report no numbers.
  std::vector<std::string> check_failures;
  /// Run-validity problems (generator too late, growing backlog, traced
  /// spans or probe parts that do not add up): like a failed check, any of
  /// them makes the run report no numbers.
  std::vector<std::string> invalid_reasons;
  std::size_t attempted = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  /// The workload's named end-to-end metrics from the untraced pass.
  std::vector<Value> named;
  /// The benchmark's gated end-to-end metrics (the names BENCHMARK.json
  /// lists), each a copy of one named metric; main adds peak_rss_mib.
  std::vector<Gated> gated;
  /// The same metrics from the traced pass (trace runs only), for overhead.
  std::vector<Value> traced_named;
  /// Per-layer metrics (trace runs only).
  std::vector<Value> layer;
  /// Free-form lines printed with the report.
  std::vector<std::string> notes;
  /// Thread budget the program ran at.
  std::size_t threads = 0;

  /// Record an output check.
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  /// Gate the named metric `from` under the benchmark's name `as`.
  void Gate(const std::string& as, const std::string& from) {
    for (const Value& v : named) {
      if (v.name == from) {
        gated.push_back({as, v});
        return;
      }
    }
    check_failures.push_back("no named metric " + from + " to gate as " + as);
  }
};

/// Peak resident set size of this process so far, in MiB.
double PeakRssMib();

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> v);

/// Append the probe spans recorded since the traced pass to its spans,
/// note each span name's calls, total and self time, and write everything
/// as a Chrome trace under opts.trace_dir.
void FinishTrace(const Options& opts, std::vector<SpanRecord> spans,
                 Report& rep);

Report RunCipTrain(const Options& opts);
Report RunServeOpen(const Options& opts);
Report RunWireMixed(const Options& opts);

/// Median of `reps` timings of fn() in milliseconds, after one untimed call.
template <typename Fn>
double MedianMs(std::size_t reps, Fn&& fn) {
  fn();
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const std::int64_t t0 = NowNs();
    fn();
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Median(std::move(ms));
}

/// NowNs() when main() started: a cold set-up runs from here.
std::int64_t MainStartNs();

/// Time `reps` set-ups and keep the last one's result. Adds the named
/// metrics setup_s (median of the repeats, the gated figure) and
/// setup_cold_s (from the start of main to the end of the first set-up,
/// with process, thread-pool and first-touch costs, printed only).
template <typename Make>
auto TimedSetups(std::size_t reps, Report& rep, Make&& make) {
  std::vector<double> secs;
  decltype(make()) built{};
  for (std::size_t i = 0; i < reps; ++i) {
    built = {};
    const std::int64_t t0 = NowNs();
    built = make();
    const std::int64_t t1 = NowNs();
    secs.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (i == 0) {
      rep.named.push_back({"setup_cold_s",
                           static_cast<double>(t1 - MainStartNs()) / 1e9, "s",
                           "lower", 1});
    }
  }
  rep.named.push_back({"setup_s", Median(secs), "s", "lower", reps});
  return built;
}

}  // namespace perfbench
