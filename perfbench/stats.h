// The benchmark's own arithmetic: percentiles with their sample counts, span
// self time, rung selection for qps_at_slo, backlog detection, and the
// seeded Zipf client-id generator with its LRU warm set. Kept apart from the
// workload files so stats_test.cpp can pin each rule without sockets or
// training.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/// A reported percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;       ///< nearest-rank percentile of the samples
  std::size_t samples = 0;  ///< how many samples it was taken over
  std::size_t beyond = 0;   ///< samples strictly above its rank
  /// True when at least kMinBeyond samples lie beyond the percentile, the
  /// rule every reported percentile must meet.
  bool resolved = false;
};

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (p in (0, 1]): the k-th smallest sample with
/// k = ceil(p * n). Infinite samples (unanswered requests) sort last, so
/// they count against the percentile like any slow sample.
Percentile NearestRank(std::vector<double> samples, double p);

/// Smallest sample count whose p-percentile has kMinBeyond samples beyond.
std::size_t MinSamplesFor(double p);

/// Mean of the samples without their lowest and highest one (the plain
/// mean below three samples). Over per-segment figures of a run it drops
/// one segment a host stall hit, like a median, but where the run spends
/// part of its time in each of two regimes it moves with the time spent in
/// each, where a median jumps from one regime to the other.
double TrimmedMean(std::vector<double> samples);

/// One recorded span. `parent` indexes the span vector (-1 for a root).
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers. Children may overlap each
/// other (parallel workers under one round) and are clipped to the parent.
std::vector<std::int64_t> SelfTimesNs(std::span<const Span> spans);

/// One rung of an open-loop rate ladder, as measured.
struct Rung {
  double rate = 0.0;          ///< offered queries per second
  double p99_ms = 0.0;        ///< query_p99_ms over the rung's queries
  bool backlog_grew = false;  ///< outstanding queries kept growing
};

/// qps_at_slo from a ladder sorted by ascending rate.
struct SloPick {
  double qps = 0.0;
  /// Index of the last rung that met the limit before the first one that
  /// did not; -1 when even the lowest rung failed.
  int passing_rung = -1;
  /// Every rung passed: the ladder ends below the knee and qps is its top.
  bool saturated = false;
};

/// A rung passes when its p99 meets `limit_ms` and its backlog did not
/// grow. The pick is the last passing rung before the first failure,
/// interpolated geometrically toward the failing rung by where the p99
/// curve crosses the limit (log latency against log rate), so the answer
/// moves smoothly instead of jumping between rungs. A failure by backlog
/// alone stays at the passing rung. When the lowest rung fails, its rate is
/// scaled down by limit / p99.
SloPick QpsAtSlo(std::span<const Rung> ladder, double limit_ms);

/// True when a queue-depth series sampled at equal intervals over a rung of
/// `queries` arrivals is growing: the mean of its last third exceeds the
/// mean of its first third by more than 5% of the rung's queries (and by
/// at least 8). A stable queue fluctuates around a constant depth, and a
/// short stall only adds a passing burst; an overloaded queue grows
/// linearly for the whole rung.
bool BacklogGrows(std::span<const double> depth, std::size_t queries);

/// Client ids whose popularity follows a Zipf law over the whole fleet:
/// rank r (0-based) is drawn with weight 1 / (r + 1)^s. Ranks map to ids
/// through a fixed bijection so popular clients are spread over the id
/// space. The same Rng state always yields the same id sequence.
class ZipfIds {
 public:
  /// `fleet` must be a power of two.
  ZipfIds(std::size_t fleet, double s);

  /// Draw one id.
  std::size_t Next(cip::Rng& rng) const;
  /// Id of popularity rank r (a bijection on [0, fleet)).
  std::size_t IdOfRank(std::size_t r) const;
  /// Number of ids.
  std::size_t fleet() const { return fleet_; }
  /// Share of draws beyond the `ranks` most popular ranks: the miss share
  /// of a cache that always held exactly those ranks, and so a floor on
  /// the miss share of any cache of that many entries.
  double MassBeyond(std::size_t ranks) const;

 private:
  std::size_t fleet_;
  std::vector<double> cdf_;
};

/// What an LRU cache of `capacity` entries holds after a long stream of
/// draws from `ids`, least recently used first, so that serving these ids
/// in order leaves a cache in its steady state and the miss share of the
/// traffic that follows does not drift while the cache fills. The LRU
/// content of a stream is its `capacity` most recent distinct ids; draws
/// from `rng` stand for the stream read backwards from its end.
std::vector<std::size_t> LruSteadyState(const ZipfIds& ids,
                                        std::size_t capacity, cip::Rng& rng);

}  // namespace perfbench
