#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace perfbench {

Percentile NearestRank(std::vector<double> samples, double p) {
  CIP_CHECK(p > 0.0 && p <= 1.0);
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  // The 1e-9 guards p * n landing a hair above an integer in floating point
  // (0.99 * 1000 must give rank 990, not 991).
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(p * n - 1e-9)));
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.resolved = out.beyond >= kMinBeyond;
  return out;
}

std::size_t MinSamplesFor(double p) {
  CIP_CHECK(p > 0.0 && p < 1.0);
  std::size_t n = kMinBeyond;
  while (NearestRank(std::vector<double>(n, 0.0), p).beyond < kMinBeyond) ++n;
  return n;
}

double TrimmedMean(std::vector<double> samples) {
  CIP_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const std::size_t drop = samples.size() >= 3 ? 1 : 0;
  double sum = 0.0;
  for (std::size_t i = drop; i + drop < samples.size(); ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

std::vector<std::int64_t> SelfTimesNs(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    CIP_CHECK_LT(static_cast<std::size_t>(s.parent), spans.size());
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = std::numeric_limits<std::int64_t>::min();
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

SloPick QpsAtSlo(std::span<const Rung> ladder, double limit_ms) {
  CIP_CHECK(!ladder.empty());
  CIP_CHECK(limit_ms > 0.0);
  const auto passes = [&](const Rung& r) {
    return r.p99_ms <= limit_ms && !r.backlog_grew;
  };
  SloPick pick;
  std::size_t first_fail = ladder.size();
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (!passes(ladder[i])) {
      first_fail = i;
      break;
    }
  }
  if (first_fail == ladder.size()) {
    pick.passing_rung = static_cast<int>(ladder.size()) - 1;
    pick.saturated = true;
    pick.qps = ladder.back().rate;
    return pick;
  }
  if (first_fail == 0) {
    const double p99 = ladder[0].p99_ms;
    pick.qps = p99 > limit_ms && std::isfinite(p99)
                   ? ladder[0].rate * limit_ms / p99
                   : ladder[0].rate * 0.5;
    return pick;
  }
  const Rung& ok = ladder[first_fail - 1];
  const Rung& bad = ladder[first_fail];
  pick.passing_rung = static_cast<int>(first_fail) - 1;
  pick.qps = ok.rate;
  if (bad.p99_ms > limit_ms && std::isfinite(bad.p99_ms) && ok.p99_ms > 0.0 &&
      bad.p99_ms > ok.p99_ms) {
    const double frac = std::clamp(
        (std::log(limit_ms) - std::log(ok.p99_ms)) /
            (std::log(bad.p99_ms) - std::log(ok.p99_ms)),
        0.0, 1.0);
    pick.qps = ok.rate * std::pow(bad.rate / ok.rate, frac);
  }
  return pick;
}

bool BacklogGrows(std::span<const double> depth, std::size_t queries) {
  const std::size_t third = depth.size() / 3;
  if (third == 0) return false;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < third; ++i) {
    first += depth[i];
    last += depth[depth.size() - third + i];
  }
  first /= static_cast<double>(third);
  last /= static_cast<double>(third);
  return last - first > std::max(8.0, 0.05 * static_cast<double>(queries));
}

ZipfIds::ZipfIds(std::size_t fleet, double s) : fleet_(fleet), cdf_(fleet) {
  CIP_CHECK_MSG(fleet > 0 && (fleet & (fleet - 1)) == 0,
                "ZipfIds: fleet size must be a power of two");
  double total = 0.0;
  for (std::size_t r = 0; r < fleet; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::size_t ZipfIds::Next(cip::Rng& rng) const {
  // 53 random bits as a uniform double in [0, 1), independent of how the
  // standard library implements its distributions.
  const double u = static_cast<double>(rng.NextU64() >> 11) * 0x1.0p-53;
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return IdOfRank(
      std::min(static_cast<std::size_t>(it - cdf_.begin()), fleet_ - 1));
}

std::size_t ZipfIds::IdOfRank(std::size_t r) const {
  // An odd multiplier is a bijection modulo a power of two.
  return (r * std::size_t{0x9E3779B1}) & (fleet_ - 1);
}

double ZipfIds::MassBeyond(std::size_t ranks) const {
  return ranks == 0 ? 1.0 : 1.0 - cdf_[std::min(ranks, fleet_) - 1];
}

std::vector<std::size_t> LruSteadyState(const ZipfIds& ids,
                                        std::size_t capacity, cip::Rng& rng) {
  CIP_CHECK_LE(capacity, ids.fleet());
  std::vector<std::size_t> recent;  // most recent first
  std::unordered_set<std::size_t> seen;
  while (recent.size() < capacity) {
    const std::size_t id = ids.Next(rng);
    if (seen.insert(id).second) recent.push_back(id);
  }
  std::reverse(recent.begin(), recent.end());
  return recent;
}

}  // namespace perfbench
