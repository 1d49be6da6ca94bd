// Tests of the benchmark's own arithmetic (stats.h). Build the
// perfbench_tests target and run it, or `python3 perfbench/run.py
// --self-test`.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <list>
#include <set>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

TEST(NearestRank, PicksTheCeilRankAndCountsSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p99 = NearestRank(v, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.resolved);
  const Percentile p50 = NearestRank(v, 0.5);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(NearestRank, OrderDoesNotMatterAndSmallSamplesAreUnresolved) {
  const Percentile p = NearestRank({5, 1, 4, 2, 3}, 0.5);
  EXPECT_EQ(p.value, 3.0);
  EXPECT_EQ(p.beyond, 2u);
  EXPECT_FALSE(p.resolved);
  EXPECT_FALSE(NearestRank(std::vector<double>(999, 1.0), 0.99).resolved);
  EXPECT_EQ(NearestRank({}, 0.5).samples, 0u);
}

TEST(NearestRank, UnansweredRequestsCountAsSlowest) {
  std::vector<double> v(98, 1.0);
  v.push_back(std::numeric_limits<double>::infinity());
  v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_EQ(NearestRank(v, 0.98).value, 1.0);
  EXPECT_EQ(NearestRank(v, 0.99).value,
            std::numeric_limits<double>::infinity());
}

TEST(MinSamplesFor, TenBeyondThePercentile) {
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_EQ(MinSamplesFor(0.95), 200u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
}

TEST(TrimmedMean, DropsTheLowestAndHighest) {
  EXPECT_EQ(TrimmedMean({1, 100, 4, 5, 6, -50}), 4.0);
  // Two regimes: the trimmed mean follows the time spent in each.
  EXPECT_EQ(TrimmedMean({10, 10, 10, 20, 20, 20, 20}), 16.0);
  EXPECT_EQ(TrimmedMean({3, 5}), 4.0);
  EXPECT_EQ(TrimmedMean({7}), 7.0);
}

TEST(SelfTimes, SubtractsTheUnionOfChildren) {
  // root [0, 100) with children [10, 30) and [20, 50) overlapping (union
  // 40), a grandchild inside the first child, and a child that sticks out
  // past the root's end (clipped to [90, 100)).
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 30}, {1, 0, 20, 50},
      {2, 1, 12, 18},  {1, 0, 90, 130},
  };
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
  EXPECT_EQ(self[4], 40);
}

TEST(SelfTimes, LeafSpansKeepTheirDuration) {
  const std::vector<Span> spans = {{0, -1, 5, 9}, {0, -1, 7, 20}};
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 4);
  EXPECT_EQ(self[1], 13);
}

TEST(QpsAtSlo, EveryRungPassingIsSaturatedAtTheTop) {
  const std::vector<Rung> ladder = {{1000, 2, false}, {2000, 3, false}};
  const SloPick pick = QpsAtSlo(ladder, 10.0);
  EXPECT_TRUE(pick.saturated);
  EXPECT_EQ(pick.passing_rung, 1);
  EXPECT_EQ(pick.qps, 2000.0);
}

TEST(QpsAtSlo, InterpolatesWhereTheP99CrossesTheLimit) {
  // p99 goes 2 -> 20 ms between 1000 and 4000 q/s; a 6.32 ms limit sits
  // halfway in log latency, so the pick is halfway in log rate: 2000.
  const std::vector<Rung> ladder = {
      {1000, 2, false}, {4000, 20, false}, {8000, 50, false}};
  const SloPick pick = QpsAtSlo(ladder, 2.0 * std::sqrt(10.0));
  EXPECT_FALSE(pick.saturated);
  EXPECT_EQ(pick.passing_rung, 0);
  EXPECT_NEAR(pick.qps, 2000.0, 1e-6);
}

TEST(QpsAtSlo, StopsAtTheFirstFailureEvenIfAHigherRungPasses) {
  const std::vector<Rung> ladder = {
      {1000, 2, false}, {2000, 30, false}, {4000, 3, false}};
  const SloPick pick = QpsAtSlo(ladder, 10.0);
  EXPECT_EQ(pick.passing_rung, 0);
  EXPECT_LT(pick.qps, 2000.0);
  EXPECT_GT(pick.qps, 1000.0);
}

TEST(QpsAtSlo, BacklogGrowthFailsARungThatMeetsTheLimit) {
  const std::vector<Rung> ladder = {
      {1000, 2, false}, {2000, 4, false}, {4000, 5, true}};
  const SloPick pick = QpsAtSlo(ladder, 10.0);
  EXPECT_EQ(pick.passing_rung, 1);
  EXPECT_EQ(pick.qps, 2000.0);
}

TEST(QpsAtSlo, ALowestRungThatFailsScalesItsRateDown) {
  const std::vector<Rung> ladder = {{1000, 40, false}};
  const SloPick pick = QpsAtSlo(ladder, 10.0);
  EXPECT_EQ(pick.passing_rung, -1);
  EXPECT_EQ(pick.qps, 250.0);
}

TEST(BacklogGrows, FlatNoisyQueueIsStable) {
  std::vector<double> depth;
  for (int i = 0; i < 30; ++i) depth.push_back(i % 3);
  EXPECT_FALSE(BacklogGrows(depth, 1000));
}

TEST(BacklogGrows, ABurstThatDrainsIsStable) {
  std::vector<double> depth(30, 1.0);
  for (int i = 10; i < 15; ++i) depth[i] = 40.0;  // a stall, then recovery
  EXPECT_FALSE(BacklogGrows(depth, 1000));
}

TEST(BacklogGrows, LinearGrowthIsDetected) {
  std::vector<double> depth;
  for (int i = 0; i < 30; ++i) depth.push_back(10.0 * i);
  EXPECT_TRUE(BacklogGrows(depth, 1000));
  const std::vector<double> short_series = {1.0, 2.0};
  EXPECT_FALSE(BacklogGrows(short_series, 1000));  // too short to judge
}

TEST(ZipfIds, RepeatForAFixedSeedAndDifferAcrossSeeds) {
  const ZipfIds ids(65536, 1.0);
  cip::Rng a(7), b(7), c(8);
  std::vector<std::size_t> sa, sb, sc;
  for (int i = 0; i < 2000; ++i) {
    sa.push_back(ids.Next(a));
    sb.push_back(ids.Next(b));
    sc.push_back(ids.Next(c));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(ZipfIds, RanksFollowZipf) {
  const ZipfIds ids(65536, 1.0);
  cip::Rng rng(11);
  std::size_t rank0 = 0, rank1 = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::size_t id = ids.Next(rng);
    ASSERT_LT(id, 65536u);
    rank0 += id == ids.IdOfRank(0);
    rank1 += id == ids.IdOfRank(1);
  }
  // Zipf with s = 1: rank 0 is drawn twice as often as rank 1.
  EXPECT_NEAR(static_cast<double>(rank0) / rank1, 2.0, 0.1);
}

TEST(ZipfIds, MassBeyondIsTheTailOfTheHarmonicSum) {
  const ZipfIds ids(65536, 1.0);
  double all = 0.0, head = 0.0;
  for (int r = 1; r <= 65536; ++r) {
    all += 1.0 / r;
    if (r <= 4096) head += 1.0 / r;
  }
  EXPECT_NEAR(ids.MassBeyond(4096), 1.0 - head / all, 1e-12);
  EXPECT_NEAR(ids.MassBeyond(4096), 0.2376, 1e-4);
  EXPECT_EQ(ids.MassBeyond(0), 1.0);
  EXPECT_EQ(ids.MassBeyond(65536), 0.0);
}

TEST(ZipfIds, RanksMapToDistinctIds) {
  const ZipfIds ids(1024, 1.2);
  std::set<std::size_t> seen;
  for (std::size_t r = 0; r < 1024; ++r) seen.insert(ids.IdOfRank(r));
  EXPECT_EQ(seen.size(), 1024u);
}

TEST(LruSteadyState, IsWhatAnLruHoldsAfterTheStream) {
  const ZipfIds ids(4096, 1.0);
  const std::size_t capacity = 256;
  cip::Rng rng(5);
  const std::vector<std::size_t> warm = LruSteadyState(ids, capacity, rng);
  ASSERT_EQ(warm.size(), capacity);
  EXPECT_EQ(std::set<std::size_t>(warm.begin(), warm.end()).size(), capacity);

  // Replay the same draws as a forward stream (oldest first) through an
  // LRU: its content, least recent first, is the warm set.
  cip::Rng again(5);
  std::vector<std::size_t> stream;
  std::set<std::size_t> distinct;
  while (distinct.size() < capacity) {
    stream.push_back(ids.Next(again));
    distinct.insert(stream.back());
  }
  std::list<std::size_t> lru;  // front = least recent
  for (auto it = stream.rbegin(); it != stream.rend(); ++it) {
    lru.remove(*it);
    lru.push_back(*it);
    if (lru.size() > capacity) lru.pop_front();
  }
  EXPECT_EQ(std::vector<std::size_t>(lru.begin(), lru.end()), warm);
}

}  // namespace
}  // namespace perfbench
