// Million-client scale gate (the cip_scale_gate ctest).
//
// The ClientStore lifecycle API exists so fleet size and server memory are
// decoupled: registered clients are cold records behind a pure factory, only
// each round's sampled cohort is ever live, and between participations a
// stateful client is a serialized blob in a byte-budgeted LRU hot set that
// spills to shard files. This bench checks that design and exits non-zero
// when a check fails:
//   1. scale — one million registered clients, participation 0.001 (a
//      1000-client cohort per round), five rounds: peak RSS <= 512 MiB and
//      >= 0.05 rounds/sec. Memory must stay O(hot budget + cohort), never
//      O(fleet).
//   2. determinism — at a small config, worker budget (1 vs 4) and record
//      residency (all-resident vs 1-byte hot budget spilling every record)
//      must be invisible: bit-identical final global and per-round losses.
// Spill files go to the working directory and are removed on exit.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "fl/client_factory.h"
#include "fl/server.h"

using namespace cip;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMaxPeakRssMib = 512.0;
constexpr double kMinRoundsPerSecond = 0.05;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Pure per-id client spec: a tiny two-blob MLP client whose shard is
/// derived entirely from the client id, so a million-client fleet never
/// holds a million datasets — each cohort member's data is regenerated on
/// materialization.
fl::ClientSpec SpecFor(std::size_t id) {
  fl::ClientSpec spec;
  spec.kind = fl::ClientKind::kLegacy;
  spec.model.arch = nn::Arch::kMLP;
  spec.model.input_shape = {4};
  spec.model.num_classes = 2;
  spec.model.width = 4;
  spec.model.seed = 11;
  spec.train.lr = 0.05f;
  spec.train.momentum = 0.9f;
  spec.train.batch_size = 8;
  spec.seed = 1000 + id;

  const std::size_t n = 8, d = 4;
  Rng rng(0x5CA1Eull + id);
  Tensor inputs({n, d});
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = static_cast<int>(i % 2);
    labels[i] = y;
    for (std::size_t j = 0; j < d; ++j) {
      inputs[i * d + j] = (y == 0 ? -1.0f : 1.0f) + rng.Normal(0.0f, 0.5f);
    }
  }
  spec.data = {std::move(inputs), std::move(labels)};
  return spec;
}

bool SameFloats(std::span<const float> a, std::span<const float> b) {
  // memcmp, not ==: bit-identity is the claim (distinguishes -0.0f, NaNs).
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool BitIdentical(const fl::FlLog& a, const fl::FlLog& b) {
  if (!SameFloats(a.final_global.values(), b.final_global.values())) {
    return false;
  }
  if (a.client_losses.size() != b.client_losses.size()) return false;
  for (std::size_t r = 0; r < a.client_losses.size(); ++r) {
    if (!SameFloats(a.client_losses[r], b.client_losses[r])) return false;
  }
  return true;
}

/// One small sampled run: 8 cold clients, half sampled per round.
fl::FlLog SweepRun(std::size_t budget, bool spill, const std::string& tag) {
  const std::size_t kSweepClients = 8;
  fl::StoreOptions sopts;
  if (spill) {
    sopts.hot_bytes = 1;  // every eviction goes straight to a shard file
    sopts.shard_clients = 4;
    sopts.spill_dir = "bench_scale_sweep_" + tag + ".tmp";
  }
  fl::ClientStore store =
      fl::MakeClientStore(kSweepClients, SpecFor, std::move(sopts));
  fl::FlOptions opts;
  opts.rounds = 3;
  opts.participation = 0.5f;
  opts.max_parallel_clients = budget;
  fl::FederatedAveraging server(fl::InitialStateFor(SpecFor(0)), opts);
  const fl::FlLog log = server.Run(store, 91);
  if (spill) std::filesystem::remove_all("bench_scale_sweep_" + tag + ".tmp");
  return log;
}

}  // namespace

int main() {
  const std::size_t registered = 1'000'000;
  bench::PrintHeader(
      "ClientStore scale — 1M registered clients, 1k-client cohorts",
      "n/a (infrastructure bench; cross-device FL samples ~0.1% of fleets)",
      "server memory O(hot budget + cohort); results invariant to budget, "
      "hot-set size and spill");
  bench::BenchTimer timer;

  const std::size_t hw = ParallelThreads();

  // ---- bit-identity sweep ----------------------------------------------------
  // Budget x residency grid at a small config; every cell must match.
  const fl::FlLog reference = SweepRun(/*budget=*/1, /*spill=*/false, "b1r");
  const bool sweep_identical =
      BitIdentical(reference, SweepRun(4, false, "b4r")) &&
      BitIdentical(reference, SweepRun(1, true, "b1s")) &&
      BitIdentical(reference, SweepRun(4, true, "b4s"));
  std::cout << "determinism (budget {1,4} x {resident,spill}): "
            << (sweep_identical ? "bit-identical" : "MISMATCH") << "\n";

  // ---- the million-client run ------------------------------------------------
  const std::size_t kRounds = 5;
  const float kParticipation = 0.001f;
  const std::string spill_dir = "bench_scale_spill.tmp";
  fl::StoreOptions sopts;
  sopts.hot_bytes = std::size_t{256} << 10;  // force steady-state spilling
  sopts.spill_dir = spill_dir;
  fl::ClientStore store =
      fl::MakeClientStore(registered, SpecFor, std::move(sopts));

  fl::FlOptions opts;
  opts.rounds = kRounds;
  opts.participation = kParticipation;
  fl::FederatedAveraging server(fl::InitialStateFor(SpecFor(0)), opts);
  const auto t0 = Clock::now();
  const fl::FlLog log = server.Run(store, 77);
  const double seconds = SecondsSince(t0);
  const double rounds_per_second = static_cast<double>(kRounds) / seconds;

  const std::size_t cohort = log.client_losses.empty()
                                 ? 0
                                 : log.client_losses.front().size();
  const double peak_rss_mib = bench::PeakRssMib();
  const fl::StoreStats stats = store.stats();
  std::filesystem::remove_all(spill_dir);

  TextTable table({"Metric", "Value"});
  table.AddRow({"registered clients", std::to_string(registered)});
  table.AddRow({"cohort per round", std::to_string(cohort)});
  table.AddRow({"rounds", std::to_string(kRounds)});
  table.AddRow({"wall seconds", TextTable::Num(seconds, 2)});
  table.AddRow({"rounds/sec", TextTable::Num(rounds_per_second, 3)});
  table.AddRow({"peak RSS MiB", TextTable::Num(peak_rss_mib, 1)});
  table.AddRow({"evictions", std::to_string(stats.evictions)});
  table.AddRow({"spills", std::to_string(stats.spills)});
  table.AddRow({"cold loads", std::to_string(stats.cold_loads)});
  table.AddRow({"hot hits", std::to_string(stats.hot_hits)});
  table.AddRow({"records on disk", std::to_string(stats.spilled_records)});
  table.Print(std::cout);
  std::cout << "host hardware_concurrency=" << hw << "\n";

  // ---- gates -----------------------------------------------------------------
  const std::size_t expected_cohort = std::max<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(kParticipation) *
                               static_cast<double>(registered)),
      1);
  bench::Gate gate;
  gate.Check(sweep_identical,
             "bit-identical across the budget x residency grid");
  gate.Check(cohort == expected_cohort,
             "cohort " + std::to_string(cohort) + " == " +
                 std::to_string(expected_cohort));
  gate.Check(stats.spills > 0, "hot budget spilled " +
                                   std::to_string(stats.spills) +
                                   " records (need > 0)");
  gate.Floor(peak_rss_mib <= kMaxPeakRssMib,
             "peak RSS " + TextTable::Num(peak_rss_mib, 1) + " MiB (need <= " +
                 TextTable::Num(kMaxPeakRssMib, 0) + ")");
  gate.Floor(rounds_per_second >= kMinRoundsPerSecond,
             "rounds/sec " + TextTable::Num(rounds_per_second, 3) +
                 " (need >= " + TextTable::Num(kMinRoundsPerSecond, 2) + ")");
  return gate.ExitCode();
}
