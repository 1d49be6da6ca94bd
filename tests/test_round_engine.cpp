// Round-engine tests: RNG stream derivation, FlOptions validation, the
// bit-identity invariant across worker budgets, round telemetry, the client
// factory, and the server-side learning-rate schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "data/partition.h"
#include "fl/client.h"
#include "fl/client_factory.h"
#include "fl/round_context.h"
#include "fl/server.h"
#include "testing_util.h"

namespace cip {
namespace {

nn::ModelSpec MlpSpec(std::size_t dim, std::size_t classes) {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.input_shape = {dim};
  spec.num_classes = classes;
  spec.width = 6;
  spec.seed = 19;
  return spec;
}

data::Dataset BlobData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  data::Dataset full = testing::TwoBlobs(n, d, rng);
  for (float& v : full.inputs.flat()) {
    v = std::clamp(0.5f + 0.25f * v, 0.0f, 1.0f);
  }
  return full;
}

// ---- RNG stream derivation --------------------------------------------------

TEST(DeriveStream, DeterministicPerCoordinates) {
  Rng a = DeriveStream(42, 3, 7);
  Rng b = DeriveStream(42, 3, 7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(DeriveStream, DistinctAcrossRoundsClientsAndSeeds) {
  const std::uint64_t base = DeriveStream(42, 3, 7).NextU64();
  EXPECT_NE(base, DeriveStream(42, 4, 7).NextU64());   // other round
  EXPECT_NE(base, DeriveStream(42, 3, 8).NextU64());   // other client
  EXPECT_NE(base, DeriveStream(43, 3, 7).NextU64());   // other run seed
  // (round, client) must not be interchangeable.
  EXPECT_NE(DeriveStream(42, 7, 3).NextU64(), base);
}

TEST(RoundContext, MakeUsesDerivedStreamAndLrScale) {
  fl::RoundContext ctx = fl::MakeRoundContext(11, 2, 5, 0.25f);
  EXPECT_EQ(ctx.round, 2u);
  EXPECT_EQ(ctx.client_index, 5u);
  EXPECT_EQ(ctx.rng.NextU64(), DeriveStream(11, 2, 5).NextU64());
  fl::TrainConfig cfg;
  cfg.lr = 0.4f;
  cfg.lr_decay_every = 0;  // client-side schedule off
  EXPECT_FLOAT_EQ(ctx.LrFor(cfg), 0.1f);
}

// ---- FlOptions::Validate ----------------------------------------------------

TEST(FlOptionsValidate, AcceptsDefaultsAndFullConfig) {
  fl::FlOptions opts;
  EXPECT_NO_THROW(opts.Validate());
  opts.rounds = 6;
  opts.participation = 0.5f;
  opts.snapshot_rounds = {1, 3, 6};
  opts.lr_decay = 0.5f;
  opts.lr_decay_every = 2;
  EXPECT_NO_THROW(opts.Validate());
}

TEST(FlOptionsValidate, RejectsZeroRounds) {
  fl::FlOptions opts;
  opts.rounds = 0;
  EXPECT_THROW(opts.Validate(), CheckError);
}

TEST(FlOptionsValidate, RejectsParticipationOutsideUnitInterval) {
  fl::FlOptions opts;
  opts.participation = 0.0f;
  EXPECT_THROW(opts.Validate(), CheckError);
  opts.participation = -0.5f;
  EXPECT_THROW(opts.Validate(), CheckError);
  opts.participation = 1.5f;
  EXPECT_THROW(opts.Validate(), CheckError);
}

TEST(FlOptionsValidate, RejectsBadSnapshotRounds) {
  fl::FlOptions opts;
  opts.rounds = 5;
  opts.snapshot_rounds = {0};  // 1-based; 0 is out of range
  EXPECT_THROW(opts.Validate(), CheckError);
  opts.snapshot_rounds = {6};  // past the final round
  EXPECT_THROW(opts.Validate(), CheckError);
  opts.snapshot_rounds = {2, 2};  // not strictly increasing
  EXPECT_THROW(opts.Validate(), CheckError);
  opts.snapshot_rounds = {4, 3};  // decreasing
  EXPECT_THROW(opts.Validate(), CheckError);
}

TEST(FlOptionsValidate, RejectsBadLrDecay) {
  fl::FlOptions opts;
  opts.lr_decay_every = 2;
  opts.lr_decay = 0.0f;
  EXPECT_THROW(opts.Validate(), CheckError);
  opts.lr_decay = 1.5f;
  EXPECT_THROW(opts.Validate(), CheckError);
}

TEST(FlOptionsValidate, ConstructorAndRunValidate) {
  fl::FlOptions opts;
  opts.rounds = 0;
  EXPECT_THROW(
      fl::FederatedAveraging(fl::ModelState(std::vector<float>{1.0f}), opts),
      CheckError);
}

// ---- bit-identity across worker budgets ------------------------------------

// A cold store-backed fleet: every round materializes the cohort from
// serialized records and evicts it afterwards, so these bit-identity tests
// also cover the ExportState/RestoreState round-trip on the hot path.
struct Federation {
  fl::ClientStore store;
  fl::ModelState init;
};

Federation MakeFederation(std::size_t num_clients) {
  data::Dataset full = BlobData(40 * num_clients, 4, 31);
  Rng part_rng(32);
  const auto shards = data::PartitionIid(full, num_clients, part_rng);
  fl::ClientSpec proto;
  proto.kind = fl::ClientKind::kLegacy;
  proto.model = MlpSpec(4, 2);
  proto.train.lr = 0.1f;
  proto.train.momentum = 0.9f;
  std::vector<fl::ClientSpec> specs;
  for (std::size_t k = 0; k < num_clients; ++k) {
    fl::ClientSpec spec = proto;
    spec.data = shards[k];
    spec.seed = 50 + k;
    specs.push_back(std::move(spec));
  }
  return Federation{fl::MakeClientStore(std::move(specs)),
                    fl::InitialStateFor(proto)};
}

fl::FlLog RunWithBudget(std::size_t budget, fl::FlOptions opts,
                        std::uint64_t run_seed) {
  Federation fed = MakeFederation(4);
  opts.max_parallel_clients = budget;
  fl::FederatedAveraging server(fed.init, opts);
  return server.Run(fed.store, run_seed);
}

void ExpectBitIdentical(const fl::FlLog& a, const fl::FlLog& b) {
  ASSERT_EQ(a.final_global.size(), b.final_global.size());
  for (std::size_t i = 0; i < a.final_global.size(); ++i) {
    EXPECT_EQ(a.final_global.values()[i], b.final_global.values()[i]);
  }
  ASSERT_EQ(a.client_losses.size(), b.client_losses.size());
  for (std::size_t r = 0; r < a.client_losses.size(); ++r) {
    ASSERT_EQ(a.client_losses[r].size(), b.client_losses[r].size());
    for (std::size_t k = 0; k < a.client_losses[r].size(); ++k) {
      EXPECT_EQ(a.client_losses[r][k], b.client_losses[r][k]);
    }
  }
}

TEST(RoundEngine, BitIdenticalAcrossWorkerBudgets) {
  fl::FlOptions opts;
  opts.rounds = 3;
  const fl::FlLog serial = RunWithBudget(1, opts, 77);
  const fl::FlLog parallel = RunWithBudget(4, opts, 77);
  ExpectBitIdentical(serial, parallel);
}

TEST(RoundEngine, BitIdenticalUnderPartialParticipation) {
  fl::FlOptions opts;
  opts.rounds = 3;
  opts.participation = 0.5f;
  const fl::FlLog serial = RunWithBudget(1, opts, 78);
  const fl::FlLog parallel = RunWithBudget(4, opts, 78);
  ExpectBitIdentical(serial, parallel);
}

TEST(RoundEngine, DifferentRunSeedsDiverge) {
  fl::FlOptions opts;
  opts.rounds = 1;
  const fl::FlLog a = RunWithBudget(1, opts, 1);
  const fl::FlLog b = RunWithBudget(1, opts, 2);
  // Local SGD shuffles differ, so at least one weight must differ.
  bool any_diff = false;
  for (std::size_t i = 0; i < a.final_global.size(); ++i) {
    if (a.final_global.values()[i] != b.final_global.values()[i]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ---- telemetry --------------------------------------------------------------

TEST(RoundEngine, TelemetryCoversEveryRoundAndClient) {
  fl::FlOptions opts;
  opts.rounds = 3;
  const fl::FlLog log = RunWithBudget(2, opts, 80);
  ASSERT_EQ(log.telemetry.rounds.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    const fl::RoundStats& rs = log.telemetry.rounds[r];
    EXPECT_EQ(rs.round, r + 1);
    ASSERT_EQ(rs.clients.size(), 4u);
    EXPECT_GE(rs.broadcast_seconds, 0.0);
    EXPECT_GE(rs.train_wall_seconds, 0.0);
    EXPECT_GE(rs.aggregate_seconds, 0.0);
    for (std::size_t i = 0; i < rs.clients.size(); ++i) {
      EXPECT_EQ(rs.clients[i].round, r + 1);
      EXPECT_EQ(rs.clients[i].client, i);
      EXPECT_GE(rs.clients[i].train_seconds, 0.0);
      EXPECT_TRUE(std::isfinite(rs.clients[i].loss));
    }
  }
}

TEST(RoundTelemetry, WriteJsonlOneLinePerRound) {
  fl::FlOptions opts;
  opts.rounds = 2;
  const fl::FlLog log = RunWithBudget(1, opts, 81);
  std::ostringstream os;
  log.telemetry.WriteJsonl(os);
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find("{\"round\":1,"), std::string::npos);
  EXPECT_NE(out.find("\"clients\":[{"), std::string::npos);
}

// ---- client factory ---------------------------------------------------------

TEST(ClientFactory, EveryKindBuildsAndTrainsOneRound) {
  const data::Dataset data = BlobData(24, 4, 90);
  const data::Dataset reference = BlobData(24, 4, 91);
  fl::ClientSpec spec;
  spec.model = MlpSpec(4, 2);
  spec.data = data;
  spec.reference = reference;
  spec.train.epochs = 1;
  spec.seed = 7;
  spec.dp.total_steps = 10;
  const fl::ClientKind kinds[] = {
      fl::ClientKind::kLegacy,   fl::ClientKind::kCip,
      fl::ClientKind::kDpSgd,    fl::ClientKind::kHdp,
      fl::ClientKind::kAdvReg,   fl::ClientKind::kMixupMmd,
      fl::ClientKind::kRelaxLoss};
  for (const fl::ClientKind kind : kinds) {
    spec.kind = kind;
    const std::unique_ptr<fl::ClientBase> client = fl::MakeClient(spec);
    ASSERT_NE(client, nullptr);
    const fl::ModelState init = fl::InitialStateFor(spec);
    client->SetGlobal(init);
    const fl::ModelState update =
        client->TrainLocal(fl::MakeRoundContext(92, 1, 0));
    // The round-trip contract: the update has the broadcast model's shape.
    EXPECT_EQ(update.size(), init.size());
  }
}

TEST(ClientFactory, CipTrainConfigIsAuthoritative) {
  fl::ClientSpec spec;
  spec.kind = fl::ClientKind::kCip;
  spec.model = MlpSpec(4, 2);
  spec.data = BlobData(16, 4, 93);
  spec.train.lr = 0.123f;
  spec.cip.train.lr = 0.999f;  // must be overwritten by spec.train
  const std::unique_ptr<core::CipClient> client = fl::MakeCipClient(spec);
  EXPECT_FLOAT_EQ(client->config().train.lr, 0.123f);
}

TEST(ClientFactory, MakeCipClientRejectsOtherKinds) {
  fl::ClientSpec spec;
  spec.kind = fl::ClientKind::kLegacy;
  spec.model = MlpSpec(4, 2);
  spec.data = BlobData(16, 4, 94);
  EXPECT_THROW(fl::MakeCipClient(spec), CheckError);
}

// ---- concurrent client phase ------------------------------------------------

TEST(RoundEngine, ClientPhaseRunsConcurrently) {
  // Four live clients meet inside TrainLocal: each checks in, then waits for
  // the other three. The meeting completes only if the engine really runs
  // the client phase on four concurrent runners at max_parallel_clients = 4;
  // otherwise the waits run out at a shared deadline and the test fails
  // instead of hanging.
  constexpr int kParty = 4;
  struct Meeting {
    std::atomic<int> arrived{0};
    std::chrono::steady_clock::time_point deadline;
  };
  struct MeetingClient : fl::ClientBase {
    Meeting* meeting = nullptr;
    bool met = false;
    data::Dataset data;
    fl::ModelState state;

    void SetGlobal(const fl::ModelState& global) override { state = global; }
    fl::ModelState TrainLocal(fl::RoundContext /*ctx*/) override {
      meeting->arrived.fetch_add(1);
      while (meeting->arrived.load() < kParty &&
             std::chrono::steady_clock::now() < meeting->deadline) {
      }
      met = meeting->arrived.load() == kParty;
      return state;
    }
    double EvalAccuracy(const data::Dataset&) override { return 0.0; }
    float LastTrainLoss() const override { return 0.0f; }
    const data::Dataset& LocalData() const override { return data; }
  };

  Meeting meeting;
  meeting.deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::vector<MeetingClient> clients(kParty);
  std::vector<fl::ClientBase*> ptrs;
  for (MeetingClient& c : clients) {
    c.meeting = &meeting;
    ptrs.push_back(&c);
  }
  fl::FlOptions opts;
  opts.rounds = 1;
  opts.max_parallel_clients = kParty;
  fl::FederatedAveraging server(fl::ModelState(std::vector<float>{0.0f}),
                                opts);
  fl::ClientStore store{std::span<fl::ClientBase* const>(ptrs)};
  server.Run(store, 97);
  for (const MeetingClient& c : clients) EXPECT_TRUE(c.met);
}

// ---- server-side LR schedule ------------------------------------------------

TEST(RoundEngine, LrDecayScheduleScalesClientLr) {
  // A probe client that records the effective LR each round.
  struct LrProbe : fl::ClientBase {
    std::vector<float> lrs;
    data::Dataset data;
    fl::ModelState state;
    fl::TrainConfig cfg;

    void SetGlobal(const fl::ModelState& global) override { state = global; }
    fl::ModelState TrainLocal(fl::RoundContext ctx) override {
      lrs.push_back(ctx.LrFor(cfg));
      return state;
    }
    double EvalAccuracy(const data::Dataset&) override { return 0.0; }
    float LastTrainLoss() const override { return 0.0f; }
    const data::Dataset& LocalData() const override { return data; }
  };

  LrProbe probe;
  probe.cfg.lr = 0.8f;
  probe.cfg.lr_decay_every = 0;  // isolate the server-side schedule
  fl::ClientBase* ptr = &probe;
  fl::FlOptions opts;
  opts.rounds = 5;
  opts.lr_decay = 0.5f;
  opts.lr_decay_every = 2;
  fl::FederatedAveraging server(fl::ModelState(std::vector<float>{0.0f}),
                                opts);
  fl::ClientStore store{std::span<fl::ClientBase* const>(&ptr, 1)};
  server.Run(store, 95);
  // Rounds 1-2 at scale 1, 3-4 at 0.5, 5 at 0.25.
  ASSERT_EQ(probe.lrs.size(), 5u);
  EXPECT_FLOAT_EQ(probe.lrs[0], 0.8f);
  EXPECT_FLOAT_EQ(probe.lrs[1], 0.8f);
  EXPECT_FLOAT_EQ(probe.lrs[2], 0.4f);
  EXPECT_FLOAT_EQ(probe.lrs[3], 0.4f);
  EXPECT_FLOAT_EQ(probe.lrs[4], 0.2f);
}

}  // namespace
}  // namespace cip
