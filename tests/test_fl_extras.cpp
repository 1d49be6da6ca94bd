// Tests for the FL extras: serialization, partial participation, and
// learning-rate schedules across rounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "fl/client.h"
#include "fl/serialize.h"
#include "fl/server.h"
#include "testing_util.h"

namespace cip {
namespace {

// ---- serialization -----------------------------------------------------------

TEST(Serialize, ModelStateRoundTrip) {
  Rng rng(3);
  std::vector<float> v(97);
  for (float& x : v) x = rng.Normal();
  const fl::ModelState state{std::vector<float>(v)};
  std::stringstream ss;
  fl::SaveModelState(state, ss);
  const fl::ModelState loaded = fl::LoadModelState(ss);
  ASSERT_EQ(loaded.size(), state.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(loaded.values()[i], v[i]);
  }
}

TEST(Serialize, TensorRoundTripPreservesShape) {
  Rng rng(4);
  Tensor t({2, 3, 5});
  for (float& x : t.flat()) x = rng.Normal();
  std::stringstream ss;
  fl::SaveTensor(t, ss);
  const Tensor loaded = fl::LoadTensor(ss);
  EXPECT_EQ(loaded.shape(), t.shape());
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(loaded[i], t[i]);
}

TEST(Serialize, RejectsWrongMagic) {
  std::stringstream ss;
  ss << "not a cip stream at all";
  EXPECT_THROW(fl::LoadModelState(ss), CheckError);
  std::stringstream ss2;
  ss2 << "also not a tensor";
  EXPECT_THROW(fl::LoadTensor(ss2), CheckError);
}

TEST(Serialize, RejectsTruncatedStream) {
  Tensor t({4, 4}, 1.0f);
  std::stringstream ss;
  fl::SaveTensor(t, ss);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(fl::LoadTensor(truncated), CheckError);
}

TEST(Serialize, RejectsHostileLengthPrefix) {
  // Hand-craft a header whose length prefix claims ~2^63 floats; the loader
  // must reject it before sizing a buffer.
  const auto put_u32 = [](std::stringstream& ss, std::uint32_t v) {
    for (int b = 0; b < 4; ++b) ss.put(static_cast<char>((v >> (8 * b)) & 0xff));
  };
  const auto put_u64 = [](std::stringstream& ss, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) ss.put(static_cast<char>((v >> (8 * b)) & 0xff));
  };
  std::stringstream ss;
  put_u32(ss, 0x43495053);  // state magic "CIPS"
  put_u32(ss, 1);           // version
  put_u64(ss, std::uint64_t{1} << 62);
  EXPECT_THROW(fl::LoadModelState(ss), CheckError);

  // Tensor path: plausible rank, dims whose product overflows size_t.
  std::stringstream ts;
  put_u32(ts, 0x43495054);  // tensor magic "CIPT"
  put_u32(ts, 1);           // version
  put_u64(ts, 4);           // rank
  for (int i = 0; i < 4; ++i) put_u64(ts, std::uint64_t{1} << 30);
  EXPECT_THROW(fl::LoadTensor(ts), CheckError);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = "/tmp/cip_test_state.bin";
  const fl::ModelState state{std::vector<float>{1.5f, -2.5f, 3.5f}};
  fl::SaveModelStateFile(state, path);
  const fl::ModelState loaded = fl::LoadModelStateFile(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.values()[1], -2.5f);
  EXPECT_THROW(fl::LoadModelStateFile("/nonexistent/nope.bin"), CheckError);
}

// ---- partial participation ---------------------------------------------------

TEST(Participation, SubsetOfClientsTrainsEachRound) {
  Rng rng(5);
  data::Dataset full = testing::TwoBlobs(120, 4, rng);
  for (float& v : full.inputs.flat()) {
    v = std::clamp(0.5f + 0.25f * v, 0.0f, 1.0f);
  }
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.input_shape = {4};
  spec.num_classes = 2;
  spec.width = 4;
  spec.seed = 6;
  fl::TrainConfig cfg;
  std::vector<std::unique_ptr<fl::LegacyClient>> clients;
  std::vector<fl::ClientBase*> ptrs;
  for (std::size_t k = 0; k < 4; ++k) {
    clients.push_back(std::make_unique<fl::LegacyClient>(
        spec, full.Slice(k * 30, (k + 1) * 30), cfg, 10 + k));
    ptrs.push_back(clients.back().get());
  }
  fl::FlOptions opts;
  opts.rounds = 6;
  opts.participation = 0.5f;
  opts.record_client_updates = true;
  fl::FederatedAveraging server(fl::InitialState(spec), opts);
  fl::ClientStore store{std::span<fl::ClientBase* const>(ptrs)};
  const fl::FlLog log = server.Run(store, rng.NextU64());
  for (const auto& round : log.client_updates) {
    EXPECT_EQ(round.size(), 2u);  // floor(0.5 * 4) clients per round
  }
  // Cohort losses are O(cohort), aligned with the sampled participants.
  for (const auto& round : log.client_losses) {
    EXPECT_EQ(round.size(), 2u);
  }
}

TEST(Participation, RejectsInvalidFraction) {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.input_shape = {4};
  spec.num_classes = 2;
  spec.width = 2;
  fl::FlOptions opts;
  opts.participation = 0.0f;
  EXPECT_THROW(fl::FederatedAveraging(fl::InitialState(spec), opts),
               CheckError);
}

// ---- learning-rate schedule ---------------------------------------------------

TEST(LrSchedule, DecaysAcrossRounds) {
  fl::TrainConfig cfg;
  cfg.lr = 0.1f;
  cfg.lr_decay = 0.5f;
  cfg.lr_decay_every = 5;
  EXPECT_FLOAT_EQ(fl::LrAtRound(cfg, 1), 0.1f);
  EXPECT_FLOAT_EQ(fl::LrAtRound(cfg, 5), 0.1f);
  EXPECT_FLOAT_EQ(fl::LrAtRound(cfg, 6), 0.05f);
  EXPECT_FLOAT_EQ(fl::LrAtRound(cfg, 11), 0.025f);
}

TEST(LrSchedule, DisabledByDefault) {
  fl::TrainConfig cfg;
  cfg.lr = 0.1f;
  EXPECT_FLOAT_EQ(fl::LrAtRound(cfg, 100), 0.1f);
}

}  // namespace
}  // namespace cip
