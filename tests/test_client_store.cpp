// ClientStore lifecycle tests: the deterministic cohort sampler, the client
// record codec and shard files under hostile bytes, the store-level
// bit-identity invariants (hot vs cold, spill vs resident, hot-set size,
// worker budget, deprecated span adapter), and the clients' first-use model
// build, which must not depend on which call triggers it.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "data/partition.h"
#include "fl/client_factory.h"
#include "fl/client_store.h"
#include "fl/sampler.h"
#include "fl/server.h"
#include "testing_util.h"

namespace cip {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ---- sampler ---------------------------------------------------------------

TEST(Sampler, CohortSizeFloorsWithMinimumOne) {
  EXPECT_EQ(fl::CohortSize(0.5f, 4), 2u);
  EXPECT_EQ(fl::CohortSize(0.3f, 4), 1u);   // floor(1.2) = 1
  EXPECT_EQ(fl::CohortSize(1.0f, 7), 7u);
  // The bugfix cases: fractions that floor to zero clamp to one instead of
  // being rejected, and the product is computed in double so 0.1f * 5 and
  // 0.001f * 1e6 land on the intended integers.
  EXPECT_EQ(fl::CohortSize(0.1f, 5), 1u);
  EXPECT_EQ(fl::CohortSize(0.01f, 10), 1u);
  EXPECT_EQ(fl::CohortSize(0.001f, 1'000'000), 1000u);
  EXPECT_EQ(fl::CohortSize(0.9f, 1), 1u);
}

TEST(Sampler, CohortSizeRejectsInvalidArguments) {
  EXPECT_THROW(fl::CohortSize(0.0f, 4), CheckError);
  EXPECT_THROW(fl::CohortSize(-0.1f, 4), CheckError);
  EXPECT_THROW(fl::CohortSize(1.5f, 4), CheckError);
  EXPECT_THROW(fl::CohortSize(0.5f, 0), CheckError);
}

TEST(Sampler, CohortIsSortedDistinctAndInRange) {
  const std::size_t n = 100;
  for (std::size_t round = 1; round <= 8; ++round) {
    const std::vector<std::size_t> cohort =
        fl::SampleCohort(/*run_seed=*/42, round, n, 0.13f);
    ASSERT_EQ(cohort.size(), fl::CohortSize(0.13f, n));
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      EXPECT_LT(cohort[i], n);
      // Strictly ascending == sorted with no duplicates (the
      // without-replacement regression this suite pins).
      if (i > 0) {
        EXPECT_LT(cohort[i - 1], cohort[i]);
      }
    }
  }
}

TEST(Sampler, DeterministicPerRoundAndVariesAcrossRounds) {
  const std::size_t n = 50;
  const auto a = fl::SampleCohort(7, 3, n, 0.2f);
  const auto b = fl::SampleCohort(7, 3, n, 0.2f);
  EXPECT_EQ(a, b);
  bool any_different = false;
  for (std::size_t round = 1; round <= 6; ++round) {
    if (fl::SampleCohort(7, round, n, 0.2f) != a) any_different = true;
  }
  EXPECT_TRUE(any_different);
  EXPECT_NE(fl::SampleCohort(8, 3, n, 0.2f), a);
}

TEST(Sampler, FullParticipationIsTheWholeFleet) {
  const auto cohort = fl::SampleCohort(11, 1, 6, 1.0f);
  const std::vector<std::size_t> all = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(cohort, all);
}

// ---- record codec ----------------------------------------------------------

fl::ClientState SampleState() {
  fl::ClientState s;
  Tensor a({2, 2});
  a[0] = 1.5f;
  a[1] = -2.0f;
  a[2] = 0.0f;
  a[3] = 3.25f;
  s.tensors.push_back(a);
  s.tensors.push_back(Tensor({3}, 0.5f));
  return s;
}

TEST(ClientRecord, RoundTripPreservesTensors) {
  const fl::ClientState in = SampleState();
  const std::string blob = fl::EncodeClientRecord(17, in);
  const fl::ClientState out = fl::DecodeClientRecord(blob, 17);
  ASSERT_EQ(out.tensors.size(), in.tensors.size());
  for (std::size_t t = 0; t < in.tensors.size(); ++t) {
    ASSERT_EQ(out.tensors[t].shape(), in.tensors[t].shape());
    for (std::size_t i = 0; i < in.tensors[t].size(); ++i) {
      EXPECT_EQ(out.tensors[t][i], in.tensors[t][i]);
    }
  }
}

TEST(ClientRecord, RejectsWrongClientId) {
  const std::string blob = fl::EncodeClientRecord(17, SampleState());
  EXPECT_THROW(fl::DecodeClientRecord(blob, 18), CheckError);
}

TEST(ClientRecord, RejectsBadMagicAndTrailingBytes) {
  std::string blob = fl::EncodeClientRecord(3, SampleState());
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW(fl::DecodeClientRecord(bad_magic, 3), CheckError);
  EXPECT_THROW(fl::DecodeClientRecord(blob + "junk", 3), CheckError);
}

TEST(ClientRecord, RejectsHostileTensorCountBeforeAllocating) {
  std::string blob = fl::EncodeClientRecord(3, SampleState());
  // The tensor count sits after the 4-byte magic and 8-byte id; saturating
  // it must be rejected by the ceiling check, not attempted as a reserve.
  for (std::size_t i = 12; i < 20; ++i) blob[i] = '\xFF';
  EXPECT_THROW(fl::DecodeClientRecord(blob, 3), CheckError);
}

TEST(ClientRecord, RejectsTruncationAtEveryByte) {
  const std::string blob = fl::EncodeClientRecord(9, SampleState());
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(fl::DecodeClientRecord(blob.substr(0, len), 9), CheckError)
        << "prefix of " << len << " bytes must not decode";
  }
}

// ---- federations -----------------------------------------------------------

std::vector<fl::ClientSpec> MakeSpecs(std::size_t num_clients) {
  Rng rng(5);
  data::Dataset full = testing::TwoBlobs(20 * num_clients, 4, rng);
  const auto shards = data::PartitionIid(full, num_clients, rng);
  fl::ClientSpec proto;
  proto.kind = fl::ClientKind::kLegacy;
  proto.model.arch = nn::Arch::kMLP;
  proto.model.input_shape = {4};
  proto.model.num_classes = 2;
  proto.model.width = 6;
  proto.model.seed = 77;
  proto.train.lr = 0.1f;
  proto.train.momentum = 0.9f;
  std::vector<fl::ClientSpec> specs;
  for (std::size_t k = 0; k < num_clients; ++k) {
    fl::ClientSpec spec = proto;
    spec.data = shards[k];
    spec.seed = 50 + k;
    specs.push_back(std::move(spec));
  }
  return specs;
}

fl::FlOptions SmallRun(std::size_t budget) {
  fl::FlOptions opts;
  opts.rounds = 3;
  opts.max_parallel_clients = budget;
  return opts;
}

fl::FlLog RunCold(std::size_t num_clients, fl::StoreOptions sopts,
                  std::size_t budget) {
  auto specs = MakeSpecs(num_clients);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  fl::ClientStore store =
      fl::MakeClientStore(std::move(specs), std::move(sopts));
  fl::FederatedAveraging server(init, SmallRun(budget));
  return server.Run(store, 21);
}

fl::FlLog RunLive(std::size_t num_clients, std::size_t budget) {
  auto specs = MakeSpecs(num_clients);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  fl::ClientStore store;
  for (const fl::ClientSpec& spec : specs) store.Add(fl::MakeClient(spec));
  fl::FederatedAveraging server(init, SmallRun(budget));
  return server.Run(store, 21);
}

void ExpectSameLog(const fl::FlLog& a, const fl::FlLog& b) {
  const auto av = a.final_global.values();
  const auto bv = b.final_global.values();
  ASSERT_EQ(av.size(), bv.size());
  // memcmp, not ==: bit-identity is the claim.
  EXPECT_EQ(std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)), 0);
  ASSERT_EQ(a.client_losses.size(), b.client_losses.size());
  for (std::size_t r = 0; r < a.client_losses.size(); ++r) {
    ASSERT_EQ(a.client_losses[r].size(), b.client_losses[r].size());
    EXPECT_EQ(std::memcmp(a.client_losses[r].data(), b.client_losses[r].data(),
                          a.client_losses[r].size() * sizeof(float)),
              0)
        << "round " << r;
  }
}

TEST(ClientStore, HotAndColdFleetsAreBitIdentical) {
  const fl::FlLog live = RunLive(4, /*budget=*/4);
  const fl::FlLog cold = RunCold(4, {}, /*budget=*/4);
  ExpectSameLog(live, cold);
}

TEST(ClientStore, SpillResidentHotSizeAndBudgetCannotAffectResults) {
  // Where the same record bytes wait (resident vs shard file, big vs tiny
  // LRU budget) and how many workers train must be invisible in the log.
  const fl::FlLog reference = RunCold(4, {}, /*budget=*/1);

  fl::StoreOptions tiny;
  tiny.hot_bytes = 1;  // every eviction spills straight to disk
  tiny.shard_clients = 2;
  tiny.spill_dir = TempPath("store_tiny_spill");
  ExpectSameLog(reference, RunCold(4, std::move(tiny), /*budget=*/4));

  fl::StoreOptions roomy;
  roomy.hot_bytes = std::size_t{64} << 20;  // nothing ever spills
  roomy.spill_dir = TempPath("store_roomy_spill");
  ExpectSameLog(reference, RunCold(4, std::move(roomy), /*budget=*/4));

  ExpectSameLog(reference, RunCold(4, {}, /*budget=*/4));
}

TEST(ClientStore, StatsCountTheSpillLifecycle) {
  auto specs = MakeSpecs(3);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  fl::StoreOptions sopts;
  sopts.hot_bytes = 1;
  sopts.shard_clients = 2;
  sopts.spill_dir = TempPath("store_stats_spill");
  fl::ClientStore store =
      fl::MakeClientStore(std::move(specs), std::move(sopts));
  fl::FederatedAveraging server(init, SmallRun(2));
  server.Run(store, 21);

  const fl::StoreStats& stats = store.stats();
  EXPECT_EQ(stats.evictions, 9u);  // 3 clients x 3 rounds re-serialized
  EXPECT_EQ(stats.spills, 9u);     // 1-byte budget: every record spills
  EXPECT_GT(stats.cold_loads, 0u);
  EXPECT_EQ(stats.hot_records, 0u);
  EXPECT_EQ(stats.hot_bytes, 0u);
  EXPECT_EQ(stats.spilled_records, 3u);  // the whole fleet lives on disk
}

TEST(ClientStore, BorrowedStoreMatchesColdFactoryStore) {
  // Live (borrowed) fleets and cold factory fleets are interchangeable
  // entry points: same specs, same seed, bit-identical logs.
  auto specs = MakeSpecs(3);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  std::vector<std::unique_ptr<fl::ClientBase>> owned;
  std::vector<fl::ClientBase*> ptrs;
  for (const fl::ClientSpec& spec : specs) {
    owned.push_back(fl::MakeClient(spec));
    ptrs.push_back(owned.back().get());
  }
  fl::ClientStore borrowed{std::span<fl::ClientBase* const>(ptrs)};
  const fl::FlLog via_borrowed =
      fl::FederatedAveraging(init, SmallRun(2)).Run(borrowed, 33);
  fl::ClientStore cold = fl::MakeClientStore(std::move(specs));
  const fl::FlLog via_cold =
      fl::FederatedAveraging(init, SmallRun(2)).Run(cold, 33);
  ExpectSameLog(via_borrowed, via_cold);
}

// ---- first-use model build ---------------------------------------------------

/// The client's model parameters as a state (builds the model if it is not
/// built yet).
fl::ModelState ModelOf(fl::ClientBase& client, fl::ClientKind kind) {
  if (kind == fl::ClientKind::kCip) {
    return fl::ModelState::From(
        static_cast<core::CipClient&>(client).model().Parameters());
  }
  return fl::ModelState::From(
      static_cast<fl::LegacyClient&>(client).model().Parameters());
}

bool SameBits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameBits(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape() || !SameBits(a[i].flat(), b[i].flat())) {
      return false;
    }
  }
  return true;
}

TEST(ClientModel, FirstUseBuildKeepsInitialBytesInEveryOrder) {
  // Clients build their model on the first call that needs it. Whichever
  // call that is, the model starts from the spec's initial weights, and one
  // round of training afterwards yields the same update and the same
  // private state (t, momentum) byte for byte.
  struct Order {
    const char* name;
    std::function<fl::ModelState(fl::ClientBase&, const fl::ClientSpec&)>
        first_use;
  };
  const std::vector<Order> orders = {
      {"model() first",
       [](fl::ClientBase& c, const fl::ClientSpec& spec) {
         return ModelOf(c, spec.kind);
       }},
      {"ExportState then model()",
       [](fl::ClientBase& c, const fl::ClientSpec& spec) {
         (void)c.ExportState();
         return ModelOf(c, spec.kind);
       }},
      {"RestoreState then SetGlobal",
       [](fl::ClientBase& c, const fl::ClientSpec& spec) {
         c.RestoreState(fl::MakeClient(spec)->ExportState());
         c.SetGlobal(fl::InitialStateFor(spec));
         return ModelOf(c, spec.kind);
       }},
  };
  for (const fl::ClientKind kind :
       {fl::ClientKind::kCip, fl::ClientKind::kLegacy}) {
    fl::ClientSpec spec = MakeSpecs(1)[0];
    spec.kind = kind;
    const fl::ModelState initial = kind == fl::ClientKind::kCip
                                       ? core::InitialDualState(spec.model)
                                       : fl::InitialState(spec.model);
    fl::ModelState first_update;
    std::vector<Tensor> first_state;
    for (const Order& order : orders) {
      SCOPED_TRACE(std::string(kind == fl::ClientKind::kCip ? "kCip: "
                                                            : "kLegacy: ") +
                   order.name);
      std::unique_ptr<fl::ClientBase> client = fl::MakeClient(spec);
      EXPECT_TRUE(
          SameBits(order.first_use(*client, spec).values(), initial.values()));
      client->SetGlobal(initial);
      const fl::ModelState update =
          client->TrainLocal(fl::MakeRoundContext(/*run_seed=*/9, 1, 0));
      const std::vector<Tensor> state = client->ExportState().tensors;
      if (first_state.empty()) {
        first_update = update;
        first_state = state;
        ASSERT_FALSE(first_state.empty());  // momentum (and t) exist now
        continue;
      }
      EXPECT_TRUE(SameBits(update.values(), first_update.values()));
      EXPECT_TRUE(SameBits(state, first_state));
    }
  }
}

// ---- adversarial shard files -----------------------------------------------

/// A cold spilling store whose whole fleet has trained once, so every
/// client's record lives in shard files on disk.
struct SpilledStore {
  fl::ClientStore store;
  std::string shard_path;  // the shard holding client 1's record
};

SpilledStore MakeSpilledStore(const std::string& dir_name) {
  auto specs = MakeSpecs(3);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  fl::StoreOptions sopts;
  sopts.hot_bytes = 1;
  sopts.shard_clients = 2;  // client 1 -> shard 0, slot 1
  const std::string dir = TempPath(dir_name);
  sopts.spill_dir = dir;
  fl::ClientStore store =
      fl::MakeClientStore(std::move(specs), std::move(sopts));
  fl::FederatedAveraging server(init, SmallRun(2));
  server.Run(store, 21);
  return SpilledStore{std::move(store), dir + "/shard_0.cip"};
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ShardFile, RejectsTruncationAtEveryByte) {
  SpilledStore s = MakeSpilledStore("shard_trunc");
  const std::string good = ReadFileBytes(s.shard_path);
  ASSERT_GT(good.size(), 32u);
  for (std::size_t len = 0; len < good.size(); ++len) {
    WriteFileBytes(s.shard_path, good.substr(0, len));
    EXPECT_THROW(s.store.Materialize(1), CheckError)
        << "shard truncated to " << len << " bytes must not load";
  }
  WriteFileBytes(s.shard_path, good);
  const fl::ClientStore::Handle h = s.store.Materialize(1);
  EXPECT_TRUE(h);  // intact file still materializes
}

TEST(ShardFile, RejectsHostileHeaderAndDirectory) {
  SpilledStore s = MakeSpilledStore("shard_hostile");
  const std::string good = ReadFileBytes(s.shard_path);

  auto corrupt = [&](std::size_t begin, std::size_t n) {
    std::string bad = good;
    for (std::size_t i = begin; i < begin + n; ++i) bad[i] = '\xFF';
    WriteFileBytes(s.shard_path, bad);
    EXPECT_THROW(s.store.Materialize(1), CheckError)
        << "bytes [" << begin << ", " << begin + n << ") saturated";
  };
  corrupt(0, 4);    // magic
  corrupt(4, 4);    // version
  corrupt(8, 8);    // shard index
  corrupt(16, 8);   // slot count (hostile: would size the directory)
  corrupt(24, 8);   // data_end past the file
  corrupt(32 + 16, 16);  // client 1's directory entry: offset/length wild

  // A zeroed directory offset means "absent", not "read from offset 0".
  std::string absent = good;
  for (std::size_t i = 32 + 16; i < 32 + 32; ++i) absent[i] = '\0';
  WriteFileBytes(s.shard_path, absent);
  EXPECT_THROW(s.store.Materialize(1), CheckError);

  WriteFileBytes(s.shard_path, good);
  EXPECT_TRUE(s.store.Materialize(1));
}

TEST(ClientStore, ColdConstructionRemovesStaleShards) {
  const std::string dir = TempPath("stale_shards");
  std::filesystem::create_directories(dir);
  WriteFileBytes(dir + "/shard_0.cip", "stale bytes from a previous run");
  fl::StoreOptions sopts;
  sopts.spill_dir = dir;
  auto specs = MakeSpecs(2);
  fl::ClientStore store =
      fl::MakeClientStore(std::move(specs), std::move(sopts));
  EXPECT_FALSE(std::filesystem::exists(dir + "/shard_0.cip"));
}

}  // namespace
}  // namespace cip
