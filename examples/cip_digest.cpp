// Bit-identity digest of a seeded CIP federation, for comparing two builds.
//
// Runs the cip_train benchmark's shape at a fixed small size — 4 CIP
// tiny-ResNet clients (width 8, 3x12x12 CIFAR-100-like inputs, 20 classes,
// 64 samples each) in a cold store, full participation, 3 rounds of
// FederatedAveraging::Run — and prints one line per seed:
//
//   seed 7 global <fnv> states <fnv> isa avx512
//
// `global` is the FNV-1a 64 of the final global's float bytes; `states` is
// the FNV-1a 64 of every tensor of store.ExportStates() (each client's
// secret t, then its optimizer momentum) in client-id order; `isa` is the
// GEMM kernel the run used. A change that claims to keep θ and t byte for
// byte prints the same lines as its parent under each CIP_ISA
// (auto/avx2/portable) and CIP_THREADS setting:
//
//   CIP_ISA=portable CIP_THREADS=1 ./build/examples/cip_digest
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "core/cip_client.h"
#include "data/synthetic.h"
#include "fl/client_factory.h"
#include "fl/server.h"
#include "tensor/gemm_kernels.h"

using namespace cip;

namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kSamplesPerClient = 64;
constexpr std::size_t kRounds = 3;

struct Fnv1a64 {
  std::uint64_t h = 14695981039346656037ull;
  void Add(std::span<const float> v) {
    for (const std::byte b : std::as_bytes(v)) {
      h = (h ^ std::to_integer<std::uint64_t>(b)) * 1099511628211ull;
    }
  }
};

void Digest(std::uint64_t seed) {
  data::VisionConfig vc = data::Cifar100Like();
  vc.seed = seed;
  const data::SyntheticVision gen(vc);
  nn::ModelSpec model;
  model.arch = nn::Arch::kResNet;
  model.input_shape = gen.SampleShape();
  model.num_classes = vc.num_classes;
  model.width = 8;
  model.seed = seed + 1;
  std::vector<fl::ClientSpec> specs(kClients);
  for (std::size_t k = 0; k < kClients; ++k) {
    Rng rng = DeriveStream(seed, 1, k);
    specs[k].kind = fl::ClientKind::kCip;
    specs[k].model = model;
    specs[k].data = gen.Sample(kSamplesPerClient, rng);
    specs[k].seed = DeriveStream(seed, 2, k).NextU64();
  }
  fl::ClientStore store = fl::MakeClientStore(std::move(specs));
  fl::FlOptions opts;
  opts.rounds = kRounds;
  opts.participation = 1.0f;
  const fl::FlLog log =
      fl::FederatedAveraging(core::InitialDualState(model), opts)
          .Run(store, seed);

  Fnv1a64 global, states;
  global.Add(log.final_global.values());
  for (const auto& [id, state] : store.ExportStates()) {
    for (const Tensor& t : state.tensors) states.Add(t.flat());
  }
  std::printf("seed %llu global %016llx states %016llx isa %s\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(global.h),
              static_cast<unsigned long long>(states.h),
              ops::ActiveGemmKernel().name);
}

}  // namespace

int main() {
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{11}}) {
    Digest(seed);
  }
  return 0;
}
