#include "fl/client_factory.h"

#include "common/check.h"

namespace cip::fl {

std::unique_ptr<core::CipClient> MakeCipClient(ClientSpec spec) {
  CIP_CHECK_MSG(spec.kind == ClientKind::kCip,
                "MakeCipClient requires ClientKind::kCip");
  core::CipConfig cfg = std::move(spec.cip);
  cfg.train = spec.train;
  return std::make_unique<core::CipClient>(spec.model, std::move(spec.data),
                                           std::move(cfg), spec.seed);
}

std::unique_ptr<ClientBase> MakeClient(ClientSpec spec) {
  switch (spec.kind) {
    case ClientKind::kLegacy:
      return std::make_unique<LegacyClient>(spec.model, std::move(spec.data),
                                            spec.train, spec.seed);
    case ClientKind::kCip:
      return MakeCipClient(std::move(spec));
    case ClientKind::kDpSgd:
      return std::make_unique<defenses::DpSgdClient>(
          spec.model, std::move(spec.data), spec.train, spec.dp, spec.seed);
    case ClientKind::kHdp:
      return std::make_unique<defenses::HdpClient>(
          spec.model, std::move(spec.data), spec.train, spec.dp, spec.seed,
          spec.hdp_feature_boost);
    case ClientKind::kAdvReg:
      CIP_CHECK_MSG(!spec.reference.empty(),
                    "ClientKind::kAdvReg needs ClientSpec.reference");
      return std::make_unique<defenses::ArClient>(
          spec.model, std::move(spec.data), std::move(spec.reference),
          spec.train, spec.ar, spec.seed);
    case ClientKind::kMixupMmd:
      CIP_CHECK_MSG(!spec.reference.empty(),
                    "ClientKind::kMixupMmd needs ClientSpec.reference");
      return std::make_unique<defenses::MixupMmdClient>(
          spec.model, std::move(spec.data), std::move(spec.reference),
          spec.train, spec.mm, spec.seed);
    case ClientKind::kRelaxLoss:
      return std::make_unique<defenses::RelaxLossClient>(
          spec.model, std::move(spec.data), spec.train, spec.rl, spec.seed);
  }
  CIP_CHECK_MSG(false, "unknown ClientKind");
  return nullptr;
}

ClientStore MakeClientStore(std::vector<ClientSpec> specs, StoreOptions opts) {
  CIP_CHECK_MSG(!specs.empty(), "MakeClientStore needs at least one spec");
  const std::size_t n = specs.size();
  // The factory owns the specs via a shared_ptr so the returned store stays
  // movable (std::function requires a copyable callable).
  auto shared = std::make_shared<std::vector<ClientSpec>>(std::move(specs));
  return ClientStore(
      n,
      [shared](std::size_t id) { return MakeClient((*shared)[id]); },
      std::move(opts));
}

ClientStore MakeClientStore(std::size_t num_clients,
                            std::function<ClientSpec(std::size_t)> spec_for,
                            StoreOptions opts) {
  CIP_CHECK_MSG(spec_for != nullptr, "MakeClientStore needs a spec function");
  return ClientStore(
      num_clients,
      [spec_for = std::move(spec_for)](std::size_t id) {
        return MakeClient(spec_for(id));
      },
      std::move(opts));
}

ModelState InitialStateFor(const ClientSpec& spec) {
  switch (spec.kind) {
    case ClientKind::kCip:
      return core::InitialDualState(spec.model);
    case ClientKind::kHdp:
      return defenses::HdpClient::InitialState(spec.model,
                                               spec.hdp_feature_boost);
    default:
      return InitialState(spec.model);
  }
}

}  // namespace cip::fl
