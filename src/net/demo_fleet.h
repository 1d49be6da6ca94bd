// Shared demo fleet for the socket server's binaries and end-to-end tests.
//
// The wire bit-identity claim — cip_server over sockets equals
// FederatedAveraging in-process — is only checkable when both sides build
// the *same* fleet from the same pure id -> spec function. This header is
// that function: cip_server, cip_client and tests/test_net_e2e.cpp all
// construct their clients and initial broadcast state here, so "client k"
// means the identical model, data shard, and seed in every process
// involved.
//
// Lives in its own library (cip_net_demo) because ClientSpec pulls in
// cip_fl_factory (and with it the concrete client libraries); the core net
// layer (socket/frame/engine/server/runner) stays below them in the
// dependency DAG.
#pragma once

#include <cstddef>
#include <memory>

#include "fl/client_factory.h"

namespace cip::net {

/// Pure per-id spec for a tiny two-blob MLP LegacyClient (same shape as the
/// scale bench's fleet: 4-d inputs, 2 classes, 8 local examples derived
/// from an id-seeded stream).
fl::ClientSpec DemoSpecFor(std::size_t id);

/// The initial broadcast state every party starts from.
fl::ModelState DemoInitialState();

/// Construct demo client `id`, ready for RunClient or a ClientStore.
std::unique_ptr<fl::ClientBase> MakeDemoClient(std::size_t id);

}  // namespace cip::net
