#include "net/round_engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "fl/aggregate.h"
#include "fl/round_context.h"

namespace cip::net {

AsyncRoundEngine::AsyncRoundEngine(fl::ModelState initial, Options options)
    : options_(options), global_(std::move(initial)) {
  CIP_CHECK_MSG(!global_.empty(), "initial global state must be non-empty");
  CIP_CHECK_MSG(options_.total_rounds >= 1, "total_rounds must be >= 1");
  CIP_CHECK_MSG(options_.fleet_size >= 1, "fleet_size must be >= 1");
  CIP_CHECK_MSG(options_.quorum >= 1 && options_.quorum <= options_.fleet_size,
                "quorum must be in [1, fleet_size], got " << options_.quorum);
  CIP_CHECK_MSG(options_.min_quorum >= 1 &&
                    options_.min_quorum <= options_.fleet_size,
                "min_quorum must be in [1, fleet_size], got "
                    << options_.min_quorum);
  CIP_CHECK_MSG(options_.lr_decay > 0.0f && options_.lr_decay <= 1.0f,
                "lr_decay must be in (0, 1]");
}

namespace {

std::shared_ptr<const std::string> Shared(std::string frame) {
  return std::make_shared<const std::string>(std::move(frame));
}

}  // namespace

std::shared_ptr<const std::string> AsyncRoundEngine::RoundFrame() const {
  return Shared(EncodeRound(
      round_,
      fl::LrScaleAtRound(options_.lr_decay, options_.lr_decay_every, round_),
      global_));
}

std::vector<EngineSend> AsyncRoundEngine::OnJoin(std::uint64_t client_id) {
  std::vector<EngineSend> out;
  if (client_id >= options_.fleet_size || live_.count(client_id) != 0) {
    // An id outside the fleet, or one already connected, is a hostile or
    // confused peer — refuse without handing it any run state.
    ++stats_.protocol_errors;
    out.push_back({client_id, nullptr, /*then_close=*/true});
    return out;
  }
  WelcomeMsg w;
  w.client_id = client_id;
  w.run_seed = options_.run_seed;
  w.total_rounds = options_.total_rounds;
  w.fleet_size = options_.fleet_size;
  out.push_back({client_id, Shared(EncodeWelcome(w)), false});
  // A (re)join revives the id: it is only settled again once this
  // incarnation receives kFinal or leaves.
  settled_.erase(client_id);
  if (done_) {
    // Late joiner after the run ended: hand it the final aggregate so a
    // slow starter or retry-after-busy client still gets the result, then
    // part ways.
    out.push_back({client_id, Shared(EncodeFinal(global_)),
                   /*then_close=*/true});
    settled_.insert(client_id);
    return out;
  }
  live_.insert(client_id);
  ever_joined_.insert(client_id);
  out.push_back({client_id, RoundFrame(), false});
  return out;
}

std::vector<EngineSend> AsyncRoundEngine::ProtocolError(
    std::uint64_t client_id) {
  ++stats_.protocol_errors;
  if (live_.erase(client_id) != 0) settled_.insert(client_id);
  waiting_.erase(client_id);
  std::vector<EngineSend> out;
  out.push_back({client_id, nullptr, /*then_close=*/true});
  // Losing the violator may have satisfied the close condition for everyone
  // else — same re-check as an ordinary disconnect.
  MaybeCloseRound(out);
  return out;
}

std::vector<EngineSend> AsyncRoundEngine::OnUpdate(std::uint64_t client_id,
                                                   UpdateMsg m) {
  if (live_.count(client_id) == 0) return ProtocolError(client_id);
  if (done_) {
    // An in-flight straggler finishing after the last round closed: its
    // update has no round to fold into, so it gets the final aggregate and
    // an orderly goodbye instead (never a protocol error — it did nothing
    // wrong, the run simply ended without it).
    live_.erase(client_id);
    waiting_.erase(client_id);
    settled_.insert(client_id);
    std::vector<EngineSend> out;
    out.push_back({client_id, Shared(EncodeFinal(global_)),
                   /*then_close=*/true});
    return out;
  }
  if (m.client_id != client_id) return ProtocolError(client_id);
  // A round from the future is impossible for an honest client (the server
  // has not broadcast it yet); rounds below the current one are the
  // straggler-fold path.
  if (m.round == 0 || m.round > round_) return ProtocolError(client_id);
  if (buffer_.count(client_id) != 0) return ProtocolError(client_id);
  if (m.update.size() != global_.size()) return ProtocolError(client_id);

  const bool straggler = m.round < round_;
  ++stats_.updates_accepted;
  if (straggler) ++stats_.folded_stragglers;
  Buffered b;
  b.update = std::move(m.update);
  b.loss = m.loss;
  b.straggler = straggler;
  buffer_.emplace(client_id, std::move(b));
  waiting_.insert(client_id);

  std::vector<EngineSend> out;
  MaybeCloseRound(out);
  return out;
}

std::vector<EngineSend> AsyncRoundEngine::OnDisconnect(
    std::uint64_t client_id) {
  std::vector<EngineSend> out;
  if (live_.erase(client_id) == 0) return out;  // already gone / post-final
  settled_.insert(client_id);
  waiting_.erase(client_id);
  // Its buffered update (if any) stays: the server received it, so the drop
  // maps to fl/fault.h kDropout *from the next leg on* — exactly what the
  // in-process FaultPlan expresses with forced dropouts for later rounds.
  MaybeCloseRound(out);
  return out;
}

void AsyncRoundEngine::MaybeCloseRound(std::vector<EngineSend>& out) {
  if (done_) return;
  // Deliverable updates = connected clients plus fleet ids that have not
  // joined *yet*. Counting the unjoined is what makes startup deterministic:
  // without it, a quorum==fleet round would close with whichever subset
  // happened to connect first, and the aggregate would depend on connection
  // timing. A client that joined and then vanished is known gone and stops
  // counting; one that never dialed still holds its seat.
  const std::size_t deliverable =
      live_.size() + (options_.fleet_size - ever_joined_.size());
  const std::size_t target = std::min(options_.quorum, deliverable);
  if (buffer_.empty() || buffer_.size() < target) return;

  fl::RoundStats rs;
  rs.round = round_;
  rs.survivors = buffer_.size();
  for (const auto& [id, b] : buffer_) {
    if (b.straggler) ++rs.folded_stragglers;
    fl::ClientRoundStats cs;
    cs.round = round_;
    cs.client = static_cast<std::size_t>(id);
    cs.loss = b.loss;
    rs.clients.push_back(cs);
  }

  if (buffer_.size() >= options_.min_quorum) {
    // std::map iterates in ascending client id — the same sorted-survivor
    // order the in-process engine folds in, so the aggregate is independent
    // of network arrival order by construction.
    fl::TreeAccumulator acc;
    for (auto& [id, b] : buffer_) acc.Add(std::move(b.update));
    global_ = acc.FinishMean();
    ++stats_.rounds_completed;
  } else {
    rs.skipped = true;
    ++stats_.rounds_skipped;
  }
  telemetry_.rounds.push_back(std::move(rs));
  buffer_.clear();
  const std::set<std::uint64_t> was_waiting = std::move(waiting_);
  waiting_.clear();

  if (round_ == options_.total_rounds) {
    done_ = true;
    // Clients waiting on this close get the final aggregate and an orderly
    // close now. In-flight stragglers stay registered: they receive kFinal
    // in reply to their late update (OnUpdate), so no peer ever writes
    // into an already-closed connection.
    const std::shared_ptr<const std::string> frame =
        Shared(EncodeFinal(global_));
    for (const std::uint64_t id : was_waiting) {
      out.push_back({id, frame, /*then_close=*/true});
      live_.erase(id);
      settled_.insert(id);
    }
    return;
  }
  ++round_;
  // Clients that delivered for the closed round advance together; in-flight
  // stragglers rejoin when their late update lands.
  const std::shared_ptr<const std::string> frame = RoundFrame();
  for (const std::uint64_t id : was_waiting) {
    out.push_back({id, frame, false});
  }
}

}  // namespace cip::net
