#include "net/client_runner.h"

#include <optional>
#include <span>
#include <utility>

#include "common/check.h"
#include "fl/round_context.h"
#include "net/frame.h"
#include "net/socket.h"

namespace cip::net {

namespace {

/// Block until one complete frame is parsed (or the peer closes — nullopt).
/// The payload views `reader`'s buffer until the next read from it.
std::optional<FrameView> ReadFrame(Socket& sock, FrameReader& reader) {
  while (true) {
    if (std::optional<FrameView> f = reader.NextView()) return f;
    char buf[16384];
    const IoResult r = RecvSome(sock, std::span<char>(buf, sizeof(buf)));
    if (r.closed || r.error) return std::nullopt;
    if (r.would_block) continue;  // blocking socket: EINTR only
    reader.Feed(std::string_view(buf, r.bytes));
  }
}

/// Sleep `ms` without threads: poll(2) on nothing with a timeout.
void SleepMs(std::uint32_t ms) {
  Poll(std::span<PollItem>(), static_cast<int>(ms));
}

}  // namespace

ClientRunResult RunClient(fl::ClientBase& client,
                          const ClientRunnerOptions& opts) {
  ClientRunResult result;
  Socket sock;
  FrameReader reader;
  WelcomeMsg welcome;
  bool welcomed = false;

  // Dial + kHello, honoring kBusy retry hints with a fresh connection each
  // attempt (the server closes a rejected connection after the hint).
  for (std::size_t attempt = 0;; ++attempt) {
    sock = ConnectTcp(opts.host, opts.port);
    HelloMsg hello;
    hello.client_id = opts.client_id;
    const std::string frame = EncodeHello(hello);
    CIP_CHECK_MSG(SendAll(sock, std::span<const char>(frame.data(),
                                                      frame.size())),
                  "server closed the connection during kHello");
    reader = FrameReader();
    const std::optional<FrameView> f = ReadFrame(sock, reader);
    CIP_CHECK_MSG(f.has_value(), "server closed the connection after kHello");
    if (f->type == MsgType::kBusy) {
      const BusyMsg busy = DecodeBusy(f->payload);
      if (attempt >= opts.max_busy_retries) {
        result.busy_gave_up = true;
        return result;
      }
      SleepMs(busy.retry_after_ms);
      continue;
    }
    CIP_CHECK_MSG(f->type == MsgType::kWelcome,
                  "expected kWelcome, got message type "
                      << static_cast<std::uint32_t>(f->type));
    welcome = DecodeWelcome(f->payload);
    CIP_CHECK_MSG(welcome.client_id == opts.client_id,
                  "server welcomed the wrong id: " << welcome.client_id);
    welcomed = true;
    break;
  }
  CIP_CHECK_MSG(welcomed, "no kWelcome received");

  while (true) {
    const std::optional<FrameView> f = ReadFrame(sock, reader);
    CIP_CHECK_MSG(f.has_value(), "server vanished mid-run");
    switch (f->type) {
      case MsgType::kRound: {
        const RoundMsg round = DecodeRound(f->payload);
        if (opts.crash_in_round != 0 &&
            round.round >= opts.crash_in_round) {
          // Kill-test hook: vanish without replying; the server sees the
          // connection drop and degrades via quorum.
          result.crashed = true;
          return result;
        }
        client.SetGlobal(round.global);
        // The same (run_seed, round, client_index) stream derivation as the
        // in-process engine — the heart of the wire bit-identity contract.
        fl::RoundContext ctx = fl::MakeRoundContext(
            welcome.run_seed, static_cast<std::size_t>(round.round),
            static_cast<std::size_t>(opts.client_id), round.lr_scale);
        UpdateMsg update;
        update.round = round.round;
        update.client_id = opts.client_id;
        update.update = client.TrainLocal(std::move(ctx));
        update.loss = client.LastTrainLoss();
        const std::string frame = EncodeUpdate(update);
        CIP_CHECK_MSG(
            SendAll(sock, std::span<const char>(frame.data(), frame.size())),
            "server closed the connection during kUpdate");
        ++result.rounds_trained;
        break;
      }
      case MsgType::kFinal: {
        result.final_global = DecodeFinal(f->payload).global;
        result.finished = true;
        return result;
      }
      default:
        CIP_CHECK_MSG(false, "unexpected message type "
                                 << static_cast<std::uint32_t>(f->type)
                                 << " mid-run");
    }
  }
}

}  // namespace cip::net
