#include "net/server.h"

#include <algorithm>

#include "common/check.h"
#include "serve/serve_engine.h"

namespace cip::net {

/// Per-connection state: the socket, the incremental frame parser, and the
/// outbound buffer the event loop flushes as the peer drains it.
struct CipServer::Connection {
  explicit Connection(Socket s, std::uint64_t max_payload)
      : sock(std::move(s)), reader(max_payload) {}

  Socket sock;
  FrameReader reader;
  /// Bytes the socket has not taken yet; [out_off, size) still unsent. Its
  /// capacity is kept across flushes, so it grows once to the largest tail.
  std::string outbox;
  std::size_t out_off = 0;
  std::uint64_t client_id = 0;
  bool admitted = false;  ///< engine knows this peer as `client_id`
  bool closing = false;   ///< drain outbox, then close (no more reads)
  bool dead = false;      ///< reap at the end of the step
};

CipServer::CipServer(fl::ModelState initial,
                     AsyncRoundEngine::Options engine_options,
                     ServerOptions options)
    : options_(std::move(options)),
      engine_(std::make_unique<AsyncRoundEngine>(std::move(initial),
                                                 engine_options)) {
  CIP_CHECK_MSG(options_.max_connections >= 1,
                "ServerOptions.max_connections must be >= 1");
  CIP_CHECK_MSG(options_.max_send_buffer >= kFrameHeaderBytes,
                "ServerOptions.max_send_buffer cannot hold a frame header");
}

CipServer::~CipServer() = default;

void CipServer::Listen() {
  listener_ = ListenTcp(options_.host, options_.port, options_.backlog);
}

std::uint16_t CipServer::port() const { return LocalPort(listener_); }

bool CipServer::finished() const {
  if (!engine_->done() || !connections_.empty()) return false;
  return !options_.drain_fleet || engine_->fleet_settled();
}

bool CipServer::Step(int timeout_ms) {
  std::vector<PollItem> items(connections_.size() + 1);
  items[0].fd = listener_.fd();
  items[0].want_read = true;
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    Connection& c = *connections_[i];
    PollItem& item = items[i + 1];
    item.fd = c.dead ? -1 : c.sock.fd();
    item.want_read = !c.closing && !c.dead;
    item.want_write = !c.dead && c.out_off < c.outbox.size();
  }
  Poll(items, timeout_ms);

  if (items[0].readable) AcceptPending();
  for (std::size_t i = 0; i < connections_.size() && i + 1 < items.size();
       ++i) {
    Connection& c = *connections_[i];
    const PollItem& item = items[i + 1];
    if (c.dead) continue;
    if (item.broken) {
      Drop(c, /*count_protocol_error=*/false);
      continue;
    }
    if (item.readable) HandleReadable(c);
    if (!c.dead && item.writable) FlushWrites(c);
  }
  // All kQuery frames read this cycle fuse into one batched forward.
  FlushQueries();
  Reap();
  return !finished();
}

void CipServer::Serve() {
  while (Step(options_.poll_timeout_ms)) {
  }
}

void CipServer::AcceptPending() {
  while (true) {
    Socket s = AcceptNonBlocking(listener_);
    if (!s.valid()) return;
    ++stats_.accepted_connections;
    auto conn =
        std::make_unique<Connection>(std::move(s), options_.max_frame_payload);
    const std::size_t active = static_cast<std::size_t>(std::count_if(
        connections_.begin(), connections_.end(),
        [](const std::unique_ptr<Connection>& c) { return !c->closing &&
                                                          !c->dead; }));
    if (active >= options_.max_connections) {
      // Admission control: refuse with a retry hint rather than letting the
      // accept queue (and per-connection memory) grow without bound.
      BusyMsg busy;
      busy.retry_after_ms = options_.busy_retry_ms;
      conn->outbox = EncodeBusy(busy);
      conn->closing = true;
      ++stats_.busy_rejections;
    }
    connections_.push_back(std::move(conn));
  }
}

void CipServer::HandleReadable(Connection& c) {
  char buf[16384];
  while (!c.dead) {
    const IoResult r = RecvSome(c.sock, std::span<char>(buf, sizeof(buf)));
    if (r.would_block) break;
    if (r.closed || r.error) {
      Drop(c, /*count_protocol_error=*/false);
      return;
    }
    stats_.bytes_received += r.bytes;
    try {
      c.reader.Feed(std::string_view(buf, r.bytes));
      while (!c.dead && !c.closing) {
        const std::optional<FrameView> f = c.reader.NextView();
        if (!f) break;
        HandleFrame(c, *f);
      }
    } catch (const cip::CheckError&) {
      // Bad magic/version/type, an oversized length, or an unparseable
      // payload: the peer is hostile or corrupt either way.
      Drop(c, /*count_protocol_error=*/true);
      return;
    }
  }
}

void CipServer::HandleFrame(Connection& c, const FrameView& f) {
  switch (f.type) {
    case MsgType::kHello: {
      if (c.admitted) {
        Drop(c, /*count_protocol_error=*/true);
        return;
      }
      const HelloMsg hello = DecodeHello(f.payload);
      const std::vector<EngineSend> sends = engine_->OnJoin(hello.client_id);
      // OnJoin's sends all address the joiner, which is not yet in by_id_ —
      // apply them to this connection directly.
      bool rejected = false;
      for (const EngineSend& s : sends) {
        if (s.frame) Enqueue(c, *s.frame);
        if (s.then_close) {
          c.closing = true;
          rejected = true;
        }
      }
      if (!rejected) {
        c.admitted = true;
        c.client_id = hello.client_id;
        by_id_[c.client_id] = &c;
      }
      FlushWrites(c);
      return;
    }
    case MsgType::kUpdate: {
      if (!c.admitted) {
        Drop(c, /*count_protocol_error=*/true);
        return;
      }
      ApplySends(engine_->OnUpdate(c.client_id, DecodeUpdate(f.payload)));
      return;
    }
    case MsgType::kQuery: {
      if (serve_ == nullptr) {
        // Not a serving deployment: inference traffic is undefined here.
        Drop(c, /*count_protocol_error=*/true);
        return;
      }
      const QueryMsg q = DecodeQuery(f.payload);
      // Enqueue validates client id and sample geometry before touching the
      // batch arena; a CheckError surfaces in HandleReadable as a protocol
      // error, so a hostile query never poisons the fused batch.
      const std::size_t row_begin = serve_->Enqueue(q.client_id, q.inputs);
      pending_queries_.push_back({&c, row_begin, q.inputs.dim(0)});
      return;
    }
    case MsgType::kBye: {
      if (c.admitted) {
        c.admitted = false;
        by_id_.erase(c.client_id);
        ApplySends(engine_->OnDisconnect(c.client_id));
      }
      c.closing = true;
      FlushWrites(c);
      return;
    }
    default:
      // kWelcome/kRound/kFinal/kBusy are server-to-client only.
      Drop(c, /*count_protocol_error=*/true);
      return;
  }
}

// CIP_HOT  (broadcast fan-out: every frame the server sends passes through)
void CipServer::Enqueue(Connection& c, std::string_view frame) {
  if (c.dead) return;
  // Nothing queued ahead of this frame: hand it to the socket directly. On
  // a would-block or an error the rest is queued, and the FlushWrites that
  // follows every Enqueue retries it and drops the peer on the error.
  while (c.out_off == c.outbox.size() && !frame.empty()) {
    const IoResult r =
        SendSome(c.sock, std::span<const char>(frame.data(), frame.size()));
    if (r.would_block || r.error || r.closed) break;
    frame.remove_prefix(r.bytes);
    stats_.bytes_sent += r.bytes;
  }
  // CIP_ANALYZE_OK(hot-alloc): only the unsent tail; capacity is reused
  c.outbox.append(frame);
}

void CipServer::ApplySends(const std::vector<EngineSend>& sends) {
  for (const EngineSend& s : sends) {
    const auto it = by_id_.find(s.client_id);
    if (it == by_id_.end()) continue;  // addressee already gone
    Connection& c = *it->second;
    const std::string_view frame = s.frame ? *s.frame : std::string_view();
    const std::size_t queued = c.outbox.size() - c.out_off;
    if (queued + frame.size() > options_.max_send_buffer) {
      // Slow-consumer backpressure: a peer that stops draining broadcasts
      // is treated as gone rather than buffered without bound.
      Drop(c, /*count_protocol_error=*/false);
      continue;
    }
    Enqueue(c, frame);
    if (s.then_close) {
      c.closing = true;
      c.admitted = false;
      by_id_.erase(it);
    }
    FlushWrites(c);
  }
}

void CipServer::FlushQueries() {
  if (serve_ == nullptr || pending_queries_.empty()) return;
  const Tensor& logits = serve_->Flush();
  for (const PendingQuery& q : pending_queries_) {
    Connection& c = *q.conn;
    if (c.dead) continue;  // dropped after enqueueing; rows computed, unsent
    LogitsMsg m;
    m.logits = logits.Slice(q.row_begin, q.row_begin + q.rows);
    const std::string frame = EncodeLogits(m);
    const std::size_t queued = c.outbox.size() - c.out_off;
    if (queued + frame.size() > options_.max_send_buffer) {
      // Same slow-consumer rule as round broadcasts (ApplySends).
      Drop(c, /*count_protocol_error=*/false);
      continue;
    }
    Enqueue(c, frame);
    ++stats_.queries_answered;
    FlushWrites(c);
  }
  pending_queries_.clear();
}

void CipServer::FlushWrites(Connection& c) {
  while (!c.dead && c.out_off < c.outbox.size()) {
    const IoResult r = SendSome(
        c.sock, std::span<const char>(c.outbox.data() + c.out_off,
                                      c.outbox.size() - c.out_off));
    if (r.would_block) return;
    if (r.error || r.closed) {
      Drop(c, /*count_protocol_error=*/false);
      return;
    }
    c.out_off += r.bytes;
    stats_.bytes_sent += r.bytes;
  }
  if (c.out_off >= c.outbox.size()) {
    c.outbox.clear();
    c.out_off = 0;
    if (c.closing) c.dead = true;  // orderly close: everything delivered
  }
}

void CipServer::Drop(Connection& c, bool count_protocol_error) {
  if (c.dead) return;
  c.dead = true;
  if (count_protocol_error) {
    ++stats_.protocol_errors;
  } else {
    ++stats_.dropped_connections;
  }
  if (c.admitted) {
    c.admitted = false;
    by_id_.erase(c.client_id);
    // The drop is a client dropout on the engine's books; the resulting
    // broadcasts (a round that was waiting only on this peer) go out now.
    ApplySends(engine_->OnDisconnect(c.client_id));
  }
}

void CipServer::Reap() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    return c->dead;
  });
}

}  // namespace cip::net
