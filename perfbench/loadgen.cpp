#include "loadgen.h"

#include <poll.h>
#include <pthread.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <limits>
#include <optional>
#include <span>

#include "common/check.h"
#include "core/cip_client.h"
#include "fl/client_factory.h"
#include "trace.h"

namespace perfbench {

using namespace cip;

namespace {

constexpr std::size_t kWidth = 16;
constexpr std::size_t kClientSamples = 16;
constexpr std::size_t kPool = 256;

std::uint32_t SendName() {
  static const std::uint32_t id = trace::Intern("gen.send");
  return id;
}

std::uint32_t RecvName() {
  static const std::uint32_t id = trace::Intern("gen.recv");
  return id;
}

/// `n` inputs from `sample(rows, rng)`; 80% of them have one row.
QueryPool MakeQueryPool(
    std::size_t n, cip::Rng& rng,
    const std::function<Tensor(std::size_t rows, Rng&)>& sample) {
  QueryPool pool;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t rows = rng.Index(10) < 8 ? 1 : 2 + rng.Index(7);
    net::QueryMsg q;
    q.inputs = sample(rows, rng);
    pool.frames.push_back(net::EncodeQuery(q));
    pool.inputs.push_back(std::move(q.inputs));
  }
  return pool;
}

/// Open `n` connections to 127.0.0.1:port and wait until each is writable.
std::vector<Conn> ConnectAll(std::uint16_t port, std::size_t n) {
  // The generator schedules sub-millisecond arrivals; the default 50 us
  // timer slack would make every wait overshoot by that much.
  prctl(PR_SET_TIMERSLACK, 1UL);
  std::vector<Conn> conns(n);
  for (Conn& c : conns) {
    c.sock = net::ConnectTcpNonBlocking("127.0.0.1", port);
  }
  std::vector<net::PollItem> items(n);
  const std::int64_t deadline = NowNs() + 5'000'000'000;
  std::size_t ready = 0;
  std::vector<bool> done(n, false);
  while (ready < n) {
    CIP_CHECK_MSG(NowNs() < deadline, "loadgen: connect timed out");
    for (std::size_t i = 0; i < n; ++i) {
      items[i] = {};
      items[i].fd = done[i] ? -1 : conns[i].sock.fd();
      items[i].want_write = true;
    }
    net::Poll(items, 10);
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i] || !(items[i].writable || items[i].broken)) continue;
      CIP_CHECK_MSG(!items[i].broken, "loadgen: connect failed");
      done[i] = true;
      ++ready;
    }
  }
  return conns;
}

}  // namespace

void PatchU64(std::string& frame, std::size_t off, std::uint64_t v) {
  CIP_CHECK_LE(off + 8, frame.size());
  for (std::size_t b = 0; b < 8; ++b) {
    frame[off + b] = static_cast<char>((v >> (8 * b)) & 0xFF);
  }
}

std::uint64_t ReadU64(const std::string& bytes, std::size_t off) {
  CIP_CHECK_LE(off + 8, bytes.size());
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[off + b]))
         << (8 * b);
  }
  return v;
}

std::vector<std::int64_t> PoissonDue(double rate, std::size_t count,
                                     std::int64_t start_ns, cip::Rng& rng) {
  std::vector<std::int64_t> due(count);
  double t = 0.0;
  for (std::int64_t& d : due) {
    const double u = static_cast<double>(rng.NextU64() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate * 1e9;
    d = start_ns + static_cast<std::int64_t>(t);
  }
  return due;
}

std::vector<double> LatenciesMs(const std::vector<Query>& qs, std::size_t lo,
                                std::size_t hi) {
  std::vector<double> ms;
  ms.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    const Query& q = qs[i];
    ms.push_back(q.done_ns > 0 && !q.refused
                     ? static_cast<double>(q.done_ns - q.due_ns) / 1e6
                     : std::numeric_limits<double>::infinity());
  }
  return ms;
}

std::vector<double> LatenessMs(const std::vector<Query>& qs, std::size_t lo,
                               std::size_t hi) {
  std::vector<double> late;
  late.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    if (qs[i].sent_ns > 0) {
      late.push_back(static_cast<double>(qs[i].sent_ns - qs[i].due_ns) / 1e6);
    }
  }
  return late;
}

void CheckReplies(const std::string& workload, serve::ServeEngine& engine,
                  const QueryPool& pool, const std::vector<Query>& qs,
                  std::size_t max_checks, Report& rep) {
  constexpr double kTolerance = 1e-5;
  std::size_t checked = 0;
  double worst = 0.0;
  for (const Query& q : qs) {
    if (!q.keep || q.reply.empty()) continue;
    if (checked == max_checks) break;
    const Tensor got = net::DecodeLogits(q.reply).logits;
    const Tensor& want = engine.Serve(q.client, pool.inputs[q.pool]);
    if (!got.SameShape(want)) {
      rep.Check(false, workload + ": served logits have the wrong shape");
      return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double w = want[i];
      worst = std::max(worst, std::abs(got[i] - w) / (1.0 + std::abs(w)));
    }
    ++checked;
  }
  rep.Check(checked >= 10, workload + ": fewer than 10 replies to check");
  rep.Check(worst <= kTolerance,
            workload + ": served logits differ from in-process Serve by " +
                std::to_string(worst) + " (tolerance 1e-5)");
  rep.notes.push_back("checked " + std::to_string(checked) +
                      " served replies against in-process Serve (worst "
                      "scaled difference " + std::to_string(worst) + ")");
}

void SendQuery(Conn& c, std::vector<Query>& qs, std::size_t qi,
               QueryPool& pool) {
  std::string& frame = pool.frames[qs[qi].pool];
  PatchU64(frame, net::kFrameHeaderBytes, qs[qi].client);  // kQuery client id
  qs[qi].sent_ns = NowNs();
  c.outbox.append(frame);
  c.appended += frame.size();
  c.sending.emplace_back(c.appended, qi);
  Flush(c, qs);
}

void SendBytes(Conn& c, const std::string& bytes) {
  c.outbox.append(bytes);
  c.appended += bytes.size();
}

void Flush(Conn& c, std::vector<Query>& qs) {
  while (!c.failed && c.out_off < c.outbox.size()) {
    const net::IoResult r = net::SendSome(
        c.sock, std::span<const char>(c.outbox.data() + c.out_off,
                                      c.outbox.size() - c.out_off));
    if (r.would_block) break;
    if (r.error || r.closed) {
      c.failed = true;
      return;
    }
    c.out_off += r.bytes;
    c.sent += r.bytes;
  }
  if (c.out_off == c.outbox.size()) {
    c.outbox.clear();
    c.out_off = 0;
  }
  const std::int64_t now = NowNs();
  while (!c.sending.empty() && c.sending.front().first <= c.sent) {
    const std::size_t qi = c.sending.front().second;
    trace::Record(SendName(), qs[qi].sent_ns, now, qi);
    c.inflight.push_back(qi);
    c.sending.pop_front();
  }
}

void OnReply(Conn& c, std::vector<Query>& qs, net::Frame& f) {
  if (c.inflight.empty()) {
    c.failed = true;  // a reply nobody asked for
    return;
  }
  const std::size_t qi = c.inflight.front();
  c.inflight.pop_front();
  Query& q = qs[qi];
  q.done_ns = NowNs();
  q.refused = f.type != net::MsgType::kLogits;
  if (q.keep) q.reply = std::move(f.payload);
  trace::Record(RecvName(), c.rx_start_ns, q.done_ns, qi);
}

void Pump(std::vector<Conn>& conns, std::vector<Query>& qs,
          std::int64_t wake_ns,
          const std::function<void(std::size_t, net::Frame&)>& on_frame) {
  std::vector<pollfd> fds(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const Conn& c = conns[i];
    fds[i].fd = c.failed ? -1 : c.sock.fd();
    fds[i].events = static_cast<short>(
        POLLIN | (c.out_off < c.outbox.size() ? POLLOUT : 0));
  }
  // Waking a sleeping thread can take milliseconds on a virtual machine,
  // and a reply the generator reads late counts as server latency, so the
  // generator polls without sleeping unless its next deadline is far off.
  // The server's own loop still sleeps in poll(2), as CipServer::Serve does.
  constexpr std::int64_t kSpinNs = 50'000'000;
  const std::int64_t until = wake_ns - NowNs();
  const std::int64_t wait = until > kSpinNs ? until - kSpinNs : 0;
  const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                    static_cast<long>(wait % 1'000'000'000)};
  if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) {
    if (wait == 0) std::this_thread::yield();
    return;
  }
  char buf[1 << 16];
  for (std::size_t i = 0; i < conns.size(); ++i) {
    Conn& c = conns[i];
    if (c.failed || fds[i].revents == 0) continue;
    if ((fds[i].revents & POLLOUT) != 0) Flush(c, qs);
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    // One bounded read per connection per cycle: a stream of ~1 MiB round
    // frames must not keep the generator from sending queries on time.
    c.rx_start_ns = NowNs();
    const net::IoResult r =
        net::RecvSome(c.sock, std::span<char>(buf, sizeof(buf)));
    if (r.would_block) continue;
    if (r.closed || r.error) {
      c.failed = true;
      continue;
    }
    c.reader.Feed(std::string_view(buf, r.bytes));
    while (std::optional<net::Frame> f = c.reader.Next()) on_frame(i, *f);
  }
}

serve::ServeStats ServeDelta(const serve::ServeStats& now,
                             const serve::ServeStats& before) {
  serve::ServeStats d;
  d.queries = now.queries - before.queries;
  d.rows = now.rows - before.rows;
  d.batches = now.batches - before.batches;
  d.t_hits = now.t_hits - before.t_hits;
  d.t_misses = now.t_misses - before.t_misses;
  d.t_stale = now.t_stale - before.t_stale;
  d.t_evictions = now.t_evictions - before.t_evictions;
  return d;
}

Serving MakeServing(std::uint64_t seed, std::size_t fleet,
                    const std::vector<std::size_t>& warm_ids) {
  Serving s;
  data::PurchaseConfig pc = data::Purchase50Like();
  pc.seed = DeriveStream(seed, 0, 0).NextU64();
  s.gen = std::make_shared<const data::SyntheticPurchase>(pc);
  s.spec.arch = nn::Arch::kMLP;
  s.spec.input_shape = s.gen->SampleShape();
  s.spec.num_classes = pc.num_classes;
  s.spec.width = kWidth;
  s.spec.seed = DeriveStream(seed, 0, 1).NextU64();
  s.store = std::make_unique<fl::ClientStore>(fl::MakeClientStore(
      fleet, [gen = s.gen, spec = s.spec, seed](std::size_t k) {
        fl::ClientSpec c;
        c.kind = fl::ClientKind::kCip;
        c.model = spec;
        Rng rng = DeriveStream(seed, 1, k);
        c.data = gen->Sample(kClientSamples, rng);
        c.seed = DeriveStream(seed, 2, k).NextU64();
        return c;
      }));
  s.model = nn::MakeDualChannelClassifier(s.spec);
  serve::ServeOptions so;
  so.blend = core::CipConfig{}.blend;
  s.engine = std::make_unique<serve::ServeEngine>(*s.model, *s.store, so);
  Rng pool_rng = DeriveStream(seed, 3, 0);
  s.pool = MakeQueryPool(kPool, pool_rng, [&](std::size_t rows, Rng& r) {
    return s.gen->Sample(rows, r).inputs;
  });
  for (std::size_t i = 0; i < warm_ids.size(); ++i) {
    s.engine->Serve(warm_ids[i], s.pool.inputs[i % kPool]);
  }
  s.before = s.engine->stats();
  return s;
}

Wire StartWire(fl::ModelState initial,
               const net::AsyncRoundEngine::Options& eo,
               serve::ServeEngine& engine, std::size_t conns) {
  Wire w;
  net::ServerOptions sopts;
  sopts.drain_fleet = false;  // the generator stops on its own clock
  w.server = std::make_unique<net::CipServer>(std::move(initial), eo, sopts);
  w.server->EnableServing(&engine);
  w.server->Listen();
  w.thread = std::make_unique<ServerThread>(*w.server, sopts.poll_timeout_ms);
  w.conns = ConnectAll(w.server->port(), conns);
  return w;
}

ServerThread::ServerThread(net::CipServer& server, int timeout_ms)
    : server_(server), timeout_ms_(timeout_ms), thread_([this] {
        static const std::uint32_t step = trace::Intern("net.server.step");
        try {
          while (!stop_.load(std::memory_order_relaxed)) {
            const std::int64_t t0 = NowNs();
            server_.Step(timeout_ms_);
            trace::Record(step, t0, NowNs());
          }
        } catch (...) {
          error_ = std::current_exception();
        }
      }) {}

ServerThread::~ServerThread() {
  if (thread_.joinable()) {
    stop_ = true;
    thread_.join();
  }
}

double ServerThread::CpuSeconds() {
  clockid_t clock{};
  timespec ts{};
  CIP_CHECK(pthread_getcpuclockid(thread_.native_handle(), &clock) == 0);
  CIP_CHECK(clock_gettime(clock, &ts) == 0);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

void ServerThread::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  if (error_) std::rethrow_exception(error_);
}

}  // namespace perfbench
