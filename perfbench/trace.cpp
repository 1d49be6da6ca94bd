#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace trace {
namespace {

struct ThreadBuf {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  ///< indexes of spans still open
};

std::atomic<bool> g_on{false};

struct Registry {
  std::mutex mu;  // guards bufs and names
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  std::vector<std::string> names;
};

Registry& Reg() {
  static Registry* r = new Registry();  // never destroyed: pool threads may
                                        // outlive static destruction order
  return *r;
}

thread_local ThreadBuf* tl_buf = nullptr;

ThreadBuf& Buf() {
  if (tl_buf == nullptr) {
    Registry& r = Reg();
    const std::lock_guard<std::mutex> lock(r.mu);
    auto buf = std::make_unique<ThreadBuf>();
    buf->thread = static_cast<std::uint32_t>(r.bufs.size());
    buf->spans.reserve(std::size_t{1} << 14);
    tl_buf = buf.get();
    r.bufs.push_back(std::move(buf));
  }
  return *tl_buf;
}

}  // namespace

void Enable(bool on) { g_on.store(on, std::memory_order_relaxed); }

bool On() { return g_on.load(std::memory_order_relaxed); }

std::uint32_t Intern(std::string_view name) {
  Registry& r = Reg();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < r.names.size(); ++i) {
    if (r.names[i] == name) return static_cast<std::uint32_t>(i);
  }
  r.names.emplace_back(name);
  return static_cast<std::uint32_t>(r.names.size() - 1);
}

std::string NameOf(std::uint32_t id) {
  Registry& r = Reg();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.names.at(id);
}

void Record(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t key_a, std::uint64_t key_b) {
  if (!On()) return;
  ThreadBuf& b = Buf();
  SpanRecord rec;
  rec.span = {name, b.open.empty() ? -1 : b.open.back(), start_ns, end_ns};
  rec.key_a = key_a;
  rec.key_b = key_b;
  b.spans.push_back(rec);
}

Scope::Scope(std::uint32_t name, std::uint64_t key_a, std::uint64_t key_b) {
  if (!On()) return;
  ThreadBuf& b = Buf();
  index_ = static_cast<std::int32_t>(b.spans.size());
  SpanRecord rec;
  rec.span = {name, b.open.empty() ? -1 : b.open.back(), NowNs(), 0};
  rec.key_a = key_a;
  rec.key_b = key_b;
  b.spans.push_back(rec);
  b.open.push_back(index_);
}

Scope::~Scope() {
  if (index_ < 0) return;
  ThreadBuf& b = *tl_buf;
  b.spans[static_cast<std::size_t>(index_)].span.end_ns = NowNs();
  b.open.pop_back();
}

std::vector<SpanRecord> Collect() {
  Registry& r = Reg();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> out;
  for (const auto& buf : r.bufs) {
    const auto offset = static_cast<std::int32_t>(out.size());
    for (SpanRecord rec : buf->spans) {
      if (rec.span.parent >= 0) rec.span.parent += offset;
      rec.thread = buf->thread;
      out.push_back(rec);
    }
    buf->spans.clear();
  }
  return out;
}

}  // namespace trace

void AdoptByKey(std::vector<SpanRecord>& spans, std::uint32_t parent_name) {
  std::map<std::uint64_t, std::int32_t> by_key;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].span.name == parent_name) {
      by_key[spans[i].key_a] = static_cast<std::int32_t>(i);
    }
  }
  for (SpanRecord& s : spans) {
    if (s.span.parent >= 0 || s.span.name == parent_name || s.key_a == 0) {
      continue;
    }
    const auto it = by_key.find(s.key_a);
    if (it != by_key.end()) s.span.parent = it->second;
  }
}

std::vector<NameTotals> Totals(const std::vector<SpanRecord>& spans) {
  std::vector<Span> plain;
  plain.reserve(spans.size());
  for (const SpanRecord& s : spans) plain.push_back(s.span);
  const std::vector<std::int64_t> self = SelfTimesNs(plain);
  std::map<std::uint32_t, NameTotals> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = by_name[spans[i].span.name];
    t.name = spans[i].span.name;
    ++t.count;
    t.total_ms +=
        static_cast<double>(plain[i].end_ns - plain[i].start_ns) / 1e6;
    t.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  std::vector<NameTotals> out;
  for (const auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  if (!spans.empty()) {
    t0 = std::min_element(spans.begin(), spans.end(),
                          [](const SpanRecord& a, const SpanRecord& b) {
                            return a.span.start_ns < b.span.start_ns;
                          })
             ->span.start_ns;
  }
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"a\": %llu, \"b\": %llu}}",
                 i == 0 ? "" : ",\n", trace::NameOf(s.span.name).c_str(),
                 s.thread, static_cast<double>(s.span.start_ns - t0) / 1e3,
                 static_cast<double>(s.span.end_ns - s.span.start_ns) / 1e3, i,
                 s.span.parent, static_cast<unsigned long long>(s.key_a),
                 static_cast<unsigned long long>(s.key_b));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
