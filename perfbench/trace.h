// The benchmark's span recorder. Spans are recorded from the benchmark's own
// files, around calls into the library's public API, kept in per-thread
// memory and gathered once the run ends.
//
// Recording is off unless Enable(true) was called, so the untraced pass pays
// one relaxed atomic load per would-be span. A span's parent is the
// innermost span still open on the same thread; spans recorded on pool
// workers or on another thread can be re-parented afterwards by a shared key
// (AdoptByKey), which is how a client's work joins its round.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t NowNs();

/// One span as gathered: stats.h's Span plus where and for what it ran.
struct SpanRecord {
  Span span;
  std::uint32_t thread = 0;  ///< dense per-run thread index
  std::uint64_t key_a = 0;   ///< query id, or round
  std::uint64_t key_b = 0;   ///< client id (client-round spans)
};

namespace trace {

/// Turn recording on or off for subsequent spans (process-wide).
void Enable(bool on);
/// True while recording.
bool On();
/// Stable id of a span name; call once per name, not on the hot path.
std::uint32_t Intern(std::string_view name);
/// The name behind an interned id.
std::string NameOf(std::uint32_t id);

/// Record a span whose interval the caller measured itself (parent: the
/// innermost open Scope on this thread).
void Record(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t key_a = 0, std::uint64_t key_b = 0);

/// RAII span around one call.
class Scope {
 public:
  explicit Scope(std::uint32_t name, std::uint64_t key_a = 0,
                 std::uint64_t key_b = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_ = -1;  ///< slot in this thread's buffer; -1 when off
};

/// Move every thread's spans out into one vector with global parent
/// indexes, and clear the buffers. Call only after every recording thread
/// has stopped recording (joined, or parked in the pool between regions).
std::vector<SpanRecord> Collect();

}  // namespace trace

/// Give every root span whose name is not `parent_name` the span named
/// `parent_name` with the same key_a as its parent — e.g. each client-round
/// span joins the round span of its round.
void AdoptByKey(std::vector<SpanRecord>& spans, std::uint32_t parent_name);

/// Per-name totals over a span set.
struct NameTotals {
  std::uint32_t name = 0;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<NameTotals> Totals(const std::vector<SpanRecord>& spans);

/// Write spans as a Chrome trace-event JSON file (opens in any trace
/// viewer). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans);

}  // namespace perfbench
