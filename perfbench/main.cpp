// perfbench: runs one benchmark workload and prints its report as one JSON
// line on stdout (run.py turns it into the benchmark's result).
//
//   perfbench --workload cip_train|serve_open|wire_mixed --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//
// Exit status: 0 with a report, 2 on bad arguments, 3 when built without
// optimisation (numbers from a non-Release build are not reported), 1 when
// the workload throws.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/cpu_features.h"
#include "common/parallel.h"
#include "tensor/ops.h"

namespace perfbench {

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
std::int64_t g_main_start_ns = 0;
}  // namespace

std::int64_t MainStartNs() { return g_main_start_ns; }

double Median(std::vector<double> v) {
  return v.empty() ? 0.0 : NearestRank(std::move(v), 0.5).value;
}

void FinishTrace(const Options& opts, std::vector<SpanRecord> spans,
                 Report& rep) {
  const std::vector<SpanRecord> probes = trace::Collect();
  spans.insert(spans.end(), probes.begin(), probes.end());
  for (const NameTotals& t : Totals(spans)) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "span %s: %zu calls, total %.3f ms, self %.3f ms",
                  trace::NameOf(t.name).c_str(), t.count, t.total_ms,
                  t.self_ms);
    rep.notes.push_back(line);
  }
  if (opts.trace_dir.empty()) return;
  const std::string path = opts.trace_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".trace.json";
  if (WriteChromeTrace(path, spans)) rep.notes.push_back("trace: " + path);
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Values(const std::vector<Value>& vs) {
  std::string out = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const Value& v = vs[i];
    out += (i ? ", " : "") + std::string("{\"name\": ") + Quote(v.name) +
           ", \"value\": " + Num(v.value) + ", \"unit\": " + Quote(v.unit) +
           ", \"better\": " + Quote(v.better) +
           ", \"samples\": " + std::to_string(v.samples) + "}";
  }
  return out + "]";
}

std::string GatedValues(const std::vector<Gated>& gs) {
  std::string out = "[";
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const Value& v = gs[i].from;
    out += (i ? ", " : "") + std::string("{\"name\": ") + Quote(gs[i].name) +
           ", \"value\": " + Num(v.value) +
           ", \"samples\": " + std::to_string(v.samples) +
           ", \"from\": " + Quote(v.name) + "}";
  }
  return out + "]";
}

std::string Strings(const std::vector<std::string>& ss) {
  std::string out = "[";
  for (std::size_t i = 0; i < ss.size(); ++i) {
    out += (i ? ", " : "") + Quote(ss[i]);
  }
  return out + "]";
}

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload cip_train|serve_open|wire_mixed "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  g_main_start_ns = NowNs();
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report from a non-Release build "
               "(NDEBUG is not defined)\n";
  return 3;
#endif
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opts.workload = val;
      } else if (key == "--seed") {
        opts.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return Usage("--trace takes 0 or 1");
        opts.trace = val == "1";
      } else if (key == "--trace-dir") {
        opts.trace_dir = val;
      } else {
        return Usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  if (!(opts.seconds > 0.0)) return Usage("--seconds must be positive");

  Report rep;
  try {
    if (opts.workload == "cip_train") {
      rep = RunCipTrain(opts);
    } else if (opts.workload == "serve_open") {
      rep = RunServeOpen(opts);
    } else if (opts.workload == "wire_mixed") {
      rep = RunWireMixed(opts);
    } else {
      return Usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  rep.gated.push_back(
      {"peak_rss_mib", {"peak_rss_mib", PeakRssMib(), "MiB", "lower", 1}});

  std::ostringstream os;
  os << "{\"workload\": " << Quote(opts.workload)
     << ", \"provenance\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"gemm_isa\": " << Quote(cip::IsaName(cip::ops::ActiveGemmIsa()))
     << ", \"build_type\": \"release\", \"threads\": " << rep.threads
     << ", \"seed\": " << opts.seed << ", \"seconds\": " << Num(opts.seconds)
     << ", \"trace\": " << (opts.trace ? 1 : 0) << "}"
     << ", \"check_failures\": " << Strings(rep.check_failures)
     << ", \"invalid_reasons\": " << Strings(rep.invalid_reasons)
     << ", \"attempted\": " << rep.attempted
     << ", \"succeeded\": " << rep.succeeded << ", \"failed\": " << rep.failed
     << ", \"gated\": " << GatedValues(rep.gated)
     << ", \"named\": " << Values(rep.named)
     << ", \"traced_named\": " << Values(rep.traced_named)
     << ", \"layer\": " << Values(rep.layer)
     << ", \"notes\": " << Strings(rep.notes) << "}";
  std::cout << os.str() << std::endl;
  return 0;
}
