#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>

#include "maddness/encoder_kernel.hpp"
#include "maddness/lut_kernel.hpp"
#include "telemetry/chrome_trace.hpp"

namespace perfbench {

using ssma::telemetry::ChromeTraceWriter;

namespace {

/// Full-precision JSON number.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + ChromeTraceWriter::escape(s) + "\"";
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0';
}

}  // namespace

bool parse_args(int argc, char** argv, Args* out, std::string* err) {
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + key;
      return false;
    }
    const std::string val = argv[i + 1];
    bool ok = true;
    if (key == "--workload") {
      out->workload = val;
    } else if (key == "--seed") {
      ok = parse_u64(val, &out->seed);
    } else if (key == "--seconds") {
      char* end = nullptr;
      out->seconds = std::strtod(val.c_str(), &end);
      ok = !val.empty() && *end == '\0' && out->seconds > 0.0 &&
           out->seconds <= 120.0;
    } else if (key == "--trace") {
      ok = val == "0" || val == "1";
      out->trace = val == "1";
    } else if (key == "--scratch") {
      out->scratch = val;
    } else if (key == "--trace-out") {
      out->trace_out = val;
    } else {
      *err = "unknown argument " + key;
      return false;
    }
    if (!ok) {
      *err = "bad value for " + key + ": " + val;
      return false;
    }
  }
  if (out->workload.empty()) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

double LatencySample::percentile(double p) const {
  ssma::SampleSet s;
  for (const double v : kept_) s.add(v);
  return s.count() == 0 ? 0.0 : s.percentile(p);
}

void LatencySample::add(double v) {
  ++count_;
  if (kept_.size() < kCapacity) {
    kept_.push_back(v);
    return;
  }
  const std::uint64_t slot = rng_.next_below(count_);
  if (slot < kCapacity) kept_[slot] = v;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string context_json(const Args& args) {
  namespace m = ssma::maddness;
  const unsigned n = std::thread::hardware_concurrency();
  return std::string("{\"context\": {\"workload\": ") +
         quoted(args.workload) + ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + num(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(n == 0 ? 1 : n) +
         ", \"cpu_model\": " + quoted(cpu_model()) + ", \"lut_tier\": " +
         quoted(m::kernel_tier_name(m::select_kernel_tier())) +
         ", \"encoder_tier\": " +
         quoted(m::kernel_tier_name(m::select_encoder_tier())) + "}}";
}

std::string Report::json() const {
  std::string s = std::string("{\"correct\": ") +
                  (correct() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += quoted(metrics[i].name) + ": {\"value\": " + num(metrics[i].value) +
         ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return s + "}}";
}

void print_detail(double p99_ms, std::size_t samples,
                  const ssma::SampleSet& setup_s, const Report& report) {
  const double fail_frac =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::string setups;
  for (const double s : setup_s.samples())
    setups += (setups.empty() ? "" : ", ") + num(s);
  std::printf(
      "{\"detail\": {\"p99_ms\": %s, \"latency_samples\": %zu, "
      "\"fail_frac\": %s, \"mismatches\": %llu, \"setup_s_samples\": [%s]}}\n",
      num(p99_ms).c_str(), samples, num(fail_frac).c_str(),
      static_cast<unsigned long long>(report.mismatches), setups.c_str());
}

void Tracer::record(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
                    std::uint64_t id) {
  if (!enabled_) return;
  auto it = std::find_if(per_name_.begin(), per_name_.end(),
                         [&](const auto& e) { return e.first == name; });
  if (it == per_name_.end()) it = per_name_.insert(it, {name, 0});
  if (it->second >= kMaxSpansPerName) {
    ++dropped_;
    return;
  }
  ++it->second;
  spans_.push_back({name, t0_ns, t1_ns, id});
}

std::vector<Tracer::Layer> Tracer::layers() const {
  // Sorted by start (outer span first on ties), one stack of open spans
  // gives each span its direct parent; a parent's self time loses each
  // direct child's full duration.
  std::vector<Span> s = spans_;
  std::sort(s.begin(), s.end(), [](const Span& a, const Span& b) {
    return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns : a.t1_ns > b.t1_ns;
  });
  std::vector<double> self(s.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < s.size(); ++i) {
    while (!open.empty() && s[open.back()].t1_ns <= s[i].t0_ns)
      open.pop_back();
    const double dur = static_cast<double>(s[i].t1_ns - s[i].t0_ns);
    self[i] = dur;
    if (!open.empty()) self[open.back()] -= dur;
    open.push_back(i);
  }
  std::map<std::string, std::pair<Layer, ssma::SampleSet>> by_name;
  for (std::size_t i = 0; i < s.size(); ++i) {
    auto& entry = by_name[s[i].name];
    entry.first.count++;
    entry.first.self_ms += self[i] / 1e6;
    entry.second.add(static_cast<double>(s[i].t1_ns - s[i].t0_ns) / 1e3);
  }
  std::vector<Layer> out;
  for (auto& [name, entry] : by_name) {
    Layer layer = entry.first;
    layer.name = name;
    layer.p50_us = median(entry.second);
    out.push_back(std::move(layer));
  }
  return out;
}

std::string Tracer::chrome_json(const std::string& process) const {
  ChromeTraceWriter writer(process);
  writer.add_thread_name(0, "benchmark thread");
  std::int64_t epoch = 0;
  if (!spans_.empty())
    epoch = std::min_element(spans_.begin(), spans_.end(),
                             [](const Span& a, const Span& b) {
                               return a.t0_ns < b.t0_ns;
                             })
                ->t0_ns;
  for (const Span& s : spans_) {
    std::vector<ChromeTraceWriter::Arg> args;
    if (s.id != kNoId) args.push_back(ChromeTraceWriter::num_arg("id", s.id));
    writer.add_complete(0, s.name, static_cast<double>(s.t0_ns - epoch) / 1e3,
                        static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, args);
  }
  return writer.render();
}

}  // namespace perfbench
