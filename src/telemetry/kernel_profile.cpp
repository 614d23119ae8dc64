#include "telemetry/kernel_profile.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ssma::telemetry {

namespace {

struct TierAtomics {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> ns{0};
};

TierAtomics g_lut[kNumKernelTiers];
TierAtomics g_encode[kNumKernelTiers];

int clamp_tier(int tier) {
  if (tier < 0) return 0;
  if (tier >= kNumKernelTiers) return kNumKernelTiers - 1;
  return tier;
}

void add(TierAtomics& t, std::uint64_t rows, std::uint64_t bytes,
         std::uint64_t ns) {
  t.calls.fetch_add(1, std::memory_order_relaxed);
  t.rows.fetch_add(rows, std::memory_order_relaxed);
  t.bytes.fetch_add(bytes, std::memory_order_relaxed);
  t.ns.fetch_add(ns, std::memory_order_relaxed);
}

KernelCounters load(const TierAtomics& t) {
  KernelCounters c;
  c.calls = t.calls.load(std::memory_order_relaxed);
  c.rows = t.rows.load(std::memory_order_relaxed);
  c.bytes = t.bytes.load(std::memory_order_relaxed);
  c.ns = t.ns.load(std::memory_order_relaxed);
  return c;
}

void reset(TierAtomics& t) {
  t.calls.store(0, std::memory_order_relaxed);
  t.rows.store(0, std::memory_order_relaxed);
  t.bytes.store(0, std::memory_order_relaxed);
  t.ns.store(0, std::memory_order_relaxed);
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const char* kernel_tier_label(int tier) {
  switch (clamp_tier(tier)) {
    case 0:
      return "scalar";
    case 1:
      return "avx2";
    default:
      return "avx512";
  }
}

void record_lut_dispatch(int tier, std::uint64_t rows,
                         std::uint64_t bytes, std::uint64_t ns) {
  add(g_lut[clamp_tier(tier)], rows, bytes, ns);
}

void record_encode_dispatch(int tier, std::uint64_t rows,
                            std::uint64_t bytes, std::uint64_t ns) {
  add(g_encode[clamp_tier(tier)], rows, bytes, ns);
}

KernelProfileSnapshot kernel_profile_snapshot() {
  KernelProfileSnapshot snap;
  for (int t = 0; t < kNumKernelTiers; ++t) {
    snap.lut[t] = load(g_lut[t]);
    snap.encode[t] = load(g_encode[t]);
  }
  return snap;
}

void kernel_profile_reset() {
  for (int t = 0; t < kNumKernelTiers; ++t) {
    reset(g_lut[t]);
    reset(g_encode[t]);
  }
}

double lut_peak_bytes_per_cycle(int tier) {
  // Scalar: one table byte per loop iteration. AVX2: one vpshufb
  // gathers two 16-byte lanes per cycle on the shuffle port; AVX-512:
  // one vpermb covers 64 bytes (16 rows x 4 codebooks).
  switch (clamp_tier(tier)) {
    case 0:
      return 1.0;
    case 1:
      return 32.0;
    default:
      return 64.0;
  }
}

double encoder_peak_bytes_per_cycle(int tier) {
  // The encoder walks a 4-level hash tree: per row x codebook it
  // touches 4 threshold bytes but must serialize on the level
  // dependency, so its ceiling sits well under the LUT gather's. Its
  // top tier is AVX2.
  return clamp_tier(tier) == 0 ? 0.25 : 8.0;
}

double estimate_cpu_ghz(double fallback_ghz) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  double mhz = 0.0;
  while (std::getline(in, line)) {
    // Prefer the nominal frequency baked into the model name (e.g.
    // "Intel(R) Xeon(R) Processor @ 2.10GHz") — "cpu MHz" reflects the
    // current governor state, which wobbles.
    if (line.rfind("model name", 0) == 0) {
      const auto at = line.find('@');
      if (at != std::string::npos) {
        double ghz = 0.0;
        if (std::sscanf(line.c_str() + at, "@ %lfGHz", &ghz) == 1 &&
            ghz > 0.1) {
          return ghz;
        }
      }
    }
    if (mhz == 0.0 && line.rfind("cpu MHz", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        mhz = std::atof(line.c_str() + colon + 1);
      }
    }
  }
  if (mhz > 100.0) return mhz / 1000.0;
  return fallback_ghz;
}

std::string RooflineEntry::json() const {
  std::ostringstream oss;
  oss << "{\"kernel\":\"" << kernel << "\",\"tier\":\"" << tier
      << "\",\"rows\":" << rows << ",\"ncodebooks\":" << ncodebooks
      << ",\"nout\":" << nout
      << ",\"bytes_per_row\":" << format_double(bytes_per_row)
      << ",\"rows_per_s\":" << format_double(rows_per_s)
      << ",\"achieved_gbps\":" << format_double(achieved_gbps)
      << ",\"theoretical_gbps\":" << format_double(theoretical_gbps)
      << ",\"frac_of_peak\":" << format_double(frac_of_peak)
      << ",\"macs_avoided_per_s\":" << format_double(macs_avoided_per_s)
      << "}";
  return oss.str();
}

std::string FusionRoofline::json() const {
  std::ostringstream oss;
  oss << "{\"stages\": " << stages << ", \"tier\": \"" << tier
      << "\", \"rows\": " << rows << ", \"ncodebooks\": " << ncodebooks
      << ", \"inter_cols\": " << inter_cols
      << ", \"bytes_avoided_per_row\": " << bytes_avoided_per_row
      << ", \"fused_rows_per_s\": " << format_double(fused_rows_per_s)
      << ", \"reference_rows_per_s\": "
      << format_double(reference_rows_per_s)
      << ", \"speedup\": " << format_double(speedup) << "}";
  return oss.str();
}

std::string RooflineReport::json() const {
  std::ostringstream oss;
  oss << "{\n  \"cpu_ghz\": " << format_double(cpu_ghz)
      << ",\n  \"headline_cell\": \"" << headline_cell
      << "\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    oss << "    " << entries[i].json();
    if (i + 1 < entries.size()) oss << ",";
    oss << "\n";
  }
  oss << "  ]";
  if (fusion.stages >= 2) oss << ",\n  \"fusion\": " << fusion.json();
  oss << "\n}\n";
  return oss.str();
}

RooflineEntry make_roofline_entry(const std::string& kernel, int tier,
                                  std::uint64_t rows,
                                  std::uint64_t ncodebooks,
                                  std::uint64_t nout, std::uint64_t d,
                                  double bytes_per_call,
                                  double seconds_per_call,
                                  double cpu_ghz) {
  RooflineEntry e;
  e.kernel = kernel;
  e.tier = kernel_tier_label(tier);
  e.rows = rows;
  e.ncodebooks = ncodebooks;
  e.nout = nout;
  e.bytes_per_row = rows ? bytes_per_call / static_cast<double>(rows) : 0.0;
  if (seconds_per_call > 0.0) {
    e.rows_per_s = static_cast<double>(rows) / seconds_per_call;
    e.achieved_gbps = bytes_per_call / seconds_per_call / 1e9;
    // A dense GEMM of the same shape issues rows*d*nout MACs; the AMM
    // replaces them with rows*ncb*nout byte-gathers + adds.
    e.macs_avoided_per_s = static_cast<double>(rows) *
                           static_cast<double>(d) *
                           static_cast<double>(nout) / seconds_per_call;
  }
  const double peak = kernel == "encode"
                          ? encoder_peak_bytes_per_cycle(tier)
                          : lut_peak_bytes_per_cycle(tier);
  e.theoretical_gbps = peak * cpu_ghz;  // GHz x bytes/cycle = GB/s
  if (e.theoretical_gbps > 0.0)
    e.frac_of_peak = e.achieved_gbps / e.theoretical_gbps;
  return e;
}

}  // namespace ssma::telemetry
