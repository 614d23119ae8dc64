// Per-tier kernel dispatch counters and the roofline self-model.
//
// The LUT-accumulate and encoder dispatchers record, per SIMD tier,
// how many calls/rows they processed, how many bytes the kernel
// gathered (LUT: one table byte per row x codebook x output column;
// encoder: four threshold-compare bytes per row x codebook), and the
// wall time spent — cheap global relaxed atomics, two clock reads per
// *batch-level* dispatch, compiled out entirely when the SSMA_TRACE
// CMake knob is off.
//
// RooflineReport turns measured (rows, seconds) points into an
// achieved-vs-theoretical bandwidth comparison per tier, in the style
// of an operations/data-movement analysis: theoretical GB/s is a
// bytes-per-cycle peak model per tier times the estimated core clock,
// and MACs avoided counts the multiplies a dense GEMM of the same
// shape would have issued. bench/amm_kernel_sweep emits this as
// BENCH_roofline.json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ssma::telemetry {

/// Mirrors maddness::KernelTier (scalar=0, avx2=1, avx512=2) without
/// including the kernel headers — keeps telemetry dependency-free.
/// lut_kernel.cpp static_asserts the two agree, and
/// maddness::kernel_tier_name returns these labels.
inline constexpr int kNumKernelTiers = 3;
const char* kernel_tier_label(int tier);

struct KernelCounters {
  std::uint64_t calls = 0;
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;  ///< gathered/compared table bytes
  std::uint64_t ns = 0;     ///< wall time inside the kernel
};

struct KernelProfileSnapshot {
  KernelCounters lut[kNumKernelTiers];
  KernelCounters encode[kNumKernelTiers];
};

/// Called by the kernel dispatchers after each batch-level call.
/// `tier` is the tier that actually ran (post availability clamp).
void record_lut_dispatch(int tier, std::uint64_t rows,
                         std::uint64_t bytes, std::uint64_t ns);
void record_encode_dispatch(int tier, std::uint64_t rows,
                            std::uint64_t bytes, std::uint64_t ns);

KernelProfileSnapshot kernel_profile_snapshot();
void kernel_profile_reset();

/// Peak table-bytes-per-cycle model per tier: what the inner loop
/// could move if load/shuffle ports were the only limit. LUT gather:
/// scalar one byte per iteration; AVX2 vpshufb covers two 16-byte
/// lanes; AVX-512 vpermb covers four. Encoder compares are
/// narrower (one split decision per level vs. a full row of output
/// columns); the encoder's top tier is AVX2.
double lut_peak_bytes_per_cycle(int tier);
double encoder_peak_bytes_per_cycle(int tier);

/// Core clock estimate from /proc/cpuinfo ("@ N.NNGHz" in the model
/// name, else the "cpu MHz" line); falls back to `fallback_ghz` when
/// neither parses. Good enough for a self-model — roofline fractions
/// are read as ballpark, not as a calibrated limit.
double estimate_cpu_ghz(double fallback_ghz = 2.0);

/// One measured kernel x tier point against its theoretical ceiling.
struct RooflineEntry {
  std::string kernel;  ///< "lut_accumulate" or "encode"
  std::string tier;    ///< kernel_tier_label(tier)
  std::uint64_t rows = 0;
  std::uint64_t ncodebooks = 0;
  std::uint64_t nout = 0;       ///< output cols (lut) / input dim (encode)
  double bytes_per_row = 0.0;
  double rows_per_s = 0.0;
  double achieved_gbps = 0.0;
  double theoretical_gbps = 0.0;
  double frac_of_peak = 0.0;
  double macs_avoided_per_s = 0.0;  ///< dense-GEMM MACs replaced by adds

  std::string json() const;
};

/// Measured effect of the fused pipeline epilogue (engine/execution_plan):
/// one chained-stage shape run through run_plan's in-register handoffs
/// vs the materializing pipeline_reference_apply, plus the intermediate
/// traffic the fusion removes (ExecutionPlan::fused_bytes_avoided_per_row
/// — int16 accumulator + dequantized float write/read per interior
/// boundary).
struct FusionRoofline {
  std::uint64_t stages = 0;  ///< 0 = not measured
  std::string tier;
  std::uint64_t rows = 0;
  std::uint64_t ncodebooks = 0;
  std::uint64_t inter_cols = 0;  ///< width of each interior boundary
  std::uint64_t bytes_avoided_per_row = 0;
  double fused_rows_per_s = 0.0;
  double reference_rows_per_s = 0.0;
  double speedup = 0.0;  ///< fused over reference

  std::string json() const;
};

struct RooflineReport {
  double cpu_ghz = 0.0;
  std::string headline_cell;  ///< e.g. "rows=256 ncb=32 nout=128"
  std::vector<RooflineEntry> entries;
  /// Included in json() when fusion.stages >= 2.
  FusionRoofline fusion;

  std::string json() const;
};

/// Builds one entry from a measured timing. `d` is the dense input
/// dimension the AMM shape replaces (for MACs avoided = rows*d*nout);
/// `seconds_per_call` is the measured kernel-only time.
RooflineEntry make_roofline_entry(const std::string& kernel, int tier,
                                  std::uint64_t rows,
                                  std::uint64_t ncodebooks,
                                  std::uint64_t nout, std::uint64_t d,
                                  double bytes_per_call,
                                  double seconds_per_call,
                                  double cpu_ghz);

}  // namespace ssma::telemetry
