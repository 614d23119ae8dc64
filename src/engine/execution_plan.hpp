// Compiled per-model execution descriptor — the software mirror of the
// paper's self-synchronous pipeline wiring.
//
// An ExecutionPlan is compiled once at model construction and caches,
// per stage boundary, the fused-epilogue constants (producing stage's
// LUT scales live in its packed bank; the consuming stage's activation
// scale and the verified per-column requantization table derived from
// both ride in FusedEpilogue) so run_plan() can chain stages through
// maddness::apply_lut_fused: each finished accumulator tile dequantizes,
// rectifies and requantizes in-register and lands directly in the next
// stage's uint8 activation buffer. The int16 accumulators and the
// dequantized float matrix of every interior boundary never touch
// memory.
//
// run_plan() is bit-exact vs pipeline_reference_apply — the
// materializing oracle, whose element math the epilogue reproduces
// exactly — and allocation-free at steady state given a caller-owned
// PlanScratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "maddness/amm.hpp"

namespace ssma::engine {

/// One compiled stage: the operator plus the constants of its fused
/// handoff into the next stage. The Amm pointer aims into the owning
/// ModelHandle's stage list (handles are immutable and outlive their
/// plan by construction).
struct PlanStage {
  const maddness::Amm* amm = nullptr;
  /// Interior stages only (empty on the final stage): requantization
  /// constants folded into the LUT kernel epilogue, from
  /// maddness::make_fused_epilogue.
  maddness::FusedEpilogue epilogue;
};

class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  /// Compiles a shape-chained stage list (validated by ModelHandle).
  /// `stages` must outlive the plan.
  static ExecutionPlan compile(const std::vector<maddness::Amm>& stages);

  std::size_t num_stages() const { return stages_.size(); }
  const PlanStage& stage(std::size_t i) const { return stages_[i]; }

  /// Intermediate memory traffic per batch row run_plan never pays,
  /// summed over interior boundaries: the int16 accumulator write + read
  /// (4 bytes/element) and the dequantized float write + read (8
  /// bytes/element) of the materializing pipeline_reference_apply walk.
  /// The uint8 activation buffer (2 bytes/element) is paid by both walks
  /// and is not counted. Feeds the roofline fusion report.
  std::size_t fused_bytes_avoided_per_row() const { return bytes_avoided_; }

 private:
  std::vector<PlanStage> stages_;
  std::size_t bytes_avoided_ = 0;
};

/// Caller-owned working set of run_plan: encode staging, the encoded
/// batch and the interior uint8 activation buffer. Everything is
/// capacity-reusing — a worker shard that keeps one PlanScratch alive
/// pays zero steady-state allocations.
struct PlanScratch {
  maddness::EncodeScratch encode;
  maddness::EncodedBatch enc;
  maddness::QuantizedActivations inter;
};

/// Executes `batch` through every plan stage into `out` (resized
/// capacity-reusing to rows x final nout), chaining interior boundaries
/// through the fused epilogue. Bit-exact vs pipeline_reference_apply.
/// `lut_tier` lets tests drive every available LUT tier through one
/// process. Spans tag kEncode/kLutAccumulate/kEpilogue with the stage
/// index.
void run_plan(const ExecutionPlan& plan,
              const maddness::QuantizedActivations& batch,
              PlanScratch& scratch, std::vector<std::int16_t>& out,
              maddness::KernelTier lut_tier = maddness::select_kernel_tier());

}  // namespace ssma::engine
