#include "engine/execution_plan.hpp"

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace ssma::engine {

ExecutionPlan ExecutionPlan::compile(
    const std::vector<maddness::Amm>& stages) {
  SSMA_CHECK_MSG(!stages.empty(), "execution plan needs >= 1 stage");
  ExecutionPlan plan;
  plan.stages_.reserve(stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    PlanStage ps;
    ps.amm = &stages[s];
    if (s + 1 < stages.size()) {
      ps.epilogue = maddness::make_fused_epilogue(
          stages[s].packed_lut(), stages[s + 1].activation_scale());
      // Materializing-walk traffic per row at this boundary: int16
      // accumulators (2B) written + read back, dequantized floats (4B)
      // written + read back. The uint8 activations are paid either way.
      plan.bytes_avoided_ +=
          static_cast<std::size_t>(stages[s].lut().nout) * (2 + 2 + 4 + 4);
    }
    plan.stages_.push_back(ps);
  }
  return plan;
}

void run_plan(const ExecutionPlan& plan,
              const maddness::QuantizedActivations& batch,
              PlanScratch& scratch, std::vector<std::int16_t>& out,
              maddness::KernelTier lut_tier) {
  const std::size_t rows = batch.rows;
  {
    SSMA_TRACE_SPAN_TAG(kEncode, 0);
    plan.stage(0).amm->encode_batch(batch, scratch.encode, scratch.enc);
  }
  for (std::size_t s = 0;; ++s) {
    const PlanStage& ps = plan.stage(s);
    const maddness::LutBankPacked& lut = ps.amm->packed_lut();
    if (s + 1 == plan.num_stages()) {
      SSMA_TRACE_SPAN_TAG(kLutAccumulate, s);
      maddness::apply_lut_packed(lut, scratch.enc, lut_tier, out);
      return;
    }
    maddness::QuantizedActivations& inter = scratch.inter;
    inter.rows = rows;
    inter.cols = static_cast<std::size_t>(lut.nout);
    inter.scale = ps.epilogue.next_scale;
    inter.codes.resize(rows * inter.cols);
    {
      // Accumulate + fused handoff in one pass: stage s's int16
      // accumulators and dequantized floats stay in registers/L1.
      SSMA_TRACE_SPAN_TAG(kEpilogue, s);
      maddness::apply_lut_fused(lut, scratch.enc, ps.epilogue, lut_tier,
                                inter.codes.data());
    }
    {
      SSMA_TRACE_SPAN_TAG(kEncode, s + 1);
      plan.stage(s + 1).amm->encode_batch(inter, scratch.encode,
                                          scratch.enc);
    }
  }
}

}  // namespace ssma::engine
