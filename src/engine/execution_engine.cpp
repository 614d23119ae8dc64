#include "engine/execution_engine.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "engine/execution_plan.hpp"
#include "engine/pipeline.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace ssma::engine {

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kKernel:
      return "kernel";
    case Backend::kSimulate:
      return "simulate";
    case Backend::kDevicePaced:
      return "paced";
  }
  return "?";
}

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Software-kernel backend: walks the model's compiled ExecutionPlan —
/// vectorized batch encode into reusable scratch, packed
/// tier-dispatched LUT accumulate, and in-register stage handoffs for
/// pipeline models. Zero steady-state allocations once the PlanScratch
/// capacities are established.
class KernelEngine : public ExecutionEngine {
 public:
  void run_batch(const ModelHandle& model,
                 const maddness::QuantizedActivations& batch,
                 std::vector<std::int16_t>& out) override {
    run_plan(model.plan(), batch, scratch_, out);
  }

  EngineInfo info() const override {
    return {"kernel", Backend::kKernel, false, false};
  }

 private:
  PlanScratch scratch_;
};

/// Event-driven macro backend: same bits as the kernel, plus per-batch
/// PPA accounting merged into ppa_report().
class SimEngine : public ExecutionEngine {
 public:
  explicit SimEngine(const EngineOptions& opts) : accel_(opts.accel) {}

  void run_batch(const ModelHandle& model,
                 const maddness::QuantizedActivations& batch,
                 std::vector<std::int16_t>& out) override {
    maddness::QuantizedActivations staged;
    const maddness::QuantizedActivations* input = &batch;
    for (std::size_t s = 0; s < model.num_stages(); ++s) {
      core::AcceleratorResult r = [&] {
        // The macro run folds encode + accumulate into one event-driven
        // pass; attribute it to the accumulate stage.
        SSMA_TRACE_SPAN_TAG(kLutAccumulate, s);
        return accel_.run(model.stage(s), *input);
      }();
      reports_.push_back(std::move(r.report));
      if (s + 1 < model.num_stages()) {
        SSMA_TRACE_SPAN_TAG(kEpilogue, s);
        staged = stage_handoff(model.stage(s), model.stage(s + 1),
                               r.outputs, input->rows);
        input = &staged;
      } else {
        out = std::move(r.outputs);
      }
    }
  }

  EngineInfo info() const override {
    return {"simulate", Backend::kSimulate, true, false};
  }

  core::PpaReport ppa_report() const override {
    if (reports_.empty()) {
      // Idle engine: its macro still exists — contribute the silicon
      // (config echo + area/SRAM) with zeroed run-dependent fields.
      core::PpaReport silicon = accel_.analytic_report(0);
      silicon.freq_mhz = 0.0;
      silicon.throughput_tops = 0.0;
      silicon.token_interval_ns = 0.0;
      silicon.tops_per_w = 0.0;
      silicon.tops_per_mm2 = 0.0;
      silicon.energy_per_op_fj = 0.0;
      silicon.energy_decoder_share = 0.0;
      silicon.energy_encoder_share = 0.0;
      return silicon;
    }
    return core::merge_sequential_reports(reports_);
  }

 private:
  core::Accelerator accel_;
  std::vector<core::PpaReport> reports_;
};

/// Hardware-in-the-loop pacing: outputs from the kernel, then block
/// until the modeled device's service time for the batch has elapsed —
/// like a host thread waiting on a real macro. Back-to-back batches
/// queue on the device; idle gaps don't accumulate credit.
class PacedEngine : public ExecutionEngine {
 public:
  explicit PacedEngine(const EngineOptions& opts)
      : pace_ns_(opts.device_ns_per_token > 0.0
                     ? opts.device_ns_per_token
                     : core::Accelerator(opts.accel)
                           .analytic_report(0)
                           .token_interval_ns),
        device_free_(SteadyClock::now()) {
    SSMA_CHECK_MSG(pace_ns_ > 0.0, "device pacing needs a token interval");
  }

  void run_batch(const ModelHandle& model,
                 const maddness::QuantizedActivations& batch,
                 std::vector<std::int16_t>& out) override {
    const SteadyClock::time_point t_exec = SteadyClock::now();
    kernel_.run_batch(model, batch, out);
    // The device serves one stage pass per token per stage.
    const double tokens =
        static_cast<double>(batch.rows) *
        static_cast<double>(model.num_stages());
    device_free_ = std::max(device_free_, t_exec) +
                   std::chrono::duration_cast<SteadyClock::duration>(
                       std::chrono::duration<double, std::nano>(
                           tokens * pace_ns_));
    SSMA_TRACE_SPAN(kDeviceWait);
    // On a shard thread this ends at device_free_: WorkerPool gives its
    // threads a 1 ns timer slack, where Linux's default would let the
    // sleep run up to 50 us over.
    std::this_thread::sleep_until(device_free_);
  }

  EngineInfo info() const override {
    return {"paced", Backend::kDevicePaced, false, true};
  }

 private:
  KernelEngine kernel_;
  double pace_ns_;
  SteadyClock::time_point device_free_;
};

}  // namespace

std::unique_ptr<ExecutionEngine> make_engine(const EngineOptions& opts) {
  switch (opts.backend) {
    case Backend::kKernel:
      return std::make_unique<KernelEngine>();
    case Backend::kSimulate:
      return std::make_unique<SimEngine>(opts);
    case Backend::kDevicePaced:
      return std::make_unique<PacedEngine>(opts);
  }
  SSMA_CHECK_MSG(false, "unknown engine backend");
  return nullptr;
}

}  // namespace ssma::engine
