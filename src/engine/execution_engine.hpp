// Backend-pluggable execution — the compute-facing half of the Engine
// API.
//
// An ExecutionEngine turns one stitched batch of quantized activation
// rows into int16 accumulators for a pinned ModelHandle. The three
// in-tree backends cover the repo's execution tiers:
//
//   kKernel      Amm::apply_int16 — the hardware-exact software kernel
//                at host speed (the throughput-serving default).
//   kSimulate    core::Accelerator::run — the event-driven macro, same
//                bits, plus per-batch PPA accounting exposed through
//                ppa_report().
//   kDevicePaced kernel outputs + a modeled device service time per
//                token — measures runtime overlap of N devices
//                independent of host core count.
//
// All backends produce bit-identical outputs for the same model and
// batch (the sim/kernel equivalence is asserted by the test suites), so
// the backend is a deployment knob, not a semantics knob. Engines are
// stateful (encode scratch, PPA ledgers, pacing clocks) and NOT
// thread-safe: create one per worker thread via make_engine().
//
// Multi-stage models (ModelHandle::is_pipeline()) run stage-by-stage
// inside run_batch; see engine/pipeline.hpp for the handoff semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/accelerator.hpp"
#include "core/ppa_report.hpp"
#include "engine/model_registry.hpp"
#include "maddness/quantize.hpp"

namespace ssma::engine {

/// Which compute tier a worker runs batches on.
enum class Backend {
  kKernel,
  kSimulate,
  kDevicePaced,
};

const char* to_string(Backend backend);

/// Everything needed to construct a per-worker engine.
struct EngineOptions {
  Backend backend = Backend::kKernel;
  /// Macro shape for kSimulate shards (and the analytic pacing model).
  core::AcceleratorOptions accel;
  /// kDevicePaced only: modeled device service time per token (0 = the
  /// analytic model's average token interval for `accel`).
  double device_ns_per_token = 0.0;
};

/// Capability/shape metadata a scheduler can dispatch on.
struct EngineInfo {
  const char* name = "";     ///< backend name ("kernel", ...)
  Backend backend = Backend::kKernel;
  bool collects_ppa = false; ///< ppa_report() is meaningful after use
  bool paced = false;        ///< run_batch blocks for modeled device time
};

class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  /// Computes `batch` (rows x model.cols(), stitched row-major) through
  /// every stage of `model`; `out` is resized to rows x model.nout(),
  /// capacity-reusing. Deterministic and bit-exact across backends.
  virtual void run_batch(const ModelHandle& model,
                         const maddness::QuantizedActivations& batch,
                         std::vector<std::int16_t>& out) = 0;

  virtual EngineInfo info() const = 0;

  /// Accumulated PPA accounting for everything this engine instance has
  /// run. Default-empty for backends whose info().collects_ppa is
  /// false; the simulate backend merges its per-batch reports (or, when
  /// it ran nothing, reports idle silicon: config echo + area/SRAM with
  /// zeroed run-dependent fields).
  virtual core::PpaReport ppa_report() const { return core::PpaReport{}; }
};

/// Factory: one engine per worker thread. Throws CheckError when the
/// options are inconsistent (e.g. a paced backend with no resolvable
/// token interval).
std::unique_ptr<ExecutionEngine> make_engine(const EngineOptions& opts);

}  // namespace ssma::engine
