// The benchmark's workloads. Each runs in its own process (one binary
// invocation per run), adds its end-to-end metrics (untraced run) or its
// per-layer metrics (traced run) to the report, and counts every output
// that differs from the reference as a mismatch.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// rpc_small, mlp_fused and durable_sync (serving.cpp). Returns false
/// when `args.workload` is not one of them.
bool run_serving(const Args& args, Report& report, Tracer& tracer);

}  // namespace perfbench
