// The repository benchmark binary. One invocation runs one workload in
// its own process:
//
//   perfbench --workload rpc_small|mlp_fused|durable_sync
//             --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--trace-out FILE]
//
// stdout: a context line (seed, nproc, CPU model, kernel tiers), a detail
// line (p99 with its sample count, fail_frac, every set-up time), then the
// result object as the last line. A traced run prints the per-layer table
// to stderr and writes its spans as Chrome-trace JSON to --trace-out.
// Exits non-zero on any output mismatch or failed request.
// perfbench/run.py builds this binary and is the command to use.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "harness.hpp"
#include "probes.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string err;
  if (!parse_args(argc, argv, &args, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  try {
    std::printf("%s\n", context_json(args).c_str());
    Report report;
    Tracer tracer;
    if (!run_serving(args, report, tracer)) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
    if (args.trace) {
      print_layer_table(report, tracer);
      if (!args.trace_out.empty()) {
        std::ofstream out(args.trace_out);
        out << tracer.chrome_json("perfbench " + args.workload);
        if (!out) {
          std::fprintf(stderr, "perfbench: cannot write %s\n",
                       args.trace_out.c_str());
          return 1;
        }
        std::fprintf(stderr, "perfbench: spans written to %s\n",
                     args.trace_out.c_str());
      }
    }
    std::printf("%s\n", report.json().c_str());
    return report.correct() && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
