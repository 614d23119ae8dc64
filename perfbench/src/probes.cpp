#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>

#include "core/accelerator.hpp"
#include "core/layer_mapping.hpp"
#include "engine/execution_engine.hpp"
#include "engine/pipeline.hpp"
#include "models.hpp"
#include "net/wire_protocol.hpp"
#include "serve/admission.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/replication/replica_applier.hpp"
#include "serve/replication/replication.hpp"
#include "sim/macro.hpp"
#include "util/check.hpp"

namespace perfbench {
namespace {

using namespace ssma;
namespace rec = serve::recovery;
namespace rep = serve::replication;

constexpr auto kFollowerTimeout = std::chrono::seconds(10);

std::vector<std::int16_t> expected_rows(const ProbeTarget& t,
                                        std::size_t row, std::size_t n) {
  const std::size_t nout = t.model->nout();
  return {t.reference->begin() + static_cast<std::ptrdiff_t>(row * nout),
          t.reference->begin() +
              static_cast<std::ptrdiff_t>((row + n) * nout)};
}

std::vector<std::uint8_t> request_codes(const ProbeTarget& t) {
  return {t.pool->row(0), t.pool->row(0) + t.request_rows * t.pool->cols};
}

/// RpcRequest::encode + RpcResponse::encode + FrameDecoder for one
/// request/response pair of the workload's shape.
void probe_frame(const ProbeTarget& t, Tracer& tracer, ProbeResults* r) {
  net::RpcRequest req;
  req.correlation_id = 1;
  req.model_ref = t.model->name();
  req.rows = t.request_rows;
  req.codes = request_codes(t);
  net::RpcResponse resp;
  resp.correlation_id = 1;
  resp.model = t.model->name();
  resp.model_version = t.model->version();
  resp.rows = t.request_rows;
  resp.outputs = expected_rows(t, 0, t.request_rows);
  net::FrameDecoder decoder(16u << 20);
  std::string payload;
  std::size_t bytes = 0;
  r->frame_us = median_call_ns(tracer, "net.frame", [&] {
                  const std::string a = req.encode();
                  const std::string b = resp.encode();
                  decoder.feed(a.data(), a.size());
                  decoder.feed(b.data(), b.size());
                  SSMA_CHECK(decoder.next(&payload) ==
                             net::FrameDecoder::Result::kFrame);
                  SSMA_CHECK(decoder.next(&payload) ==
                             net::FrameDecoder::Result::kFrame);
                  bytes = a.size() + b.size();
                }) /
                1e3;
  r->frame_bytes_per_row =
      static_cast<double>(bytes) / static_cast<double>(t.request_rows);
}

void probe_admission(const ProbeTarget& t, Tracer& tracer,
                     ProbeResults* r) {
  serve::AdmissionController admission{serve::AdmissionOptions{}};
  const auto no_deadline = serve::Clock::time_point::max();
  r->admit_ns = median_call_ns(
      tracer, "admission.admit",
      [&] {
        (void)admission.admit("perfbench", t.request_rows,
                              serve::Clock::now(), no_deadline, 0, 1024);
      },
      2000, 0.02);
  for (const std::uint64_t n : admission.stats().rejects)
    r->admit_rejects += n;
}

/// The engine on one executed batch, then each stage's encode and LUT
/// accumulate on the stage inputs the reference chain produces.
void probe_kernels(const ProbeTarget& t, Tracer& tracer, ProbeResults* r,
                   Report& report) {
  const engine::ModelHandle& model = *t.model;
  const std::size_t rows = std::min(t.batch_rows, t.pool->rows);
  const maddness::QuantizedActivations batch = slice_rows(*t.pool, 0, rows);

  const auto engine = engine::make_engine(engine::EngineOptions{});
  std::vector<std::int16_t> out;
  r->run_batch_us = median_call_ns(tracer, "engine.run_batch", [&] {
                      engine->run_batch(model, batch, out);
                    }) /
                    1e3;
  if (out != expected_rows(t, 0, rows)) ++report.mismatches;

  std::vector<maddness::QuantizedActivations> inputs{batch};
  for (std::size_t s = 1; s < model.num_stages(); ++s) {
    const std::vector<std::int16_t> acc =
        model.stage(s - 1).apply_int16(inputs.back());
    inputs.push_back(
        engine::stage_handoff(model.stage(s - 1), model.stage(s), acc, rows));
  }
  double encode_ns = 0.0, lut_ns = 0.0, lut_bytes = 0.0;
  for (std::size_t s = 0; s < model.num_stages(); ++s) {
    const maddness::Amm& amm = model.stage(s);
    maddness::EncodeScratch scratch;
    maddness::EncodedBatch enc;
    encode_ns += median_call_ns(tracer, "maddness.encode", [&] {
      amm.encode_batch(inputs[s], scratch, enc);
    });
    std::vector<std::int16_t> acc;
    lut_ns += median_call_ns(tracer, "maddness.lut",
                             [&] { amm.apply_int16(enc, acc); });
    // One int8 table entry gathered per (row, codebook, output).
    lut_bytes += static_cast<double>(rows) * amm.cfg().ncodebooks *
                 amm.lut().nout;
  }
  const double n = static_cast<double>(rows);
  r->encode_ns_per_row = encode_ns / n;
  r->lut_ns_per_row = lut_ns / n;
  r->lut_gbps = lut_bytes / lut_ns;
}

void probe_journal(const ProbeTarget& t, Tracer& tracer, ProbeResults* r) {
  const engine::ModelHandle& model = *t.model;
  const std::vector<std::uint8_t> codes = request_codes(t);
  rec::RequestJournal journal(t.scratch + "/probe-journal.ssj");
  const std::uint64_t bytes0 = journal.durable_bytes();
  std::uint64_t id = 0;
  r->journal_append_us =
      median_call_ns(tracer, "journal.append_accepted",
                     [&] {
                       journal.append_accepted(id++, model.name(),
                                               model.version(),
                                               t.request_rows, codes);
                     },
                     200) /
      1e3;
  // A served request journals an accept and a completion record.
  for (std::uint64_t i = 0; i < id; ++i) journal.append_completed(i, 0, 0);
  r->journal_bytes_per_req =
      static_cast<double>(journal.durable_bytes() - bytes0) /
      static_cast<double>(id);
}

rec::CheckpointState registry_state(const engine::ModelRef& model) {
  engine::ModelRegistry registry;
  registry.install(model);
  std::ostringstream os;
  registry.save(os);
  rec::CheckpointState st;
  st.registry_blob = os.str();
  return st;
}

void probe_checkpoint(const ProbeTarget& t, Tracer& tracer,
                      ProbeResults* r) {
  const rec::CheckpointState st = registry_state(t.model);
  rec::CheckpointManager ckpts(t.scratch + "/probe-checkpoints");
  r->checkpoint_write_ms =
      median_call_ns(
          tracer, "checkpoint.write", [&] { ckpts.write(st); }, 10, 0.0) /
      1e6;
}

/// A scratch leader journal + sync-ack ReplicationLog with an in-process
/// follower: append one accept record, time wait_acked on it.
void probe_replication(const ProbeTarget& t, Tracer& tracer,
                       ProbeResults* r) {
  constexpr std::uint64_t kRecords = 200;
  const std::string dir = t.scratch + "/probe-replication";
  rec::CheckpointManager ckpts(dir + "/checkpoints");
  ckpts.write(registry_state(t.model));  // the follower's standby model
  rec::RequestJournal journal(dir + "/journal.ssj");
  rep::ReplicationOptions ropts;
  ropts.ack_mode = rep::AckMode::kSync;
  rep::ReplicationLog log(journal, &ckpts, ropts);
  rep::ApplierOptions aopts;
  aopts.leader_port = log.port();
  aopts.dir = dir + "/follower";
  aopts.server.num_workers = 1;
  rep::ReplicaApplier follower(aopts);
  SSMA_CHECK_MSG(log.wait_follower(1, kFollowerTimeout),
                 "probe follower never handshook");
  SSMA_CHECK_MSG(follower.wait_standby(kFollowerTimeout),
                 "probe follower built no standby");

  const engine::ModelHandle& model = *t.model;
  const std::vector<std::uint8_t> codes = request_codes(t);
  const std::uint64_t sent0 = log.stats().bytes_sent;
  SampleSet wait_ns;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const std::uint64_t seq = journal.append_accepted(
        i, model.name(), model.version(), t.request_rows, codes);
    const std::int64_t t0 = now_ns();
    log.wait_acked(seq);
    const std::int64_t t1 = now_ns();
    tracer.record("repl.wait_acked", t0, t1, i);
    wait_ns.add(static_cast<double>(t1 - t0));
    journal.append_completed(i, 0, 0);
  }
  log.wait_acked(journal.durable_seq());
  const rep::ReplicationStats st = log.stats();
  r->repl_ack_rtt_us = median(wait_ns) / 1e3;
  r->repl_bytes_per_req = static_cast<double>(st.bytes_sent - sent0) /
                          static_cast<double>(kRecords);
  r->repl_sync_degraded = st.sync_degraded;
  follower.stop();
  log.stop();
}

/// core::Accelerator::run on the first rows of the pool (stage 0), then
/// the first tile of its plan straight through sim::Macro, as
/// Accelerator::run drives it, to split program from run time.
void probe_sim(const ProbeTarget& t, Tracer& tracer, ProbeResults* r,
               Report& report) {
  const maddness::Amm& amm = t.model->stage(0);
  const std::size_t rows = std::min(t.sim_rows, t.pool->rows);
  const maddness::QuantizedActivations chunk = slice_rows(*t.pool, 0, rows);
  const std::vector<std::int16_t> want = amm.apply_int16(chunk);
  const int nout = amm.lut().nout;

  const core::AcceleratorOptions opts;
  core::Accelerator acc(opts);
  core::AcceleratorResult res;
  const double host_ns = median_call_ns(
      tracer, "sim.accelerator_run", [&] { res = acc.run(amm, chunk); }, 1,
      0.0);
  if (res.outputs != want) ++report.mismatches;
  const core::PpaReport& ppa = res.report;
  const double n = static_cast<double>(rows);
  r->sim_events_per_row = static_cast<double>(ppa.events) / n;
  r->sim_host_ns_per_event = host_ns / static_cast<double>(ppa.events);
  r->sim_ns_per_row = ppa.duration_ns / n;
  r->sim_tops_per_w = ppa.tops_per_w;
  r->sim_tiles = res.plan.tiles.size();

  const core::Tile& tile = res.plan.tiles.front();
  sim::MacroConfig mc;
  mc.ndec = opts.ndec;
  mc.ns = opts.ns;
  mc.op = opts.op;
  std::vector<maddness::HashTree> trees(static_cast<std::size_t>(mc.ns));
  std::vector<std::vector<sim::LutTable>> luts(
      static_cast<std::size_t>(mc.ns),
      std::vector<sim::LutTable>(static_cast<std::size_t>(mc.ndec),
                                 sim::LutTable{}));
  for (int b = 0; b < tile.block_n; ++b) {
    const int cb = tile.block_lo + b;
    trees[b] = amm.trees()[cb];
    for (int d = 0; d < tile.lane_n; ++d) {
      const std::vector<std::int8_t> table =
          amm.lut().table(cb, tile.lane_lo + d);
      std::copy(table.begin(), table.end(), luts[b][d].begin());
    }
  }
  std::vector<std::vector<sim::Subvec>> inputs(
      rows, std::vector<sim::Subvec>(static_cast<std::size_t>(mc.ns),
                                     sim::Subvec{}));
  for (std::size_t k = 0; k < rows; ++k)
    for (int b = 0; b < tile.block_n; ++b)
      for (std::size_t j = 0; j < inputs[k][b].size(); ++j)
        inputs[k][b][j] = chunk.at(
            k, static_cast<std::size_t>(tile.block_lo + b) *
                       inputs[k][b].size() +
                   j);
  const std::vector<std::vector<std::int16_t>> initial(
      rows, std::vector<std::int16_t>(static_cast<std::size_t>(mc.ndec), 0));
  const std::vector<std::int16_t> bias(static_cast<std::size_t>(mc.ndec), 0);
  const bool final_tile = res.plan.input_tiles() == 1;

  SampleSet program_ns, run_ns;
  bool tile_ok = true;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Macro macro(mc);
    const std::int64_t t0 = now_ns();
    macro.program(trees, luts, bias);
    const std::int64_t t1 = now_ns();
    const sim::MacroRunResult run = macro.run(inputs, &initial);
    const std::int64_t t2 = now_ns();
    tracer.record("sim.program", t0, t1);
    tracer.record("sim.run", t1, t2);
    program_ns.add(static_cast<double>(t1 - t0));
    run_ns.add(static_cast<double>(t2 - t1));
    for (std::size_t k = 0; final_tile && k < rows; ++k)
      for (int d = 0; d < tile.lane_n; ++d)
        tile_ok = tile_ok &&
                  run.outputs[k][d] ==
                      want[k * static_cast<std::size_t>(nout) +
                           static_cast<std::size_t>(tile.lane_lo + d)];
  }
  if (!tile_ok) ++report.mismatches;
  r->sim_program_ms = median(program_ns) / 1e6;
  r->sim_run_ms = median(run_ns) / 1e6;
}

/// Which end-to-end metric each layer metric should move, on which
/// workload (see perfbench/README.md).
const char* moves(const std::string& metric) {
  static const std::map<std::string, const char*> kMoves = {
      {"net.frame_us", "p50_ms on rpc_small"},
      {"net.overhead_p50_ms", "p50_ms on rpc_small"},
      {"net.bytes_per_row", "rows_per_s on mlp_fused"},
      {"admission.admit_ns", "rows_per_s on rpc_small"},
      {"admission.rejects", "failed on all serving workloads"},
      {"batcher.queue_wait_p50_us", "p50_ms on rpc_small, durable_sync"},
      {"batcher.rows_per_batch", "rows_per_s on rpc_small, mlp_fused"},
      {"engine.service_p50_us", "p50_ms on mlp_fused"},
      {"engine.run_batch_us", "rows_per_s on mlp_fused"},
      {"maddness.encode_ns_per_row", "rows_per_s on mlp_fused"},
      {"maddness.lut_ns_per_row", "rows_per_s on mlp_fused"},
      {"maddness.lut_gbps", "rows_per_s on mlp_fused"},
      {"journal.append_us", "p50_ms on durable_sync"},
      {"journal.bytes_per_req", "rows_per_s on durable_sync"},
      {"checkpoint.write_ms", "p90_ms on durable_sync"},
      {"repl.ack_rtt_us", "p50_ms on durable_sync"},
      {"repl.bytes_per_req", "rows_per_s on durable_sync"},
      {"repl.sync_degraded", "failed on durable_sync"},
      {"unattributed_p50_ms", "p50_ms (the unexplained gap)"},
      {"trace_overhead_frac", "none (cost of the traced run)"},
  };
  const auto it = kMoves.find(metric);
  if (it != kMoves.end()) return it->second;
  if (metric.rfind("sim.", 0) == 0)
    return "rows_per_s on macro_sim (dropped; see README)";
  if (metric.rfind("setup.", 0) == 0) return "setup_s on all";
  return "";
}

}  // namespace

ProbeResults run_probes(const ProbeTarget& target, Tracer& tracer,
                        Report& report) {
  std::filesystem::create_directories(target.scratch);
  ProbeResults r;
  probe_frame(target, tracer, &r);
  probe_admission(target, tracer, &r);
  probe_kernels(target, tracer, &r, report);
  probe_journal(target, tracer, &r);
  probe_checkpoint(target, tracer, &r);
  probe_replication(target, tracer, &r);
  probe_sim(target, tracer, &r, report);
  std::error_code ec;
  std::filesystem::remove_all(target.scratch, ec);
  return r;
}

void add_layer_metrics(const LayerView& v, const SetupLog& setup,
                       Report& report) {
  const ProbeResults& p = v.probe;
  report.add("net.frame_us", p.frame_us, "us");
  report.add("net.overhead_p50_ms", v.overhead_p50_ms, "ms");
  report.add("net.bytes_per_row", v.bytes_per_row, "B/row");
  report.add("admission.admit_ns", p.admit_ns, "ns");
  report.add("admission.rejects", static_cast<double>(v.rejects), "count");
  report.add("batcher.queue_wait_p50_us", v.queue_wait_p50_us, "us");
  report.add("batcher.rows_per_batch", v.rows_per_batch, "rows");
  report.add("engine.service_p50_us", v.service_p50_us, "us");
  report.add("engine.run_batch_us", p.run_batch_us, "us");
  report.add("maddness.encode_ns_per_row", p.encode_ns_per_row, "ns/row");
  report.add("maddness.lut_ns_per_row", p.lut_ns_per_row, "ns/row");
  report.add("maddness.lut_gbps", p.lut_gbps, "GB/s");
  report.add("journal.append_us", p.journal_append_us, "us");
  report.add("journal.bytes_per_req", p.journal_bytes_per_req, "B/req");
  report.add("checkpoint.write_ms", p.checkpoint_write_ms, "ms");
  report.add("repl.ack_rtt_us", p.repl_ack_rtt_us, "us");
  report.add("repl.bytes_per_req", v.repl_bytes_per_req, "B/req");
  report.add("repl.sync_degraded", static_cast<double>(v.repl_sync_degraded),
             "count");
  report.add("sim.events_per_row", p.sim_events_per_row, "events/row");
  report.add("sim.host_ns_per_event", p.sim_host_ns_per_event, "ns/event");
  report.add("sim.program_ms", p.sim_program_ms, "ms");
  report.add("sim.run_ms", p.sim_run_ms, "ms");
  report.add("sim.ns_per_row", p.sim_ns_per_row, "sim_ns/row");
  report.add("sim.tops_per_w", p.sim_tops_per_w, "TOPS/W");
  report.add("setup.train_s", setup.train_s.min(), "s");
  report.add("setup.register_s", setup.register_s.min(), "s");
  report.add("setup.start_s", setup.start_s.min(), "s");
  report.add("unattributed_p50_ms", v.unattributed_p50_ms, "ms");
  report.add("trace_overhead_frac", v.trace_overhead_frac, "share");
}

void print_layer_table(const Report& report, const Tracer& tracer) {
  std::fprintf(stderr, "\n%-28s %14s %-11s %s\n", "layer metric", "value",
               "unit", "should move");
  for (const Report::Metric& m : report.metrics)
    std::fprintf(stderr, "%-28s %14.6g %-11s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), moves(m.name));
  std::fprintf(stderr, "\n%-28s %8s %12s %12s\n", "span", "count",
               "self ms", "p50 us");
  for (const Tracer::Layer& l : tracer.layers())
    std::fprintf(stderr, "%-28s %8zu %12.3f %12.3f\n", l.name.c_str(),
                 l.count, l.self_ms, l.p50_us);
  if (tracer.dropped() > 0)
    std::fprintf(stderr, "(%zu spans past the storage cap not kept)\n",
                 tracer.dropped());
}

}  // namespace perfbench
