// Tests for the simulator extensions: signal tracing (text + VCD),
// AMM serialization round trips, and the speculative-encode pipeline
// option (bit-exactness preserved, encoder latency hidden).
#include <gtest/gtest.h>


#include "maddness/amm.hpp"
#include "ppa/delay_model.hpp"
#include "sim/macro.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ssma::sim {
namespace {

std::vector<maddness::HashTree> random_trees(Rng& rng, int ns) {
  std::vector<maddness::HashTree> trees(ns);
  for (auto& t : trees) {
    for (int l = 0; l < 4; ++l) t.set_split_dim(l, rng.next_int(0, 8));
    for (int l = 0; l < 4; ++l)
      for (int n = 0; n < (1 << l); ++n)
        t.set_threshold(l, n, static_cast<std::uint8_t>(rng.next_int(1, 254)));
  }
  return trees;
}

std::vector<maddness::HashTree> uniform_trees(int ns) {
  std::vector<maddness::HashTree> trees(ns);
  for (auto& t : trees) {
    for (int l = 0; l < 4; ++l) t.set_split_dim(l, l);
    for (int l = 0; l < 4; ++l)
      for (int n = 0; n < (1 << l); ++n) t.set_threshold(l, n, 0x80);
  }
  return trees;
}

std::vector<std::vector<std::array<std::int8_t, 16>>> random_luts(Rng& rng,
                                                                  int ns,
                                                                  int ndec) {
  std::vector<std::vector<std::array<std::int8_t, 16>>> luts(
      ns, std::vector<std::array<std::int8_t, 16>>(ndec));
  for (auto& b : luts)
    for (auto& tb : b)
      for (auto& e : tb) e = static_cast<std::int8_t>(rng.next_int(-127, 127));
  return luts;
}

std::vector<std::vector<Subvec>> random_inputs(Rng& rng, int n, int ns) {
  std::vector<std::vector<Subvec>> in(n, std::vector<Subvec>(ns));
  for (auto& tok : in)
    for (auto& sv : tok)
      for (auto& v : sv) v = static_cast<std::uint8_t>(rng.next_int(0, 255));
  return in;
}

std::vector<std::vector<Subvec>> constant_inputs(int n, int ns,
                                                 std::uint8_t v) {
  Subvec sv;
  sv.fill(v);
  return std::vector<std::vector<Subvec>>(n, std::vector<Subvec>(ns, sv));
}

// ------------------------------------------------------------------ trace

TEST(Trace, RecordsHandshakeEdgesInProtocolOrder) {
  Rng rng(1);
  MacroConfig cfg;
  cfg.ndec = 2;
  cfg.ns = 2;
  Macro macro(cfg);
  TraceSink trace;
  macro.set_trace(&trace);
  macro.program(random_trees(rng, 2), random_luts(rng, 2, 2), {0, 0});
  macro.run(random_inputs(rng, 3, 2));

  ASSERT_GT(trace.size(), 0u);
  // For every link: req/ack edges strictly alternate 1,1,0,0 per cycle.
  for (int l = 0; l <= 2; ++l) {
    const std::string base = "link" + std::to_string(l);
    const auto reqs = trace.for_signal(base + ".req");
    const auto acks = trace.for_signal(base + ".ack");
    ASSERT_EQ(reqs.size(), acks.size());
    ASSERT_EQ(reqs.size() % 2, 0u);
    for (std::size_t i = 0; i + 1 < reqs.size(); i += 2) {
      EXPECT_EQ(reqs[i].value, "1");
      EXPECT_EQ(reqs[i + 1].value, "0");
      EXPECT_EQ(acks[i].value, "1");
      EXPECT_EQ(acks[i + 1].value, "0");
      // REQ rises no later than ACK rises; REQ falls no later than ACK
      // falls (four-phase ordering).
      EXPECT_LE(reqs[i].t, acks[i].t);
      EXPECT_LE(reqs[i + 1].t, acks[i + 1].t);
    }
  }
}

TEST(Trace, BlockStatesAndLeavesRecorded) {
  Rng rng(3);
  MacroConfig cfg;
  cfg.ndec = 2;
  cfg.ns = 1;
  Macro macro(cfg);
  TraceSink trace;
  macro.set_trace(&trace);
  macro.program(random_trees(rng, 1), random_luts(rng, 1, 2), {0, 0});
  macro.run(random_inputs(rng, 4, 1));

  const auto states = trace.for_signal("block0.state");
  EXPECT_EQ(states.size(), 8u);  // compute+ready per token
  const auto leaves = trace.for_signal("block0.leaf");
  EXPECT_EQ(leaves.size(), 4u);
  for (const auto& r : leaves) {
    const int leaf = std::stoi(r.value);
    EXPECT_GE(leaf, 0);
    EXPECT_LT(leaf, 16);
  }
}

TEST(Trace, VcdRendering) {
  TraceSink t;
  t.record(0, "a.req", "1");
  t.record(100, "a.req", "0");
  t.record(100, "b.state", "compute");
  const std::string vcd = t.render_vcd("test");
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module test $end"), std::string::npos);
  EXPECT_NE(vcd.find("a.req"), std::string::npos);
  EXPECT_NE(vcd.find("#100"), std::string::npos);
  EXPECT_NE(vcd.find("scompute"), std::string::npos);

  const std::string text = t.render_text();
  EXPECT_NE(text.find("0.100 ns"), std::string::npos);
}

TEST(Trace, NoTracingCostWhenDetached) {
  Rng rng(5);
  MacroConfig cfg;
  cfg.ndec = 2;
  cfg.ns = 2;
  Macro macro(cfg);
  macro.program(random_trees(rng, 2), random_luts(rng, 2, 2), {0, 0});
  // No sink attached: run must not crash and produces no records.
  const auto res = macro.run(random_inputs(rng, 3, 2));
  EXPECT_EQ(res.outputs.size(), 3u);
}

// -------------------------------------------------------------- serialize

TEST(Serialize, RoundTripPreservesBehaviour) {
  Rng rng(7);
  maddness::Config cfg;
  cfg.ncodebooks = 3;
  Matrix x(200, 27);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 200));
  Matrix w(27, 5);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.05));
  const maddness::Amm amm = maddness::Amm::train(cfg, x, w);

  const maddness::Amm loaded =
      maddness::Amm::load_string(amm.save_string());

  EXPECT_EQ(loaded.cfg().ncodebooks, 3);
  EXPECT_EQ(loaded.activation_scale(), amm.activation_scale());
  EXPECT_EQ(loaded.lut().q, amm.lut().q);
  EXPECT_EQ(loaded.lut().scales, amm.lut().scales);

  const auto q = maddness::quantize_activations(x, amm.activation_scale());
  EXPECT_EQ(loaded.apply_int16(q), amm.apply_int16(q));
  EXPECT_EQ(loaded.encode(q), amm.encode(q));
}

TEST(Serialize, RejectsCorruptStream) {
  EXPECT_THROW(maddness::Amm::load_string("not an amm stream at all"),
               CheckError);
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(9);
  maddness::Config cfg;
  cfg.ncodebooks = 2;
  Matrix x(100, 18);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 100));
  Matrix w(18, 3);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.1));
  const maddness::Amm amm = maddness::Amm::train(cfg, x, w);

  const std::string path = "/tmp/ssma_amm_roundtrip.bin";
  amm.save_file(path);
  const maddness::Amm loaded = maddness::Amm::load_file(path);
  const auto q = maddness::quantize_activations(x, amm.activation_scale());
  EXPECT_EQ(loaded.apply_int16(q), amm.apply_int16(q));
  EXPECT_THROW(maddness::Amm::load_file("/nonexistent/amm.bin"),
               CheckError);
}

// ------------------------------------------------------------ speculative

TEST(SpeculativeEncode, BitExactAgainstBaseline) {
  Rng rng(11);
  const int ndec = 4, ns = 4;
  const auto trees = random_trees(rng, ns);
  const auto luts = random_luts(rng, ns, ndec);
  const auto inputs = random_inputs(rng, 20, ns);

  MacroConfig base;
  base.ndec = ndec;
  base.ns = ns;
  Macro m0(base);
  m0.program(trees, luts, std::vector<std::int16_t>(ndec, 0));
  const auto r0 = m0.run(inputs);

  MacroConfig spec = base;
  spec.speculative_encode = true;
  Macro m1(spec);
  m1.program(trees, luts, std::vector<std::int16_t>(ndec, 0));
  const auto r1 = m1.run(inputs);

  EXPECT_EQ(r1.outputs, r0.outputs);
}

TEST(SpeculativeEncode, HidesWorstCaseEncoderLatency) {
  // Worst-case data (every DLC full-ripple): baseline interval =
  // enc_worst + B; speculative interval ~ max(B, enc + pch).
  const int ndec = 16, ns = 4;
  Rng rng(13);
  const auto luts = random_luts(rng, ns, ndec);
  const auto inputs = constant_inputs(30, ns, 0x80);

  MacroConfig base;
  base.ndec = ndec;
  base.ns = ns;
  Macro m0(base);
  m0.program(uniform_trees(ns), luts, std::vector<std::int16_t>(ndec, 0));
  const double base_int = m0.run(inputs).stats.output_interval_ns.mean();

  MacroConfig spec = base;
  spec.speculative_encode = true;
  Macro m1(spec);
  m1.program(uniform_trees(ns), luts, std::vector<std::int16_t>(ndec, 0));
  const double spec_int = m1.run(inputs).stats.output_interval_ns.mean();

  ppa::DelayModel delay(ppa::nominal_05v());
  EXPECT_NEAR(base_int, delay.block_latency_worst_ns(ndec), 0.1);
  // The speculative interval is bounded by encoder + precharge (the
  // encoder becomes the pipeline bottleneck once decode is hidden).
  const double bound =
      delay.encoder_worst_ns() + delay.precharge_ns() + 1.0;
  EXPECT_LT(spec_int, bound);
  EXPECT_LT(spec_int, 0.8 * base_int);  // >= 1.25x speedup
}

TEST(SpeculativeEncode, BestCaseBottleneckIsDecoder) {
  // Best-case data: encoder (7.4 ns) is faster than the decode path, so
  // the interval approaches the decoder path latency.
  const int ndec = 16, ns = 4;
  Rng rng(17);
  MacroConfig spec;
  spec.ndec = ndec;
  spec.ns = ns;
  spec.speculative_encode = true;
  Macro m(spec);
  m.program(uniform_trees(ns), random_luts(rng, ns, ndec),
            std::vector<std::int16_t>(ndec, 0));
  const double interval =
      m.run(constant_inputs(30, ns, 0x00)).stats.output_interval_ns.mean();
  ppa::DelayModel delay(ppa::nominal_05v());
  EXPECT_LT(interval, delay.block_latency_best_ns(ndec));
  EXPECT_GT(interval, delay.decoder_path_ns(ndec) - 0.1);
}

TEST(SpeculativeEncode, WorksWithVariationAndSingleToken) {
  Rng rng(19);
  MacroConfig spec;
  spec.ndec = 2;
  spec.ns = 2;
  spec.speculative_encode = true;
  Macro m(spec);
  const auto trees = random_trees(rng, 2);
  const auto luts = random_luts(rng, 2, 2);
  m.program(trees, luts, {0, 0});
  // Single token: no speculation possible, still correct.
  const auto inputs = random_inputs(rng, 1, 2);
  const auto res = m.run(inputs);
  EXPECT_EQ(res.outputs, m.reference_outputs(inputs));
}

}  // namespace
}  // namespace ssma::sim
