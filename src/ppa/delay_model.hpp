// Voltage/corner/temperature delay scaling and per-component delay
// queries. The event-driven simulator asks this model for the duration of
// every timing arc; the analytic performance model composes the same
// primitives in closed form, which is how the two stay consistent.
#pragma once

#include "ppa/operating_point.hpp"
#include "ppa/tech_constants.hpp"

namespace ssma::ppa {

/// Which calibrated delay law a timing arc follows.
enum class DelayClass {
  kEncoder,   ///< dual-rail dynamic logic (DLC evaluation), NMOS stacks
  kDecoder,   ///< SRAM read, CSA, latches, RCD, handshake — near-threshold law
};

/// Dimensionless delay multiplier vs the 0.5 V / TTG / 25 degC reference.
/// Throws if vdd is at or below the effective threshold voltage.
double delay_scale(DelayClass cls, const OperatingPoint& op);

/// Timing arcs of the proposed macro. All return nanoseconds at the given
/// operating point. `vth_offset_v` shifts the effective threshold of the
/// specific instance (Monte-Carlo local variation); 0 for nominal.
class DelayModel {
 public:
  explicit DelayModel(const OperatingPoint& op) : op_(op) {}

  const OperatingPoint& op() const { return op_; }

  /// One DLC evaluation that resolves at `depth` (1 = decided by the MSB
  /// cell alone, kDlcBits = full ripple / equality).
  double dlc_eval_ns(int depth, double vth_offset_v = 0.0) const;

  /// Full 4-level BDT encoding given the four per-level resolution depths.
  double encoder_ns(const int depths[kTreeLevels]) const;

  double encoder_best_ns() const;
  double encoder_worst_ns() const;

  double rwl_ns(int ndec, double vth_offset_v = 0.0) const;
  double rbl_discharge_ns(double vth_offset_v = 0.0) const;
  double csa_ns(double vth_offset_v = 0.0) const;
  double latch_ns() const;
  double rcd_col_ns() const;
  double rcd_lut_ns() const;
  double rcd_block_ns(int ndec) const;
  double handshake_ns() const;
  double precharge_ns() const;

  /// RCA resolve delay given the longest carry-propagate run (bits).
  double rca_ns(int carry_chain_bits) const;

  /// Fixed (non-encoder) portion of the block latency: RWL + RBL + CSA +
  /// latch + column/LUT/block RCD + handshake. Matches the calibrated
  /// B(Ndec) of tech_constants.hpp: B(4) = 8.70 ns, B(16) = 10.40 ns at
  /// 0.5 V, fitted to the paper's Fig. 7B.
  double decoder_path_ns(int ndec) const;

  /// Full block latency bounds (encoder best/worst + decoder path).
  double block_latency_best_ns(int ndec) const;
  double block_latency_worst_ns(int ndec) const;

 private:
  double enc_scale(double vth_offset_v = 0.0) const;
  double dec_scale(double vth_offset_v = 0.0) const;

  OperatingPoint op_;
};

}  // namespace ssma::ppa
