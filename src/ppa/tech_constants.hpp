// Calibrated 22nm technology constants for the proposed macro.
//
// Every number here is derived from the paper's published post-layout
// results (the anchors below name the figure or table behind each group,
// and each section shows its fit). They play the role of the
// HSPICE-characterized standard-cell/SRAM models that the authors used;
// our event-driven simulator composes them at event granularity.
//
// Calibration anchors reproduced by these constants:
//   * Fig. 7B block latencies: 16.1/30.4 ns (Ndec=4), 17.8/32.1 ns (Ndec=16)
//   * Table II frequencies: 31.2-56.2 MHz @0.5V, 144-353 MHz @0.8V
//   * Table I energy efficiencies (8 values) to <= 0.3%
//   * Fig. 6 energy efficiencies (6 voltages) to <= 1.5%
//   * Core area 0.20 mm^2 @ (Ndec=16, NS=32); Fig. 7C area shares
#pragma once

namespace ssma::ppa {

// ---------------------------------------------------------------------------
// Reference point: all base delays/energies are characterized at
// VDD = 0.5 V, TTG corner, 25 degC.
// ---------------------------------------------------------------------------
inline constexpr double kRefVdd = 0.5;

// --- Delay classes (alpha-power-law voltage scaling) -----------------------
// d(V) = d_base * [V / (V - Vth)^alpha] / [Vref / (Vref - Vth)^alpha]
//
// The encoder (dual-rail dynamic logic, NMOS evaluation stacks) and the
// decoder/control path (SRAM bitline discharge, static CMOS adders, RCD
// gates) exhibit different voltage sensitivities in the paper's data:
// from 0.5 V to 0.8 V the encoder speeds up ~3.5x while the decoder path
// speeds up ~14.8x (near-threshold behaviour). Two (Vth, alpha) pairs fit
// both published frequency pairs.
struct AlphaPowerParams {
  double vth;    // effective threshold voltage [V]
  double alpha;  // velocity-saturation exponent
};

inline constexpr AlphaPowerParams kEncoderDelayLaw{0.37, 1.45};
inline constexpr AlphaPowerParams kDecoderDelayLaw{0.452, 1.60};

// Corner modelling: Vth shift per corner letter, applied with per-class
// NMOS/PMOS path weights. 30 mV global-corner shift is typical for a 22nm
// bulk process.
inline constexpr double kCornerVthShift = 0.030;  // [V]

// Temperature: mobility degradation ~0.15%/K around 25 degC (delay), and
// leakage doubling every ~20 K.
inline constexpr double kDelayTempCoeffPerK = 0.0015;
inline constexpr double kLeakTempDoublingK = 20.0;

// --- Encoder timing (at the 0.5 V reference) --------------------------------
// A 4-level BDT evaluation performs 4 sequential DLC evaluations. Each DLC
// resolves at a data-dependent depth in [1, 8]:
//   t_dlc(depth) = kDlcBaseNs + kDlcPerBitNs * depth
// Best case (all 4 levels resolve at depth 1):  4*(1.339+0.511)  = 7.4 ns
// Worst case (all 4 levels resolve at depth 8): 4*(1.339+4.088) = 21.7 ns
inline constexpr double kDlcBaseNs = 1.339;
inline constexpr double kDlcPerBitNs = 0.511;
inline constexpr int kDlcBits = 8;

// --- Decoder / control timing (at the 0.5 V reference) ----------------------
// B(Ndec) = fixed path + RWL wire RC (linear in Ndec) + block-RCD tree
// (log2(Ndec) NAND-NOR stages):
//   B(4) = 8.70 ns, B(16) = 10.40 ns  (fits Fig. 7B exactly)
inline constexpr double kRwlDriverNs = 0.50;    // RWL driver intrinsic
inline constexpr double kRwlWirePerDecNs = 0.04;  // RWL wire RC per decoder
inline constexpr double kRblDischargeNs = 2.50;   // 10T-SRAM read (RBL/RBLB)
inline constexpr double kCsaSettleNs = 1.50;      // 16-bit carry-save adder
inline constexpr double kLatchPulseNs = 0.80;     // pulse gen + D-latch
inline constexpr double kRcdColNs = 0.50;         // column 2NAND-1NOR detect
inline constexpr double kRcdLutStageNs = 0.30;    // per stage, 3 stages for 8 cols
inline constexpr int kRcdLutStages = 3;
inline constexpr double kRcdBlockStageNs = 0.61;  // per NAND-NOR tournament level
inline constexpr double kHandshakeNs = 0.62;      // four-phase ctrl overhead
inline constexpr double kPrechargeNs = 2.00;      // DLC + bitline precharge
inline constexpr double kRcaBaseNs = 0.60;        // RCA intrinsic
inline constexpr double kRcaPerBitNs = 0.18;      // per carry-chain bit

// --- Dynamic energy (at the 0.5 V reference, [fJ]) ---------------------------
// E(V) = E_base * (V / 0.5)^2.
//
// Decoder lookup = 90 fJ total: 8 column reads (precharge + full-swing
// RBL/RBLB discharge), CSA, latches, RCD gates.
inline constexpr double kEnergyColumnReadFj = 8.0;   // per SRAM column read
inline constexpr double kEnergyCsaFj = 16.0;         // 16-bit CSA (avg data)
inline constexpr double kEnergyLatchFj = 6.0;        // output latch bank
inline constexpr double kEnergyRcdLutFj = 4.0;       // column+LUT RCD gates
// Encoder pass = 11.5 fJ: all 15 DLCs precharge, 4 evaluate, input buffer.
inline constexpr double kEnergyDlcPrechargeFj = 0.40;  // per DLC per cycle
inline constexpr double kEnergyDlcEvalBaseFj = 0.60;   // per activated DLC
inline constexpr double kEnergyDlcEvalPerBitFj = 0.075;  // per discharge depth
inline constexpr double kEnergyInputBufFj = 0.70;      // per encoding
// Control: per block pass, kCtrlBaseFj + kCtrlPerDecFj * Ndec (handshake,
// RWL drivers, block RCD tree).
inline constexpr double kCtrlBaseFj = 1.04;
inline constexpr double kCtrlPerDecFj = 1.54;
// Output stage: Ndec 16-bit RCAs + output register, per token.
inline constexpr double kEnergyRcaFj = 9.0;   // per RCA resolve
inline constexpr double kEnergyOutRegFj = 3.0;  // per lane per token
// LUT/threshold programming (write path), per bit written.
inline constexpr double kEnergyWriteBitFj = 1.8;

// --- Leakage ----------------------------------------------------------------
// P_leak(block) = (kLeakBlockBaseUwPerV + kLeakPerDecoderUwPerV * Ndec) * V
// in microwatts (== fJ/ns). Fitted jointly with the dynamic split to
// Table I's 0.5 V / 0.8 V energy-efficiency rows.
inline constexpr double kLeakBlockBaseUwPerV = 1.08;
inline constexpr double kLeakPerDecoderUwPerV = 0.825;
// Corner leakage multipliers (typical bulk-22nm spread).
inline constexpr double kLeakMultFFG = 2.5;
inline constexpr double kLeakMultSSG = 0.45;
inline constexpr double kLeakMultSFG = 1.10;
inline constexpr double kLeakMultFSG = 1.10;

// --- Area [um^2] --------------------------------------------------------------
// A(Ndec, NS) = NS*(A_enc + A_ctrl + Ndec*A_dec) + Ndec*A_lane + A_global
// Decoder: 16x8 10T-SRAM (128 cells) + 16-bit CSA + latches + RCD.
inline constexpr double kAreaDecoderUm2 = 323.8;
inline constexpr double kAreaEncoderUm2 = 310.0;   // 15 DLCs + input buffer
inline constexpr double kAreaCtrlUm2 = 630.0;      // handshake, drivers, RCD
inline constexpr double kAreaLaneUm2 = 233.0;      // 16-bit RCA + out register
inline constexpr double kAreaGlobalUm2 = 300.0;    // global write driver
// Total chip area adds pad ring / routing overhead (paper: 0.66 mm^2 total
// vs 0.20 mm^2 core for the flagship macro).
inline constexpr double kChipAreaOverheadFactor = 3.3;

// --- Ops accounting -----------------------------------------------------------
// One LUT lookup replaces a 9-element dot product: 9 MACs = 18 ops (Fig. 3).
inline constexpr int kSubvectorDim = 9;
inline constexpr int kOpsPerLookup = 2 * kSubvectorDim;

// --- Architectural constants ---------------------------------------------------
inline constexpr int kNumPrototypes = 16;  // K = 2^4 leaves
inline constexpr int kTreeLevels = 4;
/// Prototypes per codebook (LUT rows per decoder SRAM): 2^kTreeLevels.
/// Software paths that model the fixed-function hardware (decoder arrays,
/// tile programming, the pshufb kernel lane width) are sized by this
/// constant; configurable-K paths must route through Config::nprototypes()
/// and check against it where they hand off to hardware-shaped code.
inline constexpr int kProtosPerCodebook = 1 << kTreeLevels;
inline constexpr int kLutRows = 16;
inline constexpr int kLutBits = 8;

// --- Local (within-die) variation ------------------------------------------------
// Sigma of per-instance Vth mismatch [V], used by Monte-Carlo runs; the
// paper cites vulnerability of large-Ndec configurations to local
// variation (Sec. IV). AVT/sqrt(WL)-style magnitude for near-minimum
// devices in 22nm bulk.
inline constexpr double kLocalVthSigma = 0.018;

}  // namespace ssma::ppa
