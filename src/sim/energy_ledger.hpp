// Per-category energy accounting. Every simulated event charges its
// dynamic energy here; leakage is integrated over simulated time at the
// end of a run. The categories mirror the paper's Fig. 7 breakdown.
#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace ssma::sim {

enum class EnergyCat : std::size_t {
  kEncoderDlc,     // DLC precharge + evaluation
  kEncoderBuffer,  // input buffers
  kSramRead,       // RBL/RBLB discharge + precharge
  kCsa,            // carry-save adders
  kLatch,          // output latches + pulse gens
  kRcd,            // column / LUT / block completion detection
  kControl,        // handshake controllers, RWL drivers
  kOutputStage,    // RCAs + output register
  kWrite,          // LUT/threshold programming
  kLeakageDecoder, // leakage of the SRAM/CSA arrays (area-dominant)
  kLeakage,        // leakage of everything else
  kCount
};

const char* energy_cat_name(EnergyCat c);

class EnergyLedger {
 public:
  void charge(EnergyCat cat, double fj);

  /// Per-category difference (after - before); used to isolate the energy
  /// of one run from a cumulative context ledger.
  static EnergyLedger delta(const EnergyLedger& after,
                            const EnergyLedger& before);

  double total_fj() const;
  double fj(EnergyCat cat) const;

  /// Paper-style groups (Fig. 7A): decoder = SRAM + CSA + latch + RCD +
  /// decoder leakage; encoder = DLC + buffer; other = the rest.
  double decoder_fj() const;
  double encoder_fj() const;
  double other_fj() const;

  std::string summary() const;

 private:
  std::array<double, static_cast<std::size_t>(EnergyCat::kCount)> fj_{};
};

}  // namespace ssma::sim
