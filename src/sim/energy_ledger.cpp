#include "sim/energy_ledger.hpp"

#include <sstream>

#include "util/check.hpp"

namespace ssma::sim {

const char* energy_cat_name(EnergyCat c) {
  switch (c) {
    case EnergyCat::kEncoderDlc: return "encoder.dlc";
    case EnergyCat::kEncoderBuffer: return "encoder.buffer";
    case EnergyCat::kSramRead: return "decoder.sram";
    case EnergyCat::kCsa: return "decoder.csa";
    case EnergyCat::kLatch: return "decoder.latch";
    case EnergyCat::kRcd: return "decoder.rcd";
    case EnergyCat::kControl: return "control";
    case EnergyCat::kOutputStage: return "output";
    case EnergyCat::kWrite: return "write";
    case EnergyCat::kLeakageDecoder: return "decoder.leakage";
    case EnergyCat::kLeakage: return "leakage";
    case EnergyCat::kCount: break;
  }
  return "?";
}

void EnergyLedger::charge(EnergyCat cat, double fj) {
  SSMA_CHECK(cat != EnergyCat::kCount);
  SSMA_CHECK_MSG(fj >= 0.0, "negative energy charge");
  fj_[static_cast<std::size_t>(cat)] += fj;
}

EnergyLedger EnergyLedger::delta(const EnergyLedger& after,
                                 const EnergyLedger& before) {
  EnergyLedger d;
  for (std::size_t i = 0; i < d.fj_.size(); ++i) {
    d.fj_[i] = after.fj_[i] - before.fj_[i];
    SSMA_CHECK_MSG(d.fj_[i] >= -1e-9, "ledger went backwards");
  }
  return d;
}

double EnergyLedger::total_fj() const {
  double t = 0.0;
  for (double v : fj_) t += v;
  return t;
}

double EnergyLedger::fj(EnergyCat cat) const {
  SSMA_CHECK(cat != EnergyCat::kCount);
  return fj_[static_cast<std::size_t>(cat)];
}

double EnergyLedger::decoder_fj() const {
  return fj(EnergyCat::kSramRead) + fj(EnergyCat::kCsa) +
         fj(EnergyCat::kLatch) + fj(EnergyCat::kRcd) +
         fj(EnergyCat::kLeakageDecoder);
}

double EnergyLedger::encoder_fj() const {
  return fj(EnergyCat::kEncoderDlc) + fj(EnergyCat::kEncoderBuffer);
}

double EnergyLedger::other_fj() const {
  return fj(EnergyCat::kControl) + fj(EnergyCat::kOutputStage) +
         fj(EnergyCat::kWrite) + fj(EnergyCat::kLeakage);
}

std::string EnergyLedger::summary() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < fj_.size(); ++i) {
    oss << energy_cat_name(static_cast<EnergyCat>(i)) << ": " << fj_[i]
        << " fJ\n";
  }
  oss << "total: " << total_fj() << " fJ\n";
  return oss.str();
}

}  // namespace ssma::sim
