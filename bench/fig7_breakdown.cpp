// Reproduces Fig. 7: (A) energy, (B) latency, (C) area breakdown of the
// macro at 0.5 V for Ndec = 4 and 16 (paper: NS=32). Energy shares are
// measured with the event-driven simulator on random data; latency/area
// come from the calibrated component models.
#include <algorithm>
#include <cstdio>

#include "core/experiments.hpp"
#include "util/table.hpp"

int main() {
  using namespace ssma;

  std::printf(
      "== Fig. 7: energy / latency / area breakdown (0.5 V, TTG) ==\n\n");

  const core::Fig7Breakdown b4 = core::run_fig7_breakdown(4);
  const core::Fig7Breakdown b16 = core::run_fig7_breakdown(16);

  std::printf("(A) Energy breakdown (event-simulated, random data)\n");
  TextTable ta({"component", "Ndec=4", "Ndec=16", "paper (4 / 16)"});
  ta.add_row({"decoder (SRAM+CSA+latch+RCD)",
              TextTable::pct(b4.energy_decoder_share),
              TextTable::pct(b16.energy_decoder_share), "94.2% / 97.7%"});
  ta.add_row({"encoder (DLC+buffer)",
              TextTable::pct(b4.energy_encoder_share, 2),
              TextTable::pct(b16.energy_encoder_share, 2), "~3.6% / ~0.9%"});
  ta.add_row({"other (ctrl+output+leak)",
              TextTable::pct(b4.energy_other_share),
              TextTable::pct(b16.energy_other_share), "remainder"});
  std::printf("%s\n", ta.render().c_str());

  std::printf("(B) Latency per compute block [ns]\n");
  TextTable tb({"case", "Ndec=4", "Ndec=16", "paper (4 / 16)"});
  tb.add_row({"best", TextTable::num(b4.latency_best_ns, 1),
              TextTable::num(b16.latency_best_ns, 1), "16.1 / 17.8"});
  tb.add_row({"worst", TextTable::num(b4.latency_worst_ns, 1),
              TextTable::num(b16.latency_worst_ns, 1), "30.4 / 32.1"});
  tb.add_row({"encoder share (best)",
              TextTable::pct(b4.encoder_latency_share_best),
              TextTable::pct(b16.encoder_latency_share_best),
              "45.8% / 41.5%"});
  tb.add_row({"encoder share (worst)",
              TextTable::pct(b4.encoder_latency_share_worst),
              TextTable::pct(b16.encoder_latency_share_worst),
              "71.3% / 67.5%"});
  std::printf("%s\n", tb.render().c_str());

  std::printf("(C) Area breakdown (NS=32)\n");
  TextTable tc({"component", "Ndec=4", "Ndec=16", "paper (4 / 16)"});
  tc.add_row({"decoder", TextTable::pct(b4.area_decoder_share),
              TextTable::pct(b16.area_decoder_share), "56.9% / 82.9%"});
  tc.add_row({"encoder", TextTable::pct(b4.area_encoder_share),
              TextTable::pct(b16.area_encoder_share), "-"});
  tc.add_row({"other", TextTable::pct(b4.area_other_share),
              TextTable::pct(b16.area_other_share), "-"});
  std::printf("%s\n", tc.render().c_str());

  // Stated from the computed shares, so it cannot disagree with the
  // rows above.
  const double enc_lat_lo = std::min(b4.encoder_latency_share_best,
                                     b16.encoder_latency_share_best);
  const double enc_lat_hi = std::max(b4.encoder_latency_share_worst,
                                     b16.encoder_latency_share_worst);
  std::printf(
      "Measured trends: the decoder takes %s (Ndec=4) and %s (Ndec=16) of\n"
      "the energy, so its share %s with Ndec; the encoder takes %s-%s of\n"
      "a block's latency; the decoder's area share goes from %s to %s.\n",
      TextTable::pct(b4.energy_decoder_share).c_str(),
      TextTable::pct(b16.energy_decoder_share).c_str(),
      b16.energy_decoder_share > b4.energy_decoder_share ? "grows"
                                                         : "does not grow",
      TextTable::pct(enc_lat_lo).c_str(), TextTable::pct(enc_lat_hi).c_str(),
      TextTable::pct(b4.area_decoder_share).c_str(),
      TextTable::pct(b16.area_decoder_share).c_str());
  return 0;
}
