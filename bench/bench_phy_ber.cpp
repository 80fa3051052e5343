// E2 — the constant-BER property (Section 2.2, footnote 1): realised BER vs
// mean CSI for the adaptive VTAOC against fixed-rate transmission, both in
// closed form and by Monte-Carlo symbol simulation through the full
// feedback-delayed link adapter.
//
// Expected shape: the adaptive closed-form BER stays at/below the target at
// every CSI ("the penalty ... is a lower offered throughput instead of a
// higher error rate"); the fixed aggressive mode violates the target as the
// channel degrades when operated without its threshold gate; feedback delay
// introduces a small violation floor.
#include <cstdio>

#include "src/channel/fading.hpp"
#include "src/common/rng.hpp"
#include "src/common/table.hpp"
#include "src/common/units.hpp"
#include "src/phy/adaptation.hpp"
#include "src/phy/link_adapter.hpp"

using namespace wcdma;

int main() {
  const double pb = 1e-3;
  phy::VtaocParams params;
  params.b1 = 4.0;
  phy::AdaptationPolicy policy(phy::make_vtaoc_modes(params), pb);
  common::Rng rng(2001);

  common::Table t({"meanCSI(dB)", "adaptiveBER", "m4-ungated-BER", "outageP",
                   "violation-rate(d=0)", "violation-rate(d=4)"});
  for (double db = -6.0; db <= 18.0 + 1e-9; db += 3.0) {
    const double eps = common::db_to_linear(db);

    // Ungated fixed mode 4: transmit always, whatever the channel does.
    const auto& m4 = policy.modes().mode(4);
    // E[BER] over Rayleigh: integral a e^{-b g} f(g) dg = a / (1 + b eps).
    const double m4_ber = m4.ber_a / (1.0 + m4.ber_b * eps);

    // Monte-Carlo through the adapter at feedback delays 0 and 4 frames.
    double viol[2] = {0.0, 0.0};
    const int frames = 40000;
    int idx = 0;
    for (const std::size_t delay : {std::size_t{0}, std::size_t{4}}) {
      phy::LinkAdapter adapter(&policy, delay, 0.0, rng.fork(10 + delay));
      channel::Ar1Fading fading(30.0, 0.02, rng.fork(20 + delay));
      int tx = 0, bad = 0;
      for (int f = 0; f < frames; ++f) {
        const double csi = eps * fading.step(0.02);
        const auto out = adapter.on_frame(csi);
        if (out.mode > 0) {
          ++tx;
          bad += out.ber_violation ? 1 : 0;
        }
      }
      viol[idx++] = tx > 0 ? static_cast<double>(bad) / tx : 0.0;
    }

    t.add_numeric_row({db, policy.avg_ber_rayleigh(eps), m4_ber,
                       policy.outage_probability_rayleigh(eps), viol[0], viol[1]});
  }
  t.print("E2: realised BER vs mean CSI (target Pb=1e-3)");
  std::printf("\n# adaptiveBER column must never exceed 1e-3; the ungated fixed mode"
              "\n# blows through the target at low CSI; stale feedback (4 frames)"
              "\n# re-introduces a small violation rate.\n");
  return 0;
}
