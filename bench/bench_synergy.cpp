// E8 — the synergy claim (§1: "synergy could be attained by interactions
// between the adaptive physical layer and the burst admission layer"):
// a 2x2 ablation of {adaptive VTAOC, fixed-rate PHY} x {JABA-SD, FCFS-single}.
//
// Expected shape: each ingredient helps on its own, but the combination
// (adaptive PHY + optimising scheduler) gains more than the sum of the
// individual improvements, because the scheduler's objective actually sees
// the per-user channel state through delta-beta.
//
// Runs on the sweep engine; CRN seeding means all four cells of the 2x2 see
// the same user drop, so the synergy arithmetic is a paired comparison.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;
using namespace wcdma::bench;

int main() {
  const sweep::SweepResult result =
      sweep::run_sweep(scenario::e8_synergy(), common::default_thread_count());

  common::Table t({"PHY", "policy", "mean-delay(s)", "p95-delay(s)",
                   "throughput(kbps)", "mean-SGR"});
  for (const sweep::ScenarioResult& s : result.scenarios) {
    const Row r = metrics_to_row(s.merged);
    t.add_row({s.labels[0], s.labels[1], common::format_double(r.mean_delay_s, 4),
               common::format_double(r.p95_delay_s, 4),
               common::format_double(r.throughput_kbps, 4),
               common::format_double(r.mean_sgr, 3)});
  }
  t.print("E8: synergy 2x2 - PHY adaptivity x scheduler (20 data users)");

  // Axis 0 is the PHY (0 = adaptive, 1 = fixed-m3); axis 1 the scheduler
  // (0 = JABA-SD, 1 = FCFS-single).
  auto delay = [&result](std::size_t phy, std::size_t sched) {
    return result.at({phy, sched}).merged.mean_delay_s();
  };
  const double gain_phy = delay(1, 1) - delay(0, 1);    // PHY alone (under FCFS)
  const double gain_sched = delay(1, 1) - delay(1, 0);  // scheduler alone (fixed PHY)
  const double gain_joint = delay(1, 1) - delay(0, 0);  // both
  std::printf("\n# delay reduction vs (fixed, FCFS-single): PHY alone %.3f s,"
              " scheduler alone %.3f s, jointly %.3f s (synergy when joint >"
              " sum of parts: %+0.3f s)\n",
              gain_phy, gain_sched, gain_joint, gain_joint - gain_phy - gain_sched);
  return 0;
}
