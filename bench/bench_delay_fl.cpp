// E4 — average packet (burst) delay vs number of data users, FORWARD link,
// JABA-SD against the baselines (the paper's headline comparison; §1 claims
// superior average packet delay for JABA-SD).
//
// Hotspot scenario so that concurrent requests contend for the same cell
// power budget.  Expected shape: all curves grow with load; JABA-SD sits
// lowest, its greedy engine tracks it closely, FCFS trails, single-burst
// FCFS and equal-share saturate earliest.
//
// Runs on the sweep engine: one (scheduler x data-users) grid, 3
// replications per scenario, sharded across hardware threads.
#include "bench/bench_util.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;
using namespace wcdma::bench;

int main() {
  const sweep::SweepResult result =
      sweep::run_sweep(scenario::e4_delay_fl(), common::default_thread_count());

  common::Table t({"data-users", "policy", "mean-delay(s)", "p95-delay(s)",
                   "throughput(kbps)", "grant-rate", "mean-SGR"});
  for (const sweep::ScenarioResult& s : result.scenarios) {
    const Row r = metrics_to_row(s.merged);
    t.add_row({s.labels[0], s.labels[1], common::format_double(r.mean_delay_s, 4),
               common::format_double(r.p95_delay_s, 4),
               common::format_double(r.throughput_kbps, 4),
               common::format_double(r.grant_rate, 3),
               common::format_double(r.mean_sgr, 3)});
  }
  t.print("E4: forward-link burst delay vs data users (7-cell hotspot)");
  return 0;
}
