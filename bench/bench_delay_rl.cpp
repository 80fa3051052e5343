// E5 — average packet (burst) delay vs number of data users, REVERSE link.
//
// Same sweep as E4 with all-upload traffic: the admissible region is now the
// interference-limited one of Eq. (16)-(18), including the SCRM
// neighbour-cell projection, and the mobile TX power budget caps the SGR.
// Expected shape: same ordering as E4 (JABA-SD lowest); absolute delays are
// higher than forward-link since reverse rise budgets bind earlier.
//
// Runs on the sweep engine: one (data-users x scheduler) grid, 3 CRN-paired
// replications per scenario, sharded across hardware threads.
#include "bench/bench_util.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;
using namespace wcdma::bench;

int main() {
  const sweep::SweepResult result =
      sweep::run_sweep(scenario::e5_delay_rl(), common::default_thread_count());

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
  t.print("E5: reverse-link burst delay vs data users (7-cell hotspot)");
  return 0;
}
