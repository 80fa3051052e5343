// Layer probes of the traced run: each one times calls into a single
// module's public functions, from outside the module.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "perfbench/src/bench.hpp"
#include "src/runner/shard_io.hpp"
#include "src/runner/supervisor.hpp"
#include "src/runner/worker.hpp"
#include "src/service/service.hpp"

namespace perfbench {

using wcdma::sim::Simulator;

namespace {

constexpr int kSnapshotReps = 3;

double ms(double s) { return s * 1e3; }
double us(double s) { return s * 1e6; }

}  // namespace

void probe_snapshot(Report& r, const Simulator& live) {
  // restore() goes into a fresh world built from the same config, so the
  // caller's world stays untouched.
  std::vector<double> snap_ms, restore_ms;
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < kSnapshotReps; ++i) {
    const int span = r.spans.begin("sim.snapshot");
    const Clock::time_point t0 = Clock::now();
    std::vector<std::uint8_t> b = live.snapshot();
    snap_ms.push_back(ms(seconds_since(t0)));
    r.spans.end(span);
    r.failures.attempt(bytes.empty() || b == bytes, "snapshot() not byte-stable");
    bytes = std::move(b);
  }
  Simulator copy(live.config());
  for (int i = 0; i < kSnapshotReps; ++i) {
    const int span = r.spans.begin("sim.restore");
    const Clock::time_point t0 = Clock::now();
    const bool ok = copy.restore(bytes);
    restore_ms.push_back(ms(seconds_since(t0)));
    r.spans.end(span);
    r.failures.attempt(ok, "restore() refused its own snapshot");
  }
  r.failures.attempt(copy.snapshot() == bytes, "restore() did not reproduce the snapshot");
  r.add("sim.snapshot_ms", median(snap_ms), "ms");
  r.add("sim.snapshot_bytes", static_cast<double>(bytes.size()), "bytes");
  r.add("sim.restore_ms", median(restore_ms), "ms");
}

void add_opt_layer(Report& r, const OptTap& tap, double admission_s) {
  std::vector<double> solve_us, nodes, requests;
  double solve_s = 0.0, total_nodes = 0.0, greedy_s = 0.0;
  std::size_t limit_hits = 0, greedy_max = 0;
  for (const OptCall& c : tap.solves) {
    r.failures.attempt(c.feasible, "B&B returned an inadmissible allocation");
    solve_us.push_back(us(c.s));
    nodes.push_back(static_cast<double>(c.nodes));
    requests.push_back(static_cast<double>(c.requests));
    solve_s += c.s;
    total_nodes += static_cast<double>(c.nodes);
    limit_hits += c.node_limit ? 1 : 0;
  }
  for (const OptCall& c : tap.greedy) {
    r.failures.attempt(c.feasible, "greedy returned an inadmissible allocation");
    greedy_s += c.s;
    greedy_max = std::max(greedy_max, c.requests);
  }
  const double n = static_cast<double>(std::max<std::size_t>(tap.solves.size(), 1));
  double pct = 0.0;
  r.add("opt.solve_us.p50", median(solve_us), "us");
  r.add("opt.solve_us.p99", tail_percentile(solve_us, &pct), "us");
  r.note("opt.solve_us.p99: p" + fmt(pct) + " of " + std::to_string(solve_us.size()) +
         " B&B solves");
  r.add("opt.nodes.p50", median(nodes), "count");
  r.add("opt.node_limit_frac", static_cast<double>(limit_hits) / n, "fraction");
  r.add("opt.us_per_node", total_nodes > 0.0 ? us(solve_s) / total_nodes : 0.0, "us");
  r.note("opt: " + std::to_string(tap.solves.size()) + " B&B rounds (requests p50 " +
         fmt(median(requests)) + ", max " + fmt(nearest_rank(requests, 1.0)) + "; " +
         std::to_string(limit_hits) + " at the node limit) and " +
         std::to_string(tap.greedy.size()) + " greedy rounds above exact_threshold (max " +
         std::to_string(greedy_max) + " requests); solver calls " + fmt(solve_s + greedy_s) +
         " s of " + fmt(admission_s) + " s of admission phase");
}

void probe_service_replay(Report& r, const wcdma::sim::SystemConfig& config,
                          std::int64_t frames) {
  using namespace wcdma::service;
  // Record a live internal-traffic run, then push the trace back through a
  // service by hand (timing each submit) and through replay_trace().
  std::ostringstream trace;
  wcdma::sim::SimMetrics live;
  {
    Simulator sim(config);
    TraceRecorder recorder(sim, trace);
    recorder.run_frames(frames);
    recorder.finish();
    live = sim.metrics();
  }
  std::vector<double> submit_us;
  {
    std::istringstream in(trace.str());
    TraceReader reader(in);
    TraceHeader header;
    r.failures.attempt(reader.read_header(&header), "recorded trace has no header");
    AdmissionService service(config);
    TraceRecord rec;
    while (reader.next(&rec)) {
      if (rec.ticks > 0) {
        for (std::int64_t i = 0; i < rec.ticks; ++i) service.submit(Event::tick());
        continue;
      }
      const int span = r.spans.begin("service.submit", -1, rec.event.frame);
      const Clock::time_point t0 = Clock::now();
      const EventResult res = service.submit(rec.event);
      submit_us.push_back(us(seconds_since(t0)));
      r.spans.end(span);
      r.failures.attempt(res.ok(), std::string("replayed request nacked: ") + to_string(res.code));
    }
    r.failures.attempt(reader.ok(), "trace parse error: " + reader.error());
    r.add("service.nacks", static_cast<double>(service.counters().nacks), "count");
    r.add("service.sheds", static_cast<double>(service.counters().sheds), "count");
  }
  std::istringstream in(trace.str());
  const int span = r.spans.begin("service.replay");
  const Clock::time_point t0 = Clock::now();
  const ReplayResult replay = replay_trace(config, in);
  const double replay_s = seconds_since(t0);
  r.spans.end(span);
  r.failures.attempt(replay.ok, "replay_trace failed: " + replay.error);
  r.failures.attempt(render_metrics(replay.metrics) == render_metrics(live),
                     "replay_trace metrics differ from the recorded run");
  double pct = 0.0;
  r.add("service.submit_us.p50", median(submit_us), "us");
  r.add("service.submit_us.p99", tail_percentile(submit_us, &pct), "us");
  r.note("service.submit_us: p" + fmt(pct) + " of " + std::to_string(submit_us.size()) +
         " replayed requests over " + std::to_string(frames) + " frames");
  r.add("service.replay_s", replay_s, "s");
}

SweepProbe probe_sweep_runner(Report& r, const wcdma::sweep::SweepSpec& spec,
                              std::size_t workers, const std::string& work_dir) {
  namespace sweep = wcdma::sweep;
  namespace runner = wcdma::runner;
  SweepProbe out;
  const std::size_t items = sweep::item_count(spec);
  workers = std::max<std::size_t>(1, std::min(workers, items));

  // sweep/: every item in process, stepped frame by frame (run() is exactly
  // total_frames() step_frame() calls) so the frames also feed sim/admission.
  std::vector<double> item_s(items, 0.0);
  std::vector<wcdma::sim::SimMetrics> per_item(items);
  open_opt_tap(&out.opt);
  for (std::size_t i = 0; i < items; ++i) {
    const int span = r.spans.begin("sweep.item", -1, static_cast<std::int64_t>(i));
    const Clock::time_point t0 = Clock::now();
    Simulator sim(sweep::item_config(spec, i));
    sim.enable_decision_timing(true);
    const std::int64_t grants0 = sim.metrics().grants;
    for (std::int64_t f = 0; f < sim.total_frames(); ++f) {
      const std::uint64_t epoch = sim.csi_candidate_epoch();
      const Clock::time_point a = Clock::now();
      sim.step_frame();
      FrameSample fs;
      fs.frame_s = seconds_since(a);
      fs.admission_s = sim.decision_frame_times_s().back();
      fs.refresh = sim.csi_candidate_epoch() != epoch;
      fs.users = sim.num_users();
      out.frames.push_back(fs);
    }
    item_s[i] = seconds_since(t0);
    r.spans.end(span);
    out.decisions += sim.decisions_made();
    out.grants += sim.metrics().grants - grants0;
    per_item[i] = sim.metrics();
  }
  open_opt_tap(nullptr);
  const std::string inline_csv = sweep::to_csv(sweep::merge_item_metrics(spec, per_item));

  // runner/: each shard's worker body, one after another, with the default
  // checkpoint cadence; its items' in-process time is the no-checkpoint base.
  std::vector<double> shard_s;
  double ck_sum = 0.0, base_sum = 0.0;
  for (std::size_t s = 0; s < workers; ++s) {
    runner::WorkerJob job;
    job.spec = spec;
    job.shard = s;
    job.workers = workers;
    job.result_path = work_dir + "/probe-shard" + std::to_string(s) + ".result";
    job.checkpoint_path = work_dir + "/probe-shard" + std::to_string(s) + ".ckpt";
    job.checkpoint_every_frames = 256;
    const int span = r.spans.begin("runner.worker", -1, static_cast<std::int64_t>(s));
    const Clock::time_point t0 = Clock::now();
    const int code = runner::run_worker(job);
    shard_s.push_back(seconds_since(t0));
    r.spans.end(span);
    r.failures.attempt(code == runner::kWorkerOk, "run_worker exit code " + std::to_string(code));
    std::remove(job.result_path.c_str());
    std::remove(job.checkpoint_path.c_str());
    const runner::ShardRange range = runner::shard_range(items, s, workers);
    double base = 0.0;
    for (std::size_t i = range.begin; i < range.end; ++i) base += item_s[i];
    ck_sum += shard_s.back();
    base_sum += base;
  }

  // Supervised run against the in-process runner at the same thread count.
  runner::SupervisorOptions opts;
  opts.workers = workers;
  opts.work_dir = work_dir;
  int span = r.spans.begin("runner.supervised");
  Clock::time_point t0 = Clock::now();
  const runner::SupervisorResult sup = runner::run_supervised_sweep(spec, opts);
  const double sup_s = seconds_since(t0);
  r.spans.end(span);
  span = r.spans.begin("sweep.run_sweep");
  t0 = Clock::now();
  const sweep::SweepResult inproc = sweep::run_sweep(spec, workers);
  const double inproc_s = seconds_since(t0);
  r.spans.end(span);
  r.failures.attempt(sup.ok, "supervised sweep failed: " + sup.error);
  const std::string sup_csv = sup.ok ? sweep::to_csv(sup.result) : std::string();
  r.failures.attempt(sup_csv == sweep::to_csv(inproc),
                     "supervised to_csv differs from run_sweep");
  r.failures.attempt(inline_csv == sweep::to_csv(inproc),
                     "stepped items differ from run_sweep");
  r.failures.attempt(sup.retries + sup.crashes + sup.timeouts == 0,
                     "supervised sweep retried, crashed or timed out");

  const double mean_shard = std::accumulate(shard_s.begin(), shard_s.end(), 0.0) /
                            static_cast<double>(shard_s.size());
  r.add("sweep.item_s.p50", median(item_s), "s");
  r.add("sweep.item_s.max", *std::max_element(item_s.begin(), item_s.end()), "s");
  r.add("runner.shard_s.max", *std::max_element(shard_s.begin(), shard_s.end()), "s");
  r.add("runner.shard_imbalance",
        *std::max_element(shard_s.begin(), shard_s.end()) / mean_shard, "ratio");
  r.add("runner.checkpoint_overhead_frac", base_sum > 0.0 ? ck_sum / base_sum - 1.0 : 0.0,
        "fraction");
  r.add("runner.overhead_frac", inproc_s > 0.0 ? sup_s / inproc_s - 1.0 : 0.0, "fraction");
  r.add("runner.retries", sup.retries, "count");
  r.add("runner.crashes", sup.crashes, "count");
  r.add("runner.timeouts", sup.timeouts, "count");
  r.note("sweep probe: preset " + spec.name + ", " + std::to_string(items) + " items, " +
         std::to_string(workers) + " workers; supervised " + fmt(sup_s) +
         " s vs run_sweep " + fmt(inproc_s) + " s");
  return out;
}
}  // namespace perfbench
