// sweep-csi: the csi-providers preset through the supervised multi-process
// runner at min(4, nproc) workers and the default checkpoint cadence.
#include <unistd.h>

#include <algorithm>

#include "perfbench/src/bench.hpp"
#include "src/runner/supervisor.hpp"
#include "src/sweep/presets.hpp"

namespace perfbench {

namespace sweep = wcdma::sweep;
namespace runner = wcdma::runner;

namespace {

// Set-up is timed in repetitions of kBuildsPerRep builds (one 12-world
// build takes only ~9 ms), kSetupRepsPerSweep of them before every sweep,
// so its median spans the whole run rather than its first second.
constexpr int kSetupRepsPerSweep = 3;
constexpr int kBuildsPerRep = 8;
constexpr double kSweepS = 5.0;   // one supervised sweep on the slowest host measured

sweep::SweepSpec csi_spec(std::uint64_t seed) {
  sweep::SweepSpec spec = sweep::make_preset("csi-providers");
  spec.base.seed = seed;
  return spec;
}

/// Set-up of a sweep: expand the grid and build every item's world once,
/// which is what each worker pays before its first frame.  Returns the
/// simulated frames of the whole sweep.
std::int64_t build_worlds(const sweep::SweepSpec& spec) {
  std::int64_t frames = 0;
  for (std::size_t i = 0; i < sweep::item_count(spec); ++i) {
    const wcdma::sim::Simulator sim(sweep::item_config(spec, i));
    frames += sim.total_frames();
  }
  return frames;
}

struct Loop {
  std::vector<double> sweep_s;
  double total_s = 0.0;
};

/// One supervised sweep into `loop`, checked against the run's first one.
void run_one(const sweep::SweepSpec& spec, std::size_t workers, const std::string& work_dir,
             Loop& loop, std::string& first_csv, Report& r) {
  runner::SupervisorOptions opts;
  opts.workers = workers;
  opts.work_dir = work_dir;
  const int span = r.spans.begin("runner.supervised", -1,
                                 static_cast<std::int64_t>(loop.sweep_s.size()));
  const Clock::time_point t0 = Clock::now();
  const runner::SupervisorResult res = runner::run_supervised_sweep(spec, opts);
  const double s = seconds_since(t0);
  r.spans.end(span);
  loop.sweep_s.push_back(s);
  loop.total_s += s;
  const std::size_t items = sweep::item_count(spec);
  r.failures.attempt_many(static_cast<std::int64_t>(items) - 1);
  r.failures.attempt(res.ok, "supervised sweep failed: " + res.error);
  r.failures.attempt(res.retries == 0, "supervised sweep retried a shard");
  r.failures.attempt(res.crashes == 0, "a sweep worker crashed");
  r.failures.attempt(res.timeouts == 0, "a sweep worker timed out");
  if (!res.ok) return;
  std::string digest;
  for (const sweep::ScenarioResult& sc : res.result.scenarios) {
    digest += render_metrics(sc.merged);
  }
  r.set_digest(0, digest);
  const std::string csv = sweep::to_csv(res.result);
  if (first_csv.empty()) first_csv = csv;
  r.failures.attempt(csv == first_csv, "supervised to_csv moved between sweeps");
}

}  // namespace

void run_sweep_csi(const Options& o, Report& r) {
  const sweep::SweepSpec spec = csi_spec(o.seed);
  const std::size_t workers = std::max<std::size_t>(1, std::min<std::size_t>(4, o.nproc));
  const std::string work_dir = o.out_dir + "/sweep-" + std::to_string(::getpid());
  r.failures.attempt(make_dir(work_dir), "cannot create " + work_dir);

  const double items = static_cast<double>(sweep::item_count(spec));
  // A fixed number of sweeps, from --seconds alone (see cycles_for).
  const int sweeps = std::max(2, cycles_for(o.seconds, kSweepS));
  std::string first_csv;

  if (!o.trace) {
    Loop loop;
    std::vector<double> setup_s;
    std::int64_t frames = 0;
    for (int i = 0; i < sweeps; ++i) {
      for (int k = 0; k < kSetupRepsPerSweep; ++k) {
        const Clock::time_point t0 = Clock::now();
        for (int b = 0; b < kBuildsPerRep; ++b) frames = build_worlds(spec);
        setup_s.push_back(seconds_since(t0) / kBuildsPerRep);
      }
      run_one(spec, workers, work_dir, loop, first_csv, r);
    }
    // A frame's host cost as a worker sees it: workers x wall / frames.
    std::vector<double> frame_ms;
    for (double s : loop.sweep_s) {
      frame_ms.push_back(1e3 * s * static_cast<double>(workers) / static_cast<double>(frames));
    }
    const double n = static_cast<double>(loop.sweep_s.size());
    double pct = 0.0;
    r.add("setup_s", median(setup_s), "s");
    r.add("frames_per_s", static_cast<double>(frames) / median(loop.sweep_s), "frames/s");
    r.add("frame_p50_ms", median(frame_ms), "ms");
    r.add("frame_p99_ms", tail_percentile(frame_ms, &pct), "ms");
    r.add("peak_rss_mb", peak_rss_mb(true), "MB");
    r.note("frame_p50_ms/frame_p99_ms: worker-ms per simulated frame, p" + fmt(pct) +
           " of " + std::to_string(loop.sweep_s.size()) + " sweeps of " +
           std::to_string(frames) + " frames");
    r.note("items_per_s = " + fmt(n * items / loop.total_s) + " items/s (" +
           std::to_string(loop.sweep_s.size()) + " sweeps x " + fmt(items) + " items, " +
           std::to_string(workers) + " workers)");
    std::string each;
    for (double s : loop.sweep_s) each += " " + fmt(s);
    r.note("sweep wall times, s:" + each);
  } else {
    // Untraced and traced sweeps in pairs; the overhead is their median.
    Loop plain, traced;
    std::vector<double> overhead;
    for (int i = 0; i < sweeps / 2; ++i) {
      r.spans.set_enabled(false);
      run_one(spec, workers, work_dir, plain, first_csv, r);
      r.spans.set_enabled(true);
      run_one(spec, workers, work_dir, traced, first_csv, r);
      overhead.push_back(traced.sweep_s.back() / plain.sweep_s.back() - 1.0);
    }
    r.add("trace.overhead_frac", median(overhead), "fraction");
    r.note("trace.overhead_frac: median of " + std::to_string(overhead.size()) +
           " untraced/traced pairs");
    const SweepProbe probe = probe_sweep_runner(r, spec, workers, work_dir);
    add_frame_layers(r, probe.frames, probe.decisions, probe.grants);
    double admission_s = 0.0;
    for (const FrameSample& f : probe.frames) admission_s += f.admission_s;
    add_opt_layer(r, probe.opt, admission_s);
    // The snapshot a checkpointing worker writes: item 0 half-way through.
    wcdma::sim::Simulator sim(sweep::item_config(spec, 0));
    for (std::int64_t f = 0; f < sim.total_frames() / 2; ++f) sim.step_frame();
    probe_snapshot(r, sim);
    probe_service_replay(r, sweep::item_config(spec, 0), 500);
  }
  ::rmdir(work_dir.c_str());
}

}  // namespace perfbench
