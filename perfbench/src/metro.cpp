// metro-culled: the batch frame loop on perf_smoke's 127-cell scale point.
#include <algorithm>
#include <memory>

#include "perfbench/src/bench.hpp"
#include "src/sweep/presets.hpp"

namespace perfbench {

using wcdma::sim::Simulator;
using wcdma::sim::SystemConfig;

namespace {

constexpr std::int64_t kWarmFrames = 50;  // = warmup_s: the timed frames all count
constexpr std::int64_t kRepFrames = 200;
constexpr int kWorlds = 6;  // distinct worlds a run cycles through
constexpr double kCycleS = 15.0;  // one cycle on the slowest host measured

SystemConfig metro_config(std::uint64_t seed) {
  SystemConfig cfg = wcdma::sim::default_config();
  cfg.layout.rings = 6;  // 127 cells
  cfg.voice.users = 1920;
  cfg.data.users = 384;
  cfg.data.mean_reading_s = 1.5;
  cfg.sim_duration_s = 3600.0;  // stepped frame by frame, never run()
  cfg.warmup_s = 1.0;
  cfg.csi.provider = "culled";
  cfg.sim_threads = 1;
  cfg.seed = seed;
  return cfg;
}

/// One repetition of a world: built and warmed on construction, then
/// stepped one timed frame at a time into `loop` (one open repetition per
/// loop at a time), kRepFrames times, then finished.  A traced repetition
/// records spans, times the admission phase and sends its solver calls to
/// `r.opt`.
class Rep {
 public:
  Rep(std::uint64_t seed, int world, bool traced, FrameLoop& loop, Report& r)
      : world_(world), traced_(traced), loop_(loop), r_(r) {
    r_.spans.set_enabled(traced_);
    const int setup_span = r_.spans.begin("metro.setup", -1, world);
    const Clock::time_point t0 = Clock::now();
    sim_ = std::make_unique<Simulator>(metro_config(world_seed(seed, world)));
    sim_->enable_decision_timing(traced_);
    for (std::int64_t f = 0; f < kWarmFrames; ++f) sim_->step_frame();
    loop_.setup_s.push_back(seconds_since(t0));
    r_.spans.end(setup_span);
    decisions0_ = sim_->decisions_made();
    grants0_ = sim_->metrics().grants;
    loop_.begin_world(static_cast<std::size_t>(world));
  }

  /// Steps one timed frame; returns its wall time, span included.
  double step() {
    Simulator& sim = *sim_;
    r_.spans.set_enabled(traced_);
    if (traced_) open_opt_tap(&r_.opt);
    ++frames_;
    const std::uint64_t epoch = sim.csi_candidate_epoch();
    const Clock::time_point w = Clock::now();
    const int span = r_.spans.begin("sim.frame", -1, sim.frame_index());
    const Clock::time_point a = Clock::now();
    sim.step_frame();
    FrameSample fs;
    fs.frame_s = seconds_since(a);
    r_.spans.end(span);
    const double wall_s = seconds_since(w);
    open_opt_tap(nullptr);
    if (traced_) fs.admission_s = sim.decision_frame_times_s().back();
    fs.refresh = sim.csi_candidate_epoch() != epoch;
    fs.users = sim.num_users();
    loop_.record(fs);
    if (sim.frame_index() % Simulator::kInvariantCheckPeriod == 0) {
      std::string why;
      r_.failures.attempt(sim.check_invariants(&why), "check_invariants: " + why);
    }
    return wall_s;
  }

  /// Closes the repetition after kRepFrames steps: counts and digest.
  std::unique_ptr<Simulator> finish() {
    r_.failures.attempt_many(frames_);
    loop_.set_counts(sim_->decisions_made() - decisions0_, sim_->metrics().grants - grants0_);
    r_.set_digest(static_cast<std::size_t>(world_), render_metrics(sim_->metrics()));
    return std::move(sim_);
  }

 private:
  int world_;
  bool traced_;
  FrameLoop& loop_;
  Report& r_;
  std::unique_ptr<Simulator> sim_;
  std::int64_t decisions0_ = 0, grants0_ = 0;
  std::int64_t frames_ = 0;
};

}  // namespace

void run_metro(const Options& o, Report& r) {
  const int cycles = cycles_for(o.seconds, kCycleS);
  if (!o.trace) {
    FrameLoop loop;
    const Clock::time_point loop_t0 = Clock::now();
    for (int c = 0; next_cycle(r, c, cycles, seconds_since(loop_t0), 2 * o.seconds); ++c) {
      for (int w = 0; w < kWorlds; ++w) {
        Rep rep(o.seed, w, false, loop, r);
        for (std::int64_t f = 0; f < kRepFrames; ++f) rep.step();
        rep.finish();
      }
    }
    add_frame_e2e(r, loop, "frames");
    r.add("peak_rss_mb", peak_rss_mb(false), "MB");
    return;
  }
  // Every repetition of the first half of the worlds, in half the cycles,
  // runs twice, untraced and then traced.  Both step the same frames, so
  // the tracing overhead is the median over every frame of every pair of
  // traced / untraced time.  (Stepping the two copies in lockstep instead
  // was tried: the second of two steps of the same frame runs a few percent
  // faster, far more than the overhead.)
  FrameLoop plain, traced;
  std::vector<double> ratios;
  std::unique_ptr<Simulator> last;
  const Clock::time_point loop_t0 = Clock::now();
  const int traced_cycles = std::max(1, cycles / 2);
  for (int c = 0; next_cycle(r, c, traced_cycles, seconds_since(loop_t0), 2 * o.seconds); ++c) {
    for (int w = 0; w < kWorlds / 2; ++w) {
      std::vector<double> plain_s;
      Rep untraced_rep(o.seed, w, false, plain, r);
      for (std::int64_t f = 0; f < kRepFrames; ++f) plain_s.push_back(untraced_rep.step());
      untraced_rep.finish();
      Rep traced_rep(o.seed, w, true, traced, r);
      for (std::int64_t f = 0; f < kRepFrames; ++f) {
        ratios.push_back(traced_rep.step() / plain_s[static_cast<std::size_t>(f)]);
      }
      last = traced_rep.finish();
    }
  }
  r.spans.set_enabled(true);
  add_trace_overhead(r, ratios);
  add_frame_layers(r, traced.best_frames(), traced.decisions(), traced.grants());
  add_opt_layer(r, r.opt, traced.admission_s);
  probe_snapshot(r, *last);
  probe_service_replay(r, last->config(), 2 * kWarmFrames);
  wcdma::sweep::SweepSpec smoke = wcdma::sweep::make_preset("smoke");
  smoke.base.seed = o.seed;
  probe_sweep_runner(r, smoke, o.nproc, o.out_dir);
}

}  // namespace perfbench
