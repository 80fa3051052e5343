// burst-service: a closed-loop burst-request generator driving an
// AdmissionService on a 37-cell culled grid.
#include <algorithm>
#include <memory>
#include <sstream>

#include "perfbench/src/bench.hpp"
#include "src/service/service.hpp"
#include "src/sweep/presets.hpp"

namespace perfbench {

using wcdma::service::AdmissionService;
using wcdma::service::Event;
using wcdma::sim::SystemConfig;

namespace {

constexpr std::int64_t kWarmFrames = 50;  // = warmup_s: the timed frames all count
constexpr std::int64_t kRepFrames = 600;
constexpr int kWorlds = 8;  // distinct worlds a run cycles through
constexpr double kCycleS = 10.0;  // one cycle on the slowest host measured
constexpr double kRequestProb = 0.05;  // per idle data user per frame
constexpr double kMinBytes = 4096.0, kMaxBytes = 32768.0;

SystemConfig burst_config(std::uint64_t seed) {
  SystemConfig cfg = wcdma::sim::default_config();
  cfg.layout.rings = 3;  // 37 cells
  cfg.voice.users = 60;
  cfg.data.users = 600;
  cfg.sim_duration_s = 3600.0;  // ticked frame by frame
  cfg.warmup_s = 1.0;
  cfg.csi.provider = "culled";
  cfg.sim_threads = 1;
  cfg.seed = seed;
  return cfg;
}

/// Loop-wide service figures beyond the frame samples.
struct ServiceLoop {
  FrameLoop frames;
  std::vector<double> submit_us;
  double wall_s = 0.0;  // timed frames including generation and submits
  std::int64_t decisions = 0;  // every repetition
  std::int64_t nacks = 0, sheds = 0;
  std::unique_ptr<AdmissionService> last;
};

/// One repetition of world `world`: built and run through kWarmFrames
/// warm-up frames on construction, then stepped one timed frame at a time
/// into `loop` (one open repetition per loop at a time), kRepFrames times,
/// then finished.  Each frame every idle data user asks for a burst with
/// kRequestProb; the frame's tick is submitted once every request has been
/// answered (closed loop).  A traced repetition records spans and sends the
/// solver calls of its timed frames to `r.opt`; `trace` (when non-null)
/// receives the whole event stream.
class Rep {
 public:
  Rep(std::uint64_t seed, int world, bool traced, ServiceLoop& loop, Report& r,
      wcdma::service::TraceWriter* trace = nullptr)
      : world_(world), traced_(traced), loop_(loop), r_(r), trace_(trace),
        rng_(world_seed(seed, world) ^ 0x62757273745F6765ULL) {
    r_.spans.set_enabled(traced_);
    const int setup_span = r_.spans.begin("service.setup", -1, world);
    const Clock::time_point t0 = Clock::now();
    svc_ = std::make_unique<AdmissionService>(burst_config(world_seed(seed, world)));
    wcdma::sim::Simulator& sim = svc_->simulator();
    sim.enable_decision_timing(true);  // decisions_made() counts only when on
    if (trace_) trace_->begin(wcdma::service::trace_header_for(sim));
    for (std::int64_t f = 0; f < kWarmFrames; ++f) frame(false);
    loop_.frames.setup_s.push_back(seconds_since(t0));
    r_.spans.end(setup_span);
    decisions0_ = sim.decisions_made();
    grants0_ = sim.metrics().grants;
    loop_.frames.begin_world(static_cast<std::size_t>(world));
  }

  /// Runs one timed frame; returns its wall time (requests, submits, tick,
  /// spans and checks).
  double step() {
    r_.spans.set_enabled(traced_);
    if (traced_) open_opt_tap(&r_.opt);
    const double wall_s = frame(true);
    open_opt_tap(nullptr);
    loop_.wall_s += wall_s;
    return wall_s;
  }

  /// Closes the repetition after kRepFrames steps: counts and digest.
  void finish() {
    const wcdma::sim::Simulator& sim = svc_->simulator();
    if (trace_) trace_->finish();
    loop_.decisions += sim.decisions_made() - decisions0_;
    loop_.frames.set_counts(sim.decisions_made() - decisions0_,
                            sim.metrics().grants - grants0_);
    loop_.nacks += svc_->counters().nacks;
    loop_.sheds += svc_->counters().sheds;
    r_.set_digest(static_cast<std::size_t>(world_), render_metrics(sim.metrics()));
    loop_.last = std::move(svc_);
  }

 private:
  double frame(bool timed) {
    AdmissionService& svc = *svc_;
    wcdma::sim::Simulator& sim = svc.simulator();
    const Clock::time_point frame_t0 = Clock::now();
    const int frame_span = timed ? r_.spans.begin("service.frame", -1, svc.frame()) : -1;
    for (std::size_t u = 0; u < sim.num_users(); ++u) {
      if (!sim.user_is_data(u) || sim.user_has_pending(u) || sim.user_burst_active(u) ||
          sim.user_injection_queued(u)) {
        continue;
      }
      if (rng_.uniform() >= kRequestProb) continue;
      const double bits = 8.0 * rng_.uniform(kMinBytes, kMaxBytes);
      const Event e = Event::burst_request(svc.frame(), static_cast<int>(u), bits);
      const int span = r_.spans.begin("service.submit", frame_span, svc.frame());
      const Clock::time_point a = Clock::now();
      const wcdma::service::EventResult res = svc.submit(e);
      if (timed) loop_.submit_us.push_back(seconds_since(a) * 1e6);
      r_.spans.end(span);
      r_.failures.attempt(res.ok(), std::string("burst_request nacked: ") +
                                        wcdma::service::to_string(res.code));
      if (trace_) trace_->event(e);
    }
    const std::uint64_t epoch = sim.csi_candidate_epoch();
    const int span = r_.spans.begin("service.tick", frame_span, svc.frame());
    const Clock::time_point a = Clock::now();
    const wcdma::service::EventResult res = svc.submit(Event::tick());
    const double tick_s = seconds_since(a);
    r_.spans.end(span);
    r_.spans.end(frame_span);
    r_.failures.attempt(res.ok(), "tick nacked");
    if (trace_) trace_->event(Event::tick());
    if (sim.frame_index() % wcdma::sim::Simulator::kInvariantCheckPeriod == 0) {
      std::string why;
      r_.failures.attempt(sim.check_invariants(&why), "check_invariants: " + why);
    }
    if (timed) {
      FrameSample fs;
      fs.frame_s = tick_s;
      fs.admission_s = sim.decision_frame_times_s().back();
      fs.refresh = sim.csi_candidate_epoch() != epoch;
      fs.users = sim.num_users();
      loop_.frames.record(fs);
    }
    return seconds_since(frame_t0);
  }

  int world_;
  bool traced_;
  ServiceLoop& loop_;
  Report& r_;
  wcdma::service::TraceWriter* trace_;
  SplitMix rng_;
  std::unique_ptr<AdmissionService> svc_;
  std::int64_t decisions0_ = 0, grants0_ = 0;
};

/// Runs one whole repetition of world `world`.
void run_rep(std::uint64_t seed, int world, bool traced, ServiceLoop& loop, Report& r,
             wcdma::service::TraceWriter* trace = nullptr) {
  Rep rep(seed, world, traced, loop, r, trace);
  for (std::int64_t f = 0; f < kRepFrames; ++f) rep.step();
  rep.finish();
}

}  // namespace

void run_burst_service(const Options& o, Report& r) {
  const int cycles = cycles_for(o.seconds, kCycleS);
  if (!o.trace) {
    ServiceLoop loop;
    const Clock::time_point loop_t0 = Clock::now();
    for (int c = 0; next_cycle(r, c, cycles, seconds_since(loop_t0), 2 * o.seconds); ++c) {
      for (int w = 0; w < kWorlds; ++w) run_rep(o.seed, w, false, loop, r);
    }
    add_frame_e2e(r, loop.frames, "ticks");
    r.add("peak_rss_mb", peak_rss_mb(false), "MB");
    r.note("decisions_per_s = " + fmt(static_cast<double>(loop.decisions) / loop.wall_s) +
           " decisions/s (" + std::to_string(loop.decisions) + " decisions in " +
           fmt(loop.wall_s) + " s)");
    return;
  }
  // Untraced and traced repetitions in pairs on half the worlds and half
  // the cycles, as on metro-culled.
  ServiceLoop plain, traced;
  std::vector<double> ratios;
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
      traced_rep.finish();
    }
  }
  add_trace_overhead(r, ratios);
  add_frame_layers(r, traced.frames.best_frames(), traced.frames.decisions(),
                   traced.frames.grants());
  add_opt_layer(r, r.opt, traced.frames.admission_s);

  // service/: the live generator's submits, plus a recorded stream of world
  // 0 that replay_trace() must reproduce bit for bit.
  double pct = 0.0;
  r.add("service.submit_us.p50", median(traced.submit_us), "us");
  r.add("service.submit_us.p99", tail_percentile(traced.submit_us, &pct), "us");
  r.note("service.submit_us.p99: p" + fmt(pct) + " of " +
         std::to_string(traced.submit_us.size()) + " requests");
  r.add("service.nacks", static_cast<double>(traced.nacks), "count");
  r.add("service.sheds", static_cast<double>(traced.sheds), "count");
  std::ostringstream stream;
  wcdma::service::TraceWriter writer(stream);
  ServiceLoop recorded;
  run_rep(o.seed, 0, false, recorded, r, &writer);
  r.spans.set_enabled(true);
  std::istringstream in(stream.str());
  const int span = r.spans.begin("service.replay");
  const Clock::time_point t0 = Clock::now();
  const wcdma::service::ReplayResult replay =
      wcdma::service::replay_trace(recorded.last->simulator().config(), in);
  r.add("service.replay_s", seconds_since(t0), "s");
  r.spans.end(span);
  r.failures.attempt(replay.ok, "replay_trace failed: " + replay.error);
  r.failures.attempt(render_metrics(replay.metrics) ==
                         render_metrics(recorded.last->simulator().metrics()),
                     "replay_trace metrics differ from the live run");

  probe_snapshot(r, traced.last->simulator());
  wcdma::sweep::SweepSpec smoke = wcdma::sweep::make_preset("smoke");
  smoke.base.seed = o.seed;
  probe_sweep_runner(r, smoke, o.nproc, o.out_dir);
}

}  // namespace perfbench
