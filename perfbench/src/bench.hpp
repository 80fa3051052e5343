// Workload entry points and the report they fill.  Each workload runs its
// timed loop untraced (end-to-end metrics) or, with --trace 1, runs each
// repetition untraced and then traced (the tracing overhead) and then
// probes every layer through its public functions (per-layer metrics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/util.hpp"
#include "src/sim/config.hpp"
#include "src/sim/simulator.hpp"
#include "src/sweep/sweep.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // spans, sweep work files
  std::size_t nproc = 1;
};

/// Calls into opt/ seen while a tap is open (see opt_tap.cpp).
struct OptCall {
  double s = 0.0;
  std::int64_t nodes = 0;
  bool node_limit = false;   // B&B stopped at max_nodes
  std::size_t requests = 0;  // columns of the round's program
  bool feasible = true;      // the answer satisfies the program's rows and bounds
};
struct OptTap {
  std::vector<OptCall> solves;  // BranchBoundSolver::solve
  std::vector<OptCall> greedy;  // greedy_increments (rounds above exact_threshold)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (sample counts, the
  /// workload-specific end-to-end figures).
  std::vector<std::string> notes;
  Failures failures;
  /// render_metrics() of each world's deterministic SimMetrics, by world
  /// index; every repetition of a world must reproduce its entry.
  std::vector<std::string> digests;
  SpanRecorder spans{false};
  /// Solver calls of the workload's traced frames.
  OptTap opt;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records world `world`'s digest, failing the run when an earlier
  /// repetition of that world produced a different one.
  void set_digest(std::size_t world, const std::string& text);
};

/// Host time of a frame loop, split the way the sim/admission metrics need.
struct FrameSample {
  double frame_s = 0.0;      // whole step (the tick on the service)
  double admission_s = 0.0;  // decision-timing phase inside it
  bool refresh = false;      // csi_candidate_epoch() moved during the step
  std::size_t users = 0;     // population of the stepped world
};

inline constexpr double kFrameBudgetS = 0.020;  // the 20 ms WCDMA frame
/// Throughput is taken per block of one candidate-refresh period
/// (csi.refresh_interval_s = 0.5 s = 25 frames), so every block holds the
/// same mix of plain and refresh frames.
inline constexpr std::size_t kBlockFrames = 25;
/// Full cycles through its worlds that a frame-loop run of `seconds` makes:
/// `seconds` over `cycle_s`, the cost of one cycle on the slowest host
/// measured, and at least one.  The count depends on the argument alone,
/// never on how fast the code or the host is, so two commits compared on
/// the same --seconds get the same number of repetitions.
int cycles_for(double seconds, double cycle_s);
/// Whether cycle `c` (from 0) of `planned` starts, `elapsed_s` into the
/// loop.  The first always does; a later one only if, at the pace so far,
/// it ends within `cap_s` (twice --seconds), so that worlds with
/// multi-second solver rounds on a slow host cannot push a run past its
/// time limit.  A cut is noted.
bool next_cycle(Report& r, int c, int planned, double elapsed_s, double cap_s);
/// Seed of world `world` of a run: world 0 is --seed itself, the others
/// are hashed from it so neighbouring seeds share no world.
std::uint64_t world_seed(std::uint64_t seed, int world);

/// Timed frames of a frame-loop workload.  A run cycles through the same
/// few worlds several times, and every repetition of a world repeats
/// exactly the same simulated work; for each (world, frame) the loop keeps
/// the fastest repetition, which strips most of what other tenants of the
/// host add, and the frame metrics are taken over those best times.
class FrameLoop {
 public:
  std::vector<double> setup_s;  // one per world build
  std::int64_t timed_frames = 0;  // every repetition
  std::int64_t misses = 0;        // repetitions' frames over kFrameBudgetS
  double timed_s = 0.0;           // every repetition
  double admission_s = 0.0;       // every repetition's admission phases

  /// Starts a repetition of world `world`.
  void begin_world(std::size_t world);
  /// The next timed frame of the current repetition.
  void record(const FrameSample& f);
  /// The current world's decisions and grants over its timed frames
  /// (deterministic, so the same on every repetition).
  void set_counts(std::int64_t decisions, std::int64_t grants);

  /// Best time of every timed frame, world after world.
  std::vector<FrameSample> best_frames() const;
  std::int64_t decisions() const;
  std::int64_t grants() const;
  /// Summed best times of each kBlockFrames-frame block, world by world.
  std::vector<double> block_s() const;
  /// Frames per second of the median block: a multi-second solver round
  /// slows its own block only, and shows in the tail instead.
  double frames_per_s() const;

 private:
  struct World {
    std::vector<FrameSample> best;
    std::int64_t decisions = 0, grants = 0;
  };
  std::vector<World> worlds_;
  std::size_t current_ = 0, next_ = 0;
};

/// setup_s, frames_per_s, frame_p50_ms, frame_p99_ms and the notes that
/// go with them; `what` names the timed step ("frames", "ticks").
void add_frame_e2e(Report& r, const FrameLoop& loop, const char* what);

/// trace.overhead_frac from traced / untraced times of frames stepped both
/// ways: their median - 1.
void add_trace_overhead(Report& r, const std::vector<double>& ratios);

/// sim.* and admission.* per-layer metrics from traced frame samples.
void add_frame_layers(Report& r, const std::vector<FrameSample>& frames,
                      std::int64_t decisions, std::int64_t grants);

/// Opens `tap` (nullptr closes it).  One tap at a time; recording is
/// thread-safe.
void open_opt_tap(OptTap* tap);
/// opt.* per-layer metrics from the solver calls of frames whose admission
/// phases took `admission_s` in all.
void add_opt_layer(Report& r, const OptTap& tap, double admission_s);

/// The layer probes every traced run makes; see probes.cpp.
void probe_snapshot(Report& r, const wcdma::sim::Simulator& sim);
/// Records `frames` frames of a world built from `config` and replays
/// the trace through the service, timing every submit.
void probe_service_replay(Report& r, const wcdma::sim::SystemConfig& config,
                          std::int64_t frames);
/// sweep.* and runner.* metrics on `spec` at `workers` processes/threads.
/// The in-process items are stepped frame by frame; their frames come back
/// for the sim/admission metrics of a workload that has no frame loop.
struct SweepProbe {
  std::vector<FrameSample> frames;
  OptTap opt;  // the stepped items' solver calls
  std::int64_t decisions = 0;
  std::int64_t grants = 0;
};
SweepProbe probe_sweep_runner(Report& r, const wcdma::sweep::SweepSpec& spec,
                              std::size_t workers, const std::string& work_dir);

void run_metro(const Options& o, Report& r);
void run_burst_service(const Options& o, Report& r);
void run_sweep_csi(const Options& o, Report& r);

std::string fmt(double v);
/// mkdir that accepts an existing directory.
bool make_dir(const std::string& path);

}  // namespace perfbench
