// Report bookkeeping and the frame-loop metrics shared by metro-culled and
// burst-service (and, for the per-layer split, by sweep-csi's items).
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>

#include "perfbench/src/bench.hpp"

namespace perfbench {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void Report::set_digest(std::size_t world, const std::string& text) {
  if (world >= digests.size()) digests.resize(world + 1);
  if (digests[world].empty()) digests[world] = text;
  failures.attempt(digests[world] == text,
                   "SimMetrics digest of world " + std::to_string(world) +
                       " moved between repetitions");
}

int cycles_for(double seconds, double cycle_s) {
  return std::max(1, static_cast<int>(std::lround(seconds / cycle_s)));
}

bool next_cycle(Report& r, int c, int planned, double elapsed_s, double cap_s) {
  if (c >= planned) return false;
  if (c == 0 || elapsed_s / c * (c + 1) <= cap_s) return true;
  r.note("stopped after " + std::to_string(c) + " of " + std::to_string(planned) +
         " cycles: the next would end past " + fmt(cap_s) + " s");
  return false;
}

std::uint64_t world_seed(std::uint64_t seed, int world) {
  if (world == 0) return seed;
  SplitMix mix(seed ^ (0x776F726C64ULL * static_cast<std::uint64_t>(world)));
  return mix.next();
}

void FrameLoop::begin_world(std::size_t world) {
  if (world >= worlds_.size()) worlds_.resize(world + 1);
  current_ = world;
  next_ = 0;
}

void FrameLoop::record(const FrameSample& f) {
  std::vector<FrameSample>& best = worlds_[current_].best;
  if (next_ == best.size()) {
    best.push_back(f);
  } else if (f.frame_s < best[next_].frame_s) {
    best[next_] = f;
  }
  ++next_;
  ++timed_frames;
  timed_s += f.frame_s;
  admission_s += f.admission_s;
  misses += f.frame_s > kFrameBudgetS ? 1 : 0;
}

void FrameLoop::set_counts(std::int64_t decisions, std::int64_t grants) {
  worlds_[current_].decisions = decisions;
  worlds_[current_].grants = grants;
}

std::vector<FrameSample> FrameLoop::best_frames() const {
  std::vector<FrameSample> all;
  for (const World& w : worlds_) all.insert(all.end(), w.best.begin(), w.best.end());
  return all;
}

std::int64_t FrameLoop::decisions() const {
  std::int64_t n = 0;
  for (const World& w : worlds_) n += w.decisions;
  return n;
}

std::int64_t FrameLoop::grants() const {
  std::int64_t n = 0;
  for (const World& w : worlds_) n += w.grants;
  return n;
}

std::vector<double> FrameLoop::block_s() const {
  std::vector<double> blocks;
  for (const World& w : worlds_) {
    for (std::size_t b = 0; b + kBlockFrames <= w.best.size(); b += kBlockFrames) {
      double s = 0.0;
      for (std::size_t i = b; i < b + kBlockFrames; ++i) s += w.best[i].frame_s;
      blocks.push_back(s);
    }
  }
  return blocks;
}

double FrameLoop::frames_per_s() const {
  return static_cast<double>(kBlockFrames) / median(block_s());
}

void add_frame_e2e(Report& r, const FrameLoop& loop, const char* what) {
  std::vector<double> frame_ms;
  double best_sum_s = 0.0;
  for (const FrameSample& f : loop.best_frames()) {
    frame_ms.push_back(f.frame_s * 1e3);
    best_sum_s += f.frame_s;
  }
  double pct = 0.0;
  r.add("setup_s", median(loop.setup_s), "s");
  r.add("frames_per_s", loop.frames_per_s(), "frames/s");
  r.add("frame_p50_ms", median(frame_ms), "ms");
  r.add("frame_p99_ms", tail_percentile(frame_ms, &pct), "ms");
  const double n = static_cast<double>(frame_ms.size());
  r.note(std::string("frame_p99_ms: p") + fmt(pct) + " of " + std::to_string(frame_ms.size()) +
         " distinct " + what + " (best of " +
         fmt(static_cast<double>(loop.timed_frames) / n) + " repetitions each, " +
         std::to_string(loop.setup_s.size()) + " world builds)");
  r.note("deadline_miss_frac = " +
         fmt(static_cast<double>(loop.misses) / static_cast<double>(loop.timed_frames)) +
         " fraction (" + std::to_string(loop.misses) + " of " +
         std::to_string(loop.timed_frames) + " timed " + what + " over 20 ms)");
  const Quartiles q = quartiles(loop.block_s());
  r.note("block time quartiles " + fmt(q.q1 * 1e3) + " / " + fmt(q.q2 * 1e3) + " / " +
         fmt(q.q3 * 1e3) + " ms per " + std::to_string(kBlockFrames) + " " + what);
  r.note("mean-rate frames_per_s = " + fmt(n / best_sum_s) + " frames/s over best times, " +
         fmt(static_cast<double>(loop.timed_frames) / loop.timed_s) +
         " over every repetition (slow solver rounds included)");
}

void add_trace_overhead(Report& r, const std::vector<double>& ratios) {
  r.add("trace.overhead_frac", median(ratios) - 1.0, "fraction");
  r.note("trace.overhead_frac: median traced/untraced time of " +
         std::to_string(ratios.size()) + " frames stepped both ways");
}

void add_frame_layers(Report& r, const std::vector<FrameSample>& frames,
                      std::int64_t decisions, std::int64_t grants) {
  std::vector<double> plain_ms, refresh_ms, adm_us;
  double frame_sum = 0.0, adm_sum = 0.0, sim_ns = 0.0, adm_max = 0.0;
  std::size_t user_frames = 0;
  std::int64_t slow = 0;
  for (const FrameSample& f : frames) {
    const double sim_s = f.frame_s - f.admission_s;
    (f.refresh ? refresh_ms : plain_ms).push_back(sim_s * 1e3);
    adm_us.push_back(f.admission_s * 1e6);
    frame_sum += f.frame_s;
    adm_sum += f.admission_s;
    sim_ns += sim_s * 1e9;
    user_frames += f.users;
    adm_max = std::max(adm_max, f.admission_s);
    slow += f.admission_s > kFrameBudgetS ? 1 : 0;
  }
  const double n = static_cast<double>(std::max<std::size_t>(frames.size(), 1));
  double pct = 0.0;
  r.add("sim.plain_frame_ms.p50", median(plain_ms), "ms");
  r.add("sim.refresh_frame_ms.p50", median(refresh_ms), "ms");
  r.add("sim.ns_per_user_frame", user_frames ? sim_ns / static_cast<double>(user_frames) : 0.0,
        "ns");
  r.add("admission.phase_us.p50", median(adm_us), "us");
  r.add("admission.phase_us.p99", tail_percentile(adm_us, &pct), "us");
  r.note("admission.phase_us.p99: p" + fmt(pct) + " of " + std::to_string(adm_us.size()) +
         " frames (" + std::to_string(plain_ms.size()) + " plain, " +
         std::to_string(refresh_ms.size()) + " candidate-refresh)");
  r.add("admission.phase_ms.max", adm_max * 1e3, "ms");
  r.add("admission.share", frame_sum > 0.0 ? adm_sum / frame_sum : 0.0, "fraction");
  r.add("admission.slow_frames", static_cast<double>(slow), "count");
  r.add("admission.decisions_per_frame", static_cast<double>(decisions) / n, "count");
  r.add("admission.grant_ratio",
        decisions > 0 ? static_cast<double>(grants) / static_cast<double>(decisions) : 0.0,
        "fraction");
}

bool make_dir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

}  // namespace perfbench
