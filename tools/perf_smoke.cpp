// Perf smoke: frames/sec of the dynamic simulator across scale points,
// channel-state providers, and intra-frame thread counts, emitted as
// BENCH_frames_per_sec.json so the bench trajectory of the frame loop is
// recorded over time.
//
// Three built-in scale points:
//   * 19 cells / 288 users  -- the PR 3 acceptance grid (culled baseline
//     1825 f/s before the SoA hot-path rework);
//   * 37 cells / 1152 users -- the scale point the O(users x cells)
//     exhaustive path made impractical; run with the culled provider plus
//     one exhaustive reference row so the gap stays on record.
//   * 127 cells / 2304 users -- the far-field scale point (PR 6): candidate
//     sets are radius-bounded and the ring aggregate covers the remaining
//     ~110 cells, so the culling providers' per-user frame cost must stay
//     flat with cell count.  The JSON summary records the per-user cost
//     ratio vs the 19-cell grid (tools/check_perf.py gates culled at
//     <= 1.3x; fast at <= 1.45x, since SIMD compresses its 19-cell cost).
//
// Every registered channel-state provider gets rows at both scales (PR 5
// added "fast", the relaxed-precision culled variant; the JSON summary
// records its fast/culled frames-per-sec ratio at 19 cells, sim.threads=1,
// which the PR 5 acceptance pins at >= 1.5x on the 1-core container).
//
// Each (scale, provider) pair runs at sim.threads = 1 and 4.  Thread counts
// change frames/sec only -- metrics are bit-identical by design (tested in
// tests/test_frame_state.cpp).  On hosts with fewer cores than sim.threads
// the simulator caps its worker pool at the hardware concurrency, so the
// threaded rows degrade to single-thread speed instead of thrashing; the
// JSON records the host's hardware_concurrency for exactly that reason.
//
// Every sim_threads=1 provider row (not the dispatch-forced SIMD rows)
// also records refresh_frame_ms and plain_frame_ms: median frame times
// over the frames that moved the provider's candidate epoch
// (candidate-refresh frames) and over the rest, so the refresh spike is
// visible next to the throughput it taxes.  The exhaustive provider never
// refreshes; its refresh median is null.
//
// Exit status is 0 even when a target is missed (CI smoke, not a gate);
// tools/check_perf.py turns the JSON into a regression gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/common/simd.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/channel_state.hpp"
#include "src/sim/simulator.hpp"

using namespace wcdma;

namespace {

/// Culled frames/sec of the 19-cell / 288-user grid recorded by PR 3's
/// perf_smoke on the same reference host, before the hot-path rework.
constexpr double kPr3CulledBaselineFps = 1825.349;

struct ScalePoint {
  int rings;       // 2 -> 19 cells, 3 -> 37 cells
  int load_scale;  // multiplier over the default 60 voice + 12 data mix
  int frame_divisor;  // timed frames = --frames / divisor (big grids)
};

constexpr ScalePoint kScales[] = {
    {2, 4, 1},   // 19 cells, 288 users
    {3, 16, 4},  // 37 cells, 1152 users
    {6, 32, 8},  // 127 cells, 2304 users (far-field scale point)
};

constexpr int kThreadCounts[] = {1, 4};

void print_usage() {
  std::printf(
      "usage: perf_smoke [options]\n"
      "  --frames N       timed frames per run at the base scale (default: 200)\n"
      "  --best-of N      repetitions per entry; the fastest is recorded\n"
      "                   (default: 1; use >1 on noisy hosts)\n"
      "  --output FILE    write JSON to FILE (default: BENCH_frames_per_sec.json)\n");
}

sim::SystemConfig bench_config(const ScalePoint& scale) {
  sim::SystemConfig cfg = sim::default_config();
  cfg.layout.rings = scale.rings;
  cfg.voice.users = 60 * scale.load_scale;
  cfg.data.users = 12 * scale.load_scale;
  cfg.data.mean_reading_s = 1.5;
  cfg.sim_duration_s = 3600.0;  // driven frame-by-frame; never run() to completion
  cfg.warmup_s = 1.0;
  cfg.seed = 90210;
  return cfg;
}

/// One entry's timing: the best frames/sec over the repetitions, plus the
/// per-frame medians split by whether the frame moved the provider's
/// candidate epoch (a candidate-refresh frame) or not, each the best
/// (lowest) median over the repetitions.  A median with no frames of its
/// kind (the exhaustive provider never refreshes) is NaN.
struct EntryTiming {
  double fps = 0.0;
  double refresh_frame_ms = std::numeric_limits<double>::quiet_NaN();
  double plain_frame_ms = std::numeric_limits<double>::quiet_NaN();
};

double median(std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

/// Keeps the smaller of two medians; NaN (no frames) loses to any number.
double best_median(double best, double candidate) {
  return std::isnan(best) || candidate < best ? candidate : best;
}

EntryTiming time_entry(const sim::SystemConfig& cfg, int frames, int best_of) {
  EntryTiming best;
  std::vector<double> refresh_ms, plain_ms;
  for (int rep = 0; rep < best_of; ++rep) {
    sim::Simulator simulator(cfg);
    // Short untimed warmup so queues and interference reach a working state.
    const int warm = frames / 10 + 1;
    for (int f = 0; f < warm; ++f) simulator.step_frame();
    refresh_ms.clear();
    plain_ms.clear();
    const auto t0 = std::chrono::steady_clock::now();
    auto frame_start = t0;
    for (int f = 0; f < frames; ++f) {
      const std::uint64_t epoch = simulator.csi_candidate_epoch();
      simulator.step_frame();
      const auto frame_end = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(frame_end - frame_start).count();
      (simulator.csi_candidate_epoch() != epoch ? refresh_ms : plain_ms).push_back(ms);
      frame_start = frame_end;
    }
    const double secs = std::chrono::duration<double>(frame_start - t0).count();
    const double fps = secs > 0.0 ? static_cast<double>(frames) / secs : 0.0;
    if (fps > best.fps) best.fps = fps;
    best.refresh_frame_ms = best_median(best.refresh_frame_ms, median(refresh_ms));
    best.plain_frame_ms = best_median(best.plain_frame_ms, median(plain_ms));
  }
  return best;
}

/// A JSON number with three decimals, or null for NaN.
std::string json_ms(double ms) {
  if (std::isnan(ms)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  int frames = 200;
  int best_of = 1;
  std::string output_path = "BENCH_frames_per_sec.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perf_smoke: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--frames") {
      frames = std::atoi(next_value());
      if (frames <= 0) {
        std::fprintf(stderr, "perf_smoke: bad --frames value\n");
        return 2;
      }
    } else if (arg == "--best-of") {
      best_of = std::atoi(next_value());
      if (best_of <= 0) {
        std::fprintf(stderr, "perf_smoke: bad --best-of value\n");
        return 2;
      }
    } else if (arg == "--output") {
      output_path = next_value();
    } else {
      std::fprintf(stderr, "perf_smoke: unknown option %s\n", arg.c_str());
      print_usage();
      return 2;
    }
  }

  const std::vector<std::string> providers = sim::channel_provider_names();
  // The acceptance row: 19-cell culled at sim.threads = 4 (the configuration
  // ISSUE/ROADMAP name), not the best over thread counts.
  double gate_culled_fps = 0.0;
  // The relaxed-precision acceptance ratio: fast vs culled at 19 cells,
  // sim.threads = 1 (the 1-core container configuration the PR 5 target
  // names); tools/check_perf.py can gate on it via --ratio.
  double culled_19_t1_fps = 0.0, fast_19_t1_fps = 0.0;
  // SIMD acceptance ratio (ISSUE 10): the fast provider re-run with the
  // kernel dispatch forced to scalar vs the host's best level, 19 cells,
  // sim.threads = 1.  Gated by check_perf.py --ratio fast-simd:fast-scalar.
  double fast_scalar_19_t1_fps = 0.0, fast_simd_19_t1_fps = 0.0;
  // Far-field scaling record (PR 6): per-user frame cost = 1 / (fps x
  // users); the 127-cell over 19-cell ratio must stay ~flat for the
  // culling providers (tools/check_perf.py --cost-scaling gates it).
  double culled_127_t1_fps = 0.0, fast_127_t1_fps = 0.0;
  int users_19 = 0, users_127 = 0;

  std::string json = "{\n  \"bench\": \"frames_per_sec\",\n  \"schema\": 2,\n";
  json += "  \"frames\": " + std::to_string(frames) + ",\n";
  json += "  \"best_of\": " + std::to_string(best_of) + ",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(common::default_thread_count()) + ",\n";
  json += "  \"scales\": [\n";

  for (std::size_t s = 0; s < std::size(kScales); ++s) {
    const ScalePoint& scale = kScales[s];
    sim::SystemConfig cfg = bench_config(scale);
    const std::size_t cells = cell::hex_cell_count(cfg.layout.rings);
    const int users = cfg.voice.users + cfg.data.users;
    const int timed = std::max(frames / scale.frame_divisor, 20);
    std::fprintf(stderr, "perf_smoke: %zu cells, %d users, %d timed frames\n", cells,
                 users, timed);

    json += "    {\"cells\": " + std::to_string(cells) +
            ", \"users\": " + std::to_string(users) +
            ", \"frames\": " + std::to_string(timed) + ", \"entries\": [\n";

    bool first_entry = true;
    for (const std::string& provider : providers) {
      for (const int threads : kThreadCounts) {
        // Exhaustive is the O(users x cells) reference: one single-thread
        // row per scale is enough to keep the gap on record.
        if (provider == "exhaustive" && threads != 1) continue;
        cfg.csi.provider = provider;
        cfg.sim_threads = threads;
        const EntryTiming timing = time_entry(cfg, timed, best_of);
        const double fps = timing.fps;
        if (cells == 19 && provider == "culled" && threads == 4) {
          gate_culled_fps = fps;
        }
        if (cells == 19 && threads == 1) {
          users_19 = users;
          if (provider == "culled") culled_19_t1_fps = fps;
          if (provider == "fast") fast_19_t1_fps = fps;
        }
        if (cells == 127 && threads == 1) {
          users_127 = users;
          if (provider == "culled") culled_127_t1_fps = fps;
          if (provider == "fast") fast_127_t1_fps = fps;
        }
        std::fprintf(stderr,
                     "perf_smoke:   %-11s sim_threads=%d  %.1f frames/sec  "
                     "refresh %s ms  plain %s ms\n",
                     provider.c_str(), threads, fps,
                     json_ms(timing.refresh_frame_ms).c_str(),
                     json_ms(timing.plain_frame_ms).c_str());
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s      {\"provider\": \"%s\", \"sim_threads\": %d, "
                      "\"fps\": %.3f",
                      first_entry ? "" : ",\n", provider.c_str(), threads, fps);
        json += buf;
        // The layer split rides on the single-thread rows only: with more
        // threads the refresh cost is spread over the shards.
        if (threads == 1) {
          json += ", \"refresh_frame_ms\": " + json_ms(timing.refresh_frame_ms) +
                  ", \"plain_frame_ms\": " + json_ms(timing.plain_frame_ms);
        }
        json += "}";
        first_entry = false;
      }
    }
    if (cells == 19) {
      // Dispatch-forced rows: same fast-provider run with the SIMD kernels
      // pinned to scalar, then to the host's best level.  Trajectories are
      // byte-identical across levels (the kernels contract), so the fps
      // delta is the SIMD win and nothing else.
      cfg.csi.provider = "fast";
      cfg.sim_threads = 1;
      const common::SimdLevel restore = common::active_simd_level();
      struct ForcedRow {
        const char* name;
        common::SimdLevel level;
        double* fps_out;
      } forced[] = {
          {"fast-scalar", common::SimdLevel::kScalar, &fast_scalar_19_t1_fps},
          {"fast-simd", common::max_supported_simd_level(), &fast_simd_19_t1_fps},
      };
      // Interleave the repetitions (scalar, simd, scalar, simd, ...) instead
      // of running each row's best-of block sequentially: shared containers
      // drift in multi-minute windows, and a sequential block can land one
      // row entirely inside a slow window, corrupting the gated ratio.
      // Adjacent runs see the same machine, so the best-of pairs stay
      // comparable; a floor of 3 reps keeps the ratio stable even when the
      // grid rows above run with --best-of 1.
      const int forced_reps = best_of < 3 ? 3 : best_of;
      for (int rep = 0; rep < forced_reps; ++rep) {
        for (const ForcedRow& row : forced) {
          common::set_simd_level(row.level);
          const double fps = time_entry(cfg, timed, 1).fps;
          if (fps > *row.fps_out) *row.fps_out = fps;
        }
      }
      common::set_simd_level(restore);
      for (const ForcedRow& row : forced) {
        std::fprintf(stderr, "perf_smoke:   %-11s sim_threads=1  %.1f frames/sec\n",
                     row.name, *row.fps_out);
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      ",\n      {\"provider\": \"%s\", \"sim_threads\": 1, "
                      "\"fps\": %.3f}",
                      row.name, *row.fps_out);
        json += buf;
      }
    }
    json += "\n    ]}";
    json += s + 1 < std::size(kScales) ? ",\n" : "\n";
  }
  json += "  ],\n";
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  \"baseline_pr3_culled_fps\": %.3f,\n",
                  kPr3CulledBaselineFps);
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"speedup_vs_pr3\": %.3f,\n",
                  gate_culled_fps / kPr3CulledBaselineFps);
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"fast_over_culled_19c_t1\": %.3f,\n",
                  culled_19_t1_fps > 0.0 ? fast_19_t1_fps / culled_19_t1_fps : 0.0);
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"simd_level\": \"%s\",\n",
                  common::simd_level_name(common::max_supported_simd_level()));
    json += buf;
    std::snprintf(buf, sizeof(buf), "  \"simd_over_scalar_fast_19c\": %.3f,\n",
                  fast_scalar_19_t1_fps > 0.0
                      ? fast_simd_19_t1_fps / fast_scalar_19_t1_fps
                      : 0.0);
    json += buf;
    // cost(scale) = 1 / (fps x users); ratio > 1 means the big grid costs
    // more per user-frame than the small one.
    const auto cost_ratio = [&](double fps_big, double fps_small) {
      return fps_big > 0.0 && fps_small > 0.0 && users_19 > 0 && users_127 > 0
                 ? (fps_small * users_19) / (fps_big * users_127)
                 : 0.0;
    };
    std::snprintf(buf, sizeof(buf),
                  "  \"culled_per_user_cost_127c_over_19c\": %.3f,\n",
                  cost_ratio(culled_127_t1_fps, culled_19_t1_fps));
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"fast_per_user_cost_127c_over_19c\": %.3f\n",
                  cost_ratio(fast_127_t1_fps, fast_19_t1_fps));
    json += buf;
  }
  json += "}\n";

  std::FILE* f = std::fopen(output_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perf_smoke: cannot open %s\n", output_path.c_str());
    return 1;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  if (std::fclose(f) != 0 || written != json.size()) {
    std::fprintf(stderr, "perf_smoke: write to %s failed\n", output_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), stdout);
  return 0;
}
