// Tests for the SoA hot-path rework: deterministic intra-frame parallelism
// (sim.threads bit-identity), the lazy-fading replay equivalence against an
// eagerly-stepped channel::Ar1Fading on the same stream, the indexed
// per-(direction, carrier) request queues against the O(users) scan, and the
// culling providers' incremental candidate sets against a brute-force scan.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/cell/geometry.hpp"
#include "src/channel/fading.hpp"
#include "src/common/rng.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/channel_state.hpp"
#include "src/sim/frame_state.hpp"
#include "src/sim/request_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/sweep/sweep.hpp"

namespace wcdma {
namespace {

sim::SystemConfig small_config() {
  sim::SystemConfig cfg = sim::default_config();
  cfg.voice.users = 24;
  cfg.data.users = 10;
  cfg.sim_duration_s = 8.0;
  cfg.warmup_s = 2.0;
  cfg.data.mean_reading_s = 1.0;
  cfg.seed = 777;
  return cfg;
}

// --- sim.threads bit-identity ---------------------------------------------

/// Runs `cfg` once per sim.threads value; every run must be bit-identical
/// to the single-threaded one.
void expect_thread_count_invariant(sim::SystemConfig cfg,
                                   std::initializer_list<int> threads) {
  cfg.sim_threads = 1;
  const sim::SimMetrics t1 = sim::Simulator(cfg).run();
  for (const int t : threads) {
    SCOPED_TRACE("sim_threads " + std::to_string(t));
    cfg.sim_threads = t;
    EXPECT_EQ(sim::SimMetrics::first_difference(t1, sim::Simulator(cfg).run()), "");
  }
}

TEST(SimThreads, OneVsFourThreadsBitIdentical) {
  expect_thread_count_invariant(small_config(), {4});
}

TEST(SimThreads, CulledProviderBitIdenticalAcrossThreadCounts) {
  sim::SystemConfig cfg = small_config();
  cfg.csi.provider = "culled";
  expect_thread_count_invariant(cfg, {3, 0});  // 0: hardware concurrency
}

TEST(SimThreads, FastProviderBitIdenticalAcrossThreadCounts) {
  // The relaxed-precision provider is NOT bit-identical to the reference,
  // but it must still be bit-identical to ITSELF for every sim.threads
  // value: the sharded loops carry no cross-shard state (per-user batch
  // streams, stack-local lanes), and perf_smoke publishes fast rows at
  // sim_threads = 4 on that basis.
  sim::SystemConfig cfg = small_config();
  cfg.csi.provider = "fast";
  expect_thread_count_invariant(cfg, {4});
}

TEST(SimThreads, MultiCarrierScenarioBitIdentical) {
  scenario::ScenarioLayout layout = scenario::enterprise_data();
  layout.sim_duration_s = 8.0;
  layout.warmup_s = 2.0;
  const sim::SystemConfig cfg = layout.to_config();
  ASSERT_EQ(cfg.placement.carriers, 2);
  expect_thread_count_invariant(cfg, {4});
}

TEST(SimThreads, ResolvesHardwareConcurrencyForZero) {
  sim::SystemConfig cfg = small_config();
  cfg.sim_duration_s = 1.0;
  cfg.warmup_s = 0.5;
  cfg.sim_threads = 0;
  const sim::Simulator simulator(cfg);
  EXPECT_GE(simulator.sim_threads(), 1u);
  cfg.sim_threads = 5;
  const sim::Simulator pinned(cfg);
  EXPECT_EQ(pinned.sim_threads(), 5u);
}

// --- Lazy fading replay ----------------------------------------------------

TEST(FrameStateFading, LazyReplayMatchesEagerAr1OnTheSameStream) {
  const cell::HexLayout layout(cell::HexLayoutConfig{});
  const channel::PathLoss path_loss{channel::PathLossConfig{}};
  const channel::ShadowingConfig shadowing{};
  const double frame_s = 0.020;
  const double doppler = 24.0;

  sim::FrameState state;
  state.init(&layout, &path_loss, shadowing, channel::FadingKind::kAr1, frame_s, 1);
  const common::Rng user_rng(0xfade);
  state.init_user(0, user_rng, doppler);

  // The eager twin consumes the identical stream the legacy per-link
  // construction used: user_rng.fork(100 + cell).fork(2).
  const std::size_t cell_idx = 7;
  channel::Ar1Fading eager(doppler, frame_s, user_rng.fork(100 + cell_idx).fork(2));

  // Observe only every 5th frame: the replay must hide the gap entirely.
  for (int frame = 1; frame <= 40; ++frame) {
    state.advance_frame();
    const double eager_gain = eager.step(frame_s);
    if (frame % 5 == 0) {
      EXPECT_EQ(state.fading_factor(0, cell_idx), eager_gain) << "frame " << frame;
    }
  }
}

TEST(FrameStateFading, NoneFadingIsUnitGain) {
  const cell::HexLayout layout(cell::HexLayoutConfig{});
  const channel::PathLoss path_loss{channel::PathLossConfig{}};
  const channel::ShadowingConfig shadowing{};
  sim::FrameState state;
  state.init(&layout, &path_loss, shadowing, channel::FadingKind::kNone, 0.020, 1);
  const common::Rng user_rng(1);
  state.init_user(0, user_rng, 10.0);
  state.advance_frame();
  EXPECT_EQ(state.fading_factor(0, 0), 1.0);

  // With unit fading the instantaneous gain is the local mean, which
  // composes path loss x shadowing.  A standing mobile (moved_m = 0) keeps
  // its initial shadow draw, so moving it away from the cell only lowers
  // the gain.
  const std::size_t cell_idx = 0;
  const double shadow_db =
      user_rng.fork(100 + cell_idx).fork(1).normal(0.0, shadowing.sigma_db);
  double nearer_gain = std::numeric_limits<double>::infinity();
  for (const double offset_m : {200.0, 1000.0}) {
    const cell::Point pos = layout.center(cell_idx) + cell::Point{offset_m, 0.0};
    state.step_user_links(0, pos, 0.0, &cell_idx, 1);
    const double d = layout.distance_to_cell(pos, cell_idx);
    EXPECT_DOUBLE_EQ(state.gain_mean(0, cell_idx),
                     path_loss.gain_linear(d) * std::pow(10.0, shadow_db / 10.0));
    EXPECT_LT(state.gain_mean(0, cell_idx), nearer_gain);
    nearer_gain = state.gain_mean(0, cell_idx);
  }
}

// --- Indexed request queues ------------------------------------------------

TEST(RequestQueues, BucketOpsKeepAscendingUserOrder) {
  sim::RequestQueues queues;
  queues.init(2);
  queues.add(5, 0, true);
  queues.add(2, 0, true);
  queues.add(9, 0, true);
  queues.add(3, 1, false);
  EXPECT_EQ(queues.bucket(true, 0), (std::vector<int>{2, 5, 9}));
  EXPECT_EQ(queues.bucket(false, 1), (std::vector<int>{3}));
  EXPECT_EQ(queues.total_pending(), 4u);
  queues.remove(5, 0, true);
  EXPECT_EQ(queues.bucket(true, 0), (std::vector<int>{2, 9}));
  EXPECT_EQ(queues.total_pending(), 3u);
}

TEST(RequestQueues, MatchesFullScanEveryFrame) {
  // The incrementally-maintained queues must agree with the O(users) scan
  // after every frame, through grants, rejections, SCRM retries, and burst
  // completions.
  sim::SystemConfig cfg = small_config();
  cfg.data.mean_reading_s = 0.6;  // request-heavy
  sim::Simulator simulator(cfg);
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  int seen_pending = 0;
  for (int f = 0; f < frames; ++f) {
    simulator.step_frame();
    ASSERT_EQ(simulator.queued_requests(), simulator.pending_requests())
        << "frame " << f;
    seen_pending += simulator.pending_requests();
  }
  EXPECT_GT(seen_pending, 0);  // the run actually exercised the queues
}

TEST(RequestQueues, MatchesFullScanUnderHandDown) {
  scenario::ScenarioLayout layout = scenario::enterprise_data();
  layout.data_users = 48;
  layout.sim_duration_s = 10.0;
  layout.warmup_s = 2.0;
  sim::SystemConfig cfg = layout.to_config();
  cfg.admission.policy = "hand-down";
  sim::Simulator simulator(cfg);
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  for (int f = 0; f < frames; ++f) {
    simulator.step_frame();
    ASSERT_EQ(simulator.queued_requests(), simulator.pending_requests())
        << "frame " << f;
  }
  EXPECT_GT(simulator.metrics().carrier_hand_downs, 0);
}

// --- Culling candidate sets -------------------------------------------------

enum class Roaming { kUniform, kHotspot, kCorridor };

/// A small random culling world: ring count, cell size, speeds, cull
/// radius and refresh cadence all drawn from `seed`.  Speeds reach 90 m/s
/// so users outrun their skin lists within a few seconds.
sim::SystemConfig random_culling_world(std::uint64_t seed, Roaming roaming,
                                       const std::string& provider, int threads) {
  common::Rng rng(seed);
  scenario::ScenarioLayout s = roaming == Roaming::kCorridor
                                   ? scenario::highway_corridor()
                                   : scenario::uniform_hex7();
  s.layout.rings = 1 + static_cast<int>(rng.uniform_int(3));
  s.layout.cell_radius_m = rng.uniform(300.0, 1200.0);
  switch (roaming) {
    case Roaming::kUniform:
      s.placement.cell_weights = scenario::uniform_weights(s.layout.rings);
      break;
    case Roaming::kHotspot:
      s.placement.cell_weights = scenario::hotspot_weights(s.layout.rings, 8.0);
      break;
    case Roaming::kCorridor:
      s.placement.cell_weights =
          scenario::corridor_weights(s.layout, 0.5 * s.layout.cell_radius_m);
      s.corridor_half_width_m = 0.5 * s.layout.cell_radius_m;
      break;
  }
  s.max_speed_mps = rng.uniform(s.min_speed_mps, 90.0);
  s.voice_users = 24;
  s.data_users = 12;
  s.seed = seed;
  sim::SystemConfig cfg = s.to_config();
  cfg.csi.provider = provider;
  cfg.csi.cull_radius_scale = rng.uniform(1.0, 3.5);
  const double refresh_s[] = {0.02, 0.1, 0.5};
  cfg.csi.refresh_interval_s = refresh_s[rng.uniform_int(3)];
  cfg.sim_threads = threads;
  return cfg;
}

/// Steps `simulator` `frames` times.  After every candidate refresh (the
/// providers' per-user timer, which all users share, is mirrored in
/// `refresh_left_s`) each user's set must equal the brute-force one: every
/// cell within the cull radius by the reference distance, plus the active
/// set the refresh saw, or the nearest cell when that is empty.
void expect_exact_candidate_sets(sim::Simulator& simulator, int frames,
                                 double& refresh_left_s) {
  const sim::SystemConfig& cfg = simulator.config();
  const cell::HexLayout layout(cfg.layout);
  const double radius_m = cfg.csi.cull_radius_scale * cfg.layout.cell_radius_m;
  std::vector<std::vector<std::size_t>> members(simulator.num_users());
  for (int f = 0; f < frames; ++f) {
    for (std::size_t u = 0; u < members.size(); ++u) {
      members[u] = simulator.user_active_set(u).members();
    }
    simulator.step_frame();
    refresh_left_s -= cfg.frame_s;
    if (refresh_left_s > 0.0) continue;
    refresh_left_s = cfg.csi.refresh_interval_s;
    for (std::size_t u = 0; u < members.size(); ++u) {
      const cell::Point pos = simulator.user_position(u);
      std::set<std::size_t> expected(members[u].begin(), members[u].end());
      for (std::size_t k = 0; k < layout.num_cells(); ++k) {
        if (layout.distance_to_cell(pos, k) <= radius_m) expected.insert(k);
      }
      if (expected.empty()) expected.insert(layout.nearest_cell(pos));
      ASSERT_EQ(simulator.user_candidate_cells(u),
                std::vector<std::size_t>(expected.begin(), expected.end()))
          << "frame " << simulator.frame_index() << " user " << u;
    }
  }
}

TEST(CandidateSets, MatchBruteForceAtEveryRefresh) {
  std::uint64_t seed = 500;
  for (const char* provider : {"culled", "fast"}) {
    for (const Roaming roaming :
         {Roaming::kUniform, Roaming::kHotspot, Roaming::kCorridor}) {
      for (const int threads : {1, 4}) {
        const sim::SystemConfig cfg =
            random_culling_world(++seed, roaming, provider, threads);
        SCOPED_TRACE(std::string(provider) + " roaming " +
                     std::to_string(static_cast<int>(roaming)) + " threads " +
                     std::to_string(threads) + " seed " + std::to_string(seed));
        sim::Simulator simulator(cfg);
        double refresh_left_s = 0.0;
        expect_exact_candidate_sets(simulator, 500, refresh_left_s);
      }
    }
  }
}

TEST(CandidateSets, MatchBruteForceAfterRestoreBetweenRefreshes) {
  // restore() empties the providers' skin lists, here onto a simulator
  // whose lists were built elsewhere on the same trajectory; the first
  // refresh after it rebuilds them by a full scan and must land on the
  // same sets.
  std::uint64_t seed = 700;
  for (const char* provider : {"culled", "fast"}) {
    for (const Roaming roaming :
         {Roaming::kUniform, Roaming::kHotspot, Roaming::kCorridor}) {
      sim::SystemConfig cfg = random_culling_world(++seed, roaming, provider, 1);
      cfg.csi.refresh_interval_s = 0.1;  // refreshes at frames 1, 6, 11, ...
      SCOPED_TRACE(std::string(provider) + " roaming " +
                   std::to_string(static_cast<int>(roaming)));
      sim::Simulator first(cfg);
      double refresh_left_s = 0.0;
      expect_exact_candidate_sets(first, 63, refresh_left_s);
      double first_left_s = refresh_left_s;
      cfg.sim_threads = 4;  // the thread count is not part of the archive
      sim::Simulator resumed(cfg);
      for (int f = 0; f < 140; ++f) resumed.step_frame();
      ASSERT_TRUE(resumed.restore(first.snapshot()));
      expect_exact_candidate_sets(resumed, 120, refresh_left_s);
      // And the resumed run stays on the uninterrupted trajectory.
      expect_exact_candidate_sets(first, 120, first_left_s);
      EXPECT_EQ(sim::SimMetrics::first_difference(first.metrics(), resumed.metrics()),
                "");
    }
  }
}

// --- Sweep-level integration ----------------------------------------------

TEST(SimThreads, SweepAxisLeavesMetricsIdentical) {
  sweep::SweepSpec spec;
  spec.name = "threads-identity";
  spec.base = small_config();
  spec.base.sim_duration_s = 4.0;
  spec.base.warmup_s = 1.0;
  spec.axes = {sweep::axis_sim_threads({1, 4})};
  spec.replications = 1;
  spec.common_random_numbers = true;
  const sweep::SweepResult r = sweep::run_sweep(spec, 0);
  ASSERT_EQ(r.scenarios.size(), 2u);
  EXPECT_EQ(sim::SimMetrics::first_difference(r.scenarios[0].merged,
                                              r.scenarios[1].merged),
            "");
}

}  // namespace
}  // namespace wcdma
