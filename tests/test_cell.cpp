// Cell-layer tests: hex layout geometry and wrap-around, mobility models,
// and soft-handoff active-set management.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/cell/active_set.hpp"
#include "src/cell/geometry.hpp"
#include "src/cell/mobility.hpp"
#include "src/common/rng.hpp"

namespace wcdma::cell {
namespace {

using common::Rng;

// ---------------------------------------------------------------- layout

TEST(HexLayout, RingCellCounts) {
  for (const auto& [rings, cells] : std::vector<std::pair<int, std::size_t>>{
           {0, 1}, {1, 7}, {2, 19}, {3, 37}}) {
    HexLayoutConfig cfg;
    cfg.rings = rings;
    cfg.wrap_around = false;
    EXPECT_EQ(HexLayout(cfg).num_cells(), cells) << "rings=" << rings;
  }
}

TEST(HexLayout, FirstRingAtLatticeDistance) {
  HexLayoutConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_m = 1000.0;
  HexLayout layout(cfg);
  const double d = std::sqrt(3.0) * 1000.0;
  for (std::size_t k = 1; k < 7; ++k) {
    EXPECT_NEAR(distance(layout.center(0), layout.center(k)), d, 1e-6);
  }
}

TEST(HexLayout, CentersAreUnique) {
  HexLayoutConfig cfg;
  cfg.rings = 2;
  HexLayout layout(cfg);
  for (std::size_t i = 0; i < layout.num_cells(); ++i) {
    for (std::size_t j = i + 1; j < layout.num_cells(); ++j) {
      EXPECT_GT(distance(layout.center(i), layout.center(j)), 1.0);
    }
  }
}

TEST(HexLayout, WrapDistanceNeverExceedsDirect) {
  HexLayoutConfig cfg;
  cfg.rings = 2;
  cfg.wrap_around = true;
  HexLayout layout(cfg);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const Point p = layout.random_point(rng.uniform(), rng.uniform());
    for (std::size_t k = 0; k < layout.num_cells(); ++k) {
      EXPECT_LE(layout.distance_to_cell(p, k), distance(p, layout.center(k)) + 1e-9);
    }
  }
}

TEST(HexLayout, WrapBoundsWorstCaseDistance) {
  // With wrap-around, no point in the service area is catastrophically far
  // from every cell: the nearest cell is within ~2 cell radii.
  HexLayoutConfig cfg;
  cfg.rings = 2;
  cfg.cell_radius_m = 1000.0;
  HexLayout layout(cfg);
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const Point p = layout.random_point(rng.uniform(), rng.uniform());
    const std::size_t k = layout.nearest_cell(p);
    EXPECT_LE(layout.distance_to_cell(p, k), 2.0 * cfg.cell_radius_m);
  }
}

TEST(HexLayout, NearestCellOfCenterIsZero) {
  HexLayout layout;
  EXPECT_EQ(layout.nearest_cell({0.0, 0.0}), 0u);
  EXPECT_EQ(layout.nearest_cell({1.0, -1.0}), 0u);
}

TEST(HexLayout, RandomPointInsideServiceRadius) {
  HexLayout layout;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Point p = layout.random_point(rng.uniform(), rng.uniform());
    EXPECT_LE(norm(p), layout.service_radius_m() + 1e-9);
  }
}

TEST(HexLayout, WrapTranslationsHaveClusterMagnitude) {
  // For a K-cell cluster, |u| = sqrt(3K) * R.
  HexLayoutConfig cfg;
  cfg.rings = 2;  // K = 19
  cfg.cell_radius_m = 1000.0;
  HexLayout layout(cfg);
  ASSERT_EQ(layout.wrap_translations().size(), 6u);
  for (const Point& t : layout.wrap_translations()) {
    EXPECT_NEAR(norm(t), std::sqrt(3.0 * 19.0) * 1000.0, 1.0);
  }
}

// cell_within() must decide exactly like the reference hypot test.
bool reference_within(const HexLayout& layout, Point p, std::size_t k, double r) {
  return layout.distance_to_cell(p, k) <= r;
}

TEST(HexLayout, CellWithinMatchesReferenceOnRandomPoints) {
  Rng rng(11);
  for (int rings = 1; rings <= 6; ++rings) {
    for (const bool wrap : {true, false}) {
      HexLayoutConfig cfg;
      cfg.rings = rings;
      cfg.wrap_around = wrap;
      cfg.cell_radius_m = rng.uniform(100.0, 2000.0);
      const HexLayout layout(cfg);
      for (int trial = 0; trial < 100; ++trial) {
        // Points up to 1.5x beyond the layout disc, radii up to 5 cells.
        const Point p = 1.5 * layout.random_point(rng.uniform(), rng.uniform());
        const double r = rng.uniform(0.0, 5.0) * cfg.cell_radius_m;
        for (std::size_t k = 0; k < layout.num_cells(); ++k) {
          ASSERT_EQ(layout.cell_within(p, k, r), reference_within(layout, p, k, r))
              << "rings=" << rings << " wrap=" << wrap << " cell " << k;
        }
      }
    }
  }
}

TEST(HexLayout, CellWithinMatchesReferenceOnTheRadiusBoundary) {
  // Points r * (1 + n * 2^-52) from every wrap image of every cell: the
  // squared and hypot forms disagree only within a few ulps of r, so this
  // is where a plain squared-domain test would flip.  The 1 +/- 1e-9
  // factors also walk both edges of the guard band.
  const double ulp = std::ldexp(1.0, -52);
  Rng rng(13);
  for (int rings = 1; rings <= 6; ++rings) {
    for (const bool wrap : {true, false}) {
      HexLayoutConfig cfg;
      cfg.rings = rings;
      cfg.wrap_around = wrap;
      const HexLayout layout(cfg);
      std::vector<Point> shifts{{0.0, 0.0}};
      for (const Point& t : layout.wrap_translations()) shifts.push_back(t);
      const double r = rng.uniform(0.5, 4.0) * cfg.cell_radius_m;
      for (std::size_t k = 0; k < layout.num_cells(); ++k) {
        for (const Point& shift : shifts) {
          const Point image = layout.center(k) + shift;
          const double theta = rng.uniform(0.0, 2.0 * M_PI);
          const Point dir{std::cos(theta), std::sin(theta)};
          for (const double band : {1.0, 1.0 - 1e-9, 1.0 + 1e-9}) {
            for (int n = -8; n <= 8; ++n) {
              const Point p = image + (r * band * (1.0 + n * ulp)) * dir;
              ASSERT_EQ(layout.cell_within(p, k, r), reference_within(layout, p, k, r))
                  << "rings=" << rings << " wrap=" << wrap << " cell " << k
                  << " n=" << n << " band=" << band;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------- mobility

TEST(RandomWaypoint, StaysInRegion) {
  MobilityConfig cfg;
  cfg.region_radius_m = 1500.0;
  RandomWaypoint rw(cfg, Rng(11));
  for (int i = 0; i < 5000; ++i) {
    rw.step(0.5);
    EXPECT_LE(norm(rw.position()), cfg.region_radius_m + 1e-6);
  }
}

TEST(RandomWaypoint, MovedDistanceMatchesSpeed) {
  MobilityConfig cfg;
  cfg.min_speed_mps = 10.0;
  cfg.max_speed_mps = 10.0;  // pin the speed
  cfg.region_radius_m = 1e5;  // waypoints far away: rarely reached
  RandomWaypoint rw(cfg, Rng(13));
  const double moved = rw.step(2.0);
  EXPECT_NEAR(moved, 20.0, 1e-6);
}

TEST(RandomWaypoint, SpeedWithinBounds) {
  MobilityConfig cfg;
  cfg.min_speed_mps = 1.0;
  cfg.max_speed_mps = 20.0;
  RandomWaypoint rw(cfg, Rng(17));
  for (int i = 0; i < 200; ++i) {
    rw.step(5.0);  // traverse several waypoints
    EXPECT_GE(rw.speed_mps(), 1.0);
    EXPECT_LE(rw.speed_mps(), 20.0);
  }
}

TEST(RandomWaypoint, PauseHaltsMotion) {
  MobilityConfig cfg;
  cfg.pause_s = 1000.0;  // effectively permanent pause at first waypoint
  cfg.min_speed_mps = cfg.max_speed_mps = 5.0;
  cfg.region_radius_m = 10.0;  // tiny region: waypoint reached quickly
  RandomWaypoint rw(cfg, Rng(19));
  rw.step(100.0);  // reach waypoint, start pausing
  const Point before = rw.position();
  const double moved = rw.step(10.0);
  EXPECT_DOUBLE_EQ(moved, 0.0);
  EXPECT_DOUBLE_EQ(before.x, rw.position().x);
}

TEST(RandomWaypoint, StaysInOffCentreRegion) {
  MobilityConfig cfg;
  cfg.region_radius_m = 400.0;
  cfg.region_center = {5000.0, -2000.0};  // home-cell disc far from the origin
  RandomWaypoint rw(cfg, Rng(29));
  for (int i = 0; i < 5000; ++i) {
    rw.step(0.5);
    EXPECT_LE(norm(rw.position() - cfg.region_center), cfg.region_radius_m + 1e-6);
  }
}

TEST(HexLayout, CellCountFormula) {
  EXPECT_EQ(hex_cell_count(0), 1u);
  EXPECT_EQ(hex_cell_count(1), 7u);
  EXPECT_EQ(hex_cell_count(2), 19u);
  for (int rings : {0, 1, 2, 3, 4}) {
    EXPECT_EQ(HexLayout(HexLayoutConfig{rings, 1000.0, true}).num_cells(),
              hex_cell_count(rings));
  }
}

MobilityConfig corridor_config() {
  MobilityConfig cfg;
  cfg.kind = MobilityKind::kCorridor;
  cfg.min_speed_mps = 16.7;
  cfg.max_speed_mps = 33.3;
  cfg.corridor_half_length_m = 4000.0;
  cfg.corridor_half_width_m = 500.0;
  return cfg;
}

TEST(CorridorMobility, StaysOnTheRoad) {
  CorridorMobility car(corridor_config(), Rng(31));
  const double lane_y = car.position().y;
  for (int i = 0; i < 5000; ++i) {
    car.step(0.25);
    EXPECT_LE(std::fabs(car.position().x), 4000.0 + 1e-6);
    // The lane offset is drawn once and never changes: pure along-road motion.
    EXPECT_DOUBLE_EQ(car.position().y, lane_y);
    EXPECT_LE(std::fabs(lane_y), 500.0);
  }
}

TEST(CorridorMobility, MovesDirectionallyAndWrapsAround) {
  const MobilityConfig cfg = corridor_config();
  CorridorMobility car(cfg, Rng(47));
  const int dir = car.direction();
  int wraps = 0;
  double prev_x = car.position().x;
  // 2500 s at >= 16.7 m/s covers the 8 km road several times.
  for (int i = 0; i < 10000; ++i) {
    const double speed_before = car.speed_mps();  // wraps redraw the speed
    const double moved = car.step(0.25);
    EXPECT_NEAR(moved, speed_before * 0.25, 1e-9);
    EXPECT_EQ(car.direction(), dir);  // direction persists for the whole drive
    const double dx = car.position().x - prev_x;
    if (dir * dx < 0.0) {
      ++wraps;  // only a wrap moves the position against the travel direction
      EXPECT_GT(std::fabs(dx), cfg.corridor_half_length_m);
    }
    EXPECT_GE(car.speed_mps(), cfg.min_speed_mps);
    EXPECT_LE(car.speed_mps(), cfg.max_speed_mps);
    prev_x = car.position().x;
  }
  EXPECT_GE(wraps, 2);
}

TEST(CorridorMobility, DerivesHalfLengthFromRegionRadius) {
  MobilityConfig cfg = corridor_config();
  cfg.corridor_half_length_m = 0.0;  // derive from the service region
  cfg.region_radius_m = 1500.0;
  CorridorMobility car(cfg, Rng(53));
  for (int i = 0; i < 2000; ++i) {
    car.step(0.5);
    EXPECT_LE(std::fabs(car.position().x), 1500.0 + 1e-6);
  }
}

TEST(MakeMobility, BuildsTheConfiguredKind) {
  MobilityConfig rw;
  rw.region_radius_m = 1000.0;
  const auto waypoint = make_mobility(rw, Rng(5));
  ASSERT_NE(waypoint, nullptr);
  EXPECT_NE(dynamic_cast<RandomWaypoint*>(waypoint.get()), nullptr);

  const auto corridor = make_mobility(corridor_config(), Rng(5));
  ASSERT_NE(corridor, nullptr);
  EXPECT_NE(dynamic_cast<CorridorMobility*>(corridor.get()), nullptr);
}

// ---------------------------------------------------------------- active set

ActiveSetConfig as_config() {
  ActiveSetConfig cfg;
  cfg.t_add_db = -14.0;
  cfg.t_drop_db = -16.0;
  cfg.drop_timer_s = 1.0;
  cfg.max_size = 3;
  cfg.reduced_size = 2;
  return cfg;
}

TEST(ActiveSet, AddsPilotsAboveThreshold) {
  ActiveSet as(as_config(), 4);
  as.update({-10.0, -13.0, -20.0, -25.0}, 0.02);
  EXPECT_EQ(as.members().size(), 2u);
  EXPECT_TRUE(as.contains(0));
  EXPECT_TRUE(as.contains(1));
  EXPECT_EQ(as.primary(), 0u);
}

TEST(ActiveSet, NeverEmptyEvenBelowThreshold) {
  ActiveSet as(as_config(), 3);
  as.update({-30.0, -28.0, -35.0}, 0.02);
  ASSERT_EQ(as.members().size(), 1u);
  EXPECT_EQ(as.primary(), 1u);  // strongest pilot latched
}

TEST(ActiveSet, DropRequiresTimerExpiry) {
  ActiveSet as(as_config(), 2);
  as.update({-10.0, -12.0}, 0.02);
  EXPECT_TRUE(as.contains(1));
  // Pilot 1 sinks below T_DROP: stays during the timer, leaves after.
  for (int i = 0; i < 49; ++i) as.update({-10.0, -20.0}, 0.02);
  EXPECT_TRUE(as.contains(1)) << "should survive until drop timer expires";
  for (int i = 0; i < 3; ++i) as.update({-10.0, -20.0}, 0.02);
  EXPECT_FALSE(as.contains(1));
}

TEST(ActiveSet, DropTimerResetsOnRecovery) {
  ActiveSet as(as_config(), 2);
  as.update({-10.0, -12.0}, 0.02);
  for (int i = 0; i < 40; ++i) as.update({-10.0, -20.0}, 0.02);  // 0.8 s below
  as.update({-10.0, -12.0}, 0.02);                               // recovers
  for (int i = 0; i < 40; ++i) as.update({-10.0, -20.0}, 0.02);  // 0.8 s again
  EXPECT_TRUE(as.contains(1)) << "timer must reset on recovery";
}

TEST(ActiveSet, RespectsMaxSizeKeepingStrongest) {
  ActiveSet as(as_config(), 5);
  as.update({-5.0, -6.0, -7.0, -8.0, -9.0}, 0.02);
  EXPECT_EQ(as.members().size(), 3u);
  EXPECT_TRUE(as.contains(0));
  EXPECT_TRUE(as.contains(1));
  EXPECT_TRUE(as.contains(2));
}

TEST(ActiveSet, StrongerCandidateReplacesWeakestMember) {
  ActiveSet as(as_config(), 4);
  as.update({-5.0, -6.0, -7.0, -30.0}, 0.02);
  EXPECT_TRUE(as.contains(2));
  // Cell 3 surges above everyone: it should displace the weakest member.
  as.update({-5.0, -6.0, -7.0, -3.0}, 0.02);
  EXPECT_TRUE(as.contains(3));
  EXPECT_FALSE(as.contains(2));
}

TEST(ActiveSet, ReducedSetIsTwoStrongest) {
  ActiveSet as(as_config(), 4);
  as.update({-8.0, -5.0, -11.0, -30.0}, 0.02);
  const auto reduced = as.reduced();
  ASSERT_EQ(reduced.size(), 2u);
  EXPECT_EQ(reduced[0], 1u);  // strongest first
  EXPECT_EQ(reduced[1], 0u);
}

TEST(ActiveSet, SparseUpdateMatchesDenseWithFloor) {
  // Two sets driven by the same pilot trajectory: one dense (unreported
  // cells at the floor), one sparse.  Membership must evolve identically,
  // including drop-timer expiry of a cell that stops being reported.
  ActiveSet dense(as_config(), 6);
  ActiveSet sparse(as_config(), 6);
  const double kFloor = -500.0;

  auto step_both = [&](const std::vector<std::pair<std::size_t, double>>& pilots,
                       double dt) {
    std::vector<double> full(6, kFloor);
    for (const auto& [cell, db] : pilots) full[cell] = db;
    dense.update(full, dt);
    sparse.update_sparse(pilots, kFloor, dt);
    ASSERT_EQ(dense.members(), sparse.members());
    EXPECT_EQ(dense.primary(), sparse.primary());
    EXPECT_EQ(dense.reduced(), sparse.reduced());
  };

  step_both({{0, -9.0}, {1, -12.0}, {2, -13.5}, {3, -20.0}}, 0.02);
  EXPECT_EQ(sparse.members().size(), 3u);
  // Cell 1 degrades below t_drop; cell 4 appears strong.
  for (int i = 0; i < 60; ++i) {
    step_both({{0, -9.0}, {1, -17.0}, {2, -13.0}, {4, -10.0}}, 0.02);
  }
  EXPECT_FALSE(sparse.contains(1));  // drop timer expired identically
  EXPECT_TRUE(sparse.contains(4));
}

TEST(ActiveSet, AdjustmentFactors) {
  ActiveSet as(as_config(), 3);
  as.update({-10.0, -30.0, -30.0}, 0.02);
  EXPECT_DOUBLE_EQ(as.forward_adjustment(), 1.0);  // single leg
  EXPECT_DOUBLE_EQ(as.reverse_adjustment(), 1.0);
  as.update({-10.0, -11.0, -30.0}, 0.02);
  EXPECT_NEAR(as.forward_adjustment(), 1.8, 1e-12);  // two legs cost more
  EXPECT_NEAR(as.reverse_adjustment(), 0.8, 1e-12);  // diversity discount
}

}  // namespace
}  // namespace wcdma::cell
