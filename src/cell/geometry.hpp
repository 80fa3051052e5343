// Hexagonal cell layout with optional wrap-around.
//
// The dynamic simulations of the paper (following Kumar & Nanda [2]) use a
// multi-cell layout so soft hand-off and other-cell interference are real.
// We build the standard ring layout (rings=2 -> 19 cells) and remove edge
// effects with the usual wrap-around technique: distances are evaluated as
// the minimum over the identity and six mirror-cluster translations.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "src/common/assert.hpp"

namespace wcdma::cell {

struct Point {
  double x = 0.0;
  double y = 0.0;

  template <class Ar>
  void io(Ar& ar) {
    ar(x, y);
  }
};

inline Point operator+(Point a, Point b) { return {a.x + b.x, a.y + b.y}; }
inline Point operator-(Point a, Point b) { return {a.x - b.x, a.y - b.y}; }
inline Point operator*(double s, Point p) { return {s * p.x, s * p.y}; }

inline double norm(Point p) { return std::hypot(p.x, p.y); }
inline double distance(Point a, Point b) { return norm(a - b); }

struct HexLayoutConfig {
  int rings = 2;            // 0 -> 1 cell, 1 -> 7, 2 -> 19
  double cell_radius_m = 1000.0;  // centre-to-vertex radius
  bool wrap_around = true;
};

/// Number of cells in a ring layout: 1 + 3*rings*(rings+1).
std::size_t hex_cell_count(int rings);

class HexLayout {
 public:
  explicit HexLayout(const HexLayoutConfig& config = {});

  std::size_t num_cells() const { return centers_.size(); }
  Point center(std::size_t k) const;
  const std::vector<Point>& centers() const { return centers_; }
  double cell_radius_m() const { return config_.cell_radius_m; }

  /// Distance from `p` to the centre of cell `k`, minimised over the
  /// wrap-around images when enabled.  The nearest image is selected by
  /// squared distance (multiply-adds only) over the precomputed image table;
  /// the final metric distance is one hypot on the winner, matching the
  /// legacy min-over-hypot evaluation.
  double distance_to_cell(Point p, std::size_t k) const {
    WCDMA_DEBUG_ASSERT(k < centers_.size());
    const Point* images = &images_[k * images_per_cell_];
    double dx = p.x - images[0].x;
    double dy = p.y - images[0].y;
    double best_sq = dx * dx + dy * dy;
    // Near-field shortcut: when the direct distance is under half the
    // closest wrap translation, the triangle inequality guarantees every
    // mirror image is strictly farther -- no need to scan them.
    if (best_sq < near_field_sq_) return metric_distance(dx, dy);
    double best_dx = dx, best_dy = dy;
    for (std::size_t i = 1; i < images_per_cell_; ++i) {
      dx = p.x - images[i].x;
      dy = p.y - images[i].y;
      const double sq = dx * dx + dy * dy;
      if (sq < best_sq) {
        best_sq = sq;
        best_dx = dx;
        best_dy = dy;
      }
    }
    return metric_distance(best_dx, best_dy);
  }

  /// Squared distance from `p` to the nearest wrap image of cell `k`:
  /// the multiply-add scan of distance_to_cell without the final hypot.
  /// The relaxed-precision CSI path consumes distances only through
  /// log2(d) = log2(d^2) / 2, so it never needs the metric root.
  double distance_sq_to_cell(Point p, std::size_t k) const {
    WCDMA_DEBUG_ASSERT(k < centers_.size());
    const Point* images = &images_[k * images_per_cell_];
    double dx = p.x - images[0].x;
    double dy = p.y - images[0].y;
    double best_sq = dx * dx + dy * dy;
    if (best_sq < near_field_sq_) return best_sq;
    for (std::size_t i = 1; i < images_per_cell_; ++i) {
      dx = p.x - images[i].x;
      dy = p.y - images[i].y;
      const double sq = dx * dx + dy * dy;
      if (sq < best_sq) best_sq = sq;
    }
    return best_sq;
  }

  /// Exactly `distance_to_cell(p, k) <= radius_m`, decided in the squared
  /// domain.  distance_sq_to_cell carries a few ulps of relative error, so
  /// outside a kRadiusGuard relative band around radius_m^2 its verdict
  /// cannot differ from the reference's; only points inside the band pay
  /// the reference hypot.
  bool cell_within(Point p, std::size_t k, double radius_m) const {
    const double sq = distance_sq_to_cell(p, k);
    const double radius_sq = radius_m * radius_m;
    if (sq < radius_sq * (1.0 - kRadiusGuard)) return true;
    if (sq > radius_sq * (1.0 + kRadiusGuard)) return false;
    return distance_to_cell(p, k) <= radius_m;
  }

  /// Relative guard band of cell_within(): far wider than the rounding of
  /// either distance form, far narrower than any geometry of interest.
  static constexpr double kRadiusGuard = 1e-9;

  /// Index of the nearest cell (wrap-aware).
  std::size_t nearest_cell(Point p) const;

  /// A uniformly random point in the service area (disc covering the
  /// layout); callers supply uniform variates u1,u2 in [0,1).
  Point random_point(double u1, double u2) const;

  /// Radius of the disc that bounds the whole layout.
  double service_radius_m() const;

  const std::vector<Point>& wrap_translations() const { return translations_; }

 private:
  static double metric_distance(double dx, double dy) { return std::hypot(dx, dy); }

  HexLayoutConfig config_;
  std::vector<Point> centers_;
  std::vector<Point> translations_;  // identity excluded
  /// Flattened wrap-image table: cell k's images (identity first) occupy
  /// images_[k * images_per_cell_ .. + images_per_cell_).
  std::vector<Point> images_;
  std::size_t images_per_cell_ = 1;
  /// (min wrap-translation length / 2)^2; +inf without wrap-around.
  double near_field_sq_ = 0.0;
};

}  // namespace wcdma::cell
