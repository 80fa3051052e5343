// Composite wireless link of Eq. (1): X(t) = Xl(t) * Xs(t), layered on the
// distance-dependent mean path loss.  Also the CSI feedback pipeline of
// Fig. 1(a): the receiver-side estimate travels to the transmitter through a
// low-capacity feedback channel, so the adapter sees a *delayed, noisy* copy
// of the channel state.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>

#include "src/channel/fading.hpp"
#include "src/channel/path_loss.hpp"
#include "src/channel/shadowing.hpp"
#include "src/common/rng.hpp"

namespace wcdma::channel {

enum class FadingKind { kJakes, kAr1, kNone };

struct LinkConfig {
  ShadowingConfig shadowing;
  FadingKind fading = FadingKind::kAr1;
  double doppler_hz = 20.0;
  double frame_s = 0.020;  // nominal step used by AR(1) fading
  int jakes_paths = 16;
};

/// One directional radio link (mobile <-> base station).  The same fading
/// realisation serves both directions in this model; measurement asymmetry
/// enters through what each side can observe (Section 3.1).
class Link {
 public:
  Link(const LinkConfig& config, const PathLoss* path_loss, common::Rng rng);

  /// Advances shadowing (by travelled metres) and fast fading (by dt).
  void step(double moved_m, double dt);

  /// Updates the geometric distance (metres) used for mean path loss.
  void set_distance(double d_m) { distance_m_ = d_m; }
  double distance_m() const { return distance_m_; }

  /// Local-mean gain: path loss x shadowing (excludes fast fading).  This is
  /// what pilot-strength measurements and power control track.
  double mean_gain() const;

  /// Instantaneous gain including the fast-fading power factor; what the
  /// symbol-level PHY experiences.
  double instantaneous_gain() const;

  /// Fast-fading power factor alone (unit mean).
  double fading_factor() const;

  double shadowing_db() const { return shadowing_.value_db(); }

 private:
  const PathLoss* path_loss_;  // not owned
  Shadowing shadowing_;
  std::unique_ptr<FadingProcess> fading_;
  double distance_m_ = 1000.0;
};

/// Delay-and-noise model of the CSI feedback channel (Fig. 1a).  push() the
/// receiver's measured CSI once per frame; current() returns what the
/// transmitter can act on: the measurement from `delay_frames` ago with
/// log-normal estimation error applied.
class CsiFeedback {
 public:
  CsiFeedback(std::size_t delay_frames, double error_sigma_db, common::Rng rng);

  void push(double csi_linear);
  /// Latest actionable CSI (linear).  Before the pipe fills, returns the
  /// oldest available measurement (conservative start-up behaviour).
  double current() const;
  bool primed() const { return pipe_.size() > delay_frames_; }

  /// Checkpoint support: the delay pipe contents plus the error-draw RNG.
  template <class Ar>
  void io(Ar& ar) {
    ar(rng_);
    ar.var(pipe_);
  }

 private:
  std::size_t delay_frames_;
  double error_sigma_db_;
  common::Rng rng_;
  std::deque<double> pipe_;
};

}  // namespace wcdma::channel
