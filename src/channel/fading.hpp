// Short-term (fast) fading component Xs(t) of Eq. (1).
//
// Two interchangeable Rayleigh generators:
//  * JakesFading — Clarke/Jakes sum-of-sinusoids; a deterministic function
//    of time given its random phases, so symbol-level benches can sample it
//    densely and tests can verify the Doppler autocorrelation J0(2*pi*fd*tau).
//  * Ar1Fading — complex Gauss-Markov process stepped at the frame rate;
//    cheap, used by the system simulator where only per-frame values matter.
// Both are normalised to unit mean power so the composite channel of Eq. (1)
// separates cleanly into mean (path loss x shadowing) and fluctuation.
#pragma once

#include <complex>
#include <vector>

#include "src/common/rng.hpp"

namespace wcdma::channel {

/// Fast-fading generator of a link (kNone: local mean only).
enum class FadingKind { kJakes, kAr1, kNone };

/// Sinusoids per quadrature of a Jakes generator unless a caller asks for
/// another count.
inline constexpr int kDefaultJakesPaths = 16;

/// Common interface so the simulator can switch generators.
class FadingProcess {
 public:
  virtual ~FadingProcess() = default;
  /// Advances internal time by dt seconds and returns the instantaneous
  /// *power* gain (unit mean).
  virtual double step(double dt) = 0;
  /// Current power gain without advancing.
  virtual double power_gain() const = 0;
};

class JakesFading final : public FadingProcess {
 public:
  /// `paths` sinusoids per quadrature (8-32 typical).
  JakesFading(double doppler_hz, common::Rng rng, int paths = kDefaultJakesPaths);

  double step(double dt) override;
  double power_gain() const override;

  /// Evaluates the complex gain at absolute time t (used by tests/benches).
  std::complex<double> gain_at(double t) const;

  double doppler_hz() const { return doppler_hz_; }

  /// Checkpoint support: the process is a deterministic function of time
  /// given its (init-time) random phases, so only the clock round-trips.
  template <class Ar>
  void io(Ar& ar) {
    ar(t_);
  }

 private:
  double doppler_hz_;
  double t_ = 0.0;
  std::vector<double> omega_;   // per-path Doppler angular frequencies
  std::vector<double> phase_i_;
  std::vector<double> phase_q_;
  double norm_;
};

class Ar1Fading final : public FadingProcess {
 public:
  /// `dt_nominal` is the expected step interval; the AR coefficient is
  /// recomputed if step() is called with a different dt.
  Ar1Fading(double doppler_hz, double dt_nominal, common::Rng rng);

  double step(double dt) override;
  double power_gain() const override;

  /// step(dt_nominal) without the per-step innovation sqrt: the coefficient
  /// pair is cached at construction.  Bit-identical to step(dt_nominal).
  double step_nominal() {
    h_ = {rho_ * h_.real() + rng_.normal(0.0, innovation_),
          rho_ * h_.imag() + rng_.normal(0.0, innovation_)};
    return std::norm(h_);
  }

  /// AR(1) coefficient for lag dt: rho = J0(2 pi fd dt), floored at 0.
  static double correlation(double doppler_hz, double dt);

 private:
  double doppler_hz_;
  double dt_nominal_;
  double rho_;
  double innovation_;  // innovation sigma at dt_nominal (cached)
  common::Rng rng_;
  std::complex<double> h_;
};

/// E[exp] moments helper: mean power of a unit-mean Rayleigh *power* process
/// is 1 and its variance is 1 (exponential distribution); exposed for tests.
struct RayleighTheory {
  static constexpr double kMeanPower = 1.0;
  static constexpr double kPowerVariance = 1.0;
};

}  // namespace wcdma::channel
