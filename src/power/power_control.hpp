// Closed-loop SIR-based power control ("power control" in the paper's
// dynamic-simulation list).
//
// cdma2000 runs an 800 Hz inner loop with +/-step dB commands; the simulator
// advances per 20 ms frame, so one frame aggregates 16 inner-loop commands.
// ClosedLoopPowerControl models that aggregate: the per-frame correction is
// the SIR error clamped to +/- (16 * step) dB, which reproduces both the
// tracking behaviour at pedestrian speeds and the lag at vehicular speeds.
// An outer loop (frame-error driven target adjustment) is included for
// completeness.
#pragma once

#include "src/common/assert.hpp"

namespace wcdma::power {

struct PowerControlConfig {
  double target_sir_db = 7.0;     // initial Eb/I0 target
  double step_db = 1.0;           // inner-loop step per command
  int commands_per_frame = 16;    // 800 Hz loop, 20 ms frame
  double min_power_dbm = -50.0;
  double max_power_dbm = 23.0;    // mobile class / per-link forward cap
};

class ClosedLoopPowerControl {
 public:
  explicit ClosedLoopPowerControl(const PowerControlConfig& config = {},
                                  double initial_power_dbm = 0.0);

  /// One frame: steps the transmit power toward the SIR target given the
  /// measured SIR (dB), updates the saturation flag, and returns the new
  /// power (dBm).  The cached wattage is left STALE: Simulator::
  /// step_power_control batches every loop's (power_dbm - 30) into one lane,
  /// converts it (libm on the default path, the SIMD fastmath lane on the
  /// relaxed provider) and commits with set_power_watt().  Nothing may read
  /// power_watt() between the two calls.
  double update(double measured_sir_db);
  /// Commits the converted wattage after update().
  void set_power_watt(double watt) { power_watt_ = watt; }

  double power_dbm() const { return power_dbm_; }
  /// Cached dBm -> W conversion, committed once per frame by
  /// set_power_watt(), so the hot loops that read it several times per
  /// frame pay the conversion once.
  double power_watt() const { return power_watt_; }
  double target_sir_db() const { return target_sir_db_; }
  void set_target_sir_db(double v) { target_sir_db_ = v; }

  /// True when the last update hit the max-power rail (coverage-limited).
  bool saturated() const { return saturated_; }

  /// Checkpoint support: the cached wattage round-trips bit-exactly too, so
  /// a restored loop never re-derives it through pow().
  template <class Ar>
  void io(Ar& ar) {
    ar(power_dbm_, power_watt_, target_sir_db_, saturated_);
  }

 private:
  PowerControlConfig config_;
  double power_dbm_;
  double power_watt_;
  double target_sir_db_;
  bool saturated_ = false;
};

/// Outer loop: walks the SIR target to hold a frame-error-rate target
/// (sawtooth/jump algorithm).
class OuterLoopPowerControl {
 public:
  OuterLoopPowerControl(double initial_target_db, double fer_target,
                        double step_up_db = 0.5, double min_db = 3.0, double max_db = 12.0);

  /// Reports one frame outcome; returns the updated SIR target (dB).
  double on_frame(bool frame_error);

  double target_db() const { return target_db_; }

 private:
  double target_db_;
  double fer_target_;
  double step_up_db_;
  double step_down_db_;
  double min_db_, max_db_;
};

}  // namespace wcdma::power
