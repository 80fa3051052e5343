#include "src/power/power_control.hpp"

#include <algorithm>

#include "src/common/units.hpp"

namespace wcdma::power {

ClosedLoopPowerControl::ClosedLoopPowerControl(const PowerControlConfig& config,
                                               double initial_power_dbm)
    : config_(config),
      power_dbm_(initial_power_dbm),
      power_watt_(common::dbm_to_watt(initial_power_dbm)),
      target_sir_db_(config.target_sir_db) {
  WCDMA_ASSERT(config_.step_db > 0.0);
  WCDMA_ASSERT(config_.commands_per_frame >= 1);
  WCDMA_ASSERT(config_.max_power_dbm > config_.min_power_dbm);
}

double ClosedLoopPowerControl::update(double measured_sir_db) {
  // One frame of aggregated +/-step commands, clamped to the power rails.
  const double error = target_sir_db_ - measured_sir_db;
  const double max_swing =
      config_.step_db * static_cast<double>(config_.commands_per_frame);
  const double correction = std::clamp(error, -max_swing, max_swing);
  power_dbm_ = std::clamp(power_dbm_ + correction, config_.min_power_dbm,
                          config_.max_power_dbm);
  saturated_ = power_dbm_ >= config_.max_power_dbm - 1e-12;
  return power_dbm_;  // wattage stale until set_power_watt() commits it
}

OuterLoopPowerControl::OuterLoopPowerControl(double initial_target_db, double fer_target,
                                             double step_up_db, double min_db, double max_db)
    : target_db_(initial_target_db),
      fer_target_(fer_target),
      step_up_db_(step_up_db),
      step_down_db_(step_up_db * fer_target / (1.0 - fer_target)),
      min_db_(min_db),
      max_db_(max_db) {
  WCDMA_ASSERT(fer_target > 0.0 && fer_target < 1.0);
}

double OuterLoopPowerControl::on_frame(bool frame_error) {
  // Sawtooth: jump up on error, creep down otherwise; equilibrium FER is
  // step_down / (step_up + step_down) == fer_target.
  target_db_ += frame_error ? step_up_db_ : -step_down_db_;
  target_db_ = std::clamp(target_db_, min_db_, max_db_);
  return target_db_;
}

}  // namespace wcdma::power
