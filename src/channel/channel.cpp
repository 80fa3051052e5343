#include "src/channel/channel.hpp"

#include <cmath>

#include "src/common/assert.hpp"

namespace wcdma::channel {

namespace {

std::unique_ptr<FadingProcess> make_fading(const LinkConfig& config, common::Rng rng) {
  switch (config.fading) {
    case FadingKind::kJakes:
      return std::make_unique<JakesFading>(config.doppler_hz, rng, config.jakes_paths);
    case FadingKind::kAr1:
      return std::make_unique<Ar1Fading>(config.doppler_hz, config.frame_s, rng);
    case FadingKind::kNone:
      return nullptr;
  }
  return nullptr;
}

}  // namespace

Link::Link(const LinkConfig& config, const PathLoss* path_loss, common::Rng rng)
    : path_loss_(path_loss),
      shadowing_(config.shadowing, rng.fork(1)),
      fading_(make_fading(config, rng.fork(2))) {
  WCDMA_ASSERT(path_loss_ != nullptr);
}

void Link::step(double moved_m, double dt) {
  shadowing_.step(moved_m);
  if (fading_) fading_->step(dt);
}

double Link::mean_gain() const {
  return path_loss_->gain_linear(distance_m_) * shadowing_.gain_linear();
}

double Link::instantaneous_gain() const { return mean_gain() * fading_factor(); }

double Link::fading_factor() const { return fading_ ? fading_->power_gain() : 1.0; }

CsiFeedback::CsiFeedback(std::size_t delay_frames, double error_sigma_db, common::Rng rng)
    : delay_frames_(delay_frames), error_sigma_db_(error_sigma_db), rng_(rng) {}

void CsiFeedback::push(double csi_linear) {
  WCDMA_DEBUG_ASSERT(csi_linear >= 0.0);
  double reported = csi_linear;
  if (error_sigma_db_ > 0.0) {
    reported *= rng_.lognormal_shadow(error_sigma_db_);
  }
  pipe_.push_back(reported);
  // Keep exactly delay+1 entries: front() is the delayed view.
  while (pipe_.size() > delay_frames_ + 1) pipe_.pop_front();
}

double CsiFeedback::current() const {
  WCDMA_ASSERT(!pipe_.empty());
  return pipe_.front();
}

}  // namespace wcdma::channel
