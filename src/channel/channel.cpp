#include "src/channel/channel.hpp"

#include "src/common/assert.hpp"

namespace wcdma::channel {

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
