#include "src/sim/metrics.hpp"

#include "src/common/assert.hpp"

namespace wcdma::sim {

void SimMetrics::merge(const SimMetrics& other) {
  burst_delay_s.merge(other.burst_delay_s);
  delay_hist.merge(other.delay_hist);
  queue_delay_s.merge(other.queue_delay_s);
  granted_sgr.merge(other.granted_sgr);
  data_bits_delivered += other.data_bits_delivered;
  observed_s += other.observed_s;
  WCDMA_ASSERT(delay_by_distance.size() == other.delay_by_distance.size());
  for (std::size_t i = 0; i < delay_by_distance.size(); ++i) {
    delay_by_distance[i].merge(other.delay_by_distance[i]);
  }
  sch_frames += other.sch_frames;
  sch_outage_frames += other.sch_outage_frames;
  ber_violation_frames += other.ber_violation_frames;
  WCDMA_ASSERT(mode_frames.size() == other.mode_frames.size());
  for (std::size_t i = 0; i < mode_frames.size(); ++i) {
    mode_frames[i] += other.mode_frames[i];
  }
  requests_seen += other.requests_seen;
  grants += other.grants;
  reject_rounds += other.reject_rounds;
  carrier_hand_downs += other.carrier_hand_downs;
  pending_queue_len.merge(other.pending_queue_len);
  forward_load_fraction.merge(other.forward_load_fraction);
  reverse_rise_db.merge(other.reverse_rise_db);
  bs_power_saturations += other.bs_power_saturations;
  mobile_power_saturations += other.mobile_power_saturations;
  voice_sir_error_db.merge(other.voice_sir_error_db);
  overload_sheds += other.overload_sheds;
}

}  // namespace wcdma::sim
