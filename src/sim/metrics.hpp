// Metric collection for the dynamic simulations: the paper's evaluation
// axes are average packet (burst) delay, data-user capacity, and coverage,
// with BER/outage and utilisation as supporting signals.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/stats.hpp"

namespace wcdma::sim {

inline constexpr std::size_t kCoverageBins = 12;

namespace detail {
template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;
}  // namespace detail

struct SimMetrics {
  // Burst (packet) delay: arrival -> last bit delivered.
  common::StreamingMoments burst_delay_s;
  common::Histogram delay_hist{0.0, 60.0, 240};
  // Queueing component only: arrival -> grant.
  common::StreamingMoments queue_delay_s;
  // Granted spreading-gain ratios (m_j > 0 only).
  common::StreamingMoments granted_sgr;
  // SCH throughput actually delivered, bits/s averaged over data users.
  double data_bits_delivered = 0.0;
  double observed_s = 0.0;
  // Delay binned by normalised distance from the serving BS at burst
  // arrival (coverage, E7): bin i covers [i, i+1) * (1.2 R / kCoverageBins).
  std::vector<common::StreamingMoments> delay_by_distance{kCoverageBins};

  // PHY health.
  std::int64_t sch_frames = 0;          // frames with an active SCH burst
  std::int64_t sch_outage_frames = 0;   // VTAOC below mode-1 threshold
  std::int64_t ber_violation_frames = 0;
  std::vector<std::int64_t> mode_frames = std::vector<std::int64_t>(8, 0);

  // Admission activity.
  std::int64_t requests_seen = 0;
  std::int64_t grants = 0;
  std::int64_t reject_rounds = 0;  // scheduling rounds that granted nothing
  /// Grants served on a different carrier than the request arrived on
  /// (inter-carrier hand-down policies only).
  std::int64_t carrier_hand_downs = 0;
  common::StreamingMoments pending_queue_len;

  // Network load.
  common::StreamingMoments forward_load_fraction;  // P_k / P_max
  common::StreamingMoments reverse_rise_db;        // 10log10(L_k / N)
  std::int64_t bs_power_saturations = 0;
  std::int64_t mobile_power_saturations = 0;
  common::StreamingMoments voice_sir_error_db;     // achieved - target

  /// Burst requests refused by the service's bounded injection queue
  /// (ResultCode::kNackOverload).  Zero on the batch path: internal
  /// arrivals never cross the service gate.
  std::int64_t overload_sheds = 0;

  /// The one field list.  Calls v("name", m.field...) once per field, in
  /// declaration order (which is also the checkpoint archive order), over
  /// any number of SimMetrics in lockstep: fields(v, *this) visits one
  /// object, fields(v, *this, other) pairs two.  io(), merge(),
  /// first_difference() and service_main's --metrics-out JSON all walk this
  /// list, so adding a metric is one member plus one row here.
  template <class V, class... M>
  static void fields(V&& v, M&... m) {
    v("burst_delay_s", m.burst_delay_s...);
    v("delay_hist", m.delay_hist...);
    v("queue_delay_s", m.queue_delay_s...);
    v("granted_sgr", m.granted_sgr...);
    v("data_bits_delivered", m.data_bits_delivered...);
    v("observed_s", m.observed_s...);
    v("delay_by_distance", m.delay_by_distance...);
    v("sch_frames", m.sch_frames...);
    v("sch_outage_frames", m.sch_outage_frames...);
    v("ber_violation_frames", m.ber_violation_frames...);
    v("mode_frames", m.mode_frames...);
    v("requests_seen", m.requests_seen...);
    v("grants", m.grants...);
    v("reject_rounds", m.reject_rounds...);
    v("carrier_hand_downs", m.carrier_hand_downs...);
    v("pending_queue_len", m.pending_queue_len...);
    v("forward_load_fraction", m.forward_load_fraction...);
    v("reverse_rise_db", m.reverse_rise_db...);
    v("bs_power_saturations", m.bs_power_saturations...);
    v("mobile_power_saturations", m.mobile_power_saturations...);
    v("voice_sir_error_db", m.voice_sir_error_db...);
    v("overload_sheds", m.overload_sheds...);
  }

  void merge(const SimMetrics& other);

  /// Checkpoint serialization: every accumulator round-trips bit-exactly so
  /// a resumed run's final metrics equal the uninterrupted run's.  The
  /// vector fields are fixed-shape (sized at construction).
  template <class Ar>
  void io(Ar& ar) {
    fields([&ar](const char*, auto& f) { io_field(ar, f); }, *this);
  }

  /// Name of the first field whose archived bytes differ between `a` and
  /// `b` (doubles compared by bit pattern), or "" when every field is
  /// bit-identical.
  static std::string first_difference(const SimMetrics& a, const SimMetrics& b);

  double mean_delay_s() const { return burst_delay_s.mean(); }
  double p95_delay_s() const { return delay_hist.percentile(0.95); }
  double data_throughput_bps() const {
    return observed_s > 0.0 ? data_bits_delivered / observed_s : 0.0;
  }
  double sch_outage_rate() const {
    return sch_frames > 0 ? static_cast<double>(sch_outage_frames) /
                                static_cast<double>(sch_frames)
                          : 0.0;
  }
  double grant_rate() const {
    return requests_seen > 0 ? static_cast<double>(grants) /
                                   static_cast<double>(requests_seen)
                             : 0.0;
  }

 private:
  /// One field through an archive: vectors are fixed-shape lanes, every
  /// other field goes by its C++ type.  `T` may be const for a writer.
  template <class Ar, class T>
  static void io_field(Ar& ar, T& f) {
    if constexpr (detail::kIsVector<std::remove_const_t<T>>) {
      ar.fixed(f);
    } else {
      ar(f);
    }
  }
};

}  // namespace wcdma::sim
