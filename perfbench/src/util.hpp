// Helpers shared by the benchmark's workloads: order statistics, failure
// accounting, in-memory spans, the SimMetrics digest and resource probes.
// Everything here is benchmark-side; the simulator under test never sees it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// SplitMix64: the benchmark's own input generator, seeded from --seed and
/// independent of every stream inside the simulator.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

// --- Order statistics ------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample: the value at
/// 1-based rank ceil(p * n), clamped to [1, n].  0 for an empty sample.
double nearest_rank(std::vector<double> xs, double p);

double median(std::vector<double> xs);

/// The tail statistic every "p99" metric reports: the 99th nearest-rank
/// percentile when at least `min_beyond` samples lie beyond its rank,
/// otherwise the highest rank that still has `min_beyond` samples beyond it
/// (rank n - min_beyond), and the maximum when that rank would fall below
/// the median's.  `pct` receives the percentile used (100 = maximum).
double tail_percentile(std::vector<double> xs, double* pct,
                       std::size_t min_beyond = 10);

/// First, second and third quartile with the same interpolation as
/// Python's statistics.quantiles(data, n=4) (the default "exclusive"
/// method); needs at least two samples.
struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};
Quartiles quartiles(std::vector<double> xs);

// --- Failure accounting ----------------------------------------------------

/// Counts attempted and failed operations and keeps the first few failure
/// descriptions for the report.
class Failures {
 public:
  void attempt(bool ok, const std::string& what);
  void attempt_many(std::int64_t n) { attempted_ += n; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  double fraction() const {
    return attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                          : 0.0;
  }
  const std::vector<std::string>& first_failures() const { return first_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> first_;
};

// --- Spans -----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;           // index into the recorder, -1 for a root
  std::int64_t request = -1;  // shared by every span of one request
};

/// In-memory span log.  Disabled recorders cost one branch per call; an
/// enabled one appends to a vector and writes JSONL once, at the end.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Turns recording on or off; spans already recorded stay.
  void set_enabled(bool on) { enabled_ = on; }
  int begin(const char* name, int parent = -1, std::int64_t request = -1);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span, with its self time; false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Self time of span `index`: its duration minus the part of its interval
/// that the union of its direct children covers (overlapping children count
/// once; children are clipped to the parent's interval).
std::int64_t self_time_ns(const std::vector<Span>& spans, std::size_t index);

// --- Digest and resources --------------------------------------------------

/// Every SimMetrics field rendered with %.17g (integers exactly), one
/// "name=value" per line, in declaration order.
std::string render_metrics(const wcdma::sim::SimMetrics& m);
/// FNV-1a 64 of a byte string, as 16 hex digits.
std::string fnv1a_hex(const std::string& bytes);

/// Peak resident set of this process, plus that of its largest reaped
/// child when `with_children` is set, in MB (10^6 bytes).
double peak_rss_mb(bool with_children);

}  // namespace perfbench
