#include "perfbench/src/util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

double nearest_rank(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  return xs[std::min(xs.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> xs) { return nearest_rank(std::move(xs), 0.5); }

double tail_percentile(std::vector<double> xs, double* pct, std::size_t min_beyond) {
  const std::size_t n = xs.size();
  if (n == 0) {
    if (pct) *pct = 0.0;
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const auto rank_of = [n](double p) {
    return static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  };
  const std::size_t rank = std::min(rank_of(0.99), n - min_beyond);  // 1-based
  if (rank < rank_of(0.5)) {  // no tail above the median is resolvable
    if (pct) *pct = 100.0;
    return xs.back();
  }
  if (pct) *pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return xs[rank - 1];
}

Quartiles quartiles(std::vector<double> xs) {
  Quartiles q;
  const std::size_t n = xs.size();
  if (n < 2) {
    q.q1 = q.q2 = q.q3 = n ? xs[0] : 0.0;
    return q;
  }
  std::sort(xs.begin(), xs.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at i*m/4.
  // The index is clamped before the (possibly negative) weight is taken.
  const auto m = static_cast<long long>(n) + 1;
  double cut[3];
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::min(std::max(i * m / 4, 1LL), static_cast<long long>(n) - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) / 4.0;
  }
  q.q1 = cut[0];
  q.q2 = cut[1];
  q.q3 = cut[2];
  return q;
}

void Failures::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (first_.size() < 8) first_.push_back(what);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

int SpanRecorder::begin(const char* name, int parent, std::int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::int64_t self_time_ns(const std::vector<Span>& spans, std::size_t index) {
  const Span& p = spans[index];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& s : spans) {
    if (s.parent != static_cast<int>(index)) continue;
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids.emplace_back(lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : kids) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return (p.end_ns - p.start_ns) - covered;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  // Children always follow their parent, so one pass over the log collects
  // each span's direct children for the self-time computation.
  std::vector<std::vector<std::size_t>> kids(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) kids[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<Span> local{s};
    for (std::size_t k : kids[i]) {
      local.push_back(spans_[k]);
      local.back().parent = 0;
    }
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 ",\"parent\":%d,\"request\":%" PRId64 ",\"self_ns\":%" PRId64 "}\n",
                 i, s.name.c_str(), s.start_ns, s.end_ns, s.parent, s.request,
                 self_time_ns(local, 0));
  }
  return std::fclose(f) == 0;
}

namespace {

void put_f(std::string* out, const std::string& name, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s=%.17g\n", name.c_str(), v);
  *out += buf;
}

void put_i(std::string* out, const std::string& name, std::int64_t v) {
  *out += name + "=" + std::to_string(v) + "\n";
}

void put_m(std::string* out, const std::string& name,
           const wcdma::common::StreamingMoments& m) {
  put_i(out, name + ".n", static_cast<std::int64_t>(m.count()));
  put_f(out, name + ".mean", m.mean());
  put_f(out, name + ".var", m.variance());
  put_f(out, name + ".min", m.min());
  put_f(out, name + ".max", m.max());
}

}  // namespace

std::string render_metrics(const wcdma::sim::SimMetrics& m) {
  std::string out;
  put_m(&out, "burst_delay_s", m.burst_delay_s);
  const auto& bins = m.delay_hist.bins();
  for (std::size_t i = 0; i < bins.size(); ++i) {
    put_i(&out, "delay_hist." + std::to_string(i), static_cast<std::int64_t>(bins[i]));
  }
  put_m(&out, "queue_delay_s", m.queue_delay_s);
  put_m(&out, "granted_sgr", m.granted_sgr);
  put_f(&out, "data_bits_delivered", m.data_bits_delivered);
  put_f(&out, "observed_s", m.observed_s);
  for (std::size_t i = 0; i < m.delay_by_distance.size(); ++i) {
    put_m(&out, "delay_by_distance." + std::to_string(i), m.delay_by_distance[i]);
  }
  put_i(&out, "sch_frames", m.sch_frames);
  put_i(&out, "sch_outage_frames", m.sch_outage_frames);
  put_i(&out, "ber_violation_frames", m.ber_violation_frames);
  for (std::size_t i = 0; i < m.mode_frames.size(); ++i) {
    put_i(&out, "mode_frames." + std::to_string(i), m.mode_frames[i]);
  }
  put_i(&out, "requests_seen", m.requests_seen);
  put_i(&out, "grants", m.grants);
  put_i(&out, "reject_rounds", m.reject_rounds);
  put_i(&out, "carrier_hand_downs", m.carrier_hand_downs);
  put_m(&out, "pending_queue_len", m.pending_queue_len);
  put_m(&out, "forward_load_fraction", m.forward_load_fraction);
  put_m(&out, "reverse_rise_db", m.reverse_rise_db);
  put_i(&out, "bs_power_saturations", m.bs_power_saturations);
  put_i(&out, "mobile_power_saturations", m.mobile_power_saturations);
  put_m(&out, "voice_sir_error_db", m.voice_sir_error_db);
  put_i(&out, "overload_sheds", m.overload_sheds);
  return out;
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

double peak_rss_mb(bool with_children) {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (with_children) {
    getrusage(RUSAGE_CHILDREN, &kids);
    kb += static_cast<double>(kids.ru_maxrss);
  }
  return kb * 1024.0 / 1e6;
}

}  // namespace perfbench
