// Tests of the benchmark's own helpers: order statistics, the tail rule,
// quartiles, failure accounting, span self time and the solver tap.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/util.hpp"
#include "src/admission/schedulers.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK(%s)\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

void test_nearest_rank() {
  CHECK(perfbench::nearest_rank({}, 0.5) == 0.0);
  CHECK(perfbench::nearest_rank({7.0}, 0.99) == 7.0);
  CHECK(perfbench::nearest_rank(one_to(10), 0.5) == 5.0);   // ceil(5) = 5
  CHECK(perfbench::nearest_rank(one_to(10), 0.51) == 6.0);  // ceil(5.1) = 6
  CHECK(perfbench::nearest_rank(one_to(10), 0.0) == 1.0);   // rank clamps to 1
  CHECK(perfbench::nearest_rank(one_to(10), 1.0) == 10.0);
  CHECK(perfbench::nearest_rank(one_to(100), 0.99) == 99.0);
  CHECK(perfbench::median(one_to(9)) == 5.0);
}

void test_tail_rule() {
  double pct = -1.0;
  // 2000 samples: p99 (rank 1980) has 20 beyond it, so p99 itself is used.
  CHECK(perfbench::tail_percentile(one_to(2000), &pct) == 1980.0);
  CHECK(near(pct, 99.0));
  // 1000 samples: rank 990 has exactly 10 beyond it -- still p99.
  CHECK(perfbench::tail_percentile(one_to(1000), &pct) == 990.0);
  CHECK(near(pct, 99.0));
  // 500 samples: p99 (rank 495) has 5 beyond; fall back to rank 490.
  CHECK(perfbench::tail_percentile(one_to(500), &pct) == 490.0);
  CHECK(near(pct, 98.0));
  // 20 samples: rank 10 has 10 beyond it and is the median's rank.
  CHECK(perfbench::tail_percentile(one_to(20), &pct) == 10.0);
  CHECK(near(pct, 50.0));
  // 19 samples: rank 9 would sit below the median; report the maximum.
  CHECK(perfbench::tail_percentile(one_to(19), &pct) == 19.0);
  CHECK(pct == 100.0);
  // Ten or fewer samples: nothing has 10 beyond it; report the maximum.
  CHECK(perfbench::tail_percentile(one_to(10), &pct) == 10.0);
  CHECK(pct == 100.0);
  CHECK(perfbench::tail_percentile({}, &pct) == 0.0);
}

void test_quartiles() {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  perfbench::Quartiles q = perfbench::quartiles(one_to(10));
  CHECK(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = perfbench::quartiles({2.0, 1.0});
  CHECK(near(q.q1, 0.75) && near(q.q2, 1.5) && near(q.q3, 2.25));
  // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
  q = perfbench::quartiles(one_to(5));
  CHECK(near(q.q1, 1.5) && near(q.q2, 3.0) && near(q.q3, 4.5));
}

void test_failures() {
  perfbench::Failures f;
  CHECK(f.fraction() == 0.0);
  f.attempt_many(6);
  f.attempt(true, "fine");
  f.attempt(false, "first");
  f.attempt(false, "second");
  CHECK(f.attempted() == 9);
  CHECK(f.failed() == 2);
  CHECK(near(f.fraction(), 2.0 / 9.0));
  CHECK(f.first_failures().size() == 2 && f.first_failures()[0] == "first");
  for (int i = 0; i < 20; ++i) f.attempt(false, "more");
  CHECK(f.first_failures().size() == 8);  // descriptions are capped
  CHECK(f.failed() == 22);
}

void test_self_time() {
  using perfbench::Span;
  std::vector<Span> s;
  s.push_back({"root", 0, 100, -1, 1});
  s.push_back({"a", 10, 30, 0, 1});
  s.push_back({"b", 20, 50, 0, 1});   // overlaps a: union 10..50 = 40
  s.push_back({"c", 90, 120, 0, 1});  // clipped to the parent: 10
  s.push_back({"grand", 12, 28, 1, 1});  // a grandchild does not count twice
  CHECK(perfbench::self_time_ns(s, 0) == 100 - 40 - 10);
  CHECK(perfbench::self_time_ns(s, 1) == 20 - 16);
  CHECK(perfbench::self_time_ns(s, 2) == 30);
  CHECK(perfbench::self_time_ns(s, 4) == 16);
  // A disabled recorder records nothing.
  perfbench::SpanRecorder off(false);
  CHECK(off.begin("x") == -1);
  off.end(-1);
  CHECK(off.spans().empty());
  perfbench::SpanRecorder on(true);
  const int outer = on.begin("outer", -1, 7);
  const int inner = on.begin("inner", outer, 7);
  on.end(inner);
  on.end(outer);
  CHECK(on.spans().size() == 2 && on.spans()[1].parent == 0);
  CHECK(on.spans()[0].end_ns >= on.spans()[1].end_ns);
  CHECK(perfbench::self_time_ns(on.spans(), 0) >= 0);
}

}  // namespace

/// One admission round through JabaSdScheduler with `n` requests on one
/// row: 0.1 per grant step against a budget of `budget`, grants up to `upper`.
wcdma::admission::Allocation schedule_round(std::size_t n, double budget, int upper) {
  wcdma::admission::BurstProblem p;
  p.region.a = wcdma::common::Matrix(1, n, 0.1);
  p.region.b = {budget};
  p.requests.resize(n);
  p.c.assign(n, 1.0);
  p.upper.assign(n, upper);
  return wcdma::admission::JabaSdScheduler().schedule(p);
}

void test_opt_tap() {
  // The scheduler's calls into opt/ reach the tap only while it is open,
  // and the wrappers hand back the real solvers' answers.
  perfbench::OptTap tap;
  CHECK(schedule_round(2, 0.5, 3).granted_count() == 2);
  perfbench::open_opt_tap(&tap);
  const wcdma::admission::Allocation exact = schedule_round(2, 0.5, 3);  // B&B
  const wcdma::admission::Allocation greedy = schedule_round(33, 1.0, 1);  // > 32: greedy
  perfbench::open_opt_tap(nullptr);
  schedule_round(2, 0.5, 3);
  CHECK(exact.proven_optimal && near(exact.objective, 5.0));
  CHECK(greedy.granted_count() == 10);
  CHECK(tap.solves.size() == 1 && tap.greedy.size() == 1);
  if (tap.solves.size() == 1 && tap.greedy.size() == 1) {
    CHECK(tap.solves[0].requests == 2 && tap.solves[0].feasible);
    CHECK(!tap.solves[0].node_limit && tap.solves[0].nodes >= 1 && tap.solves[0].s > 0.0);
    CHECK(tap.greedy[0].requests == 33 && tap.greedy[0].feasible);
  }
}

int main() {
  test_nearest_rank();
  test_tail_rule();
  test_quartiles();
  test_failures();
  test_self_time();
  test_opt_tap();
  if (g_failures) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench helper tests passed\n");
  return 0;
}
