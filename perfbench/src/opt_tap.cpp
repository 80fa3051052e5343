// The opt/ layer probe: times the solver calls the admission layer makes,
// at the opt/ module boundary.  perfbench links with
//   --wrap=_ZNK5wcdma3opt17BranchBoundSolver5solveERKNS0_14IntegerProgramE
//   --wrap=_ZN5wcdma3opt17greedy_incrementsERKNS0_14IntegerProgramE
// so every call from another object of the library (JabaSdScheduler's
// exact and greedy paths) goes through the wrappers below, which forward to
// the real functions and, while a tap is open, record the call.  The
// solver's own internal use of greedy_increments (its incumbent) stays
// inside branch_bound.o and is not seen.  Should either signature change,
// the __real_ references no longer resolve and the link fails.
#include <atomic>
#include <mutex>

#include "perfbench/src/bench.hpp"
#include "src/opt/branch_bound.hpp"

namespace {

std::atomic<perfbench::OptTap*> g_tap{nullptr};
std::mutex g_tap_mutex;  // run_sweep's threads may solve concurrently

}  // namespace

namespace perfbench {

void open_opt_tap(OptTap* tap) { g_tap.store(tap); }

}  // namespace perfbench

using wcdma::opt::BranchBoundSolver;
using wcdma::opt::IntegerProgram;
using wcdma::opt::IpResult;

// A member function's Itanium ABI is that of a free function taking `this`
// first, so the wrappers are declared that way.
extern "C" {
IpResult __real__ZNK5wcdma3opt17BranchBoundSolver5solveERKNS0_14IntegerProgramE(
    const BranchBoundSolver* self, const IntegerProgram& ip);
std::vector<int> __real__ZN5wcdma3opt17greedy_incrementsERKNS0_14IntegerProgramE(
    const IntegerProgram& ip);

IpResult __wrap__ZNK5wcdma3opt17BranchBoundSolver5solveERKNS0_14IntegerProgramE(
    const BranchBoundSolver* self, const IntegerProgram& ip) {
  if (g_tap.load() == nullptr) {
    return __real__ZNK5wcdma3opt17BranchBoundSolver5solveERKNS0_14IntegerProgramE(self, ip);
  }
  const perfbench::Clock::time_point t0 = perfbench::Clock::now();
  IpResult res = __real__ZNK5wcdma3opt17BranchBoundSolver5solveERKNS0_14IntegerProgramE(self, ip);
  const double s = perfbench::seconds_since(t0);
  const std::lock_guard<std::mutex> lock(g_tap_mutex);
  if (perfbench::OptTap* tap = g_tap.load()) {
    const bool ok = res.feasible && wcdma::opt::ip_feasible(ip, res.x);
    tap->solves.push_back({s, res.nodes, !res.proven_optimal, ip.c.size(), ok});
  }
  return res;
}

std::vector<int> __wrap__ZN5wcdma3opt17greedy_incrementsERKNS0_14IntegerProgramE(
    const IntegerProgram& ip) {
  if (g_tap.load() == nullptr) {
    return __real__ZN5wcdma3opt17greedy_incrementsERKNS0_14IntegerProgramE(ip);
  }
  const perfbench::Clock::time_point t0 = perfbench::Clock::now();
  std::vector<int> m = __real__ZN5wcdma3opt17greedy_incrementsERKNS0_14IntegerProgramE(ip);
  const double s = perfbench::seconds_since(t0);
  const std::lock_guard<std::mutex> lock(g_tap_mutex);
  if (perfbench::OptTap* tap = g_tap.load()) {
    tap->greedy.push_back({s, 0, false, ip.c.size(), wcdma::opt::ip_feasible(ip, m)});
  }
  return m;
}
}  // extern "C"
