// perfbench: one workload per invocation, result as the last stdout line.
//
//   perfbench --workload metro-culled|burst-service|sweep-csi --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// and writes the run's spans to DIR/spans-<workload>-<seed>.jsonl.  Exit
// status is 1 when any operation or check failed, 2 on bad usage or an
// untimeable build.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/bench.hpp"
#include "src/common/simd.hpp"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kDebug = false;
#else
constexpr bool kDebug = true;
#endif

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload metro-culled|burst-service|"
               "sweep-csi --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing option value");
    const char* v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(v);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--out-dir") {
      o.out_dir = v;
    } else {
      return usage("unknown option");
    }
  }
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");
  void (*run)(const Options&, Report&) = nullptr;
  if (o.workload == "metro-culled") run = run_metro;
  if (o.workload == "burst-service") run = run_burst_service;
  if (o.workload == "sweep-csi") run = run_sweep_csi;
  if (!run) return usage("unknown --workload");

  const std::string flags = PERFBENCH_FLAGS;
  // Debug builds validate every incrementally-maintained structure every 64
  // frames inside step_frame(); sanitizers slow everything.  Neither times.
  if (kDebug || kSanitized || flags.find("sanitize") != std::string::npos) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build (flags: %s)\n",
                 kDebug ? "non-NDEBUG" : "sanitizer", flags.c_str());
    return 2;
  }
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  o.nproc = cpus > 0 ? static_cast<std::size_t>(cpus) : 1;
  if (!make_dir(o.out_dir)) return usage("cannot create --out-dir");

  std::printf("# stamp {\"nproc\":%zu,\"simd\":\"%s\",\"compiler\":\"%s\",\"flags\":\"%s\"}\n",
              o.nproc, wcdma::common::simd_level_name(wcdma::common::active_simd_level()),
              json_escape(compiler()).c_str(), json_escape(flags).c_str());
  std::fflush(stdout);

  Report r;
  run(o, r);

  for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
  for (const std::string& f : r.failures.first_failures()) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  std::printf("# failed_frac = %.6g fraction (%lld of %lld operations)\n",
              r.failures.fraction(), static_cast<long long>(r.failures.failed()),
              static_cast<long long>(r.failures.attempted()));
  for (std::size_t w = 0; w < r.digests.size(); ++w) {
    std::printf("# digest %s seed=%llu world=%zu fnv1a64=%s\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), w, fnv1a_hex(r.digests[w]).c_str());
  }
  if (o.trace) {
    const std::string path =
        o.out_dir + "/spans-" + o.workload + "-" + std::to_string(o.seed) + ".jsonl";
    const bool ok = r.spans.write_jsonl(path);
    r.failures.attempt(ok, "cannot write " + path);
    std::printf("# spans %zu -> %s\n", r.spans.spans().size(), path.c_str());
  }

  std::string metrics;
  for (const Metric& m : r.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    metrics += buf;
  }
  const bool correct = r.failures.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(r.failures.attempted()),
              static_cast<long long>(r.failures.failed()), metrics.c_str());
  return correct ? 0 : 1;
}
