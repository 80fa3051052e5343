#include "src/sim/metrics.hpp"

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::sim {

namespace {

/// Counters and totals add; accumulators merge.
template <class T>
void merge_field(T& mine, const T& theirs) {
  if constexpr (std::is_arithmetic_v<T>) {
    mine += theirs;
  } else {
    mine.merge(theirs);
  }
}

template <class T>
void merge_field(std::vector<T>& mine, const std::vector<T>& theirs) {
  WCDMA_ASSERT(mine.size() == theirs.size());
  for (std::size_t i = 0; i < mine.size(); ++i) merge_field(mine[i], theirs[i]);
}

}  // namespace

void SimMetrics::merge(const SimMetrics& other) {
  fields([](const char*, auto& mine, const auto& theirs) { merge_field(mine, theirs); },
         *this, other);
}

std::string SimMetrics::first_difference(const SimMetrics& a, const SimMetrics& b) {
  std::string differs;
  fields(
      [&differs](const char* name, const auto& x, const auto& y) {
        if (!differs.empty()) return;
        common::BinaryWriter wx, wy;
        io_field(wx, x);
        io_field(wy, y);
        if (wx.bytes() != wy.bytes()) differs = name;
      },
      a, b);
  return differs;
}

}  // namespace wcdma::sim
