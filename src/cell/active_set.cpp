#include "src/cell/active_set.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"

namespace wcdma::cell {

ActiveSet::ActiveSet(const ActiveSetConfig& config, std::size_t num_cells)
    : config_(config),
      t_add_linear_(std::pow(10.0, config.t_add_db / 10.0)),
      t_drop_linear_(std::pow(10.0, config.t_drop_db / 10.0)),
      last_pilot_db_(num_cells, -999.0),
      below_drop_s_(num_cells, 0.0) {
  WCDMA_ASSERT(config_.max_size >= 1);
  WCDMA_ASSERT(config_.reduced_size >= 1 && config_.reduced_size <= config_.max_size);
  WCDMA_ASSERT(config_.t_add_db >= config_.t_drop_db);
}

void ActiveSet::drop_phase(double t_drop, double dt) {
  // Members below T_DROP for longer than the drop timer leave.  In-place
  // compaction keeps member order and avoids a per-update allocation.
  std::size_t kept = 0;
  for (std::size_t cell : members_) {
    if (last_pilot_db_[cell] < t_drop) {
      below_drop_s_[cell] += dt;
      if (below_drop_s_[cell] >= config_.drop_timer_s) {
        below_drop_s_[cell] = 0.0;
        continue;  // dropped
      }
    } else {
      below_drop_s_[cell] = 0.0;
    }
    members_[kept++] = cell;
  }
  members_.resize(kept);
}

void ActiveSet::add_phase() {
  // Candidates (gathered by the caller into candidates_scratch_) join
  // strongest first until max_size; beyond that they displace the weakest
  // member when stronger.
  std::sort(candidates_scratch_.begin(), candidates_scratch_.end(),
            [&](std::size_t a, std::size_t b) {
              return last_pilot_db_[a] > last_pilot_db_[b];
            });
  for (std::size_t cell : candidates_scratch_) {
    if (members_.size() >= config_.max_size) {
      auto weakest = std::min_element(
          members_.begin(), members_.end(), [&](std::size_t a, std::size_t b) {
            return last_pilot_db_[a] < last_pilot_db_[b];
          });
      if (last_pilot_db_[cell] > last_pilot_db_[*weakest]) {
        *weakest = cell;
      }
      continue;
    }
    members_.push_back(cell);
  }
}

void ActiveSet::finish_update() {
  std::sort(members_.begin(), members_.end(), [&](std::size_t a, std::size_t b) {
    return last_pilot_db_[a] > last_pilot_db_[b];
  });
  initialised_ = true;
}

void ActiveSet::update(const std::vector<double>& pilot_ec_io_db, double dt) {
  WCDMA_ASSERT(pilot_ec_io_db.size() == last_pilot_db_.size());
  last_pilot_db_ = pilot_ec_io_db;

  drop_phase(config_.t_drop_db, dt);

  // Add phase: non-members above T_ADD, strongest first, until max_size.
  candidates_scratch_.clear();
  for (std::size_t cell = 0; cell < pilot_ec_io_db.size(); ++cell) {
    if (pilot_ec_io_db[cell] >= config_.t_add_db && !contains(cell)) {
      candidates_scratch_.push_back(cell);
    }
  }
  add_phase();

  // Never run empty: latch onto the strongest pilot regardless of T_ADD so
  // a mobile always has a serving cell.
  if (members_.empty()) {
    std::size_t best = 0;
    for (std::size_t cell = 1; cell < pilot_ec_io_db.size(); ++cell) {
      if (pilot_ec_io_db[cell] > pilot_ec_io_db[best]) best = cell;
    }
    members_.push_back(best);
  }

  finish_update();
}

void ActiveSet::update_sparse(const std::vector<std::pair<std::size_t, double>>& pilots,
                              double floor_db, double dt) {
  // The implicit floor must sit below the drop threshold, or unreported
  // cells could not be treated as absent.
  WCDMA_ASSERT(floor_db < config_.t_drop_db);
  for (const auto& [cell, db] : pilots) {
    WCDMA_ASSERT(cell < last_pilot_db_.size());
    last_pilot_db_[cell] = db;
  }

  // Members are always among the reported cells (the culled provider keeps
  // active-set members candidates until hand-off drops them), so their
  // slots in last_pilot_db_ are fresh.
  drop_phase(config_.t_drop_db, dt);

  // Add phase over the reported cells only: unreported cells sit at the
  // floor, below T_ADD by construction.
  candidates_scratch_.clear();
  for (const auto& [cell, db] : pilots) {
    if (db >= config_.t_add_db && !contains(cell)) candidates_scratch_.push_back(cell);
  }
  add_phase();

  // Never run empty: latch onto the strongest reported pilot (all real
  // measurements beat the implicit floor).
  if (members_.empty() && !pilots.empty()) {
    std::size_t best = pilots.front().first;
    for (const auto& [cell, db] : pilots) {
      if (db > last_pilot_db_[best]) best = cell;
    }
    members_.push_back(best);
  }
  WCDMA_ASSERT(!members_.empty());

  finish_update();
}

void ActiveSet::update_sparse_linear(
    const std::vector<std::pair<std::size_t, double>>& pilots, double dt) {
  for (const auto& [cell, pilot] : pilots) {
    WCDMA_ASSERT(cell < last_pilot_db_.size());
    last_pilot_db_[cell] = pilot;
  }

  drop_phase(t_drop_linear_, dt);

  candidates_scratch_.clear();
  for (const auto& [cell, pilot] : pilots) {
    if (pilot >= t_add_linear_ && !contains(cell)) candidates_scratch_.push_back(cell);
  }
  add_phase();

  if (members_.empty() && !pilots.empty()) {
    std::size_t best = pilots.front().first;
    for (const auto& [cell, pilot] : pilots) {
      if (pilot > last_pilot_db_[best]) best = cell;
    }
    members_.push_back(best);
  }
  WCDMA_ASSERT(!members_.empty());

  finish_update();
}

std::vector<std::size_t> ActiveSet::reduced() const {
  WCDMA_ASSERT(initialised_);
  std::vector<std::size_t> out = members_;
  if (out.size() > config_.reduced_size) out.resize(config_.reduced_size);
  return out;
}

bool ActiveSet::contains(std::size_t cell) const {
  return std::find(members_.begin(), members_.end(), cell) != members_.end();
}

double ActiveSet::forward_adjustment() const {
  // Every reduced-set leg must transmit the SCH: linear cost in legs, with a
  // small combining discount on the extras.
  const double legs = static_cast<double>(std::min(members_.size(), config_.reduced_size));
  return 1.0 + 0.8 * (legs - 1.0);
}

double ActiveSet::reverse_adjustment() const {
  // Selection macro-diversity: two legs allow ~1 dB lower per-leg target.
  const double legs = static_cast<double>(std::min(members_.size(), config_.reduced_size));
  return legs > 1.0 ? 0.8 : 1.0;
}

}  // namespace wcdma::cell
