#include "src/sim/channel_state.hpp"

#include <algorithm>
#include <atomic>

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"
#include "src/sim/frame_state.hpp"

namespace wcdma::sim {

namespace {

/// Reference provider: every cell's link advances every frame.  This is the
/// legacy frame loop verbatim, so the default configuration stays
/// bit-identical across the seam.
class ExhaustiveChannelProvider final : public ChannelStateProvider {
 public:
  void init(const cell::HexLayout* layout, std::size_t num_users,
            FrameState* state) override {
    (void)num_users;
    WCDMA_ASSERT(layout != nullptr && state != nullptr);
    state_ = state;
    all_cells_.resize(layout->num_cells());
    for (std::size_t k = 0; k < all_cells_.size(); ++k) all_cells_[k] = k;
  }

  void step_user(std::size_t user, const ChannelUserView& view,
                 double frame_s) override {
    const double moved = view.mobility->step(frame_s);
    state_->step_user_links(user, view.mobility->position(), moved,
                            all_cells_.data(), all_cells_.size());
  }

  const std::vector<std::size_t>& cells_for(std::size_t) const override {
    return all_cells_;
  }

  std::uint64_t candidate_epoch() const override { return 0; }

  std::string name() const override { return "exhaustive"; }

 private:
  FrameState* state_ = nullptr;
  std::vector<std::size_t> all_cells_;
};

/// Neighbour-culling provider: each user maintains a candidate-cell set
/// (active-set members plus cells within the pilot-floor radius), refreshed
/// on a slow timer; only candidate links advance each frame.  With
/// `fast_math` the same candidate/epoch machinery drives the FrameState's
/// relaxed-precision link kernels instead of the bit-identical ones -- the
/// registry exposes that composition as the "fast" provider.
///
/// A refresh tests only the user's skin list: the cells within
/// radius + kSkinScale * cell radius of the position where the list was
/// built (a Verlet neighbour list).  The wrap distance is 1-Lipschitz in
/// position, so while the user stays within the skin of that anchor no
/// cell off the list can be within the radius, and the candidate set is
/// exactly the full-scan one.  Skin lists and spare set buffers are caches
/// rebuilt from state; they stay out of io(), and restore starts them empty.
class CulledChannelProvider final : public ChannelStateProvider {
 public:
  CulledChannelProvider(const CsiConfig& csi, bool fast_math)
      : csi_(csi), fast_math_(fast_math) {}

  void init(const cell::HexLayout* layout, std::size_t num_users,
            FrameState* state) override {
    WCDMA_ASSERT(layout != nullptr && state != nullptr);
    layout_ = layout;
    state_ = state;
    state_->set_fast_math(fast_math_);
    radius_m_ = csi_.cull_radius_scale * layout_->cell_radius_m();
    const double skin_m = kSkinScale * layout_->cell_radius_m();
    const double reach_m = radius_m_ + skin_m;
    skin_move_sq_m_ = skin_m * skin_m * (1.0 - cell::HexLayout::kRadiusGuard);
    skin_reach_sq_m_ = reach_m * reach_m * (1.0 + cell::HexLayout::kRadiusGuard);
    candidates_.assign(num_users, {});
    refresh_left_s_.assign(num_users, 0.0);
    caches_.assign(num_users, {});
    epoch_.store(1, std::memory_order_relaxed);
  }

  void step_user(std::size_t user, const ChannelUserView& view,
                 double frame_s) override {
    const double moved = view.mobility->step(frame_s);
    const cell::Point pos = view.mobility->position();
    refresh_left_s_[user] -= frame_s;
    if (candidates_[user].empty() || refresh_left_s_[user] <= 0.0) {
      refresh(user, pos, view);
    }
    state_->step_user_links(user, pos, moved, candidates_[user].data(),
                            candidates_[user].size());
  }

  const std::vector<std::size_t>& cells_for(std::size_t user) const override {
    return candidates_[user];
  }

  std::uint64_t candidate_epoch() const override {
    return epoch_.load(std::memory_order_relaxed);
  }

  bool culls() const override { return true; }

  std::string name() const override { return fast_math_ ? "fast" : "culled"; }

  /// One timer per user (fixed shape); candidate cells stored as u32.
  template <class Ar>
  void io(Ar& ar) {
    ar.u64(epoch_);
    ar.fixed(refresh_left_s_);
    ar.fixed(candidates_, [&](auto& c) { ar.var(c, 4, [&](auto& k) { ar.u32(k); }); });
  }
  void save_state(common::BinaryWriter& w) const override { w(*this); }
  void load_state(common::BinaryReader& r) override {
    r(*this);
    for (UserCache& cache : caches_) cache.skin.clear();
  }

 private:
  /// Skin width as a multiple of the cell radius: wide enough that a
  /// vehicular user keeps one list for tens of refreshes, narrow enough
  /// that the list stays close to the candidate set itself.
  static constexpr double kSkinScale = 0.5;

  /// Per-user caches, all rebuildable from (position, layout).  An empty
  /// skin list means "none yet": the next refresh scans every cell.
  struct UserCache {
    std::vector<std::size_t> spare;  // next candidate set, swapped in
    std::vector<std::size_t> skin;   // ascending cells within reach of anchor
    cell::Point anchor;
  };

  void refresh(std::size_t user, cell::Point pos, const ChannelUserView& view) {
    refresh_left_s_[user] = csi_.refresh_interval_s;
    UserCache& cache = caches_[user];
    const cell::Point d = pos - cache.anchor;
    if (cache.skin.empty() || d.x * d.x + d.y * d.y > skin_move_sq_m_) {
      cache.anchor = pos;
      cache.skin.clear();
      for (std::size_t k = 0; k < layout_->num_cells(); ++k) {
        if (layout_->distance_sq_to_cell(pos, k) <= skin_reach_sq_m_) {
          cache.skin.push_back(k);
        }
      }
    }
    std::vector<std::size_t>& next = cache.spare;
    next.clear();
    for (std::size_t k : cache.skin) {
      if (layout_->cell_within(pos, k, radius_m_)) next.push_back(k);
    }
    // Active-set members stay candidates until hand-off drops them, even
    // when the user has moved past the radius (hysteresis consistency).
    for (std::size_t k : view.active_set->members()) {
      const auto it = std::lower_bound(next.begin(), next.end(), k);
      if (it == next.end() || *it != k) next.insert(it, k);
    }
    if (next.empty()) next.push_back(layout_->nearest_cell(pos));
    // One merge walk over the two ascending sets: cells leaving the set
    // must stop contributing to interference sums, and any difference at
    // all moves the epoch.
    const std::vector<std::size_t>& prev = candidates_[user];
    bool changed = prev.size() != next.size();
    std::size_t j = 0;
    for (std::size_t k : prev) {
      while (j < next.size() && next[j] < k) ++j;
      if (j < next.size() && next[j] == k) {
        ++j;
      } else {
        state_->clear_gain(user, k);
        changed = true;
      }
    }
    if (changed) epoch_.fetch_add(1, std::memory_order_relaxed);
    candidates_[user].swap(next);
  }

  CsiConfig csi_;
  bool fast_math_ = false;
  const cell::HexLayout* layout_ = nullptr;
  FrameState* state_ = nullptr;
  double radius_m_ = 0.0;
  double skin_move_sq_m_ = 0.0;   // (skin)^2, guarded low
  double skin_reach_sq_m_ = 0.0;  // (radius + skin)^2, guarded high
  std::vector<std::vector<std::size_t>> candidates_;
  std::vector<double> refresh_left_s_;
  std::vector<UserCache> caches_;
  std::atomic<std::uint64_t> epoch_{1};
};

struct ProviderEntry {
  const char* name;
  const char* description;
  std::unique_ptr<ChannelStateProvider> (*build)(const CsiConfig& csi);
};

std::unique_ptr<ChannelStateProvider> build_exhaustive(const CsiConfig&) {
  return std::make_unique<ExhaustiveChannelProvider>();
}

std::unique_ptr<ChannelStateProvider> build_culled(const CsiConfig& csi) {
  return std::make_unique<CulledChannelProvider>(csi, /*fast_math=*/false);
}

std::unique_ptr<ChannelStateProvider> build_fast(const CsiConfig& csi) {
  return std::make_unique<CulledChannelProvider>(csi, /*fast_math=*/true);
}

const ProviderEntry kProviders[] = {
    {"exhaustive", "every cell every frame (reference, bit-identical legacy path)",
     build_exhaustive},
    {"culled",
     "active set + pilot-floor radius candidates on a slow refresh timer; "
     "far cells folded back in as ring aggregates",
     build_culled},
    {"fast",
     "culled candidates + far-field aggregates + relaxed-precision link math "
     "(fused exp2 gains, ziggurat draws); statistically equivalent, not "
     "bit-identical",
     build_fast},
};

const ProviderEntry* find_provider(const std::string& name) {
  for (const ProviderEntry& entry : kProviders) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> channel_provider_names() {
  std::vector<std::string> names;
  for (const ProviderEntry& entry : kProviders) names.push_back(entry.name);
  return names;
}

bool has_channel_provider(const std::string& name) {
  return find_provider(name) != nullptr;
}

std::unique_ptr<ChannelStateProvider> make_channel_provider(const CsiConfig& csi) {
  const ProviderEntry* entry = find_provider(csi.provider);
  WCDMA_ASSERT(entry != nullptr && "unknown channel-state provider");
  return entry->build(csi);
}

std::string channel_provider_description(const std::string& name) {
  const ProviderEntry* entry = find_provider(name);
  WCDMA_ASSERT(entry != nullptr && "unknown channel-state provider");
  return entry->description;
}

}  // namespace wcdma::sim
