// Channel-state (CSI) providers: the gain/pilot/interference computation of
// the frame loop extracted behind an interface.
//
// The legacy simulator recomputed full O(users x cells) link state every
// frame -- the exact bottleneck on the path to million-user grids (each
// link step evolves shadowing and fading state).  A ChannelStateProvider
// owns (a) how one user's mobility advances each frame and (b) WHICH cells
// have live link state for that user (the candidate set); the per-link
// state itself lives in the simulator's structure-of-arrays sim::FrameState,
// which the provider drives through step_user_links().
//
//  * ExhaustiveChannelProvider -- every cell, every frame; the reference
//    implementation, bit-identical to the pre-seam simulator.
//  * CulledChannelProvider -- per-user candidate set = active set members
//    plus cells within a pilot-floor radius of the user, refreshed on a
//    slow timer; per-frame link state is O(users x nearby-cells).  Each
//    link keeps its own RNG stream, so a candidate link's realisation is
//    identical to the exhaustive provider's for as long as it stays in the
//    set -- culling only drops far-cell contributions.
//  * "fast" -- the same candidate/epoch machinery with the FrameState
//    switched onto relaxed-precision link kernels (fused exp2 composite
//    gains, ziggurat Gaussian draws).  Deterministic per seed and
//    statistically equivalent to the reference (tests/test_statcheck.cpp),
//    but NOT bit-identical; tolerance goldens, never bit-exact ones.
//
// step_user() is called from the simulator's sharded frame loops and must
// be safe for concurrent distinct users; candidate_epoch() tells the
// simulator when to rebuild its CSR candidate indexes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cell/active_set.hpp"
#include "src/cell/geometry.hpp"
#include "src/cell/mobility.hpp"
#include "src/sim/config.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::sim {

class FrameState;

/// Narrow mutable view of one user's channel inputs inside the simulator.
struct ChannelUserView {
  cell::MobilityModel* mobility = nullptr;
  const cell::ActiveSet* active_set = nullptr;  // read-only (candidate seeding)
};

class ChannelStateProvider {
 public:
  virtual ~ChannelStateProvider() = default;

  /// Bound once by the simulator before the first frame.  `state` is the
  /// simulator-owned SoA link state the provider steps.
  virtual void init(const cell::HexLayout* layout, std::size_t num_users,
                    FrameState* state) = 0;

  /// Advances `user`'s mobility, maintains its candidate set, and steps the
  /// FrameState links for every cell in cells_for(user).  Called once per
  /// user per frame; must be safe for concurrent distinct users.
  virtual void step_user(std::size_t user, const ChannelUserView& view,
                         double frame_s) = 0;

  /// Cells with live link state for this user this frame, ascending.  The
  /// measurement loops (forward interference, pilots, reverse rise) iterate
  /// exactly this set; gains outside it are zero.
  virtual const std::vector<std::size_t>& cells_for(std::size_t user) const = 0;

  /// Monotone counter that moves whenever any user's candidate set changes;
  /// the simulator rebuilds its CSR/transpose candidate indexes only then.
  virtual std::uint64_t candidate_epoch() const = 0;

  /// True when cells_for() can be a strict subset of the world -- the
  /// simulator then arms the far-field aggregator (src/sim/far_field.hpp)
  /// to restore the culled cells' interference as ring aggregates.  The
  /// exhaustive reference keeps the default false: every cell is live, so
  /// there is no far field to aggregate.
  virtual bool culls() const { return false; }

  virtual std::string name() const = 0;

  /// Checkpoint hooks: providers with evolved state (candidate sets,
  /// refresh timers, epochs) forward to their io().  The exhaustive
  /// reference is stateless beyond init, so the defaults are empty.
  virtual void save_state(common::BinaryWriter&) const {}
  virtual void load_state(common::BinaryReader&) {}
};

// --- Registry: string-keyed factories --------------------------------------
/// Registered provider names, in registry order ("exhaustive", "culled",
/// "fast").
std::vector<std::string> channel_provider_names();
bool has_channel_provider(const std::string& name);
/// Builds the provider named by `csi.provider`; aborts on unknown names.
std::unique_ptr<ChannelStateProvider> make_channel_provider(const CsiConfig& csi);
std::string channel_provider_description(const std::string& name);

}  // namespace wcdma::sim
