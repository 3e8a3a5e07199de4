// RolloutEngine: the one shard-by-shard rollout loop behind both fleets.
//
// ScoringFleet::RollingUpdate (in-process drain + swap) and
// RemoteFleet::PushRolling (the manifest -> chunks -> commit push
// conversation) are thin callers: each supplies only "apply the new
// snapshot to shard s" and "revert shard s". The engine owns everything
// else:
//   - one shard out of rotation at a time (the per-shard draining flag
//     the fleets' ShardAvailable consults);
//   - per-shard retry with exponential backoff and deterministic jitter
//     (seeded, so a fault-injected rollout replays exactly); between
//     attempts the shard is back in rotation;
//   - on exhaustion, a reverse-order revert of every already-updated
//     shard, so the fleet exits with zero version skew;
//   - the report, and one mutex serializing rollouts against each other
//     (two concurrent callers never have two shards out at once).

#ifndef FAIRDRIFT_SERVE_FLEET_ROLLOUT_H_
#define FAIRDRIFT_SERVE_FLEET_ROLLOUT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace fairdrift {

/// Per-shard drain + swap schedule knobs.
struct RollingUpdateOptions {
  /// How long the drain barrier waits for one shard to empty before the
  /// attempt counts as failed.
  std::chrono::nanoseconds drain_timeout = std::chrono::seconds(10);
  /// Drain/swap attempts per shard before the rollout gives up on it.
  size_t max_attempts_per_shard = 3;
  /// Backoff before the second attempt; doubles (backoff_multiplier)
  /// each further attempt. The shard is back in rotation while waiting.
  /// Each wait is scaled by a jitter factor drawn uniformly from
  /// [0.75, 1.25] — deterministically from backoff_seed, so a
  /// fault-injected rollout replays exactly.
  std::chrono::nanoseconds initial_backoff = std::chrono::milliseconds(10);
  double backoff_multiplier = 2.0;
  uint64_t backoff_seed = 0;
};

/// How a rolling update terminated.
enum class RolloutState : uint8_t {
  /// Every shard drained and swapped to the new snapshot.
  kCommitted = 0,
  /// A shard exhausted its attempts; updated shards were rolled back to
  /// their prior snapshots. The fleet exits with zero version skew.
  kRolledBack = 1,
};

const char* RolloutStateName(RolloutState state);

/// One shard's slice of a rolling update.
struct ShardRolloutReport {
  size_t shard = 0;
  /// Drain/swap attempts consumed (1 = first try succeeded).
  size_t attempts = 0;
  /// The shard swapped to the new snapshot (possibly rolled back later).
  bool updated = false;
  /// The shard was returned to its prior snapshot by a rollback.
  bool rolled_back = false;
  /// Successful-attempt drain-barrier stall (out-of-rotation time).
  double stall_ms = 0.0;
  /// Rollback drain-barrier stall, when rolled_back.
  double rollback_stall_ms = 0.0;
  /// Last attempt error (empty when the first attempt succeeded).
  std::string last_error;
};

/// What one rolling update did: how many shards swapped, how long each
/// shard's drain barrier stalled it (its only out-of-rotation time —
/// the fleet as a whole never stops serving), and per-shard
/// attempt/outcome detail with the terminal committed/rolled-back state.
/// `shards` holds one entry per shard the rollout reached (in order);
/// `shard_stall_ms` one entry per updated shard.
struct RollingUpdateReport {
  size_t shards_updated = 0;
  std::vector<double> shard_stall_ms;
  double max_stall_ms = 0.0;
  RolloutState state = RolloutState::kCommitted;
  std::vector<ShardRolloutReport> shards;
  /// Drain/swap attempts summed over shards (== num_shards when nothing
  /// retried).
  size_t total_attempts = 0;
  /// Total rollback drain-barrier stall across rolled-back shards.
  double rollback_stall_ms = 0.0;
  /// Why the rollout rolled back, ending in the failed shard's last
  /// error (empty when committed).
  std::string failure;
};

/// The shared rollout loop (see file comment). Thread-safe.
class RolloutEngine {
 public:
  /// One attempt at moving shard `s` to the new snapshot, or moving it
  /// back. Called with `s` already out of rotation.
  using ShardStep = std::function<Status(size_t s)>;

  explicit RolloutEngine(size_t num_shards);

  /// Rolls `apply` across every shard in order (see file comment). A
  /// rolled-back rollout is an OK result with state kRolledBack — the
  /// fleet healed itself; callers decide whether that is an error.
  /// kInvalidArgument on zero attempts per shard.
  Result<RollingUpdateReport> Run(const RollingUpdateOptions& options,
                                  const ShardStep& apply,
                                  const ShardStep& revert);

  /// Runs `fn` under the rollout mutex, so an out-of-band fleet-wide
  /// change never interleaves with a rollout.
  Status Exclusive(const std::function<Status()>& fn);

  /// True while a rollout has shard `s` out of rotation.
  bool draining(size_t s) const {
    return draining_[s].load(std::memory_order_acquire);
  }

  /// Completed rollouts, and those that terminated kRolledBack.
  uint64_t rolling_updates() const { return rolling_updates_.load(); }
  uint64_t rollbacks() const { return rollbacks_.load(); }

 private:
  /// One step on shard `s` with it out of rotation; fills `stall_ms`.
  Status StepOutOfRotation(size_t s, const ShardStep& step,
                           double* stall_ms);

  const size_t num_shards_;
  std::unique_ptr<std::atomic<bool>[]> draining_;
  std::mutex mu_;
  std::atomic<uint64_t> rolling_updates_{0};
  std::atomic<uint64_t> rollbacks_{0};
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_FLEET_ROLLOUT_H_
