#include "serve/fleet/rollout.h"

#include <algorithm>
#include <thread>

#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace fairdrift {

namespace {

/// Backoff jitter fraction: each wait is scaled by a factor drawn from
/// [1 - kBackoffJitter, 1 + kBackoffJitter].
constexpr double kBackoffJitter = 0.25;

}  // namespace

const char* RolloutStateName(RolloutState state) {
  switch (state) {
    case RolloutState::kCommitted:
      return "committed";
    case RolloutState::kRolledBack:
      return "rolled-back";
  }
  return "?";
}

RolloutEngine::RolloutEngine(size_t num_shards)
    : num_shards_(num_shards), draining_(new std::atomic<bool>[num_shards]) {
  for (size_t s = 0; s < num_shards; ++s) draining_[s].store(false);
}

Status RolloutEngine::Exclusive(const std::function<Status()>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  return fn();
}

Status RolloutEngine::StepOutOfRotation(size_t s, const ShardStep& step,
                                        double* stall_ms) {
  // Between attempts (and on every exit path) the shard re-enters
  // rotation — a stalled rollout must never leave it routed around.
  draining_[s].store(true, std::memory_order_release);
  WallTimer stall;
  Status status = step(s);
  *stall_ms = stall.ElapsedMillis();
  draining_[s].store(false, std::memory_order_release);
  return status;
}

Result<RollingUpdateReport> RolloutEngine::Run(
    const RollingUpdateOptions& options, const ShardStep& apply,
    const ShardStep& revert) {
  if (options.max_attempts_per_shard == 0) {
    return Status::InvalidArgument("rollout: zero attempts per shard");
  }
  std::lock_guard<std::mutex> lock(mu_);
  RollingUpdateReport report;
  Rng jitter_rng(options.backoff_seed);
  for (size_t s = 0; s < num_shards_ && report.failure.empty(); ++s) {
    ShardRolloutReport shard_report;
    shard_report.shard = s;
    std::chrono::nanoseconds backoff = options.initial_backoff;
    for (size_t attempt = 1; attempt <= options.max_attempts_per_shard;
         ++attempt) {
      shard_report.attempts = attempt;
      ++report.total_attempts;
      double stall_ms = 0.0;
      Status attempted = StepOutOfRotation(s, apply, &stall_ms);
      if (attempted.ok()) {
        shard_report.updated = true;
        shard_report.stall_ms = stall_ms;
        report.shard_stall_ms.push_back(stall_ms);
        report.max_stall_ms = std::max(report.max_stall_ms, stall_ms);
        ++report.shards_updated;
        break;
      }
      shard_report.last_error = attempted.message();
      if (attempt == options.max_attempts_per_shard) {
        report.failure = StrFormat(
            "shard %zu failed after %zu attempt(s) (%zu of %zu shards "
            "already updated): %s",
            s, attempt, report.shards_updated, num_shards_,
            attempted.message().c_str());
        break;
      }
      // Exponential backoff with deterministic jitter: the shard serves
      // traffic while whatever failed the attempt clears.
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          static_cast<int64_t>(static_cast<double>(backoff.count()) *
                               jitter_rng.Uniform(1.0 - kBackoffJitter,
                                                  1.0 + kBackoffJitter))));
      backoff = std::chrono::nanoseconds(static_cast<int64_t>(
          static_cast<double>(backoff.count()) * options.backoff_multiplier));
    }
    report.shards.push_back(std::move(shard_report));
  }
  rolling_updates_.fetch_add(1);
  if (report.failure.empty()) return report;

  // Reverse-order revert of every updated shard, each out of rotation
  // while it moves back, so the fleet exits with zero version skew.
  for (size_t i = report.shards.size(); i-- > 0;) {
    ShardRolloutReport& shard_report = report.shards[i];
    if (!shard_report.updated) continue;
    double stall_ms = 0.0;
    Status reverted = StepOutOfRotation(shard_report.shard, revert, &stall_ms);
    if (!reverted.ok()) {
      shard_report.last_error = "revert failed: " + reverted.message();
      continue;
    }
    shard_report.rolled_back = true;
    shard_report.rollback_stall_ms = stall_ms;
    report.rollback_stall_ms += stall_ms;
  }
  report.state = RolloutState::kRolledBack;
  rollbacks_.fetch_add(1);
  return report;
}

}  // namespace fairdrift
