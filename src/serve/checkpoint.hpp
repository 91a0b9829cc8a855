// Crash-safe control-loop state: versioned, checksummed checkpoints.
//
// The control loop's hard-won state — the last-known-good timeout vector,
// the estimators' EWMA trackers, the epoch counter, the CRN seeds the
// planning sweep keys its memoization on, and a reference to the
// profile-library snapshot the serving model was built from — all lives in
// process memory.  A SIGKILL mid-epoch loses it, and a restarted
// coordinator that re-plans from cold estimators steers traffic with
// garbage for the whole warmup window.  A ControllerCheckpoint makes that
// state durable (a fleet writes two workload records per shard, in shard
// order):
//
//   * format: line-oriented text (like profile files), one `stac-ckpt vN`
//     header, fields at max_digits10 so doubles round-trip bit-exactly, and
//     an FNV-1a64 `checksum <hex>` trailer over every preceding byte;
//   * write: serialized snapshot -> write_file_atomic (temp + fsync +
//     rename), so a crash mid-write leaves the previous checkpoint intact
//     and a reader can never observe a torn file;
//   * load: resilient in the spirit of load_profiles_resilient — a missing
//     file, bad magic, bad version, truncation or a checksum mismatch
//     quarantines the checkpoint (report, never throw, never serve from a
//     file with a bad checksum).
//
// The "serve.checkpoint.write" / "serve.checkpoint.load" fault points let
// chaos tests provoke both failure directions deterministically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/condition_estimator.hpp"

namespace stac::serve {

/// Current checkpoint format version.
inline constexpr int kCheckpointVersion = 1;

/// Per-workload durable state: the applied (last-known-good) timeout plus
/// the estimator's exponentially-decayed trackers and lifetime counters.
/// Window contents are deliberately NOT persisted — they refill from live
/// traffic within one epoch, while the EWMAs carry the "instantaneous"
/// signal across the restart.
struct WorkloadCheckpoint : ConditionEstimator::WorkloadEstimatorState {
  double timeout = 1.0;
};

struct ControllerCheckpoint {
  std::uint64_t epoch = 0;        ///< epochs completed when written
  double time = 0.0;              ///< runtime clock at the writing epoch
  std::uint64_t condition_seed = 0;  ///< base_condition.seed (CRN identity)
  std::uint64_t predictor_seed = 0;  ///< RtPredictorConfig::seed (CRN identity)
  std::uint64_t model_version = 0;   ///< bundle version last planned against
  /// Reference to the profile-library snapshot the serving model refits
  /// from after recovery ("-" = none recorded).
  std::string library_ref = "-";
  std::size_t library_size = 0;
  std::uint64_t replans = 0;
  std::uint64_t stale_holds = 0;
  std::uint64_t deadline_misses = 0;
  std::vector<WorkloadCheckpoint> workloads;
};

/// Durable-state knobs.  An empty directory disables checkpointing.
struct CheckpointConfig {
  std::string directory;
  /// Write cadence in epochs (a write also happens via checkpoint_now()).
  std::uint64_t every_n_epochs = 4;
  /// Provenance recorded into each checkpoint: which profile-library
  /// snapshot the serving model refits from after recovery, and the CRN
  /// predictor seed (audit trail for the bit-identity guarantee).
  std::string library_ref = "-";
  std::size_t library_size = 0;
  std::uint64_t predictor_seed = 2024;
};

/// What a restore did with a checkpoint.  Malformed durable state (wrong
/// workload count after a config change, non-finite or negative timeout)
/// is *quarantined* — counted, reported, no live state touched — exactly
/// like the checkpoint loader quarantines damaged files.  Serving keeps its
/// current vector; it never crashes on, or half-applies, stale state.
struct RecoveryReport {
  bool restored = false;
  bool quarantined = false;
  std::string reason;  ///< human-readable, set when quarantined
};

/// Why `checkpoint` cannot restore a live state of `workloads` workload
/// records: the count differs, or a timeout is not finite and
/// non-negative.  Empty when it can.  Restores call this before they touch
/// anything, so a quarantine changes no state.
[[nodiscard]] std::string checkpoint_defect(
    const ControllerCheckpoint& checkpoint, std::size_t workloads);

/// Serialize + checksum + atomically replace `path`.  Consults the
/// "serve.checkpoint.write" fault point (kThrow aborts the write; the old
/// file stays intact).  Throws on I/O failure or injected fault.
void save_checkpoint(const std::string& path,
                     const ControllerCheckpoint& checkpoint);

/// Outcome of a resilient checkpoint load.
struct CheckpointLoadReport {
  std::optional<ControllerCheckpoint> checkpoint;  ///< engaged iff clean
  bool quarantined = false;  ///< true on any damage; `reason` says what
  std::string reason;

  [[nodiscard]] bool clean() const { return checkpoint.has_value(); }
};

/// Best-effort load: never throws on bad content, never returns a
/// checkpoint whose checksum did not verify.  Consults the
/// "serve.checkpoint.load" fault point.
[[nodiscard]] CheckpointLoadReport load_checkpoint(const std::string& path);

/// The canonical checkpoint file inside a checkpoint directory.
[[nodiscard]] std::string checkpoint_path(const std::string& directory);

}  // namespace stac::serve
