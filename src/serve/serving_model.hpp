// The immutable model bundle the serving control loop plans against.
//
// One ServingModel owns everything a planning epoch dereferences — the
// profile library snapshot, the primary and fallback EA models, and an
// RtPredictor wired over them — so a bundle swapped out mid-epoch stays
// fully usable until the last reader guard drops (ModelSnapshot reclaims
// it).  Bundles are built by background recalibration: copy the library
// (optionally grown by newly merged profiles), refit both models with the
// offline configs, wire the predictor, publish.  Training is deterministic
// (DESIGN.md §8), so a bundle built from a StacManager's library with the
// manager's configs predicts bit-identically to the manager — the basis of
// the online == offline identity test.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/stac_manager.hpp"

namespace stac::serve {

[[nodiscard]] inline core::EaModelConfig linear_fallback_config() {
  core::EaModelConfig cfg;
  cfg.backend = core::EaBackend::kLinear;
  return cfg;
}

/// Immutable after build_serving_model returns; the predictor references
/// sibling members, so the bundle lives on the heap and never moves.
struct ServingModel {
  std::uint64_t version = 0;
  core::ProfileLibrary library;
  core::EaModel primary;
  core::EaModel fallback{linear_fallback_config()};
  std::optional<core::RtPredictor> predictor;  ///< engaged by the factory

  [[nodiscard]] const core::RtPredictor& pred() const { return *predictor; }
  [[nodiscard]] bool primary_trained() const { return primary.trained(); }
};

/// Build a bundle from a profile library snapshot: refit primary +
/// fallback (a primary training failure is survived — the predictor
/// answers from a lower ladder rung, mirroring StacManager::refit) and
/// wire the predictor.  `profiler` must outlive the bundle.
[[nodiscard]] std::unique_ptr<const ServingModel> build_serving_model(
    const profiler::Profiler& profiler, core::ProfileLibrary library,
    const core::EaModelConfig& model_config,
    const core::RtPredictorConfig& predictor_config, std::uint64_t version,
    bool train_fallback = true);

/// Convenience: snapshot a calibrated StacManager's library and rebuild
/// with the manager's own model/predictor configs — deterministic
/// training makes the result predict identically to the manager.
[[nodiscard]] std::unique_ptr<const ServingModel> build_serving_model(
    const core::StacManager& manager, const core::StacOptions& options,
    std::uint64_t version);

/// Assemble a bundle from *pre-fitted* models — no training happens here,
/// only predictor wiring, so the call is O(model copy) instead of O(fit).
/// The RefitExecutor's warm-start path: it owns persistent master models,
/// warm-refits them off the hot path, and snapshots them into each
/// published bundle through this.  An untrained `primary` is allowed (the
/// ladder answers from a lower rung, as after a survived fit failure).
[[nodiscard]] std::unique_ptr<const ServingModel> assemble_serving_model(
    const profiler::Profiler& profiler, core::ProfileLibrary library,
    core::EaModel primary, core::EaModel fallback, std::uint64_t version,
    const core::RtPredictorConfig& predictor_config);

}  // namespace stac::serve
