// Shared declarations of the repo benchmark (see stacbench/README.md).
//
// The benchmark drives stac only through its public headers: every layer
// is timed from outside, around calls into that module's public functions.
// Nothing here adds a span or a counter to src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/stac_manager.hpp"

namespace stacbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Type-7 percentile (numpy's default); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Geometric mean of positive values; 0 for an empty set.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// FNV-1a over the exact bits of simulated outputs: two runs that simulate
/// the same thing produce the same digest, whatever their host timings.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A digest value as 16 hex digits.
[[nodiscard]] std::string hex64(std::uint64_t v);

/// One printed metric: a name from BENCHMARK.json, its value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Output checks and operation accounting for one run.  A failed check
/// makes the run incorrect; a failed operation (a degraded prediction, an
/// epoch that held, dropped or missed its deadline) is counted.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  void op(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size for the self-test: every metric printed, little work done.
  bool tiny = false;
};

/// What one measured pass produced.  A pass is a fixed unit of work
/// determined by the seed alone, so repeated passes simulate identical
/// things (equal digests) and only their host times differ.
struct PassResult {
  std::vector<double> op_ms;  ///< one latency per workload operation
  std::uint64_t digest = 0;
  /// Fleet passes: one digest per epoch (applied vector, replan, cells).
  std::vector<std::uint64_t> epoch_digests;
  /// Fleet passes: serve/fleet layer figures observed inside the pass.
  std::vector<Metric> layer;
};

/// Deterministic model-quality figures, computed once per run: the error
/// set in traced runs (reported as core.rt_ape_p50), the gains otherwise.
struct Quality {
  std::vector<double> rt_ape_pct;  ///< held-out predicted vs testbed mean RT
  std::vector<double> p95_gains;   ///< testbed p95 at (6,6) / at recommended
  std::uint64_t digest = 0;
};

/// A benchmark workload: timed set-up repetitions, then measured passes.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One timed set-up repetition; each prepares the state one pass uses.
  virtual void setup(Checks& checks) = 0;
  /// Host seconds one pass takes on a 4-core reference host.  A run makes
  /// round(--seconds / this) passes, so the work it does depends on its
  /// arguments alone, never on host speed.
  [[nodiscard]] virtual double nominal_pass_seconds() const = 0;
  /// Passes the set-up repetitions done so far can still serve.
  [[nodiscard]] virtual std::size_t passes_left() const = 0;
  virtual PassResult pass(Checks& checks) = 0;
  virtual Quality quality(Checks& checks) = 0;
  /// Per-layer probes: time calls into each module's public functions on
  /// this workload's inputs.  `traced_pass` is the pass run with tracing.
  virtual void layers(const PassResult& traced_pass, Checks& checks,
                      std::vector<Metric>& out) = 0;
};

std::unique_ptr<Workload> make_calibrate(const RunArgs& args);
std::unique_ptr<Workload> make_recommend(const RunArgs& args);
std::unique_ptr<Workload> make_fleet_serve(const RunArgs& args);

// --- shared stac configuration ------------------------------------------

/// Sampler seed of the calibrations that only set up a workload (recommend,
/// fleet_serve): the model under test stays fixed while --seed varies the
/// workload's inputs (the request pool, the traffic, held-out conditions).
inline constexpr std::uint64_t kModelSeed = 2022;

/// The quickstart-sized options (examples/quickstart.cpp) every offline
/// calibration in the benchmark uses, seeded from the workload seed.
[[nodiscard]] stac::core::StacOptions quickstart_options(std::uint64_t seed,
                                                         bool tiny);

/// The trimmed serving options of the fleet harnesses, seeded likewise.
[[nodiscard]] stac::core::StacOptions serving_options(std::uint64_t seed,
                                                      bool tiny);

/// A held-out condition for a pairing, drawn from `rng` (its timeouts come
/// from the explorer grid).
[[nodiscard]] stac::profiler::RuntimeCondition held_out_condition(
    stac::wl::Benchmark primary, stac::wl::Benchmark collocated,
    stac::Rng& rng, const std::vector<double>& grid);

/// Predict `conditions` and check them against the testbed: appends the
/// absolute percentage error of the predicted mean RT of the primary, and
/// counts each prediction as an operation (failed when degraded).
void score_predictions(const stac::core::StacManager& manager,
                       const std::vector<stac::profiler::RuntimeCondition>&
                           conditions,
                       Checks& checks, Quality& quality, Digest& digest);

/// Compare testbed p95 of both services at no sharing (6, 6) and at a
/// recommended vector, which must lie on `grid`; appends one gain per
/// service.
void score_selection(const stac::core::StacManager& manager,
                     const stac::profiler::RuntimeCondition& condition,
                     double timeout_primary, double timeout_collocated,
                     const std::vector<double>& grid, Checks& checks,
                     Quality& quality, Digest& digest);

/// recommend() for `condition`, then score_selection on its choice.
void score_recommendation(const stac::core::StacManager& manager,
                          const stac::profiler::RuntimeCondition& condition,
                          const std::vector<double>& grid, Checks& checks,
                          Quality& quality, Digest& digest);

/// True when `v` is (bitwise) one of the grid values.
[[nodiscard]] bool on_grid(double v, const std::vector<double>& grid);

// --- layer probes (layers.cpp) ------------------------------------------

struct ProbeInputs {
  const stac::core::StacManager* manager = nullptr;  ///< calibrated
  const stac::core::StacOptions* options = nullptr;  ///< its options
  stac::wl::Benchmark primary = stac::wl::Benchmark::kKmeans;
  stac::wl::Benchmark collocated = stac::wl::Benchmark::kRedis;
  std::uint64_t seed = 1;
  bool tiny = false;
};

/// profiler, queueing, cachesim, memtime, ml and core probes.
void probe_offline_layers(const ProbeInputs& in, Checks& checks,
                          std::vector<Metric>& out);

/// The serve/fleet layer probe of the calibrate and recommend workloads: a
/// short fleet_serve pass, plus the determinism probe on it.
void probe_fleet_layers(std::uint64_t seed, bool tiny, Checks& checks,
                        std::vector<Metric>& out);

// --- tracing (support.cpp) ----------------------------------------------

/// Exclusive (self) time per layer from the spans recorded since the last
/// clear: span duration minus the time its child spans on the same thread
/// cover.  Span categories map onto the stac modules.
[[nodiscard]] std::map<std::string, double> self_seconds_by_layer();

/// The layers a self-time table reports, in order.
[[nodiscard]] const std::vector<std::string>& traced_layers();

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace stacbench
