// Analytic oracle for the Stage-3 engine.  With boosting off
// (timeout_rel = 6) and no residual-occupancy feedback (boost_prevalence =
// 0) every query runs at the default rate, so the simulator is an M/G/k
// FCFS queue with log-normal service (deterministic at CV 0) and its mean
// queueing delay has closed forms to compare against:
//   * k = 1: Pollaczek–Khinchine, exact for M/G/1:
//       Wq = rho (1 + cv^2) / (2 (1 - rho)) * E[S].
//   * k > 1: Lee–Longton, the M/M/k Erlang-C wait scaled by (1 + cv^2) / 2.
//     It is an approximation that is only tight at heavy load (at rho = 0.3
//     it is 20-40% off for CV 0 and CV 2), so it is checked at rho >= 0.85
//     only.
//
// Tolerances come from the spread across seeds: each cell runs kSeeds
// independent replications, and the mean must sit within kZ standard
// errors of the formula, plus a stated allowance for what the formula
// itself leaves out (initial-transient bias for P-K, approximation error
// for Lee–Longton).  Measured with 8 x 40000-query replications, every k=1
// cell sat within 1.3 standard errors of P-K and every heavy-load k=3 cell
// within 2.4 standard errors and 6.1% of Lee–Longton.
#include "queueing/ggk_simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"

namespace stac::queueing {
namespace {

constexpr int kSeeds = 8;
constexpr std::size_t kQueries = 40000;
constexpr std::size_t kWarmup = 2000;
constexpr double kZ = 4.0;

struct Measured {
  double mean = 0.0;
  double standard_error = 0.0;
};

Measured mean_queue_delay(std::size_t servers, double utilization,
                          double cv) {
  StreamingStats per_seed;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    GGkConfig c;
    c.utilization = utilization;
    c.servers = servers;
    c.mean_service = 1.0;
    c.service_cv = cv;
    c.timeout_rel = 6.0;  // boosting off
    c.boost_prevalence = 0.0;
    c.queries = kQueries;
    c.warmup = kWarmup;
    c.seed = static_cast<std::uint64_t>(seed);
    per_seed.add(simulate_ggk(c).mean_queue_delay);
  }
  return {per_seed.mean(), per_seed.stddev() / std::sqrt(double{kSeeds})};
}

/// Erlang-C probability that an arrival waits in M/M/k at offered load a.
double erlang_c(std::size_t k, double a) {
  double term = 1.0;  // a^n / n!
  double below = 0.0;
  for (std::size_t n = 0; n < k; ++n) {
    if (n > 0) term *= a / static_cast<double>(n);
    below += term;
  }
  const double rho = a / static_cast<double>(k);
  const double at_k = term * a / static_cast<double>(k) / (1.0 - rho);
  return at_k / (below + at_k);
}

TEST(GGkAnalyticOracle, SingleServerMatchesPollaczekKhinchine) {
  // P-K is exact; the allowance covers the start-from-empty transient the
  // warmup does not fully remove.
  constexpr double kTransientAllowance = 0.01;
  for (const double rho : {0.3, 0.6, 0.85}) {
    for (const double cv : {0.0, 0.5, 1.0, 2.0}) {
      const Measured m = mean_queue_delay(1, rho, cv);
      const double pk = rho * (1.0 + cv * cv) / (2.0 * (1.0 - rho));
      EXPECT_NEAR(m.mean, pk, kZ * m.standard_error + kTransientAllowance * pk)
          << "rho=" << rho << " cv=" << cv
          << " standard_error=" << m.standard_error;
    }
  }
}

TEST(GGkAnalyticOracle, ThreeServersMatchLeeLongtonAtHeavyLoad) {
  // Lee–Longton's own error at heavy load, on top of sampling noise.
  constexpr double kApproximationAllowance = 0.05;
  constexpr std::size_t k = 3;
  for (const double rho : {0.85, 0.9}) {
    for (const double cv : {0.0, 0.5, 1.0, 2.0}) {
      const Measured m = mean_queue_delay(k, rho, cv);
      const double a = rho * static_cast<double>(k);
      const double lee_longton = erlang_c(k, a) /
                                 (static_cast<double>(k) * (1.0 - rho)) *
                                 (1.0 + cv * cv) / 2.0;
      EXPECT_NEAR(m.mean, lee_longton,
                  kZ * m.standard_error + kApproximationAllowance * lee_longton)
          << "rho=" << rho << " cv=" << cv
          << " standard_error=" << m.standard_error;
    }
  }
}

}  // namespace
}  // namespace stac::queueing
