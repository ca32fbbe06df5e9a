// Gaussian Non-negative Matrix Factorization (Appendix A): the complex-query
// workload of Section 6.4. Factorizes a rating matrix V ≈ W × H with the
// multiplicative updates
//   H ← H ∘ (Wᵀ V) ⊘ (Wᵀ W H),   W ← W ∘ (V Hᵀ) ⊘ (W H Hᵀ),
// using the same query plan as DMac.

#pragma once

#include <vector>

#include "core/session.h"
#include "engine/sim_executor.h"

namespace distme::core {

/// \brief Options for a real (small-scale) GNMF run.
struct GnmfOptions {
  int64_t factor_dim = 200;  ///< columns of W / rows of H
  int iterations = 10;
  /// Added to divisors to avoid division by zero (standard GNMF practice).
  double epsilon = 1e-12;
  uint64_t seed = 7;
  /// Compute ‖V − W·H‖_F after every iteration (collects matrices locally —
  /// test scale only).
  bool track_loss = false;
};

/// \brief Result of a real GNMF run.
struct GnmfResult {
  Matrix w;  ///< users × factor_dim
  Matrix h;  ///< factor_dim × items
  std::vector<double> loss;  ///< per-iteration ‖V − WH‖_F if track_loss
};

/// \brief Runs GNMF on an actual distributed matrix through `session`.
/// Multiplication reports accumulate in session->history().
[[nodiscard]] Result<GnmfResult> RunGnmf(Session* session, const Matrix& v,
                           const GnmfOptions& options);

/// \brief Options for a simulated (paper-scale) GNMF run.
struct GnmfSimOptions {
  mm::MatrixDescriptor v;  ///< the rating matrix (users × items, sparse)
  int64_t factor_dim = 200;
  int iterations = 10;
  ClusterConfig cluster = ClusterConfig::Paper();
  engine::SimOptions sim;
  /// If true, the system stores operator outputs pre-partitioned for their
  /// consumers (DMac / MatFast dependency exploitation, and DistME's cuboid
  /// planner): halves repartition volume and makes transposes/element-wise
  /// ops shuffle-free.
  bool dependency_aware = false;
};

/// \brief Per-iteration simulated cost of the GNMF query.
struct GnmfSimReport {
  Status outcome;
  std::vector<double> iteration_seconds;  ///< one entry per iteration
  double total_seconds = 0;
  double total_shuffle_bytes = 0;

  /// \brief Accumulated time through iteration `n` (1-based), as plotted in
  /// Figure 8.
  double AccumulatedSeconds(int n) const;
};

/// \brief Simulates `iterations` GNMF iterations with `planner` choosing the
/// method for each of the six multiplications per iteration.
[[nodiscard]] Result<GnmfSimReport> SimulateGnmf(const Planner& planner,
                                   const GnmfSimOptions& options);

}  // namespace distme::core
