// GP+A — the paper's end-to-end heuristic (§3.2).
//
// Pipeline: continuous relaxation (GP) → discretization of the CU totals
// → greedy allocation (Algorithm 1). The relaxation's ÎI is reported as
// the lower bound; the integral totals come from the candidate threshold
// (solver/candidates.hpp), the exact optimum the paper's branch-and-bound
// rounding searches for. Where Algorithm 1 leaves a kernel without a CU,
// one CU per kernel is packed exactly (solver/packing.hpp) and Algorithm
// 1 places the rest around it, so GP+A fails only where one CU per
// kernel does not fit at R, or that packing's node budget ran out. Each
// stage's wall-clock time is recorded separately so the runtime
// comparison of §4 ("0.78 s to 4.4 s, 100–1000× faster than MINLP") can
// be reproduced.
#pragma once

#include <optional>

#include "alloc/greedy.hpp"
#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "core/relaxation.hpp"
#include "core/solver_context.hpp"
#include "solver/candidates.hpp"
#include "solver/packing.hpp"
#include "support/status.hpp"

namespace mfa::alloc {

struct GpaOptions {
  /// Solve the root relaxation with the interior-point GP solver (as the
  /// paper does with GPkit) instead of the exact bisection. Both give
  /// the same N̂_k to tolerance; bisection is the faster default.
  bool use_interior_point = false;

  /// Warm start for the root relaxation, typically a related solve's
  /// (ÎI, N̂). Bisection probes warm->ii once as a bracket end; the
  /// interior-point path seeds the barrier from the full point. Always
  /// safe: a useless seed only costs the probe, and the integral totals
  /// never depend on it. Cache keys fold the seed in, so warm entries
  /// never alias cold ones.
  std::optional<core::RelaxedSolution> warm;

  /// Shared solver resources (caches, budget, pool) — the single wiring
  /// point; see core/solver_context.hpp. Not owned. The root solve goes
  /// through the context's relaxation cache, and the interior-point
  /// root through its compiled-model cache; both are byte-transparent
  /// accelerations.
  const core::SolverContext* context = nullptr;

  /// Migration-aware re-solve (lives next to the caches: the online
  /// service wires it per event like it wires the shared caches). When
  /// set and constrained, the placed totals are re-packed against the
  /// incumbent reference under the move/disturb budgets and the repack
  /// *replaces* the greedy placement when it is feasible — same totals,
  /// so II is unchanged and only φ can regress. An infeasible or
  /// over-budget repack leaves the unconstrained placement standing
  /// (GpaResult::stability_applied reports which happened). Not owned.
  const solver::StabilityOptions* stability = nullptr;

  gp::SolverOptions gp;
  GreedyOptions greedy;
};

struct GpaResult {
  core::Allocation allocation;   ///< final feasible placement
  double relaxed_ii = 0.0;       ///< ÎI from the GP step (lower bound)
  std::vector<double> relaxed_n; ///< N̂_k from the GP step
  double discrete_ii = 0.0;      ///< II after discretization (pre-alloc)
  std::vector<int> totals;       ///< discretized N_k
  double used_fraction = 0.0;    ///< R_c the allocator ended at
  /// Feasibility probes the discretization made (solver::discretize).
  std::int64_t discretize_nodes = 0;
  /// Nodes of the exact N_k = 1 packing that seeds Algorithm 1 when its
  /// own run leaves a kernel without a CU (0 when that run placed every
  /// kernel).
  std::int64_t placement_nodes = 0;
  /// True when GpaOptions::stability was constrained and the migration-
  /// aware repack replaced the greedy placement.
  bool stability_applied = false;

  double seconds_relax = 0.0;
  double seconds_discretize = 0.0;
  double seconds_allocate = 0.0;
  [[nodiscard]] double seconds_total() const {
    return seconds_relax + seconds_discretize + seconds_allocate;
  }
};

/// Node budget of the exact N_k = 1 packing that seeds Algorithm 1 where
/// its own run fails (GpaResult::placement_nodes). Past it, GP+A reports
/// kLimit rather than a heuristic infeasibility.
inline constexpr std::int64_t kPlacementNodes = 200'000;

class GpaSolver {
 public:
  explicit GpaSolver(GpaOptions options = {}) : options_(options) {}

  /// Runs GP → discretize → allocate. kInfeasible propagates from the
  /// pooled constraints or, when Algorithm 1 fails, from an exact
  /// packing that proved one CU per kernel does not fit at R; kLimit
  /// when that packing ran out of kPlacementNodes first.
  [[nodiscard]] StatusOr<GpaResult> solve(const core::Problem& problem) const;

 private:
  GpaOptions options_;
};

}  // namespace mfa::alloc
