// The symmetric continuous relaxation (paper §3.2.1, eqs. 14–18).
//
// With β = 0 and n_{k,f} ∈ R the per-FPGA structure drops out and only
// the totals N̂_k matter, constrained by the *pooled* platform capacity
// (F·R for F identical FPGAs; Σ_f R_f on a mixed fleet):
//
//   minimize ÎI  s.t.  ÎI ≥ WCET_k/N̂_k,  N̂_k ≥ 1,
//                      Σ_k N̂_k·R_k ≤ Σ_f R_f,  Σ_k N̂_k·B_k ≤ Σ_f B_f.
//
// Two independent solvers are provided:
//  * solve()    — exact bisection on the target ÎI. For a target t the
//                 cheapest feasible choice is N̂_k(t) = max(1, WCET_k/t)
//                 and resource use is monotone in t, so feasibility is a
//                 monotone predicate. This is the paper's "GP step" in
//                 closed form. Its ÎI is the lower bound GP+A reports
//                 next to the integral II.
//  * solve_gp() — the same model through the general gp::GpSolver, as the
//                 paper does with GPkit. Used for cross-validation and to
//                 exercise the GP substrate on the real problem.
#pragma once

#include <vector>

#include "core/compiled_cache.hpp"
#include "core/problem.hpp"
#include "gp/solver.hpp"
#include "support/fingerprint.hpp"
#include "support/status.hpp"

namespace mfa::core {

/// Result of the continuous relaxation.
struct RelaxedSolution {
  double ii = 0.0;             ///< optimal relaxed ÎI (ms)
  std::vector<double> n_hat;   ///< N̂_k, the relaxed total CUs per kernel
};

/// Solves the relaxation exactly by bisection over the box
/// 1 ≤ N̂_k ≤ max_cu_total(k). Returns kInfeasible when some kernel fits
/// on no FPGA or N̂_k = 1 violates a pooled resource constraint.
/// `ii_hint` warm-starts it: a related solve's optimal ÎI (the previous
/// workload's, say) is probed once and, depending on feasibility,
/// replaces one end of the initial bracket. The optimum is the same as
/// the cold solve's (to bisection tolerance); only the iteration count
/// changes. A hint outside the bracket is ignored, so any value is safe.
StatusOr<RelaxedSolution> solve_relaxation(const Problem& problem,
                                           double ii_hint = 0.0);

/// Pooled resource and bandwidth feasibility of integral totals `n`
/// (eqs. 17–18): Σ_k n_k·R_k ≤ Σ_f R_f on every axis and
/// Σ_k n_k·B_k ≤ Σ_f B_f, each to 1e-12 relative (plus 1e-12 absolute) —
/// the predicate the bisection probes use, shared with the integral
/// threshold (solver/candidates.hpp).
bool fits_pooled_caps(const Problem& problem, const std::vector<int>& n);

/// Builds the GP model (14)–(18) for the problem, with the box
/// 1 ≤ N̂_k ≤ max_cu_total(k) folded in as monomial constraints.
/// Variable 0 is ÎI; variable 1+k is N̂_k.
gp::GpProblem build_relaxation_gp(const Problem& problem);

/// Solves the relaxation through the interior-point GP solver. When
/// `models` is non-null (and the compiled kernel is enabled), the
/// compiled artifact is fetched from / published to the cache by the GP
/// model's structural fingerprint: a hit skips the whole lowering and
/// only patches coefficients, producing byte-identical results to a
/// fresh compile (see core/compiled_cache.hpp).
StatusOr<RelaxedSolution> solve_relaxation_gp(
    const Problem& problem, const gp::SolverOptions& options = {},
    CompiledModelCache* models = nullptr);

/// Warm-started interior-point solve: seeds the barrier from `warm`
/// (e.g. a neighboring sweep point's relaxation). The ÎI seed is
/// inflated a few percent so latency constraints start strictly slack;
/// if the seed is still infeasible, phase I runs from it instead of from
/// scratch. Converges to the cold-start optimum (to solver tolerance).
/// `models` as above.
StatusOr<RelaxedSolution> solve_relaxation_gp(const Problem& problem,
                                              const gp::SolverOptions& options,
                                              const RelaxedSolution& warm,
                                              CompiledModelCache* models =
                                                  nullptr);

/// Cache key for a bisection solve of (problem, ii_hint): hashes every
/// input the result depends on plus an algorithm tag, so entries never
/// alias interior-point results. See core/relax_cache.hpp for the
/// determinism contract this upholds.
Fingerprint relaxation_cache_key(const Problem& problem, double ii_hint);

/// Cache key for a default-bounds interior-point solve under `options`
/// (solver options are folded in — they change the returned bits).
Fingerprint relaxation_gp_cache_key(const Problem& problem,
                                    const gp::SolverOptions& options);

/// Cache key for a *warm-started* interior-point solve: the warm seed
/// changes the returned bits (same optimum only to tolerance), so warm
/// entries must never alias the cold ones — the seed's ÎI and N̂ are
/// folded into the key.
Fingerprint relaxation_gp_cache_key(const Problem& problem,
                                    const gp::SolverOptions& options,
                                    const RelaxedSolution& warm);

}  // namespace mfa::core
