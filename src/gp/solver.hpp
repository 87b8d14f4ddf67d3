// Interior-point solver for geometric programs.
//
// The GP is solved in log space, where it is convex: with y = log x every
// posynomial constraint f_i(x) ≤ 1 becomes a log-sum-exp constraint
// F_i(y) ≤ 0. The solver is a classic two-phase barrier method:
//
//   phase I   minimize s  s.t.  F_i(y) − s ≤ 0      (always strictly
//             feasible for large s; stops as soon as s < 0, i.e. a
//             strictly feasible y is found, or proves infeasibility)
//   phase II  barrier path: Newton-center  t·F0(y) − Σ log(−F_i(y))
//             for t = t0, μ·t0, μ²·t0, … until the duality-gap bound
//             m/t drops below tolerance.
//
// Phase I reuses the phase-II machinery verbatim because subtracting s
// inside every exponent keeps each constraint a log-sum-exp in (y, s).
#pragma once

#include <cstdint>
#include <vector>

#include "gp/problem.hpp"
#include "support/status.hpp"

namespace mfa::gp {

/// Solver configuration. Defaults are tuned for allocation-model GPs
/// (tens of variables, hundreds of constraints).
struct SolverOptions {
  double tolerance = 1e-9;     ///< target duality-gap bound m/t
  double t0 = 1.0;             ///< initial barrier weight
  double mu = 20.0;            ///< barrier weight multiplier per outer step
  int max_outer = 80;          ///< barrier stages (phase II)
  int max_newton = 200;        ///< Newton iterations per centering
  double newton_tol = 1e-12;   ///< λ²/2 decrement threshold
  double feas_margin = 1e-10;  ///< strict-feasibility margin for phase I
  /// Bound |log x_j| ≤ variable_box added to every solve; keeps the
  /// phase-I merit bounded and phase II free of drift along flat
  /// directions. 46 ≈ log(1e20).
  double variable_box = 46.0;
  /// Relative duality gap a warm-start seed is assumed to carry: the
  /// warm-started barrier opens at t0 = m / warm_gap instead of
  /// replaying the whole path. 1e-3 suits a seed from the *same*
  /// problem (re-solve, cache replay); callers seeding from a
  /// *neighboring* problem (e.g. the previous workload's optimum)
  /// should widen this (~3e-2), or the high-t opening grinds on a seed
  /// that is no longer near-optimal. Cold solves ignore it.
  double warm_gap = 1e-3;
  /// Evaluate through the compiled flat LSE IR (gp/compiled.hpp): fused
  /// value/gradient/Hessian over CSR arrays with preallocated scratch.
  /// The interpretive LseFunction path is kept for cross-validation and
  /// the bench/gp_kernel baseline.
  bool use_compiled_kernel = true;
};

enum class GpStatus {
  kOptimal,     ///< converged to tolerance
  kInfeasible,  ///< phase I proved no strictly feasible point exists
  kIterLimit,   ///< budget exhausted before convergence
  kNumeric,     ///< Newton system unsolvable even with regularization
};

/// Stable text name of a solver status.
const char* to_string(GpStatus status);

/// Process-wide running total of Newton steps executed by every
/// GpSolver::solve (both phases, all threads; relaxed counter). Sample
/// before and after a workload to attribute its solver effort — the
/// serving benchmarks use this to compare warm vs cold re-solve cost
/// without threading counters through every intermediate layer.
std::int64_t total_newton_iterations();

/// Result of a GP solve.
struct GpSolution {
  GpStatus status = GpStatus::kNumeric;
  std::vector<double> x;        ///< primal point, indexed by VarId (x > 0)
  double objective = 0.0;       ///< f0(x) at the returned point
  double max_violation = 0.0;   ///< max_i f_i(x) − 1 (≤ 0 when feasible)
  int newton_iterations = 0;    ///< total Newton steps (both phases)
  int outer_iterations = 0;     ///< barrier stages executed

  [[nodiscard]] bool ok() const { return status == GpStatus::kOptimal; }
};

/// Solves a GpProblem. Stateless apart from options; reusable.
class GpSolver {
 public:
  explicit GpSolver(SolverOptions options = {}) : options_(options) {}

  [[nodiscard]] GpSolution solve(const GpProblem& problem) const;

  /// Warm-started solve: seeds the barrier at y = log x0 (clamped to the
  /// variable box) instead of y = 0. x0 must be strictly positive and
  /// indexed by VarId. A strictly feasible seed skips phase I entirely;
  /// an infeasible one still speeds phase I up by starting it nearby.
  /// Converges to the same optimum as the cold solve (to tolerance).
  [[nodiscard]] GpSolution solve(const GpProblem& problem,
                                 const std::vector<double>& x0) const;

  /// Solves through a prepared CompiledModel (always the compiled
  /// kernel): zero per-call IR mutation — the box rows are already part
  /// of the artifact and the phase-I lowering is cached in it. `model`
  /// must have been built (or patched) from `problem` under this
  /// solver's variable_box; the result is bit-identical to the plain
  /// compiled-path solve, whether the model came from a fresh build or
  /// a cache clone + patch_coefficients().
  [[nodiscard]] GpSolution solve(const GpProblem& problem,
                                 const CompiledModel& model) const;

  /// Prepared-model solve, warm-started from x0 (see above).
  [[nodiscard]] GpSolution solve(const GpProblem& problem,
                                 const CompiledModel& model,
                                 const std::vector<double>& x0) const;

  [[nodiscard]] const SolverOptions& options() const { return options_; }

 private:
  SolverOptions options_;
};

}  // namespace mfa::gp
