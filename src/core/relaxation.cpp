#include "core/relaxation.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/fingerprint.hpp"

namespace mfa::core {
namespace {

/// Cheapest N̂ meeting target t: max(1, WCET_k/t), written into a
/// caller-owned buffer so the bisection's ~200 probes per solve share
/// one allocation.
void cheapest_n_into(const Problem& p, double t, std::vector<double>& n) {
  n.resize(p.num_kernels());
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    n[k] = std::max(1.0, p.app.kernels[k].wcet_ms / t);
  }
}

/// Pooled resource and bandwidth feasibility of totals `n` (eqs. 17–18).
/// Pooled capacity is Σ_f R_f — F·R on homogeneous platforms (bit-equal
/// to the seed arithmetic), the class-weighted sum on mixed ones.
template <typename N>
bool fits_pooled_caps_impl(const Problem& p, const std::vector<N>& n) {
  const ResourceVec pooled = p.pooled_cap();
  for (std::size_t axis = 0; axis < kNumResources; ++axis) {
    double used = 0.0;
    for (std::size_t k = 0; k < p.num_kernels(); ++k) {
      used += n[k] * p.app.kernels[k].res.axis(axis);
    }
    if (used > pooled.axis(axis) * (1.0 + 1e-12) + 1e-12) return false;
  }
  double bw = 0.0;
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    bw += n[k] * p.app.kernels[k].bw;
  }
  return bw <= p.pooled_bw_cap() * (1.0 + 1e-12) + 1e-12;
}

}  // namespace

bool fits_pooled_caps(const Problem& problem, const std::vector<int>& n) {
  return fits_pooled_caps_impl(problem, n);
}

/// True when some kernel fits on no FPGA (max_cu_total(k) = 0): the box
/// [1, max_cu_total(k)] is empty.
bool some_kernel_fits_nowhere(const Problem& problem) {
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    if (problem.max_cu_total(k) < 1) return true;
  }
  return false;
}

StatusOr<RelaxedSolution> solve_relaxation(const Problem& problem,
                                           double ii_hint) {
  if (some_kernel_fits_nowhere(problem)) {
    return Status{Code::kInfeasible, "a kernel fits on no FPGA"};
  }

  // Bracket the optimum: below t_lo some kernel cannot meet the target
  // even at max_cu_total(k) CUs; above t_hi every N̂_k is 1. Inside the
  // bracket WCET_k/t never exceeds max_cu_total(k), so only the pooled
  // caps decide feasibility.
  double t_lo = 0.0;
  double t_hi = 0.0;
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    const double wcet = problem.app.kernels[k].wcet_ms;
    t_lo = std::max(t_lo, wcet / problem.max_cu_total(k));
    t_hi = std::max(t_hi, wcet);
  }
  if (t_lo == 0.0) t_lo = 1e-12;
  t_hi = std::max(t_hi, t_lo);

  std::vector<double> n;  // every probe shares this buffer
  auto feasible_at = [&](double t) {
    cheapest_n_into(problem, t, n);
    return fits_pooled_caps_impl(problem, n);
  };

  if (!feasible_at(t_hi)) {
    return Status{Code::kInfeasible,
                  "pooled resource constraints violated at minimum CUs"};
  }

  RelaxedSolution out;
  if (feasible_at(t_lo)) {
    out.ii = t_lo;  // box-limited: cannot go below t_lo by construction
  } else {
    // Monotone bisection: infeasible at lo, feasible at hi. A warm hint
    // inside the bracket is probed once and replaces the matching end,
    // preserving both invariants.
    double lo = t_lo;
    double hi = t_hi;
    if (ii_hint > lo && ii_hint < hi) {
      if (feasible_at(ii_hint)) {
        hi = ii_hint;
      } else {
        lo = ii_hint;
      }
    }
    for (int iter = 0; iter < 200 && (hi - lo) > 1e-14 * hi; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (feasible_at(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    out.ii = hi;
  }
  cheapest_n_into(problem, out.ii, n);
  out.n_hat = std::move(n);
  return out;
}

gp::GpProblem build_relaxation_gp(const Problem& problem) {
  using gp::Monomial;
  using gp::Posynomial;

  gp::GpProblem model;
  const gp::VarId ii = model.add_variable("II");
  std::vector<gp::VarId> n_vars;
  n_vars.reserve(problem.num_kernels());
  for (const Kernel& k : problem.app.kernels) {
    n_vars.push_back(model.add_variable("N_" + k.name));
  }

  model.set_objective(Monomial::var(ii));

  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    const Kernel& kern = problem.app.kernels[k];
    // WCET_k · II⁻¹ · N_k⁻¹ ≤ 1  (eq. 15).
    model.add_le1(Monomial(kern.wcet_ms) * Monomial::var(ii).inverse() *
                      Monomial::var(n_vars[k]).inverse(),
                  "latency " + kern.name);
    // 1 / N_k ≤ 1 (eq. 16) and N_k / max_cu_total(k) ≤ 1. Both carry a
    // relative 1e-9 slack so a collapsed box (a kernel with room for
    // exactly one CU) keeps a strict interior for the barrier method;
    // the optimum shifts by O(1e-9) at most.
    constexpr double kBoundSlack = 1e-9;
    model.add_le1(Monomial(1.0 - kBoundSlack) *
                      Monomial::var(n_vars[k]).inverse(),
                  "min CU " + kern.name);
    const int upper = problem.max_cu_total(k);
    if (upper > 0) {
      model.add_le1(Monomial(1.0 / (upper * (1.0 + kBoundSlack))) *
                        Monomial::var(n_vars[k]),
                    "max CU " + kern.name);
    }
  }

  // Σ_k N_k·R_k/Σ_f R_f ≤ 1 per resource axis with non-trivial demand
  // (eq. 17, pooled over the possibly mixed fleet), and the bandwidth
  // twin (eq. 18).
  const ResourceVec pooled = problem.pooled_cap();
  for (std::size_t axis = 0; axis < kNumResources; ++axis) {
    Posynomial sum;
    bool any = false;
    for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
      const double demand = problem.app.kernels[k].res.axis(axis);
      if (demand <= 0.0) continue;
      MFA_ASSERT_MSG(pooled.axis(axis) > 0.0,
                     "demand on a zero-capacity axis (validate() first)");
      sum += Monomial(demand / pooled.axis(axis)) * Monomial::var(n_vars[k]);
      any = true;
    }
    if (any) {
      model.add_le1(sum,
                    std::string("resource ") +
                        resource_name(static_cast<Resource>(axis)));
    }
  }
  const double pooled_bw = problem.pooled_bw_cap();
  Posynomial bw_sum;
  bool any_bw = false;
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    const double demand = problem.app.kernels[k].bw;
    if (demand <= 0.0) continue;
    MFA_ASSERT_MSG(pooled_bw > 0.0, "bandwidth demand with zero bandwidth cap");
    bw_sum += Monomial(demand / pooled_bw) * Monomial::var(n_vars[k]);
    any_bw = true;
  }
  if (any_bw) model.add_le1(bw_sum, "bandwidth");

  return model;
}

namespace {

/// Solves `model` through GpSolver, consulting the compiled-model cache
/// when one is provided: a hit clones the artifact (shared structure,
/// private coefficients) and re-patches it from *this* model's
/// coefficients, so the solved bytes never depend on which structurally
/// identical problem populated the entry. A miss compiles and publishes.
gp::GpSolution solve_model(const gp::GpProblem& model,
                           const gp::SolverOptions& options,
                           const std::vector<double>* x0,
                           CompiledModelCache* models) {
  const gp::GpSolver solver(options);
  if (models == nullptr || !options.use_compiled_kernel) {
    return x0 != nullptr ? solver.solve(model, *x0) : solver.solve(model);
  }
  // Hash the structure once per solve: the same fingerprint is the
  // cache key and the patch-compatibility check.
  const Fingerprint structural = model.structural_fingerprint();
  const Fingerprint key = compiled_model_cache_key(structural);
  gp::CompiledModel prepared;
  if (auto hit = models->lookup(key)) {
    prepared = *hit;  // clone: shares structure, copies coefficients
    prepared.patch_coefficients(model, options.variable_box, structural);
  } else {
    prepared = gp::CompiledModel::build(model, options.variable_box);
    models->insert(key, prepared);  // stored copy shares the structure
  }
  return x0 != nullptr ? solver.solve(model, prepared, *x0)
                       : solver.solve(model, prepared);
}

StatusOr<RelaxedSolution> solve_gp_impl(const Problem& problem,
                                        const gp::SolverOptions& options,
                                        const RelaxedSolution* warm,
                                        CompiledModelCache* models) {
  if (some_kernel_fits_nowhere(problem)) {
    return Status{Code::kInfeasible, "a kernel fits on no FPGA"};
  }
  gp::GpProblem model = build_relaxation_gp(problem);
  gp::GpSolution gp_sol;
  if (warm != nullptr && warm->n_hat.size() == problem.num_kernels() &&
      warm->ii > 0.0) {
    // Seed x0 = (inflated ÎI, clamped N̂): the 5 % ÎI head-room makes the
    // latency constraints strictly slack at the seed, so a seed taken
    // from this problem's own (boundary) optimum re-enters the interior
    // and phase I is skipped or trivial.
    std::vector<double> x0(1 + problem.num_kernels());
    x0[0] = warm->ii * 1.05;
    for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
      x0[1 + k] = std::clamp(warm->n_hat[k], 1.0,
                             static_cast<double>(problem.max_cu_total(k)));
    }
    // A barrier restarted at a small t first drags a near-optimal seed
    // back to the analytic center, wasting the whole warm start. Open
    // with the duality-gap bound the seed plausibly has (warm_gap:
    // ~1e-3 for a same-problem seed, wider for a neighboring problem's)
    // so the path begins where the seed is useful; a poor seed only
    // costs extra centering steps at the first stage, not correctness.
    gp::SolverOptions warm_options = options;
    const double m =
        static_cast<double>(model.constraints().size()) +
        2.0 * static_cast<double>(model.num_variables());  // + box rows
    warm_options.t0 = std::max(options.t0, m / options.warm_gap);
    gp_sol = solve_model(model, warm_options, &x0, models);
  } else {
    gp_sol = solve_model(model, options, nullptr, models);
  }
  if (gp_sol.status == gp::GpStatus::kInfeasible) {
    return Status{Code::kInfeasible, "GP phase I proved infeasibility"};
  }
  if (!gp_sol.ok()) {
    return Status{Code::kNumeric,
                  std::string("GP solver: ") + to_string(gp_sol.status)};
  }
  RelaxedSolution sol;
  sol.ii = gp_sol.x[0];
  sol.n_hat.assign(gp_sol.x.begin() + 1, gp_sol.x.end());
  return sol;
}

}  // namespace

StatusOr<RelaxedSolution> solve_relaxation_gp(const Problem& problem,
                                              const gp::SolverOptions& options,
                                              CompiledModelCache* models) {
  return solve_gp_impl(problem, options, nullptr, models);
}

StatusOr<RelaxedSolution> solve_relaxation_gp(const Problem& problem,
                                              const gp::SolverOptions& options,
                                              const RelaxedSolution& warm,
                                              CompiledModelCache* models) {
  return solve_gp_impl(problem, options, &warm, models);
}

Fingerprint relaxation_cache_key(const Problem& problem, double ii_hint) {
  Fingerprint key = relaxation_fingerprint(problem);
  key.mix(ii_hint);
  key.mix(std::uint64_t{0xb15ec7});  // algorithm tag: bisection
  return key;
}

Fingerprint relaxation_gp_cache_key(const Problem& problem,
                                    const gp::SolverOptions& options) {
  // The determinism contract requires the key to capture *every* solve
  // input. If this assert fires, a SolverOptions field was added or
  // resized: mix the new field below, then update the expected size.
  static_assert(sizeof(gp::SolverOptions) == 9 * sizeof(double),
                "SolverOptions changed: update relaxation_gp_cache_key");
  Fingerprint key = relaxation_fingerprint(problem);
  key.mix(options.tolerance);
  key.mix(options.t0);
  key.mix(options.mu);
  key.mix(static_cast<std::uint64_t>(options.max_outer));
  key.mix(static_cast<std::uint64_t>(options.max_newton));
  key.mix(options.newton_tol);
  key.mix(options.feas_margin);
  key.mix(options.variable_box);
  key.mix(options.warm_gap);
  key.mix(static_cast<std::uint64_t>(options.use_compiled_kernel));
  key.mix(std::uint64_t{0x6b9});  // algorithm tag: interior point
  return key;
}

Fingerprint relaxation_gp_cache_key(const Problem& problem,
                                    const gp::SolverOptions& options,
                                    const RelaxedSolution& warm) {
  Fingerprint key = relaxation_gp_cache_key(problem, options);
  key.mix(warm.ii);
  for (double n : warm.n_hat) key.mix(n);
  key.mix(std::uint64_t{warm.n_hat.size()});
  key.mix(std::uint64_t{0x3a96});  // algorithm tag: warm-started barrier
  return key;
}

}  // namespace mfa::core
