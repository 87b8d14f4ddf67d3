#include "alloc/gpa.hpp"

#include <chrono>

namespace mfa::alloc {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

StatusOr<GpaResult> GpaSolver::solve(const core::Problem& problem) const {
  const Status valid = problem.validate();
  if (!valid.is_ok()) return valid;

  // ---- Step 1: continuous relaxation (paper §3.2.1), the reported
  // lower bound ÎI. Memoized when a shared cache is configured (portfolio
  // lanes solve identical roots), warm-started from options_.warm when
  // set (the root bisection probes the seed ÎI once; the interior-point
  // path seeds the barrier). Cache keys fold the seed in, so warm and
  // cold entries never alias.
  auto t0 = std::chrono::steady_clock::now();
  // The interior-point seed needs a full (ÎI, N̂) point of the right
  // shape; the bisection hint only needs ÎI.
  const core::RelaxedSolution* warm =
      options_.warm && options_.warm->ii > 0.0 &&
              (!options_.use_interior_point ||
               options_.warm->n_hat.size() == problem.num_kernels())
          ? &*options_.warm
          : nullptr;
  const core::SolverContext* ctx = options_.context;
  core::CompiledModelCache* model_cache =
      ctx != nullptr ? ctx->model_cache : nullptr;
  core::RelaxationCache* relax_cache =
      ctx != nullptr ? ctx->relax_cache : nullptr;
  auto solve_root = [this, &problem, warm,
                     model_cache]() -> StatusOr<core::RelaxedSolution> {
    if (options_.use_interior_point) {
      return warm != nullptr
                 ? core::solve_relaxation_gp(problem, options_.gp, *warm,
                                             model_cache)
                 : core::solve_relaxation_gp(problem, options_.gp,
                                             model_cache);
    }
    return core::solve_relaxation(problem, warm != nullptr ? warm->ii : 0.0);
  };
  StatusOr<core::RelaxedSolution> relaxed = [&]() {
    if (relax_cache == nullptr) return solve_root();
    const core::Fingerprint key =
        options_.use_interior_point
            ? (warm != nullptr
                   ? core::relaxation_gp_cache_key(problem, options_.gp,
                                                   *warm)
                   : core::relaxation_gp_cache_key(problem, options_.gp))
            : core::relaxation_cache_key(problem,
                                         warm != nullptr ? warm->ii : 0.0);
    return StatusOr<core::RelaxedSolution>(
        *relax_cache->get_or_solve(key, solve_root));
  }();
  const double seconds_relax = seconds_since(t0);
  if (!relaxed.is_ok()) return relaxed.status();

  // ---- Step 2: discretization (§3.2.2, first half): the first
  // candidate II whose minimal totals fit the pooled caps. It does not
  // read the relaxation; step 1's ÎI is only the reported lower bound.
  t0 = std::chrono::steady_clock::now();
  StatusOr<solver::DiscretizeResult> discrete = solver::discretize(problem);
  const double seconds_discretize = seconds_since(t0);
  if (!discrete.is_ok()) return discrete.status();

  // ---- Step 3: greedy allocation (Algorithm 1). Its criticality order
  // depends on the totals, so it can leave a kernel without a CU where a
  // placement exists (a spare CU elsewhere reorders it into success).
  // When it does, one CU per kernel is packed exactly under a node-only
  // budget (never wall clock, so the outcome is deterministic) and
  // Algorithm 1 places the rest of the totals around that seed.
  t0 = std::chrono::steady_clock::now();
  GreedyAllocator allocator(options_.greedy);
  StatusOr<GreedyResult> greedy =
      allocator.allocate(problem, discrete.value().totals);
  std::int64_t placement_nodes = 0;
  if (!greedy.is_ok()) {
    solver::Budget budget = solver::Budget::nodes_only(kPlacementNodes);
    const solver::PackingResult ones = solver::PackingSolver(problem).pack(
        std::vector<int>(problem.num_kernels(), 1),
        solver::PackingMode::kFeasibility, budget);
    placement_nodes = budget.nodes_used();
    if (!ones.feasible) {
      return ones.proved_optimal
                 ? Status{Code::kInfeasible,
                          "no placement with one CU per kernel exists"}
                 : Status{Code::kLimit,
                          "the N_k = 1 packing ran out of its node budget"};
    }
    greedy = allocator.allocate_around(problem, discrete.value().totals,
                                       *ones.allocation);
  }
  core::Allocation allocation = std::move(greedy.value().allocation);

  // ---- Step 4 (optional): migration-aware repack. Re-place the CUs the
  // greedy allocator actually landed (not the requested totals — greedy
  // may have dropped some) against the incumbent reference under the
  // stability budgets. Same totals ⇒ same II; only φ can regress. The
  // repack runs under its own deterministic node budget and is simply
  // skipped when infeasible within the budgets, leaving the
  // unconstrained placement standing.
  bool stability_applied = false;
  if (options_.stability != nullptr && options_.stability->constrained() &&
      options_.stability->reference.size() == problem.num_kernels()) {
    std::vector<int> placed(problem.num_kernels());
    for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
      placed[k] = allocation.total_cu(k);
    }
    solver::Budget budget =
        solver::Budget::nodes_only(options_.stability->repack_nodes);
    const solver::PackingResult packed =
        solver::PackingSolver(problem).pack(placed,
                                            solver::PackingMode::kMinSpreading,
                                            budget, options_.stability);
    if (packed.feasible && packed.allocation &&
        packed.allocation->feasible()) {
      allocation = *packed.allocation;
      stability_applied = true;
    }
  }
  const double seconds_allocate = seconds_since(t0);

  GpaResult result{std::move(allocation),
                   relaxed.value().ii,
                   relaxed.value().n_hat,
                   discrete.value().ii,
                   discrete.value().totals,
                   greedy.value().used_fraction,
                   discrete.value().probes,
                   placement_nodes,
                   stability_applied,
                   seconds_relax,
                   seconds_discretize,
                   seconds_allocate};
  return result;
}

}  // namespace mfa::alloc
