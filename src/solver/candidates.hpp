// Candidate initiation intervals, and the integral discretization they
// give (paper §3.2.2, first half).
//
// For integer CU counts the initiation interval II = max_k WCET_k/N_k can
// only take values of the form WCET_k/m with m ∈ N. Enumerating this
// finite set turns the outer minimization of the MINLP into a search over
// a sorted list — the key structural fact behind solver::ExactSolver.
//
// It also settles the discretization exactly. The paper rounds the
// relaxed N̂_k by branch-and-bound; but under pooled linear caps with
// non-negative demands, lowering each N_k to ⌈WCET_k/t⌉ keeps II ≤ t and
// only frees resources, so "the minimal totals for t fit the caps" is
// monotone in t. The integral optimum is therefore the first candidate
// whose minimal totals fit, found by bisection over candidate_iis().
// differential_fuzz --enumerate checks it against an exhaustive
// enumerator of integral totals.
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.hpp"
#include "support/status.hpp"

namespace mfa::solver {

/// All achievable II values WCET_k/m for m ∈ [1, max_cu_total(k)],
/// deduplicated (relative tolerance 1e-12) and sorted ascending.
/// The largest entry is max_k WCET_k (every N_k = 1); values below
/// max_k WCET_k/max_cu_total(k) are unachievable and excluded.
std::vector<double> candidate_iis(const core::Problem& problem);

/// Minimal integer CU count for kernel k to meet a target II t:
/// the smallest N with WCET_k/N ≤ t, i.e. ⌈WCET_k/t⌉ with a relative
/// guard so that t values taken from candidate_iis round exactly.
int needed_cus(double wcet_ms, double target_ii);

/// The minimal totals vector N_k(t) = max(1, ⌈WCET_k/t⌉) for all kernels.
std::vector<int> minimal_totals(const core::Problem& problem,
                                double target_ii);

struct DiscretizeResult {
  std::vector<int> totals;  ///< minimal integral N_k at the optimal II
  double ii = 0.0;          ///< max_k WCET_k / N_k of the totals
  std::int64_t probes = 0;  ///< feasibility probes of minimal totals
};

/// The optimal integral totals of the pooled problem: the first
/// candidate II whose minimal totals fit every kernel's max_cu_total
/// and the pooled resource and bandwidth caps (core::fits_pooled_caps).
/// Returns kInfeasible when a kernel fits on no FPGA or N_k = 1 for
/// every kernel does not fit. On ties it keeps the minimal totals.
[[nodiscard]] StatusOr<DiscretizeResult> discretize(
    const core::Problem& problem);

}  // namespace mfa::solver
