#include "solver/candidates.hpp"

#include <algorithm>
#include <cmath>

#include "core/relaxation.hpp"

namespace mfa::solver {

std::vector<double> candidate_iis(const core::Problem& problem) {
  std::vector<int> max_totals(problem.num_kernels());
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    max_totals[k] = problem.max_cu_total(k);
  }
  // Nothing below this is achievable even with every FPGA dedicated to
  // the slowest kernel.
  double floor_ii = 0.0;
  double ceil_ii = 0.0;
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    const double wcet = problem.app.kernels[k].wcet_ms;
    if (max_totals[k] >= 1) floor_ii = std::max(floor_ii, wcet / max_totals[k]);
    ceil_ii = std::max(ceil_ii, wcet);
  }

  std::vector<double> values;
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    const double wcet = problem.app.kernels[k].wcet_ms;
    const int max_total = std::max(max_totals[k], 1);
    for (int m = 1; m <= max_total; ++m) {
      const double t = wcet / m;
      if (t >= floor_ii * (1.0 - 1e-12) && t <= ceil_ii * (1.0 + 1e-12)) {
        values.push_back(t);
      }
    }
  }
  std::sort(values.begin(), values.end());
  // Relative-tolerance dedup: WCET ratios can collide inexactly.
  std::vector<double> unique;
  for (double v : values) {
    if (unique.empty() || v > unique.back() * (1.0 + 1e-12)) {
      unique.push_back(v);
    }
  }
  return unique;
}

int needed_cus(double wcet_ms, double target_ii) {
  MFA_ASSERT(wcet_ms > 0.0 && target_ii > 0.0);
  // Relative guard: when target_ii is exactly WCET/m the quotient may
  // land at m ± ulp; snap to the intended integer.
  const double q = wcet_ms / target_ii;
  const int n = static_cast<int>(std::ceil(q * (1.0 - 1e-9)));
  return std::max(n, 1);
}

std::vector<int> minimal_totals(const core::Problem& problem,
                                double target_ii) {
  std::vector<int> totals(problem.num_kernels());
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    totals[k] = needed_cus(problem.app.kernels[k].wcet_ms, target_ii);
  }
  return totals;
}

StatusOr<DiscretizeResult> discretize(const core::Problem& problem) {
  std::vector<int> max_totals(problem.num_kernels());
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    max_totals[k] = problem.max_cu_total(k);
    if (max_totals[k] < 1) {
      return Status{Code::kInfeasible,
                    "kernel '" + problem.app.kernels[k].name +
                        "' fits on no FPGA"};
    }
  }
  const std::vector<double> candidates = candidate_iis(problem);
  MFA_ASSERT(!candidates.empty());

  DiscretizeResult result;
  const auto fits = [&](double t) {
    ++result.probes;
    result.totals = minimal_totals(problem, t);
    for (std::size_t k = 0; k < result.totals.size(); ++k) {
      if (result.totals[k] > max_totals[k]) return false;
    }
    return core::fits_pooled_caps(problem, result.totals);
  };
  // The largest candidate is max_k WCET_k: every N_k = 1.
  if (!fits(candidates.back())) {
    return Status{Code::kInfeasible,
                  "pooled resource constraints violated at N_k = 1"};
  }
  // Fitting is monotone in t, so the candidates split into a non-fitting
  // prefix and a fitting suffix; the optimum opens the suffix.
  const auto first_fit =
      std::partition_point(candidates.begin(), candidates.end() - 1,
                           [&](double t) { return !fits(t); });
  result.totals = minimal_totals(problem, *first_fit);
  for (std::size_t k = 0; k < result.totals.size(); ++k) {
    result.ii = std::max(
        result.ii, problem.app.kernels[k].wcet_ms / result.totals[k]);
  }
  return result;
}

}  // namespace mfa::solver
