// Shared helpers for the mfalloc test suite: seeded random problem
// instances (small enough for the naive oracle), convenience builders and
// an exhaustive enumerator of integral CU totals.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "scenario/generate.hpp"

namespace mfa::test {

/// Deterministic kernel builder (BRAM/DSP axes, % of one FPGA).
inline core::Kernel make_kernel(const std::string& name, double wcet_ms,
                                double bram, double dsp, double bw) {
  return core::Kernel{name, wcet_ms, core::ResourceVec(bram, dsp, 0.0, 0.0),
                      bw};
}

/// A small fully-specified problem used by many unit tests: three
/// kernels, two FPGAs, generous caps.
inline core::Problem tiny_problem() {
  core::Problem p;
  p.app.name = "tiny";
  p.app.kernels = {
      make_kernel("a", 8.0, 10.0, 20.0, 5.0),
      make_kernel("b", 12.0, 8.0, 15.0, 4.0),
      make_kernel("c", 4.0, 5.0, 10.0, 8.0),
  };
  p.platform = core::Platform{"2fpga", 2};
  p.resource_fraction = 0.8;
  p.alpha = 1.0;
  p.beta = 0.5;
  return p;
}

struct RandomSpec {
  int min_kernels = 2;
  int max_kernels = 4;
  int min_fpgas = 1;
  int max_fpgas = 3;
  double max_wcet = 20.0;
  double max_res = 40.0;  ///< per-CU axis demand upper bound (%)
  double max_bw = 15.0;
  double min_fraction = 0.5;
  double max_beta = 2.0;
};

/// Random problem small enough for the naive MINLP oracle. Guaranteed to
/// pass Problem::validate() (each kernel fits at least one CU).
inline core::Problem random_problem(std::mt19937& rng,
                                    const RandomSpec& spec = {}) {
  std::uniform_int_distribution<int> kdist(spec.min_kernels,
                                           spec.max_kernels);
  std::uniform_int_distribution<int> fdist(spec.min_fpgas, spec.max_fpgas);
  std::uniform_real_distribution<double> u(0.0, 1.0);

  core::Problem p;
  p.platform = core::Platform{"rand", fdist(rng)};
  p.resource_fraction =
      spec.min_fraction + (1.0 - spec.min_fraction) * u(rng);
  p.alpha = 1.0;
  p.beta = u(rng) < 0.5 ? 0.0 : spec.max_beta * u(rng);

  const int num_kernels = kdist(rng);
  const double cap = 100.0 * p.resource_fraction;
  for (int k = 0; k < num_kernels; ++k) {
    core::Kernel kern;
    kern.name = "k" + std::to_string(k);
    kern.wcet_ms = 0.5 + spec.max_wcet * u(rng);
    // Demands capped below the effective cap so one CU always fits.
    kern.res[core::Resource::kBram] = std::min(spec.max_res * u(rng),
                                               cap * 0.9);
    kern.res[core::Resource::kDsp] = std::min(spec.max_res * u(rng),
                                              cap * 0.9);
    kern.bw = std::min(spec.max_bw * u(rng), 90.0);
    p.app.kernels.push_back(kern);
  }
  return p;
}

/// Scenario shape small enough for the naive oracle to *prove* optima
/// within its node budget on every seed (differential_fuzz's corpus).
inline scenario::ScenarioSpec fuzz_spec() {
  scenario::ScenarioSpec spec;
  spec.min_kernels = 2;
  spec.max_kernels = 4;
  spec.min_fpgas = 2;
  spec.max_fpgas = 3;
  spec.max_classes = 2;
  spec.class_skew = 0.4;
  spec.tightness = 0.8;
  spec.max_cu_per_kernel = 3;
  return spec;
}

/// Deeper corpus for the discretizer: more kernels, FPGAs and CUs per
/// kernel, so branch-and-bound trees backtrack and prune. Too large for
/// the naive MINLP; enumerate_best_totals covers the seeds whose box is
/// small enough.
inline scenario::ScenarioSpec deep_fuzz_spec() {
  scenario::ScenarioSpec spec = fuzz_spec();
  spec.min_kernels = 5;
  spec.max_kernels = 7;
  spec.min_fpgas = 3;
  spec.max_fpgas = 6;
  spec.max_cu_per_kernel = 6;
  return spec;
}

/// The enumerator's capacity test: `used` within `cap` up to
/// 1e-9·(1 + cap), which absorbs summation-order rounding only.
inline bool within_cap(double used, double cap) {
  return used <= cap + 1e-9 * (1.0 + cap);
}

/// Whether integral totals N_k fit the pooled caps: Σ_k N_k·R_k within
/// pooled_cap() on every axis and Σ_k N_k·B_k within pooled_bw_cap().
/// Deliberately its own arithmetic — nothing from solver/ or the
/// relaxation — so it can referee them.
inline bool totals_fit_pooled_caps(const core::Problem& p,
                                   const std::vector<int>& totals) {
  const core::ResourceVec cap = p.pooled_cap();
  for (std::size_t axis = 0; axis < core::kNumResources; ++axis) {
    double used = 0.0;
    for (std::size_t k = 0; k < totals.size(); ++k) {
      used += totals[k] * p.app.kernels[k].res.axis(axis);
    }
    if (!within_cap(used, cap.axis(axis))) return false;
  }
  double bw = 0.0;
  for (std::size_t k = 0; k < totals.size(); ++k) {
    bw += totals[k] * p.app.kernels[k].bw;
  }
  return within_cap(bw, p.pooled_bw_cap());
}

struct Enumeration {
  double box = 0.0;     ///< Π_k max_cu_total(k): totals vectors to walk
  bool skipped = false; ///< box > max_points, nothing was enumerated
  bool feasible = false;
  double best_ii = std::numeric_limits<double>::infinity();
  std::vector<int> best_totals;  ///< first optimum in enumeration order
};

/// Ground truth for the discretizer: walks every integral totals vector
/// in [1, max_cu_total(k)]^K, keeps those that pass
/// totals_fit_pooled_caps, and returns the minimum of max_k WCET_k/N_k.
/// A prefix whose partial sums plus one CU of each remaining kernel
/// already exceed a cap is pruned with all its extensions (the sums only
/// grow from there). Returns `skipped` without enumerating when the box
/// holds more than `max_points` vectors.
inline Enumeration enumerate_best_totals(const core::Problem& p,
                                         double max_points) {
  const std::size_t kernels = p.num_kernels();
  std::vector<int> upper(kernels);
  Enumeration out;
  out.box = 1.0;
  for (std::size_t k = 0; k < kernels; ++k) {
    upper[k] = p.max_cu_total(k);
    out.box *= upper[k];
  }
  if (out.box > max_points) {
    out.skipped = true;
    return out;
  }
  constexpr std::size_t kAxes = core::kNumResources + 1;  // + bandwidth
  const core::ResourceVec res_cap = p.pooled_cap();
  double cap[kAxes];
  for (std::size_t a = 0; a < core::kNumResources; ++a) {
    cap[a] = res_cap.axis(a);
  }
  cap[core::kNumResources] = p.pooled_bw_cap();
  const auto demand = [&](std::size_t k, std::size_t a) {
    return a < core::kNumResources ? p.app.kernels[k].res.axis(a)
                                   : p.app.kernels[k].bw;
  };
  // rest[k][a]: one CU of each kernel k.. on axis a (the cheapest tail).
  std::vector<std::vector<double>> rest(kernels + 1,
                                        std::vector<double>(kAxes, 0.0));
  for (std::size_t k = kernels; k-- > 0;) {
    for (std::size_t a = 0; a < kAxes; ++a) {
      rest[k][a] = rest[k + 1][a] + demand(k, a);
    }
  }
  std::vector<int> totals(kernels, 1);
  std::vector<std::vector<double>> used(kernels + 1,
                                        std::vector<double>(kAxes, 0.0));
  // Walks kernel k's count with kernels 0..k-1 fixed (used[k] holds
  // their sums); the leaf keeps the best II of a vector that fits.
  const auto walk = [&](const auto& self, std::size_t k) -> void {
    if (k == kernels) {
      if (!totals_fit_pooled_caps(p, totals)) return;
      double ii = 0.0;
      for (std::size_t j = 0; j < kernels; ++j) {
        ii = std::max(ii, p.app.kernels[j].wcet_ms / totals[j]);
      }
      out.feasible = true;
      if (ii < out.best_ii) {
        out.best_ii = ii;
        out.best_totals = totals;
      }
      return;
    }
    for (int n = 1; n <= upper[k]; ++n) {
      bool fits = true;
      for (std::size_t a = 0; a < kAxes; ++a) {
        used[k + 1][a] = used[k][a] + n * demand(k, a);
        fits = fits && within_cap(used[k + 1][a] + rest[k + 1][a], cap[a]);
      }
      if (!fits) break;  // more CUs of kernel k only use more
      totals[k] = n;
      self(self, k + 1);
    }
  };
  walk(walk, 0);
  return out;
}

}  // namespace mfa::test
