// Micro-benchmark of the compiled GP kernel and the relaxation cache.
//
// Measures the PR's two claims on the paper's largest case (VGG on 8
// FPGAs) plus a batch-shaped workload:
//
//   1. kernel: interior-point relaxation solves through the compiled
//      flat LSE IR vs. the interpretive LseFunction baseline
//      (SolverOptions::use_compiled_kernel off — the PR-1 path).
//   2. warm start: GP solves seeded from a previous solution vs. cold.
//   3. repeated relaxation solves (micro_solvers-style): GP+A pipelines
//      with a shared RelaxationCache vs. the PR-1 cold-solve baseline.
//
// The headline line compares compiled + cached against the baseline and
// checks the ≥3× acceptance target. `--smoke` shrinks every loop for CI
// (correctness-of-wiring only; ratios are still printed) and `--iters N`
// sets an explicit count. Exits non-zero only with `--check`, so timing
// noise cannot break CI.
//
// With MFA_BENCH_OUT set to a directory, the measurements are also
// written there as BENCH_gp_kernel.json — one machine-readable record
// per workload (baseline/new seconds, speedup) plus the headline — so
// CI can archive the perf trajectory run over run.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/gpa.hpp"
#include "core/relax_cache.hpp"
#include "core/relaxation.hpp"
#include "hls/paper.hpp"
#include "io/serialize.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

mfa::core::Problem vgg_problem(double rc) {
  mfa::core::Problem p = mfa::hls::paper::case_vgg_8fpga();
  p.resource_fraction = rc;
  return p;
}

/// Times `iters` runs of `body` and returns seconds per run.
template <typename Body>
double time_per_run(int iters, Body&& body) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) body(i);
  return seconds_since(t0) / iters;
}

struct Measurement {
  std::string name;
  double baseline_s = 0.0;
  double new_s = 0.0;
};

std::vector<Measurement> g_measurements;

void report(const char* name, double base_s, double new_s) {
  std::printf("%-44s %10.1f us %10.1f us %7.2fx\n", name, base_s * 1e6,
              new_s * 1e6, base_s / new_s);
  g_measurements.push_back({name, base_s, new_s});
}

/// Emits BENCH_gp_kernel.json into $MFA_BENCH_OUT, if set.
void emit_json(int iters, double headline) {
  const char* dir = std::getenv("MFA_BENCH_OUT");
  if (dir == nullptr || *dir == '\0') return;
  mfa::io::Json doc = mfa::io::Json::object();
  doc.set("bench", mfa::io::Json::string("gp_kernel"));
  doc.set("iters", mfa::io::Json::number(iters));
  doc.set("headline_speedup", mfa::io::Json::number(headline));
  mfa::io::Json rows = mfa::io::Json::array();
  for (const Measurement& m : g_measurements) {
    mfa::io::Json row = mfa::io::Json::object();
    row.set("workload", mfa::io::Json::string(m.name));
    row.set("baseline_s", mfa::io::Json::number(m.baseline_s));
    row.set("new_s", mfa::io::Json::number(m.new_s));
    row.set("speedup", mfa::io::Json::number(m.baseline_s / m.new_s));
    rows.push_back(std::move(row));
  }
  doc.set("measurements", std::move(rows));
  const std::string path = std::string(dir) + "/BENCH_gp_kernel.json";
  const mfa::Status st = mfa::io::write_file(path, doc.dump(2) + "\n");
  if (st.is_ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 200;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      iters = 3;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
      if (iters <= 0) iters = 1;
    }
  }

  const mfa::core::Problem problem = vgg_problem(0.7);
  std::printf("gp_kernel: %d iterations per measurement (VGG, 8 FPGAs)\n\n",
              iters);
  std::printf("%-44s %13s %13s %8s\n", "workload", "baseline", "new",
              "speedup");

  // ---- 1. Interior-point kernel: interpretive vs compiled, cold solves.
  mfa::gp::SolverOptions legacy_gp;
  legacy_gp.use_compiled_kernel = false;
  mfa::gp::SolverOptions compiled_gp;  // default: compiled
  const double ip_legacy = time_per_run(iters, [&](int) {
    auto r = mfa::core::solve_relaxation_gp(problem, legacy_gp);
    if (!r.is_ok()) std::abort();
  });
  const double ip_compiled = time_per_run(iters, [&](int) {
    auto r = mfa::core::solve_relaxation_gp(problem, compiled_gp);
    if (!r.is_ok()) std::abort();
  });
  report("interior-point solve (compiled kernel)", ip_legacy, ip_compiled);

  // ---- 2. Warm-started GP solve vs cold (both on the compiled kernel).
  const auto seed = mfa::core::solve_relaxation_gp(problem, compiled_gp);
  if (!seed.is_ok()) std::abort();
  const double ip_warm = time_per_run(iters, [&](int) {
    auto r =
        mfa::core::solve_relaxation_gp(problem, compiled_gp, seed.value());
    if (!r.is_ok()) std::abort();
  });
  report("interior-point solve (+ warm start)", ip_compiled, ip_warm);

  // ---- 3. Repeated GP+A relaxation+discretization, cold vs cached.
  // Three greedy deviations per point — the portfolio shape — so the
  // baseline re-solves the identical root relaxation and B&B tree three
  // times per iteration and the cache collapses them to lookups.
  const double t_lanes[] = {0.0, 0.05, 0.10};
  auto gpa_pass = [&](mfa::core::RelaxationCache* cache) {
    mfa::core::SolverContext ctx;
    ctx.relax_cache = cache;
    for (double t : t_lanes) {
      mfa::alloc::GpaOptions o;
      o.greedy.t_max = t;
      o.context = &ctx;
      auto r = mfa::alloc::GpaSolver(o).solve(problem);
      if (!r.is_ok()) std::abort();
    }
  };
  const double gpa_cold = time_per_run(iters, [&](int) { gpa_pass(nullptr); });
  mfa::core::RelaxationCache cache;
  const double gpa_cached =
      time_per_run(iters, [&](int) { gpa_pass(&cache); });
  report("GP+A x3 lanes, bisection root (+ cache)", gpa_cold, gpa_cached);
  const auto stats = cache.stats();
  std::printf("    cache: %llu entries, %llu hits / %llu misses\n",
              static_cast<unsigned long long>(stats.entries),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));

  // ---- 4. Headline: repeated interior-point relaxation solves,
  // compiled + cached vs the PR-1 baseline (interpretive, cold).
  auto gpa_ip_pass = [&](mfa::core::RelaxationCache* c,
                         const mfa::gp::SolverOptions& gp_opts) {
    mfa::core::SolverContext ctx;
    ctx.relax_cache = c;
    for (double t : t_lanes) {
      mfa::alloc::GpaOptions o;
      o.use_interior_point = true;
      o.gp = gp_opts;
      o.greedy.t_max = t;
      o.context = &ctx;
      auto r = mfa::alloc::GpaSolver(o).solve(problem);
      if (!r.is_ok()) std::abort();
    }
  };
  const double head_base =
      time_per_run(iters, [&](int) { gpa_ip_pass(nullptr, legacy_gp); });
  mfa::core::RelaxationCache head_cache;
  const double head_new = time_per_run(
      iters, [&](int) { gpa_ip_pass(&head_cache, compiled_gp); });
  report("GP+A x3 lanes, GP root: compiled+cached", head_base, head_new);

  const double headline = head_base / head_new;
  std::printf("\nheadline speedup (compiled + cached vs PR-1 baseline): "
              "%.2fx (target >= 3x)\n",
              headline);
  emit_json(iters, headline);
  if (check && headline < 3.0) {
    std::printf("FAIL: headline below 3x\n");
    return 1;
  }
  return 0;
}
