// Differential fuzzing over the seeded scenario generator.
//
// For each seed a random pipeline × (possibly mixed-class) platform is
// generated and pushed through every solver path, cross-checking:
//
//  1. exact == naive — the structured exact solver (candidate-II
//     enumeration + within-class symmetry-broken packing) agrees with
//     the transformation-free naive branch-and-bound on the optimal
//     goal, and both agree on feasibility;
//  2. GP+A soundness — when the heuristic returns, its allocation is
//     feasible at the constraint it reports (used_fraction) and never
//     beats the proved exact optimum II (β = 0 lanes);
//  3. relaxation bound — the continuous relaxation never exceeds the
//     exact optimum II;
//  4. patched-vs-fresh parity — solving the interior-point relaxation
//     through a CompiledModelCache hit (a structure compiled from a
//     *re-weighted* twin, cloned and coefficient-patched) returns
//     byte-identical results to a fresh compile, cold and warm-started.
//
//  5. bisection-vs-GP agreement — the exact closed-form bisection the
//     serving path uses and the scalar interior-point GP solver (the
//     paper's GPkit step, an independent algorithm over the same convex
//     program) agree on feasibility (both solve, or both prove
//     infeasibility) and on ÎI within 1e-6 relative.
//
//  6. stability oracle — the migration-aware packing search against a
//     reference placement: zero budgets must reproduce the reference
//     bit-exactly, unlimited budgets must match the unconstrained
//     optimum φ, seeded hard budgets must be respected by the reported
//     counters (and those counters must match a recount from the
//     returned allocation), a soft move cost must never do worse than
//     the free stay-put option, and the GP+A stability plumbing must
//     hold the incumbent in place at zero budgets.
//
//  7. discretization vs an exhaustive enumerator — the candidate
//     threshold (solver::discretize) against test::enumerate_best_totals,
//     which walks every integral totals vector under the pooled caps
//     with its own arithmetic: same feasibility verdict, equal II (ties
//     may pick other totals), totals that fit, and a root relaxation
//     below it. Runs on fuzz_spec() and the deeper deep_fuzz_spec();
//     seeds whose box is too large to walk are skipped and counted, and
//     the threshold's probe counts are printed as a histogram.
//
// Usage: differential_fuzz [num_seeds] [--start S] [--out failure.json]
//                          [--parity] [--relaxation] [--stability]
//                          [--enumerate]
//
// --parity runs only check 4, --relaxation only check 5, --stability only
// check 6 and --enumerate only check 7 (no exact/naive oracles); all are
// cheap enough for wide ctest slices across heterogeneous platforms.
//
// On mismatch it prints the seed and the scenario JSON to stderr, writes
// the scenario to --out (CI uploads it as an artifact) and exits 1.
// Budget-capped (unproved) exact/naive results are skipped, not failed.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/gpa.hpp"
#include "core/relax_cache.hpp"
#include "core/relaxation.hpp"
#include "gp/compiled.hpp"
#include "gp/solver.hpp"
#include "io/serialize.hpp"
#include "scenario/generate.hpp"
#include "solver/candidates.hpp"
#include "solver/exact.hpp"
#include "solver/naive.hpp"
#include "solver/packing.hpp"
#include "testutil.hpp"

namespace {

struct Options {
  std::uint64_t start = 0;
  std::uint64_t count = 200;
  const char* out_path = nullptr;
  bool parity_only = false;
  bool relaxation_only = false;
  bool stability_only = false;
  bool enumerate_only = false;
};

void report_failure(std::uint64_t seed, const mfa::core::Problem& problem,
                    const Options& opt, const char* what) {
  const std::string json = mfa::io::to_json(problem).dump(2) + "\n";
  std::fprintf(stderr, "\nFAIL seed %" PRIu64 ": %s\n", seed, what);
  std::fprintf(stderr, "scenario:\n%s", json.c_str());
  if (opt.out_path != nullptr) {
    mfa::io::Json doc = mfa::io::Json::object();
    doc.set("seed", mfa::io::Json::number(static_cast<double>(seed)));
    doc.set("mismatch", mfa::io::Json::string(what));
    doc.set("problem", mfa::io::to_json(problem));
    const mfa::Status st =
        mfa::io::write_file(opt.out_path, doc.dump(2) + "\n");
    if (!st.is_ok()) {
      std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
    }
  }
}

mfa::gp::SolverOptions gp_options() { return {}; }

/// Structure/coefficient-split differential: a compiled-model cache hit
/// (structure donated by a re-weighted twin, clone + patch) must solve
/// to byte-identical results as a fresh compile — cold and warm-started.
const char* check_patch_parity(const mfa::core::Problem& problem) {
  mfa::core::CompiledModelCache models;
  // Donate the structure entry under *different* coefficients, so the
  // cached solve below exercises the clone-then-patch path for real.
  mfa::core::Problem donor = problem;
  for (mfa::core::Kernel& k : donor.app.kernels) k.wcet_ms *= 1.5;
  (void)mfa::core::solve_relaxation_gp(donor, gp_options(), &models);

  const auto cached =
      mfa::core::solve_relaxation_gp(problem, gp_options(), &models);
  const auto fresh = mfa::core::solve_relaxation_gp(problem, gp_options());
  if (cached.is_ok() != fresh.is_ok()) {
    return "patched and fresh GP relaxations disagree on status";
  }
  if (!fresh.is_ok()) return nullptr;
  if (cached.value().ii != fresh.value().ii ||
      cached.value().n_hat != fresh.value().n_hat) {
    return "patched GP relaxation differs from a fresh compile";
  }
  // Warm-started flavor, seeded from the cold optimum.
  const auto cached_warm = mfa::core::solve_relaxation_gp(
      problem, gp_options(), fresh.value(), &models);
  const auto fresh_warm =
      mfa::core::solve_relaxation_gp(problem, gp_options(), fresh.value());
  if (cached_warm.is_ok() != fresh_warm.is_ok()) {
    return "patched and fresh warm GP relaxations disagree on status";
  }
  if (fresh_warm.is_ok() &&
      (cached_warm.value().ii != fresh_warm.value().ii ||
       cached_warm.value().n_hat != fresh_warm.value().n_hat)) {
    return "patched warm GP relaxation differs from a fresh compile";
  }
  return nullptr;
}

/// Largest relative ÎI gap check_relaxation_agreement has seen.
double g_worst_relaxation_gap = 0.0;

/// Check 5: the bisection root against the scalar interior-point GP on
/// the same problem. Both must solve, or both must prove infeasibility
/// (a GP iteration-limit or numeric failure is no such proof), and the
/// two ÎI must agree to 1e-6 relative. Sets `*feasible` to the verdict.
const char* check_relaxation_agreement(const mfa::core::Problem& problem,
                                       bool* feasible) {
  const auto bisection = mfa::core::solve_relaxation(problem);
  const auto gp = mfa::core::solve_relaxation_gp(problem, gp_options());
  *feasible = bisection.is_ok();
  if (!bisection.is_ok() || !gp.is_ok()) {
    if (!bisection.is_ok() && !gp.is_ok() &&
        bisection.status().code() == mfa::Code::kInfeasible &&
        gp.status().code() == mfa::Code::kInfeasible) {
      return nullptr;
    }
    std::fprintf(stderr, "bisection: %s, GP: %s\n",
                 bisection.status().to_string().c_str(),
                 gp.status().to_string().c_str());
    return bisection.is_ok() != gp.is_ok()
               ? "bisection and GP relaxations disagree on feasibility"
               : "failed relaxation is not a proof of infeasibility";
  }
  const double a = bisection.value().ii;
  const double b = gp.value().ii;
  const double gap = std::abs(a - b) / std::abs(a);
  g_worst_relaxation_gap = std::max(g_worst_relaxation_gap, gap);
  if (!(gap <= 1e-6)) {
    std::fprintf(stderr, "bisection ÎI %.12g, GP ÎI %.12g\n", a, b);
    return "bisection and GP relaxation ÎI differ beyond 1e-6 relative";
  }
  return nullptr;
}

/// Boxes with more integral totals vectors than this are not enumerated.
/// Every deep_fuzz_spec() box (at most 36^7 ≈ 7.8e10) is below it; the
/// cap-pruned walk visits only a sliver of the box, so the whole corpus
/// runs in milliseconds per seed.
constexpr double kEnumerateMaxPoints = 1e11;

/// What check_enumerate saw over one corpus.
struct EnumerateStats {
  std::uint64_t solved = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t skipped = 0;
  std::uint64_t ties = 0;  ///< equal II, different totals
  std::int64_t max_probes = 0;
  /// Seeds by probe count: 1, 2, 3–4, 5–8, …, 129–256, more.
  std::array<std::uint64_t, 10> histogram{};
};

/// Check 7: the discretizer against the exhaustive enumerator (see the
/// file comment).
const char* check_enumerate(const mfa::core::Problem& problem,
                            EnumerateStats& stats) {
  const mfa::test::Enumeration truth =
      mfa::test::enumerate_best_totals(problem, kEnumerateMaxPoints);
  if (truth.skipped) {
    ++stats.skipped;
    return nullptr;
  }
  const auto threshold = mfa::solver::discretize(problem);
  if (!truth.feasible) {
    if (threshold.is_ok() ||
        threshold.status().code() != mfa::Code::kInfeasible) {
      return "threshold does not report kInfeasible, but no integral "
             "totals fit";
    }
    ++stats.infeasible;
    return nullptr;
  }
  if (!threshold.is_ok()) {
    std::fprintf(stderr, "threshold: %s\n",
                 threshold.status().to_string().c_str());
    return "threshold failed on an instance with fitting integral totals";
  }
  const mfa::solver::DiscretizeResult& r = threshold.value();
  if (!(std::abs(r.ii - truth.best_ii) <= 1e-9 * truth.best_ii)) {
    std::fprintf(stderr, "threshold II %.12g, enumerated optimum %.12g\n",
                 r.ii, truth.best_ii);
    return "threshold II differs from the enumerated optimum";
  }
  if (!mfa::test::totals_fit_pooled_caps(problem, r.totals)) {
    return "threshold totals exceed the pooled caps";
  }
  // The bisection stops within 1e-14 relative of the relaxed optimum.
  const auto relaxed = mfa::core::solve_relaxation(problem);
  if (!relaxed.is_ok() || !(relaxed.value().ii <= r.ii * (1.0 + 1e-12))) {
    return "root relaxation fails or exceeds the threshold II";
  }
  ++stats.solved;
  if (r.totals != truth.best_totals) ++stats.ties;
  stats.max_probes = std::max(stats.max_probes, r.probes);
  std::size_t bucket = 0;
  while (bucket + 1 < stats.histogram.size() &&
         r.probes > (std::int64_t{1} << bucket)) {
    ++bucket;
  }
  ++stats.histogram[bucket];
  return nullptr;
}

void print_enumerate_stats(const char* corpus, const EnumerateStats& s) {
  std::printf("%s: %" PRIu64 " solved (%" PRIu64 " equal-II ties), %" PRIu64
              " infeasible, %" PRIu64 " skipped (box > %.0e totals)\n",
              corpus, s.solved, s.ties, s.infeasible, s.skipped,
              kEnumerateMaxPoints);
  std::printf("  probes     seeds\n");
  for (std::size_t b = 0; b < s.histogram.size(); ++b) {
    char label[32];
    const long long hi = 1LL << b;
    if (b + 1 == s.histogram.size()) {
      std::snprintf(label, sizeof label, ">%lld", hi / 2);
    } else if (b < 2) {
      std::snprintf(label, sizeof label, "%lld", hi);
    } else {
      std::snprintf(label, sizeof label, "%lld-%lld", hi / 2 + 1, hi);
    }
    std::printf("  %-9s  %" PRIu64 "\n", label, s.histogram[b]);
  }
  std::printf("  most probes: %" PRId64 "\n", s.max_probes);
}

/// Migration-aware packing oracle (see file comment, check 6). The
/// reference placement is GP+A's own allocation of the seed — a
/// realistic incumbent the budgets can always fall back to, which makes
/// every property below unconditional:
///  * zero budgets reproduce the reference bit-exactly (staying put is
///    the only in-budget placement, and it is feasible);
///  * budgeted packs are feasible whenever the zero-budget one is (the
///    reference itself fits any non-negative budget) and their reported
///    moved/disturbed counters respect the budgets *and* match a
///    recount from the returned allocation;
///  * unlimited budgets match the unconstrained optimum φ (the
///    constrained search machinery must not change what it finds, only
///    what it may visit — this also exercises the symmetry-breaking
///    handoff);
///  * a soft move cost never does worse than the free stay-put option:
///    φ(packed) + c·moves(packed) ≤ φ(reference);
///  * GpaOptions::stability at zero budgets hands back the incumbent
///    placement unchanged (the service's Rung-1 wiring).
const char* check_stability(const mfa::core::Problem& problem,
                            std::uint64_t seed) {
  mfa::alloc::GpaOptions gpa_options;
  gpa_options.greedy.t_max = 0.2;
  const auto gpa = mfa::alloc::GpaSolver(gpa_options).solve(problem);
  if (!gpa.is_ok()) return nullptr;  // nothing placed, nothing to keep
  mfa::core::Problem used = problem;
  used.resource_fraction = gpa.value().used_fraction;
  const mfa::core::Allocation& base = gpa.value().allocation;
  const std::size_t kernels = base.num_kernels();
  const int fpgas = base.num_fpgas();

  std::vector<int> totals(kernels, 0);
  mfa::solver::StabilityOptions stab;
  stab.reference.resize(kernels);
  stab.group_of.resize(kernels);
  for (std::size_t k = 0; k < kernels; ++k) {
    totals[k] = base.total_cu(k);
    stab.group_of[k] = static_cast<int>(k);
    for (int f = 0; f < fpgas; ++f) {
      stab.reference[k].push_back(base.cu(k, f));
    }
  }
  const double base_phi = base.phi();
  const mfa::solver::PackingSolver packer(used);
  const auto pack = [&](const mfa::solver::StabilityOptions* s) {
    mfa::solver::Budget budget = mfa::solver::Budget::nodes_only(2'000'000);
    return packer.pack(totals, mfa::solver::PackingMode::kMinSpreading,
                       budget, s);
  };

  const mfa::solver::PackingResult unconstrained = pack(nullptr);
  if (!unconstrained.feasible) {
    return "packing lost a placement the heuristic proved feasible";
  }

  // Zero budgets: the search may only return the reference itself.
  stab.max_moves = 0;
  stab.max_disturbed = 0;
  const mfa::solver::PackingResult frozen = pack(&stab);
  if (!frozen.feasible || !frozen.allocation) {
    return "zero-budget pack failed to reproduce the reference placement";
  }
  for (std::size_t k = 0; k < kernels; ++k) {
    for (int f = 0; f < fpgas; ++f) {
      if (frozen.allocation->cu(k, f) != base.cu(k, f)) {
        return "zero-budget pack moved a CU off the reference";
      }
    }
  }
  if (frozen.cus_moved != 0 || frozen.disturbed != 0 ||
      std::abs(frozen.phi - base_phi) > 1e-9) {
    return "zero-budget pack misreported its own diff";
  }

  // Unlimited budgets: same optimum as the unconstrained search.
  stab.max_moves = 1 << 29;
  stab.max_disturbed = 1 << 29;
  const mfa::solver::PackingResult roomy = pack(&stab);
  if (!roomy.feasible) {
    return "generous-budget pack lost a feasible placement";
  }
  if (roomy.proved_optimal && unconstrained.proved_optimal &&
      std::abs(roomy.phi - unconstrained.phi) >
          1e-9 * (1.0 + std::abs(unconstrained.phi))) {
    return "generous-budget pack found a different optimum phi";
  }

  // Seeded hard budgets: reported counters within budget and equal to a
  // recount from the returned allocation.
  stab.max_moves = static_cast<int>(seed % 3);
  stab.max_disturbed = static_cast<int>(seed % 2);
  const mfa::solver::PackingResult budgeted = pack(&stab);
  if (!budgeted.feasible || !budgeted.allocation) {
    return "budgeted pack infeasible though the reference is in budget";
  }
  int torn = 0;
  int disturbed = 0;
  for (std::size_t k = 0; k < kernels; ++k) {
    bool changed = false;
    for (int f = 0; f < fpgas; ++f) {
      const int old_n = base.cu(k, f);
      const int new_n = budgeted.allocation->cu(k, f);
      if (old_n != new_n) changed = true;
      if (old_n > new_n) torn += old_n - new_n;
    }
    if (changed) ++disturbed;
  }
  if (torn != budgeted.cus_moved || disturbed != budgeted.disturbed) {
    return "budgeted pack's reported diff disagrees with a recount";
  }
  if (budgeted.cus_moved > stab.max_moves ||
      budgeted.disturbed > stab.max_disturbed) {
    return "budgeted pack violated its own hard budgets";
  }

  // Soft move cost: staying put costs phi(reference), so the optimizer
  // can never return anything strictly worse than that.
  stab.max_moves = -1;
  stab.max_disturbed = -1;
  stab.move_cost = 0.25;
  const mfa::solver::PackingResult soft = pack(&stab);
  if (!soft.feasible) return "soft-cost pack lost a feasible placement";
  if (soft.proved_optimal &&
      soft.phi + stab.move_cost * soft.cus_moved >
          base_phi + 1e-9 * (1.0 + base_phi)) {
    return "soft-cost pack did worse than the free stay-put option";
  }

  // GP+A plumbing: a re-solve with zero-budget stability must hand back
  // the incumbent placement unchanged (deterministic GP totals match).
  // Only unconditional when the greedy stayed within the original
  // resource fraction — the repack runs at that fraction, so an
  // escalated incumbent may legitimately not fit and be skipped.
  if (gpa.value().used_fraction > problem.resource_fraction + 1e-12) {
    return nullptr;
  }
  stab.move_cost = 0.0;
  stab.max_moves = 0;
  stab.max_disturbed = 0;
  gpa_options.stability = &stab;
  const auto held = mfa::alloc::GpaSolver(gpa_options).solve(problem);
  if (!held.is_ok()) {
    return "GP+A with zero-budget stability failed on a solvable seed";
  }
  if (!held.value().stability_applied) {
    return "GP+A ignored a constrained stability reference";
  }
  for (std::size_t k = 0; k < kernels; ++k) {
    for (int f = 0; f < fpgas; ++f) {
      if (held.value().allocation.cu(k, f) != base.cu(k, f)) {
        return "GP+A stability repack moved the incumbent at zero budget";
      }
    }
  }
  return nullptr;
}

/// Runs all solvers on one scenario; returns nullptr on agreement, else
/// a static description of the first mismatch. Sets *feasible when the
/// instance's feasibility was decided.
const char* check_seed(const mfa::core::Problem& problem, bool* feasible) {
  // Exact (structured) vs naive (oracle) on the full objective.
  mfa::solver::ExactOptions exact_options;
  exact_options.max_nodes = 20'000'000;
  exact_options.max_seconds = 60.0;
  auto exact = mfa::solver::ExactSolver(exact_options).solve(problem);
  mfa::solver::NaiveMinlp naive(mfa::solver::Budget::nodes_only(50'000'000));
  auto oracle = naive.solve(problem);

  const bool exact_capped =
      !exact.is_ok() && exact.status().code() == mfa::Code::kLimit;
  const bool oracle_capped =
      !oracle.is_ok() && oracle.status().code() == mfa::Code::kLimit;
  if (exact_capped || oracle_capped) return nullptr;  // skip, don't fail

  if (exact.is_ok() != oracle.is_ok()) {
    return "exact and naive disagree on feasibility";
  }
  *feasible = exact.is_ok();
  if (exact.is_ok()) {
    if (!exact.value().proved_optimal || !oracle.value().proved_optimal) {
      return nullptr;  // a budget-capped incumbent proves nothing
    }
    const double g_exact = exact.value().goal;
    const double g_naive = oracle.value().goal;
    if (std::abs(g_exact - g_naive) > 1e-6 * (1.0 + std::abs(g_naive))) {
      std::fprintf(stderr, "exact goal %.9f:\n%s", g_exact,
                   exact.value().allocation.to_string().c_str());
      std::fprintf(stderr, "naive goal %.9f:\n%s", g_naive,
                   oracle.value().allocation.to_string().c_str());
      return "exact and naive optima differ";
    }
    if (!exact.value().allocation.feasible()) {
      return "exact allocation violates its own constraints";
    }
  }

  // GP+A: must be sound whenever it returns.
  mfa::alloc::GpaOptions gpa_options;
  gpa_options.greedy.t_max = 0.2;  // allow the paper's constraint slack
  auto gpa = mfa::alloc::GpaSolver(gpa_options).solve(problem);
  if (gpa.is_ok()) {
    // Feasibility at the fraction the allocator actually used.
    mfa::core::Problem used = problem;
    used.resource_fraction = gpa.value().used_fraction;
    mfa::core::Allocation check(used);
    const mfa::core::Allocation& a = gpa.value().allocation;
    for (std::size_t k = 0; k < a.num_kernels(); ++k) {
      for (int f = 0; f < a.num_fpgas(); ++f) {
        check.set_cu(k, f, a.cu(k, f));
      }
    }
    if (!check.feasible()) {
      return "GP+A allocation infeasible at its reported used_fraction";
    }
    // When GP+A stayed within the original constraint, its allocation
    // is feasible for the exact model too, so it cannot beat a proved
    // optimum of the *full* goal α·II + β·φ (II alone would be the
    // wrong comparison for β > 0: the optimum trades II for φ).
    if (exact.is_ok() && exact.value().proved_optimal &&
        gpa.value().used_fraction <= problem.resource_fraction + 1e-12 &&
        a.goal() < exact.value().goal * (1.0 - 1e-9) - 1e-12) {
      return "GP+A beat the proved exact optimum goal without extra budget";
    }
  }

  // Relaxation lower bound.
  if (exact.is_ok() && exact.value().proved_optimal) {
    auto relax = mfa::core::solve_relaxation(problem);
    if (!relax.is_ok()) {
      return "integer-feasible instance with infeasible relaxation";
    }
    if (relax.value().ii > exact.value().ii * (1.0 + 1e-9)) {
      return "relaxation exceeds the exact optimum II";
    }
  }

  // Compiled-model cache transparency (see check_patch_parity).
  if (const char* mismatch = check_patch_parity(problem)) return mismatch;

  // Bisection root vs the interior-point GP.
  bool relax_feasible = true;
  return check_relaxation_agreement(problem, &relax_feasible);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--start") == 0 && i + 1 < argc) {
      opt.start = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--parity") == 0) {
      opt.parity_only = true;
    } else if (std::strcmp(argv[i], "--relaxation") == 0) {
      opt.relaxation_only = true;
    } else if (std::strcmp(argv[i], "--stability") == 0) {
      opt.stability_only = true;
    } else if (std::strcmp(argv[i], "--enumerate") == 0) {
      opt.enumerate_only = true;
    } else if (argv[i][0] != '-') {
      opt.count = std::strtoull(argv[i], nullptr, 10);
      if (opt.count == 0) {
        std::fprintf(stderr, "bad seed count '%s'\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [num_seeds] [--start S] [--out failure.json]"
                   " [--parity] [--relaxation] [--stability]"
                   " [--enumerate]\n",
                   argv[0]);
      return 2;
    }
  }

  struct Corpus {
    const char* name;
    mfa::scenario::ScenarioSpec spec;
  };
  std::vector<Corpus> corpora = {{"fuzz_spec", mfa::test::fuzz_spec()}};
  if (opt.enumerate_only) {
    corpora.push_back({"deep_fuzz_spec", mfa::test::deep_fuzz_spec()});
  }
  std::uint64_t checked = 0;
  std::uint64_t infeasible = 0;
  for (const Corpus& corpus : corpora) {
    EnumerateStats enumerated;
    std::uint64_t corpus_checked = 0;
    for (std::uint64_t seed = opt.start; seed < opt.start + opt.count;
         ++seed) {
      const mfa::core::Problem problem =
          mfa::scenario::generate(corpus.spec, seed);
      bool feasible = true;
      const char* mismatch = nullptr;
      if (opt.parity_only) {
        mismatch = check_patch_parity(problem);
      } else if (opt.relaxation_only) {
        mismatch = check_relaxation_agreement(problem, &feasible);
      } else if (opt.stability_only) {
        mismatch = check_stability(problem, seed);
      } else if (opt.enumerate_only) {
        mismatch = check_enumerate(problem, enumerated);
      } else {
        mismatch = check_seed(problem, &feasible);
      }
      if (mismatch != nullptr) {
        std::fprintf(stderr, "corpus: %s\n", corpus.name);
        report_failure(seed, problem, opt, mismatch);
        return 1;
      }
      ++checked;
      ++corpus_checked;
      if (!feasible) ++infeasible;
      if (corpus_checked % 50 == 0) {
        std::printf("  %s: %" PRIu64 "/%" PRIu64 " seeds ok\n", corpus.name,
                    corpus_checked, opt.count);
        std::fflush(stdout);
      }
    }
    if (opt.enumerate_only) print_enumerate_stats(corpus.name, enumerated);
  }
  std::printf("differential fuzz%s: %" PRIu64 " seeds ok\n",
              opt.parity_only       ? " (patch parity)"
              : opt.relaxation_only ? " (relaxation agreement)"
              : opt.stability_only  ? " (stability)"
              : opt.enumerate_only  ? " (threshold vs enumerator)"
                                    : "",
              checked);
  if (opt.relaxation_only) {
    std::printf("(%" PRIu64 " both solved, %" PRIu64
                " both infeasible; worst relative ÎI gap %.2g)\n",
                checked - infeasible, infeasible, g_worst_relaxation_gap);
  } else if (!opt.parity_only && !opt.stability_only &&
             !opt.enumerate_only) {
    std::printf("(%" PRIu64 " infeasible instances exercised)\n", infeasible);
  }
  return 0;
}
