#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "gp/compiled.hpp"
#include "gp/expr.hpp"
#include "gp/problem.hpp"
#include "gp/solver.hpp"

namespace mfa::gp {
namespace {

TEST(Monomial, EvalAndAlgebra) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  Monomial m = 2.0 * Monomial::var(x) * Monomial::var(y).pow(-1.0);
  std::vector<double> at{4.0, 2.0};
  EXPECT_DOUBLE_EQ(m.eval(at), 4.0);  // 2·4/2
  EXPECT_DOUBLE_EQ(m.exponent(x), 1.0);
  EXPECT_DOUBLE_EQ(m.exponent(y), -1.0);

  Monomial inv = m.inverse();
  EXPECT_DOUBLE_EQ(inv.eval(at), 0.25);
  // Exponents cancel exactly when multiplied by the inverse.
  Monomial one = m * inv;
  EXPECT_TRUE(one.exponents().empty());
  EXPECT_DOUBLE_EQ(one.coeff(), 1.0);
}

TEST(Monomial, IntegerExponentFastPathMatchesPow) {
  // e ∈ {1, 2, −1} take the multiply/divide fast path; parity with the
  // generic std::pow route must hold for all of them.
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  const VarId z = p.add_variable("z");
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> point(0.1, 50.0);
  const double exps[] = {1.0, 2.0, -1.0, 0.5, -2.0, 3.0};
  for (double ex : exps) {
    for (double ey : exps) {
      Monomial m = 1.75 * Monomial::var(x).pow(ex) *
                   Monomial::var(y).pow(ey) * Monomial::var(z).pow(-1.0);
      for (int trial = 0; trial < 16; ++trial) {
        std::vector<double> at{point(rng), point(rng), point(rng)};
        const double reference = 1.75 * std::pow(at[0], ex) *
                                 std::pow(at[1], ey) * std::pow(at[2], -1.0);
        EXPECT_NEAR(m.eval(at), reference, 1e-12 * std::fabs(reference))
            << "ex=" << ex << " ey=" << ey;
      }
    }
  }
  // The unit-exponent path is exact, not merely close.
  std::vector<double> at{1.0 / 3.0, 7.0, 1.0};
  EXPECT_DOUBLE_EQ(Monomial::var(x).eval(at), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Monomial::var(y).pow(2.0).eval(at), 49.0);
  EXPECT_DOUBLE_EQ(Monomial::var(x).pow(-1.0).eval(at), 3.0);
}

TEST(Posynomial, SumAndScale) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  Posynomial f = Monomial::var(x) + Posynomial(3.0);
  f *= 2.0;
  std::vector<double> at{5.0};
  EXPECT_DOUBLE_EQ(f.eval(at), 2.0 * 5.0 + 6.0);
  EXPECT_EQ(f.terms().size(), 2u);
  EXPECT_FALSE(f.is_monomial());
}

TEST(LseFunction, ValueMatchesLogOfPosynomial) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  Posynomial f = Monomial::var(x) * Monomial::var(y) + 0.5 * Monomial::var(x);
  LseFunction lse = p.compile(f);
  // y = log(x=2, y=3).
  linalg::Vector at{std::log(2.0), std::log(3.0)};
  EXPECT_NEAR(lse.value(at), std::log(2.0 * 3.0 + 0.5 * 2.0), 1e-12);
}

TEST(LseFunction, GradientMatchesFiniteDifference) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  Posynomial f = Monomial::var(x).pow(2.0) +
                 3.0 * Monomial::var(y).pow(-1.0) * Monomial::var(x);
  LseFunction lse = p.compile(f);

  linalg::Vector at{0.3, -0.2};
  linalg::Vector grad(2);
  linalg::Matrix hess(2, 2);
  lse.add_derivatives(at, 1.0, grad, hess);

  const double h = 1e-6;
  for (std::size_t i = 0; i < 2; ++i) {
    linalg::Vector hi = at;
    linalg::Vector lo = at;
    hi[i] += h;
    lo[i] -= h;
    const double fd = (lse.value(hi) - lse.value(lo)) / (2 * h);
    EXPECT_NEAR(grad[i], fd, 1e-6);
  }
}

TEST(LseFunction, HessianMatchesFiniteDifference) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  Posynomial f = Monomial::var(x) + Monomial::var(y) +
                 Monomial::var(x) * Monomial::var(y);
  LseFunction lse = p.compile(f);

  linalg::Vector at{0.1, 0.4};
  linalg::Vector grad(2);
  linalg::Matrix hess(2, 2);
  lse.add_derivatives(at, 1.0, grad, hess);

  const double h = 1e-5;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      linalg::Vector pp = at, pm = at, mp = at, mm = at;
      pp[i] += h;
      pp[j] += h;
      pm[i] += h;
      pm[j] -= h;
      mp[i] -= h;
      mp[j] += h;
      mm[i] -= h;
      mm[j] -= h;
      const double fd = (lse.value(pp) - lse.value(pm) - lse.value(mp) +
                         lse.value(mm)) /
                        (4 * h * h);
      EXPECT_NEAR(hess(i, j), fd, 1e-4);
    }
  }
}

/// Random posynomial over `n` vars: 1–6 terms, exponents drawn from a
/// grid that includes the fast-path values and repeats often enough to
/// exercise hash-consing and duplicate-term merging.
Posynomial random_posynomial(std::mt19937& rng, std::size_t n) {
  std::uniform_int_distribution<int> terms(1, 6);
  std::uniform_int_distribution<int> pick(0, 6);
  std::uniform_real_distribution<double> coeff(0.1, 10.0);
  const double grid[] = {-2.0, -1.0, -0.5, 0.0, 1.0, 2.0, 3.0};
  Posynomial p;
  const int num_terms = terms(rng);
  for (int t = 0; t < num_terms; ++t) {
    Monomial m(coeff(rng));
    for (std::size_t v = 0; v < n; ++v) {
      const double e = grid[pick(rng)];
      if (e != 0.0) m *= Monomial::var(static_cast<VarId>(v)).pow(e);
    }
    p += m;
  }
  return p;
}

TEST(CompiledGp, MatchesLseOnRandomPosynomials) {
  // The flat IR must agree with the interpretive LseFunction path on
  // value, gradient and Hessian across random posynomials and points.
  std::mt19937 rng(2024);
  std::uniform_real_distribution<double> point(-1.5, 1.5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 5);
    GpProblem prob;
    for (std::size_t v = 0; v < n; ++v) {
      prob.add_variable("v" + std::to_string(v));
    }
    const Posynomial p = random_posynomial(rng, n);
    const LseFunction lse = prob.compile(p);
    CompiledGp compiled(n);
    compiled.add(p);

    linalg::Vector y(n);
    for (std::size_t v = 0; v < n; ++v) y[v] = point(rng);

    GpWorkspace ws;
    const double expected = lse.value(y);
    EXPECT_NEAR(compiled.value(0, y, ws), expected,
                1e-9 * (1.0 + std::fabs(expected)));

    linalg::Vector grad_ref(n);
    linalg::Matrix hess_ref(n, n);
    lse.add_derivatives(y, 1.0, grad_ref, hess_ref);
    linalg::Vector grad(n);
    linalg::Matrix hess(n, n);
    const double val = compiled.prepare(0, y, ws);
    compiled.scatter(0, 1.0, 1.0, -1.0, grad, hess, ws);
    EXPECT_NEAR(val, expected, 1e-9 * (1.0 + std::fabs(expected)));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(grad[i], grad_ref[i], 1e-9) << "trial " << trial;
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(hess(i, j), hess_ref(i, j), 1e-9) << "trial " << trial;
      }
    }
  }
}

TEST(CompiledGp, HashConsesRowsAndMergesDuplicateMonomials) {
  GpProblem prob;
  const VarId x = prob.add_variable("x");
  const VarId y = prob.add_variable("y");
  // x·y appears in both constraints and twice in the objective.
  prob.set_objective(2.0 * Monomial::var(x) * Monomial::var(y) +
                     3.0 * Monomial::var(x) * Monomial::var(y));
  prob.add_le1(0.5 * Monomial::var(x) * Monomial::var(y) +
               Monomial::var(x).inverse());
  prob.add_le1(0.25 * Monomial::var(x) * Monomial::var(y));
  CompiledGp compiled = prob.compile();
  EXPECT_EQ(compiled.num_functions(), 3u);
  // Duplicate monomials merged: the objective is a single term 5·x·y.
  EXPECT_EQ(compiled.num_terms(0), 1u);
  // Rows hash-consed: {x·y, 1/x} — two distinct exponent patterns.
  EXPECT_EQ(compiled.num_rows(), 2u);
  // Merged coefficient evaluates as 5·x·y.
  GpWorkspace ws;
  linalg::Vector at{std::log(2.0), std::log(3.0)};
  EXPECT_NEAR(compiled.value(0, at, ws), std::log(5.0 * 2.0 * 3.0), 1e-12);
}

TEST(CompiledGp, SlackAugmentationMatchesDefinition) {
  GpProblem prob;
  const VarId x = prob.add_variable("x");
  prob.set_objective(Monomial::var(x));
  prob.add_le1(2.0 * Monomial::var(x), "x <= 1/2");
  CompiledGp compiled = prob.compile();
  CompiledGp slack = compiled.with_slack();
  ASSERT_EQ(slack.num_vars(), 2u);
  GpWorkspace ws;
  // F₀(y, s) = s;  F₁(y, s) = F₁(y) − s.
  linalg::Vector ys{0.3, 0.7};
  EXPECT_NEAR(slack.value(0, ys, ws), 0.7, 1e-12);
  linalg::Vector y1{0.3};
  EXPECT_NEAR(slack.value(1, ys, ws), compiled.value(1, y1, ws) - 0.7,
              1e-12);
}

/// A problem with the given structure; coefficients vary with `salt`.
GpProblem salted_problem(double salt) {
  GpProblem prob;
  const VarId x = prob.add_variable("x");
  const VarId y = prob.add_variable("y");
  // Duplicate monomials (merged at compile time) and a shared row across
  // functions, so the patch path must replay a non-trivial merge plan.
  prob.set_objective(salt * Monomial::var(x) * Monomial::var(y) +
                     (2.0 * salt) * Monomial::var(x) * Monomial::var(y) +
                     0.5 * Monomial::var(x).inverse());
  prob.add_le1((salt / 3.0) * Monomial::var(x) * Monomial::var(y) +
                   (1.0 / salt) * Monomial::var(y).inverse(),
               "c0");
  prob.add_le1(0.25 * salt * Monomial::var(y), "c1");
  return prob;
}

TEST(CompiledGp, StructuralFingerprintIgnoresCoefficientsOnly) {
  const GpProblem a = salted_problem(1.0);
  const GpProblem b = salted_problem(7.25);
  // Coefficient changes: same structure, problem- and IR-level.
  EXPECT_EQ(a.structural_fingerprint(), b.structural_fingerprint());
  EXPECT_EQ(a.compile().structure_fingerprint(),
            b.compile().structure_fingerprint());

  // A structural change — one more constraint — moves both.
  GpProblem c = salted_problem(1.0);
  c.add_le1(0.5 * Monomial::var(0), "extra");
  EXPECT_NE(a.structural_fingerprint(), c.structural_fingerprint());
  EXPECT_NE(a.compile().structure_fingerprint(),
            c.compile().structure_fingerprint());

  // So does an exponent change with identical shapes (x² instead of x).
  GpProblem d;
  const VarId x = d.add_variable("x");
  const VarId y = d.add_variable("y");
  d.set_objective(Monomial::var(x).pow(2.0) * Monomial::var(y) +
                  2.0 * Monomial::var(x) * Monomial::var(y) +
                  0.5 * Monomial::var(x).inverse());
  d.add_le1((1.0 / 3.0) * Monomial::var(x) * Monomial::var(y) +
                Monomial::var(y).inverse(),
            "c0");
  d.add_le1(0.25 * Monomial::var(y), "c1");
  EXPECT_NE(a.structural_fingerprint(), d.structural_fingerprint());
}

TEST(CompiledModel, PatchedCoefficientsMatchFreshBuildBitwise) {
  const GpProblem donor = salted_problem(3.5);
  const GpProblem target = salted_problem(0.8);
  constexpr double kBox = 46.0;

  // Clone the donor's compiled artifact and patch it to the target.
  const CompiledModel donor_model = CompiledModel::build(donor, kBox);
  CompiledModel patched = donor_model;  // shares structure
  patched.patch_coefficients(target, kBox);
  EXPECT_TRUE(patched.gp().same_structure(donor_model.gp()));

  const CompiledModel fresh = CompiledModel::build(target, kBox);
  ASSERT_EQ(patched.gp().num_functions(), fresh.gp().num_functions());

  // Every function evaluates bit-identically (not merely close) at
  // random points — the determinism contract the model cache rides on.
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> point(-2.0, 2.0);
  GpWorkspace ws_a;
  GpWorkspace ws_b;
  for (int trial = 0; trial < 32; ++trial) {
    linalg::Vector y{point(rng), point(rng)};
    for (std::size_t f = 0; f < fresh.gp().num_functions(); ++f) {
      EXPECT_EQ(patched.gp().value(f, y, ws_a), fresh.gp().value(f, y, ws_b))
          << "f=" << f << " trial=" << trial;
    }
  }

  // The donor's own coefficients are untouched by patching the clone.
  CompiledModel donor_again = CompiledModel::build(donor, kBox);
  GpWorkspace ws_c;
  linalg::Vector y{0.3, -0.4};
  EXPECT_EQ(donor_model.gp().value(0, y, ws_a),
            donor_again.gp().value(0, y, ws_c));
}

TEST(GpSolver, PreparedModelSolveMatchesPlainSolveBitwise) {
  const GpProblem target = salted_problem(1.6);
  SolverOptions opts;
  const GpSolution plain = GpSolver(opts).solve(target);

  // Prepared path, via a structure compiled from *different*
  // coefficients and patched — exactly what a model-cache hit does.
  CompiledModel model = CompiledModel::build(salted_problem(9.0),
                                             opts.variable_box);
  model.patch_coefficients(target, opts.variable_box);
  const GpSolution prepared = GpSolver(opts).solve(target, model);

  ASSERT_EQ(prepared.status, plain.status);
  EXPECT_EQ(prepared.x, plain.x);  // bit-identical primal point
  EXPECT_EQ(prepared.objective, plain.objective);
  EXPECT_EQ(prepared.newton_iterations, plain.newton_iterations);
  EXPECT_EQ(prepared.outer_iterations, plain.outer_iterations);

  // Warm-started flavor too.
  const GpSolution plain_warm = GpSolver(opts).solve(target, plain.x);
  const GpSolution prepared_warm =
      GpSolver(opts).solve(target, model, plain.x);
  ASSERT_EQ(prepared_warm.status, plain_warm.status);
  EXPECT_EQ(prepared_warm.x, plain_warm.x);
  EXPECT_EQ(prepared_warm.newton_iterations, plain_warm.newton_iterations);
}

TEST(CompiledModel, SlackLoweringIsLazyAndCachedPerStructure) {
  // An infeasible start forces phase I; the slack problem must be
  // lowered exactly once per structure, not per solve.
  GpProblem p;
  const VarId x = p.add_variable("x");
  p.set_objective(Monomial::var(x));
  p.add_le1(2.0 * Monomial::var(x).inverse(), "x >= 2");
  SolverOptions opts;
  const CompiledModel model = CompiledModel::build(p, opts.variable_box);

  const std::int64_t before = total_slack_lowerings();
  const GpSolution first = GpSolver(opts).solve(p, model);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(total_slack_lowerings() - before, 1);  // phase I ran once

  // Re-solving through the same model (or a clone) reuses the cached
  // slack structure.
  CompiledModel clone = model;
  const GpSolution second = GpSolver(opts).solve(p, clone);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(total_slack_lowerings() - before, 1);
  EXPECT_EQ(second.x, first.x);

  // A strictly feasible warm seed skips phase I — and therefore never
  // pays a slack lowering even on a fresh structure.
  GpProblem q;
  const VarId z = q.add_variable("z");
  q.set_objective(Monomial::var(z));
  q.add_le1(3.0 * Monomial::var(z).inverse(), "z >= 3");
  const CompiledModel qm = CompiledModel::build(q, opts.variable_box);
  const std::int64_t before_q = total_slack_lowerings();
  const GpSolution warm = GpSolver(opts).solve(q, qm, {10.0});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(total_slack_lowerings() - before_q, 0);
}

/// Compiled and legacy kernels must land on the same optimum.
TEST(GpSolver, CompiledMatchesLegacyOnRandomProblems) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
    GpProblem prob;
    for (std::size_t v = 0; v < n; ++v) {
      prob.add_variable("v" + std::to_string(v));
    }
    prob.set_objective(random_posynomial(rng, n));
    // A box-style constraint per variable keeps the instances bounded
    // and feasible: x_v ≤ u with u ∈ [1, 8].
    std::uniform_real_distribution<double> ub(1.0, 8.0);
    for (std::size_t v = 0; v < n; ++v) {
      prob.add_le1((1.0 / ub(rng)) * Monomial::var(static_cast<VarId>(v)));
    }
    SolverOptions compiled_opts;
    compiled_opts.use_compiled_kernel = true;
    SolverOptions legacy_opts;
    legacy_opts.use_compiled_kernel = false;
    const GpSolution a = GpSolver(compiled_opts).solve(prob);
    const GpSolution b = GpSolver(legacy_opts).solve(prob);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    if (!a.ok()) continue;
    EXPECT_NEAR(a.objective, b.objective,
                1e-6 * (1.0 + std::fabs(b.objective)))
        << "trial " << trial;
  }
}

TEST(GpSolver, WarmStartMatchesColdStart) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  p.set_objective(Monomial::var(x) * Monomial::var(y));
  p.add_le1((Monomial::var(x) * Monomial::var(y)).inverse(), "xy >= 1");
  const GpSolution cold = GpSolver().solve(p);
  ASSERT_TRUE(cold.ok());
  // Seeding with the cold solution (or any positive point) converges to
  // the same optimum.
  const GpSolution warm = GpSolver().solve(p, cold.x);
  ASSERT_TRUE(warm.ok());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-8);
  const GpSolution elsewhere = GpSolver().solve(p, {37.0, 0.004});
  ASSERT_TRUE(elsewhere.ok());
  EXPECT_NEAR(elsewhere.objective, cold.objective, 1e-6);
}

// minimize x + 1/x  →  x* = 1, f* = 2 (unconstrained GP).
TEST(GpSolver, UnconstrainedKnownOptimum) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  p.set_objective(Monomial::var(x) + Monomial::var(x).inverse());
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-5);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
}

// minimize x·y s.t. 1/(x·y) ≤ 1 → optimum x·y = 1.
TEST(GpSolver, ConstrainedProductOptimum) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  p.set_objective(Monomial::var(x) * Monomial::var(y));
  p.add_le1((Monomial::var(x) * Monomial::var(y)).inverse(), "xy >= 1");
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  EXPECT_NEAR(sol.x[0] * sol.x[1], 1.0, 1e-6);
  EXPECT_LE(sol.max_violation, 1e-8);
}

// Textbook box GP: maximize volume x·y·z (minimize its inverse) with
// wall area 2(xz + yz) ≤ 10, floor area x·y ≤ 5, aspect bounds
// 0.5 ≤ x/y ≤ 2, 0.5 ≤ z/y... simplified without aspect bounds the
// optimum has xy = 5 and 2(xz+yz) = 10.
TEST(GpSolver, BoxDesign) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  const VarId z = p.add_variable("z");
  p.set_objective(
      (Monomial::var(x) * Monomial::var(y) * Monomial::var(z)).inverse());
  p.add_le1(0.2 * Monomial::var(x) * Monomial::var(z) +
                0.2 * Monomial::var(y) * Monomial::var(z),
            "wall area");
  p.add_le1(0.2 * Monomial::var(x) * Monomial::var(y), "floor area");
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  // Both constraints active at the optimum.
  EXPECT_NEAR(sol.x[0] * sol.x[1], 5.0, 1e-4);
  EXPECT_NEAR(2.0 * sol.x[2] * (sol.x[0] + sol.x[1]), 10.0, 1e-3);
  // Symmetric in x and y.
  EXPECT_NEAR(sol.x[0], sol.x[1], 1e-4);
}

TEST(GpSolver, MonomialEqualityLowering) {
  // minimize x with x·y = 4 and y ≤ 2 → y = 2, x = 2.
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  p.set_objective(Monomial::var(x));
  p.add_eq1(0.25 * Monomial::var(x) * Monomial::var(y), "xy = 4");
  p.add_le1(0.5 * Monomial::var(y), "y <= 2");
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-4);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-4);
}

TEST(GpSolver, DetectsInfeasible) {
  // x ≤ 1/2 and x ≥ 2 simultaneously.
  GpProblem p;
  const VarId x = p.add_variable("x");
  p.set_objective(Monomial::var(x));
  p.add_le1(2.0 * Monomial::var(x), "x <= 1/2");
  p.add_le1(2.0 * Monomial::var(x).inverse(), "x >= 2");
  GpSolution sol = GpSolver().solve(p);
  EXPECT_EQ(sol.status, GpStatus::kInfeasible);
}

TEST(GpSolver, FeasibleStartSkipsPhase1) {
  // x = 1 is strictly feasible for x ≤ 10 — converges immediately.
  GpProblem p;
  const VarId x = p.add_variable("x");
  p.set_objective(Monomial::var(x));
  p.add_le1(0.1 * Monomial::var(x), "x <= 10");
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok());
  // Objective pushed toward 0; barrier keeps it positive but tiny
  // relative to the cap.
  EXPECT_LT(sol.x[0], 1e-3);
}

TEST(GpSolver, ReportsIterLimitOnStarvedBudget) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  p.set_objective(Monomial::var(x) * Monomial::var(y));
  p.add_le1((Monomial::var(x) * Monomial::var(y)).inverse(), "xy >= 1");
  SolverOptions opts;
  opts.max_outer = 1;
  opts.max_newton = 1;
  GpSolution sol = GpSolver(opts).solve(p);
  EXPECT_NE(sol.status, GpStatus::kOptimal);
}

/// Parameterized: minimize x s.t. c/x ≤ 1 → x* = c, for several c.
class ScalarBoundGp : public ::testing::TestWithParam<double> {};

TEST_P(ScalarBoundGp, OptimumEqualsBound) {
  const double c = GetParam();
  GpProblem p;
  const VarId x = p.add_variable("x");
  p.set_objective(Monomial::var(x));
  p.add_le1(c * Monomial::var(x).inverse(), "x >= c");
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.x[0], c, c * 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Bounds, ScalarBoundGp,
                         ::testing::Values(0.01, 0.5, 1.0, 3.0, 42.0,
                                           1000.0));

}  // namespace
}  // namespace mfa::gp
