// Compiled flat IR for families of log-sum-exp functions, split into
// immutable *structure* and per-instance *coefficients*.
//
// The interpretive GP path walks `std::map<VarId,double>`-backed monomial
// ASTs and dense terms×variables matrices on every evaluation. CompiledGp
// lowers a whole problem (objective + constraints) once into CSR-style
// contiguous arrays:
//
//   function f  →  terms   [fun_begin[f], fun_begin[f+1])
//   term t      →  log-coefficient log_coeff_[t] and exponent row
//                  row_of[t] (an index into the shared row table)
//   row r       →  nnz pairs (var[k], exp[k]) for
//                  k ∈ [row_begin[r], row_begin[r+1])
//
// Exponent rows are hash-consed: structurally identical monomial exponent
// patterns — frequent in allocation GPs, where every latency constraint is
// WCET·II⁻¹·N_k⁻¹ and every box constraint touches one variable — are
// stored once and shared by every term that uses them. Duplicate monomials
// *within* one posynomial are merged by summing coefficients.
//
// Structure/coefficient split: everything except the per-term log
// coefficients (the sparsity pattern, exponent rows, function shapes, the
// monomial→term merge plan) lives in a shared_ptr-owned Structure that is
// immutable once built. Copying a CompiledGp shares the structure and
// copies only the coefficient vector, and patch_function() rewrites the
// coefficients in place — bit-identical to a fresh compile, with zero
// hash-consing or allocation. Online solvers exploit this through
// CompiledModel + core::CompiledModelCache: structurally identical solves
// (a serving loop where only priorities or capacities move) reuse one
// compiled structure forever and pay only an O(terms) coefficient replay
// per solve instead of a full lowering.
//
// Evaluation is fused: prepare() computes the max-shifted softmax weights
// for one function (and its value); scatter() then accumulates gradient
// and Hessian contributions with caller-chosen weights straight into the
// caller's buffers, touching only each function's variable support. All
// scratch lives in a caller-owned GpWorkspace, so steady-state evaluation
// performs no allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gp/expr.hpp"
#include "linalg/matrix.hpp"
#include "support/fingerprint.hpp"
#include "support/thread_annotations.hpp"

namespace mfa::gp {

class GpProblem;  // gp/problem.hpp

/// Reusable scratch buffers for CompiledGp evaluation. One workspace per
/// thread of evaluation; sized lazily by the CompiledGp that uses it.
struct GpWorkspace {
  std::vector<double> z;  ///< per-term shifted exponents of one function
  std::vector<double> w;  ///< per-term softmax weights (prepare → scatter)
  std::vector<double> g;  ///< dense ∇F accumulator (num_vars entries)
};

// ---------------------------------------------------------------------------
// Process-wide compilation counters (relaxed atomics). Benches and
// tests sample deltas around a workload to verify that structurally
// stable solve streams stop paying for full lowerings.
// ---------------------------------------------------------------------------

/// Full IR lowerings (GpProblem::compile() calls) since process start.
std::int64_t total_structure_compiles();
/// In-place coefficient patches (CompiledModel::patch_coefficients).
std::int64_t total_coefficient_patches();
/// Phase-I slack lowerings actually performed (lazy + cached per
/// structure, so warm solves that skip phase I never pay one).
std::int64_t total_slack_lowerings();

namespace detail {
void count_structure_compile();  // bumped by GpProblem::compile()
}  // namespace detail

/// A compiled family of LSE functions F_f(y) = log Σ_t exp(a_t·y + b_t)
/// over one shared variable set. Function 0 is the objective by the
/// GpProblem::compile() convention. Cheap to copy: copies share the
/// immutable structure and duplicate only the coefficient vector.
class CompiledGp {
 public:
  CompiledGp() : CompiledGp(0) {}
  explicit CompiledGp(std::size_t num_vars);
  ~CompiledGp();
  CompiledGp(const CompiledGp&);
  CompiledGp(CompiledGp&&) noexcept;
  CompiledGp& operator=(const CompiledGp&);
  CompiledGp& operator=(CompiledGp&&) noexcept;

  // ---- Building (valid only while this instance solely owns its
  // structure — before any copy was taken — and before a derived
  // artifact (with_slack, structure_fingerprint) was requested; both
  // are asserted). -----------------------------------------------------

  /// Appends a posynomial as the next function; duplicate monomials are
  /// merged and exponent rows hash-consed. Returns the function index.
  std::size_t add(const Posynomial& p);

  /// Appends a single-term function Σ e_i·y_{v_i} + log_coeff (a monomial
  /// in log space). `entries` must have strictly increasing var ids.
  std::size_t add_affine(const std::vector<std::pair<VarId, double>>& entries,
                         double log_coeff);

  // ---- Coefficient patching (structure stays shared + untouched). ----

  /// Recomputes function f's log-coefficients from `p`, replaying the
  /// compile-time duplicate-merge plan in source order — bit-identical
  /// to what a fresh add(p) would have produced. `p` must have the same
  /// monomial structure (count and exponent rows) as the posynomial the
  /// function was compiled from; shape mismatches assert.
  MFA_WARM_PATH void patch_function(std::size_t f, const Posynomial& p);

  /// Rewrites the log-coefficient of a single-term (add_affine-built)
  /// function.
  MFA_WARM_PATH void patch_affine(std::size_t f, double log_coeff);

  // ---- Observers. ----------------------------------------------------

  [[nodiscard]] std::size_t num_vars() const;
  [[nodiscard]] std::size_t num_functions() const;
  [[nodiscard]] std::size_t num_terms(std::size_t f) const;
  [[nodiscard]] std::size_t total_terms() const { return log_coeff_.size(); }
  /// Number of distinct (hash-consed) exponent rows in the row table.
  [[nodiscard]] std::size_t num_rows() const;
  /// Sorted variable ids function f touches.
  [[nodiscard]] const std::vector<std::uint32_t>& support(std::size_t f) const;

  /// 128-bit fingerprint of the *structure* only (shapes, rows,
  /// exponents, merge plan — not coefficients). Computed lazily once per
  /// structure; two CompiledGps patched from different coefficients
  /// report the same value. Structures lowered from GpProblems with
  /// equal GpProblem::structural_fingerprint()s are identical.
  [[nodiscard]] const Fingerprint& structure_fingerprint() const;

  /// True when both share one structure object (O(1); the cache's
  /// clone-then-patch path preserves this).
  [[nodiscard]] bool same_structure(const CompiledGp& other) const {
    return s_ == other.s_;
  }

  // ---- Evaluation. ---------------------------------------------------

  /// F_f(y), numerically stable. Cheap path for merit/line-search loops.
  [[nodiscard]] double value(std::size_t f, const linalg::Vector& y,
                             GpWorkspace& ws) const;

  /// Computes F_f(y) and leaves the normalized softmax weights of f in
  /// ws.w for a following scatter() call. Returns F_f(y).
  double prepare(std::size_t f, const linalg::Vector& y,
                 GpWorkspace& ws) const;

  /// Consumes the weights produced by the latest prepare(f, …) and
  /// accumulates, with g = ∇F = Aᵀw and M = Σ_t w_t·a_t·a_tᵀ (so that
  /// ∇²F = M − g·gᵀ):
  ///
  ///   grad += wg·g,   hess += wm·M + wr·g·gᵀ.
  ///
  /// The barrier uses (t, t, −t) for the objective term t·F₀ and
  /// (κ, κ, κ² − κ) with κ = 1/(−F_i) per constraint. Only rows/columns
  /// in support(f) are touched.
  void scatter(std::size_t f, double wg, double wm, double wr,
               linalg::Vector& grad, linalg::Matrix& hess,
               GpWorkspace& ws) const;

  /// Phase-I transform: appends one slack variable s, gives every term of
  /// every function an extra exponent −1 on s (F(y) ≤ 0 becomes
  /// F(y) − s ≤ 0 and stays log-sum-exp), and replaces function 0 by the
  /// slack objective F₀(y, s) = s. The slack *structure* is lowered at
  /// most once per source structure (thread-safe, cached inside it), so
  /// repeated phase-I runs over one cached model — and every clone of
  /// it — pay only the O(terms) coefficient derivation.
  [[nodiscard]] CompiledGp with_slack() const;

 private:
  friend class CompiledModel;
  struct Structure;  // defined in compiled.cpp

  void ensure_workspace(GpWorkspace& ws) const;

  std::shared_ptr<Structure> s_;   ///< immutable once shared
  std::vector<double> log_coeff_;  ///< per term; the mutable half
};

/// A solver-ready compiled artifact: the problem's functions plus the
/// per-variable box-constraint rows |y_j| ≤ variable_box, so
/// GpSolver::solve on a prepared model performs zero per-call IR
/// mutation (no box appends, no re-lowering — the phase-I slack problem
/// is derived lazily through the structure cache above).
///
/// Built once per *structure* via build() and thereafter refreshed with
/// patch_coefficients(), which rewrites every coefficient (objective,
/// constraints, box rows) from a structurally-identical problem —
/// bit-identical to a fresh build(), at O(terms) arithmetic cost with no
/// hashing or allocation. core::CompiledModelCache stores models by
/// GpProblem::structural_fingerprint(); every hit is cloned (shared
/// structure, private coefficients) and patched, which is what makes the
/// cache transparent under the determinism contract.
class CompiledModel {
 public:
  CompiledModel() = default;

  /// Full lowering: compiles `problem` and appends the 2·n box rows
  /// with log-coefficient −variable_box.
  static CompiledModel build(const GpProblem& problem, double variable_box);

  /// Rewrites every coefficient from `problem` (+ the box rows from
  /// `variable_box`). `problem` must have the structure this model was
  /// built from (asserted via the structural fingerprint).
  void patch_coefficients(const GpProblem& problem, double variable_box);

  /// As above with the caller's already-computed
  /// problem.structural_fingerprint(), so a cache hit (which hashed the
  /// problem to find the entry) does not hash it a second time. This is
  /// the overload the steady-state numeric path takes.
  MFA_WARM_PATH void patch_coefficients(const GpProblem& problem,
                                        double variable_box,
                                        const Fingerprint& problem_fp);

  /// The compiled functions: objective, problem constraints, box rows.
  [[nodiscard]] const CompiledGp& gp() const { return gp_; }
  /// Slack-augmented phase-I problem (see CompiledGp::with_slack).
  [[nodiscard]] CompiledGp phase1() const { return gp_.with_slack(); }

  /// Structural fingerprint of the source GpProblem (the cache key this
  /// model is stored under).
  [[nodiscard]] const Fingerprint& problem_fingerprint() const {
    return problem_fp_;
  }
  /// The variable_box the current coefficients encode.
  [[nodiscard]] double variable_box() const { return variable_box_; }
  /// Source-problem variable count (box rows span these).
  [[nodiscard]] std::size_t num_vars() const { return gp_.num_vars(); }
  /// Constraint functions including the box rows.
  [[nodiscard]] std::size_t num_constraints() const {
    return gp_.num_functions() - 1;
  }

 private:
  CompiledGp gp_;
  Fingerprint problem_fp_;
  double variable_box_ = 0.0;
};

}  // namespace mfa::gp
