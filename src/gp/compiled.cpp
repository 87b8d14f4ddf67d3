#include "gp/compiled.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gp/problem.hpp"
#include "support/assert.hpp"

namespace mfa::gp {
namespace {

std::atomic<std::int64_t> g_structure_compiles{0};
std::atomic<std::int64_t> g_coefficient_patches{0};
std::atomic<std::int64_t> g_slack_lowerings{0};

}  // namespace

std::int64_t total_structure_compiles() {
  return g_structure_compiles.load(std::memory_order_relaxed);
}

std::int64_t total_coefficient_patches() {
  return g_coefficient_patches.load(std::memory_order_relaxed);
}

std::int64_t total_slack_lowerings() {
  return g_slack_lowerings.load(std::memory_order_relaxed);
}

namespace detail {
void count_structure_compile() {
  g_structure_compiles.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

namespace {

/// FNV-1a over the bit patterns of a row signature. Collisions are
/// resolved by exact comparison in intern_row(), so this only needs to
/// spread well.
std::uint64_t row_hash(const std::vector<std::pair<VarId, double>>& entries) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& [v, e] : entries) {
    mix(v);
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(e));
    std::memcpy(&bits, &e, sizeof(bits));
    mix(bits);
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Structure: everything the sparsity-level compiler produces, including
// the monomial→term merge plan that patch_function() replays and the
// cached phase-I slack lowering.
// ---------------------------------------------------------------------------

struct CompiledGp::Structure {
  std::size_t num_vars = 0;
  std::vector<std::uint32_t> fun_begin{0};  // function → first term
  std::vector<std::uint32_t> row_of;        // per term → row id
  std::vector<std::uint32_t> row_begin{0};  // row → first nnz entry
  std::vector<std::uint32_t> var;           // nnz variable indices
  std::vector<double> exp;                  // nnz exponents
  std::vector<std::vector<std::uint32_t>> support;  // per function
  // Merge plan: source monomial i of function f (global source index in
  // [src_begin[f], src_begin[f+1])) accumulates into term term_of_src[i].
  // patch_function() replays exactly this plan, in source order, so
  // patched coefficients are bit-identical to a fresh add().
  std::vector<std::uint32_t> src_begin{0};
  std::vector<std::uint32_t> term_of_src;
  std::size_t max_terms = 0;
  // hash-consing index: row signature hash → candidate row ids
  // (build-time only; untouched by evaluation and patching)
  std::unordered_multimap<std::uint64_t, std::uint32_t> row_index;

  // Lazily derived artifacts, cached per structure and shared by every
  // clone. call_once makes first use thread-safe even when the owning
  // CompiledModel sits in a concurrent cache. `derived` flags that one
  // of them exists: appending functions after that would silently
  // leave a stale slack problem or fingerprint behind, so the building
  // API asserts it is still false.
  mutable std::once_flag slack_once;
  mutable std::shared_ptr<Structure> slack;
  mutable std::once_flag fp_once;
  mutable Fingerprint fp;
  mutable std::atomic<bool> derived{false};

  [[nodiscard]] std::size_t num_rows() const { return row_begin.size() - 1; }

  /// Returns the id of the row with exactly these entries, interning it
  /// into the row table on first sight.
  std::uint32_t intern_row(
      const std::vector<std::pair<VarId, double>>& entries) {
    const std::uint64_t h = row_hash(entries);
    auto [lo, hi] = row_index.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      const std::uint32_t r = it->second;
      const std::uint32_t begin = row_begin[r];
      if (row_begin[r + 1] - begin != entries.size()) continue;
      bool same = true;
      for (std::size_t k = 0; k < entries.size(); ++k) {
        if (var[begin + k] != entries[k].first ||
            exp[begin + k] != entries[k].second) {
          same = false;
          break;
        }
      }
      if (same) return r;
    }
    const auto r = static_cast<std::uint32_t>(num_rows());
    for (const auto& [v, e] : entries) {
      MFA_ASSERT_MSG(v < num_vars, "monomial uses unknown variable");
      var.push_back(v);
      exp.push_back(e);
    }
    row_begin.push_back(static_cast<std::uint32_t>(var.size()));
    row_index.emplace(h, r);
    return r;
  }

  /// Appends a function from its per-term rows, deriving its support.
  void finish_function(const std::vector<std::uint32_t>& rows) {
    std::vector<std::uint32_t> sup;
    for (const std::uint32_t r : rows) {
      row_of.push_back(r);
      for (std::uint32_t k = row_begin[r]; k < row_begin[r + 1]; ++k) {
        sup.push_back(var[k]);
      }
    }
    std::sort(sup.begin(), sup.end());
    sup.erase(std::unique(sup.begin(), sup.end()), sup.end());
    support.push_back(std::move(sup));
    fun_begin.push_back(static_cast<std::uint32_t>(row_of.size()));
    max_terms = std::max(max_terms, rows.size());
  }
};

CompiledGp::CompiledGp(std::size_t num_vars)
    : s_(std::make_shared<Structure>()) {
  s_->num_vars = num_vars;
}

CompiledGp::~CompiledGp() = default;
CompiledGp::CompiledGp(const CompiledGp&) = default;
CompiledGp::CompiledGp(CompiledGp&&) noexcept = default;
CompiledGp& CompiledGp::operator=(const CompiledGp&) = default;
CompiledGp& CompiledGp::operator=(CompiledGp&&) noexcept = default;

std::size_t CompiledGp::num_vars() const { return s_->num_vars; }

std::size_t CompiledGp::num_functions() const {
  return s_->fun_begin.size() - 1;
}

std::size_t CompiledGp::num_terms(std::size_t f) const {
  MFA_ASSERT(f + 1 < s_->fun_begin.size());
  return s_->fun_begin[f + 1] - s_->fun_begin[f];
}

std::size_t CompiledGp::num_rows() const { return s_->num_rows(); }

const std::vector<std::uint32_t>& CompiledGp::support(std::size_t f) const {
  MFA_ASSERT(f < s_->support.size());
  return s_->support[f];
}

std::size_t CompiledGp::add(const Posynomial& p) {
  MFA_ASSERT_MSG(!p.empty(), "cannot compile an empty posynomial");
  MFA_ASSERT_MSG(s_.use_count() == 1,
                 "cannot append functions to a shared CompiledGp structure");
  MFA_ASSERT_MSG(!s_->derived.load(std::memory_order_relaxed),
                 "cannot append functions after with_slack() or "
                 "structure_fingerprint() — the cached artifacts would "
                 "go stale");
  Structure& s = *s_;
  // Merge duplicate monomials (identical exponent rows) by summing their
  // coefficients; first-seen order is preserved so compilation is
  // deterministic. The source→slot assignment is recorded as the merge
  // plan for patch_function().
  std::vector<std::uint32_t> rows;
  std::vector<double> coeffs;  // plain coefficients until merged
  rows.reserve(p.terms().size());
  std::vector<std::pair<VarId, double>> entries;
  const auto first_term = static_cast<std::uint32_t>(log_coeff_.size());
  for (const Monomial& m : p.terms()) {
    entries.assign(m.exponents().begin(), m.exponents().end());
    const std::uint32_t r = s.intern_row(entries);
    const auto it = std::find(rows.begin(), rows.end(), r);
    std::size_t slot = 0;
    if (it == rows.end()) {
      slot = rows.size();
      rows.push_back(r);
      coeffs.push_back(m.coeff());
    } else {
      slot = static_cast<std::size_t>(it - rows.begin());
      coeffs[slot] += m.coeff();
    }
    s.term_of_src.push_back(first_term + static_cast<std::uint32_t>(slot));
  }
  s.src_begin.push_back(static_cast<std::uint32_t>(s.term_of_src.size()));
  for (double c : coeffs) log_coeff_.push_back(std::log(c));
  s.finish_function(rows);
  return num_functions() - 1;
}

std::size_t CompiledGp::add_affine(
    const std::vector<std::pair<VarId, double>>& entries, double log_coeff) {
  MFA_ASSERT_MSG(s_.use_count() == 1,
                 "cannot append functions to a shared CompiledGp structure");
  MFA_ASSERT_MSG(!s_->derived.load(std::memory_order_relaxed),
                 "cannot append functions after with_slack() or "
                 "structure_fingerprint() — the cached artifacts would "
                 "go stale");
  Structure& s = *s_;
  s.term_of_src.push_back(static_cast<std::uint32_t>(log_coeff_.size()));
  s.src_begin.push_back(static_cast<std::uint32_t>(s.term_of_src.size()));
  log_coeff_.push_back(log_coeff);
  s.finish_function({s.intern_row(entries)});
  return num_functions() - 1;
}

MFA_WARM_PATH void CompiledGp::patch_function(std::size_t f,
                                              const Posynomial& p) {
  const Structure& s = *s_;
  MFA_ASSERT(f + 1 < s.fun_begin.size());
  const std::uint32_t t0 = s.fun_begin[f];
  const std::uint32_t t1 = s.fun_begin[f + 1];
  const std::uint32_t s0 = s.src_begin[f];
  MFA_ASSERT_MSG(p.terms().size() == s.src_begin[f + 1] - s0,
                 "patch source has a different monomial count");
  // Replay the merge plan in source order: every partial sum repeats the
  // compile-time arithmetic exactly (coefficients are positive, so the
  // 0.0 seed is absorbed bit-exactly), making the patched coefficients
  // indistinguishable from a fresh compile's.
  for (std::uint32_t t = t0; t < t1; ++t) log_coeff_[t] = 0.0;
  for (std::size_t i = 0; i < p.terms().size(); ++i) {
    const Monomial& m = p.terms()[i];
    const std::uint32_t t = s.term_of_src[s0 + i];
    // Structural guard: the monomial must carry the exponent row it was
    // compiled to. Cheap (O(nnz) compares, no hashing) and catches a
    // caller patching from a structurally different problem.
    const std::uint32_t r = s.row_of[t];
    const std::uint32_t begin = s.row_begin[r];
    MFA_ASSERT_MSG(m.exponents().size() == s.row_begin[r + 1] - begin,
                   "patch monomial has a different exponent row");
    std::size_t k = 0;
    for (const auto& [v, e] : m.exponents()) {
      MFA_ASSERT_MSG(s.var[begin + k] == v && s.exp[begin + k] == e,
                     "patch monomial has a different exponent row");
      ++k;
    }
    log_coeff_[t] += m.coeff();
  }
  for (std::uint32_t t = t0; t < t1; ++t) {
    log_coeff_[t] = std::log(log_coeff_[t]);
  }
}

MFA_WARM_PATH void CompiledGp::patch_affine(std::size_t f, double log_coeff) {
  const Structure& s = *s_;
  MFA_ASSERT(f + 1 < s.fun_begin.size());
  MFA_ASSERT_MSG(s.fun_begin[f + 1] - s.fun_begin[f] == 1,
                 "patch_affine on a multi-term function");
  log_coeff_[s.fun_begin[f]] = log_coeff;
}

const Fingerprint& CompiledGp::structure_fingerprint() const {
  const Structure& s = *s_;
  std::call_once(s.fp_once, [&s] {
    s.derived.store(true, std::memory_order_relaxed);
    Fingerprint fp;
    fp.mix(static_cast<std::uint64_t>(s.num_vars));
    auto mix_u32s = [&fp](const std::vector<std::uint32_t>& v) {
      fp.mix(static_cast<std::uint64_t>(v.size()));
      for (const std::uint32_t x : v) fp.mix(static_cast<std::uint64_t>(x));
    };
    mix_u32s(s.fun_begin);
    mix_u32s(s.row_of);
    mix_u32s(s.row_begin);
    mix_u32s(s.var);
    fp.mix(static_cast<std::uint64_t>(s.exp.size()));
    for (const double e : s.exp) fp.mix(e);
    mix_u32s(s.src_begin);
    mix_u32s(s.term_of_src);
    s.fp = fp;
  });
  return s.fp;
}

void CompiledGp::ensure_workspace(GpWorkspace& ws) const {
  if (ws.z.size() < s_->max_terms) {
    ws.z.resize(s_->max_terms);
    ws.w.resize(s_->max_terms);
  }
  if (ws.g.size() < s_->num_vars) ws.g.resize(s_->num_vars);
}

double CompiledGp::value(std::size_t f, const linalg::Vector& y,
                         GpWorkspace& ws) const {
  const Structure& s = *s_;
  MFA_ASSERT(f + 1 < s.fun_begin.size() && y.size() == s.num_vars);
  ensure_workspace(ws);
  const std::uint32_t t0 = s.fun_begin[f];
  const std::uint32_t t1 = s.fun_begin[f + 1];
  double zmax = -std::numeric_limits<double>::infinity();
  for (std::uint32_t t = t0; t < t1; ++t) {
    double acc = log_coeff_[t];
    const std::uint32_t r = s.row_of[t];
    for (std::uint32_t k = s.row_begin[r]; k < s.row_begin[r + 1]; ++k) {
      acc += s.exp[k] * y[s.var[k]];
    }
    ws.z[t - t0] = acc;
    zmax = std::max(zmax, acc);
  }
  double sum = 0.0;
  for (std::uint32_t i = 0; i < t1 - t0; ++i) {
    sum += std::exp(ws.z[i] - zmax);
  }
  return zmax + std::log(sum);
}

double CompiledGp::prepare(std::size_t f, const linalg::Vector& y,
                           GpWorkspace& ws) const {
  const double val = value(f, y, ws);
  const std::uint32_t m = s_->fun_begin[f + 1] - s_->fun_begin[f];
  // value() left the shifted exponents in ws.z; normalize to softmax
  // weights. Recomputing the shift from val keeps one pass over z.
  double sum = 0.0;
  double zmax = -std::numeric_limits<double>::infinity();
  for (std::uint32_t i = 0; i < m; ++i) zmax = std::max(zmax, ws.z[i]);
  for (std::uint32_t i = 0; i < m; ++i) {
    ws.w[i] = std::exp(ws.z[i] - zmax);
    sum += ws.w[i];
  }
  for (std::uint32_t i = 0; i < m; ++i) ws.w[i] /= sum;
  return val;
}

void CompiledGp::scatter(std::size_t f, double wg, double wm, double wr,
                         linalg::Vector& grad, linalg::Matrix& hess,
                         GpWorkspace& ws) const {
  const Structure& s = *s_;
  const std::uint32_t t0 = s.fun_begin[f];
  const std::uint32_t t1 = s.fun_begin[f + 1];
  const std::vector<std::uint32_t>& sup = s.support[f];
  MFA_ASSERT(grad.size() == s.num_vars && hess.rows() == s.num_vars);

  // g = Aᵀw over the function's support only.
  for (std::uint32_t v : sup) ws.g[v] = 0.0;
  for (std::uint32_t t = t0; t < t1; ++t) {
    const double w = ws.w[t - t0];
    if (w == 0.0) continue;
    const std::uint32_t r = s.row_of[t];
    for (std::uint32_t k = s.row_begin[r]; k < s.row_begin[r + 1]; ++k) {
      ws.g[s.var[k]] += w * s.exp[k];
    }
  }
  for (std::uint32_t v : sup) grad[v] += wg * ws.g[v];

  // wm · Σ_t w_t·a_t·a_tᵀ — sparse outer products over each term's nnz.
  for (std::uint32_t t = t0; t < t1; ++t) {
    const double w = ws.w[t - t0];
    if (w == 0.0) continue;
    const std::uint32_t r = s.row_of[t];
    const std::uint32_t begin = s.row_begin[r];
    const std::uint32_t end = s.row_begin[r + 1];
    for (std::uint32_t k1 = begin; k1 < end; ++k1) {
      const double c = wm * w * s.exp[k1];
      if (c == 0.0) continue;
      const std::uint32_t v1 = s.var[k1];
      for (std::uint32_t k2 = begin; k2 < end; ++k2) {
        hess(v1, s.var[k2]) += c * s.exp[k2];
      }
    }
  }

  // wr · g·gᵀ — rank-one update over the support.
  if (wr != 0.0) {
    for (std::uint32_t v1 : sup) {
      const double c = wr * ws.g[v1];
      if (c == 0.0) continue;
      for (std::uint32_t v2 : sup) {
        hess(v1, v2) += c * ws.g[v2];
      }
    }
  }
}

CompiledGp CompiledGp::with_slack() const {
  const Structure& src = *s_;
  std::call_once(src.slack_once, [&src] {
    src.derived.store(true, std::memory_order_relaxed);
    // Coefficient-independent lowering: replicate every constraint
    // term's exponent row with one extra (s, −1) entry, and make the
    // objective the single affine term F₀(y, s) = s. Runs at most once
    // per structure; every clone of a cached model shares the result.
    auto out = std::make_shared<Structure>();
    out->num_vars = src.num_vars + 1;
    const auto slack_var = static_cast<VarId>(src.num_vars);
    out->term_of_src.push_back(0);
    out->src_begin.push_back(1);
    out->finish_function({out->intern_row({{slack_var, 1.0}})});
    std::vector<std::pair<VarId, double>> entries;
    for (std::size_t f = 1; f + 1 < src.fun_begin.size(); ++f) {
      std::vector<std::uint32_t> rows;
      for (std::uint32_t t = src.fun_begin[f]; t < src.fun_begin[f + 1];
           ++t) {
        const std::uint32_t r = src.row_of[t];
        entries.clear();
        for (std::uint32_t k = src.row_begin[r]; k < src.row_begin[r + 1];
             ++k) {
          entries.emplace_back(src.var[k], src.exp[k]);
        }
        entries.emplace_back(slack_var, -1.0);
        out->term_of_src.push_back(
            static_cast<std::uint32_t>(out->row_of.size() + rows.size()));
        rows.push_back(out->intern_row(entries));
      }
      out->src_begin.push_back(
          static_cast<std::uint32_t>(out->term_of_src.size()));
      out->finish_function(rows);
    }
    src.slack = std::move(out);
    g_slack_lowerings.fetch_add(1, std::memory_order_relaxed);
  });

  // Coefficients derive from this instance's: the slack objective is
  // log 1 = 0, each constraint keeps its term coefficients verbatim.
  CompiledGp out;
  out.s_ = src.slack;
  out.log_coeff_.clear();
  out.log_coeff_.reserve(1 + log_coeff_.size() - src.fun_begin[1]);
  out.log_coeff_.push_back(0.0);
  out.log_coeff_.insert(out.log_coeff_.end(),
                        log_coeff_.begin() + src.fun_begin[1],
                        log_coeff_.end());
  return out;
}

// ---------------------------------------------------------------------------
// CompiledModel
// ---------------------------------------------------------------------------

CompiledModel CompiledModel::build(const GpProblem& problem,
                                   double variable_box) {
  CompiledModel model;
  model.gp_ = problem.compile();
  // Box constraints |y_j| ≤ Y keep both phases bounded: without them the
  // phase-I merit is unbounded below (riding a free direction to ∞
  // collects −log barrier rewards from ever-slacker constraints faster
  // than t·s charges for the violated ones), and phase II can drift
  // along flat objective directions.
  const std::size_t n = problem.num_variables();
  for (std::size_t j = 0; j < n; ++j) {
    for (double sign : {1.0, -1.0}) {
      model.gp_.add_affine({{static_cast<VarId>(j), sign}}, -variable_box);
    }
  }
  model.problem_fp_ = problem.structural_fingerprint();
  model.variable_box_ = variable_box;
  return model;
}

void CompiledModel::patch_coefficients(const GpProblem& problem,
                                       double variable_box) {
  patch_coefficients(problem, variable_box,
                     problem.structural_fingerprint());
}

MFA_WARM_PATH void CompiledModel::patch_coefficients(
    const GpProblem& problem, double variable_box,
    const Fingerprint& problem_fp) {
  MFA_ASSERT_MSG(problem_fp == problem_fp_,
                 "patch_coefficients on a structurally different problem");
  gp_.patch_function(0, problem.objective());
  const std::vector<Posynomial>& constraints = problem.constraints();
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    gp_.patch_function(1 + i, constraints[i]);
  }
  std::size_t f = 1 + constraints.size();
  const std::size_t n = problem.num_variables();
  MFA_ASSERT(gp_.num_functions() == f + 2 * n);
  for (std::size_t j = 0; j < 2 * n; ++j) {
    gp_.patch_affine(f++, -variable_box);
  }
  variable_box_ = variable_box;
  g_coefficient_patches.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mfa::gp
