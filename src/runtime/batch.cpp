#include "runtime/batch.hpp"

#include <utility>

#include "runtime/portfolio.hpp"
#include "runtime/thread_pool.hpp"

namespace mfa::runtime {
namespace {

/// `base` (or an empty context) with every cache it leaves null taken
/// from the batch's shared ones; its budget and pool are kept.
core::SolverContext with_batch_caches(const core::SolverContext* base,
                                      core::RelaxationCache* cache,
                                      core::CompiledModelCache* models) {
  core::SolverContext ctx;
  if (base != nullptr) ctx = *base;
  if (ctx.relax_cache == nullptr) ctx.relax_cache = cache;
  if (ctx.model_cache == nullptr) ctx.model_cache = models;
  return ctx;
}

}  // namespace

std::vector<SolveResult> BatchRunner::solve_all(
    const std::vector<SolveRequest>& requests) const {
  std::vector<SolveResult> results(requests.size());
  if (requests.empty()) return results;

  // One relaxation cache and one compiled-model cache for the whole
  // batch (see header); hits are bit-identical to solving (model-cache
  // hits are re-patched), so injecting them does not disturb
  // determinism.
  core::RelaxationCache batch_cache;
  core::CompiledModelCache batch_models;
  const core::SolverContext shared =
      with_batch_caches(options_.context, &batch_cache, &batch_models);
  PortfolioOptions base = options_.portfolio;
  const core::SolverContext base_ctx = with_batch_caches(
      base.context, shared.relax_cache, shared.model_cache);
  base.context = &base_ctx;
  if (base.stability == nullptr) base.stability = options_.stability;
  // Per-request options are value copies, so wiring the caches into
  // them never mutates caller state. Each request with its own options
  // gets its own merged context, sized up front so the pointers into it
  // stay valid.
  std::vector<SolveRequest> work = requests;
  std::vector<core::SolverContext> request_ctx;
  request_ctx.reserve(work.size());
  for (SolveRequest& request : work) {
    if (!request.options) continue;
    request_ctx.push_back(with_batch_caches(
        request.options->context, shared.relax_cache, shared.model_cache));
    request.options->context = &request_ctx.back();
  }

  // Lanes sequential inside each instance (see header).
  Portfolio portfolio(base, /*num_threads=*/1);
  if (options_.num_threads == 1 || work.size() == 1) {
    for (std::size_t i = 0; i < work.size(); ++i) {
      results[i] = portfolio.solve(work[i]);
    }
    return results;
  }

  ThreadPool pool(options_.num_threads);
  pool.parallel_for(work.size(), [&](std::size_t i) {
    results[i] = portfolio.solve(work[i]);
  });
  return results;
}

std::vector<SolveResult> BatchRunner::solve_all(
    const std::vector<core::Problem>& problems) const {
  std::vector<SolveRequest> requests;
  requests.reserve(problems.size());
  for (const core::Problem& p : problems) {
    requests.push_back(SolveRequest::of(p));
  }
  return solve_all(requests);
}

}  // namespace mfa::runtime
