// Shared solver context: one wiring point for cross-solve resources.
//
// Before this header, every layer that wanted the process-wide caches
// threaded two raw pointers (relax_cache, model_cache) through its own
// options struct — GpaOptions, PortfolioOptions, BatchOptions and
// ServerOptions each re-declared the same plumbing, and adding a shared
// resource meant touching all of them. A SolverContext bundles the
// resources one solve stack shares:
//
//   * the relaxation memoization cache (core/relax_cache.hpp),
//   * the compiled-GP model cache (core/compiled_cache.hpp),
//   * an optional caller-managed solver::Budget the portfolio charges
//     instead of constructing its own per-solve budget (one expire()
//     then stops every lane of every in-flight solve), and
//   * an optional runtime::ThreadPool the portfolio races lanes on
//     (instead of spawning a private pool).
//
// Everything is a non-owning pointer and every field is optional; a
// default SolverContext is equivalent to no context at all. The context
// itself is passed by reference (`const SolverContext*`) through the
// options structs, so N shards of an allocation service can share one
// process-wide model cache by pointing N contexts (or one) at it — the
// sharded-cache determinism contract makes that byte-transparent
// whichever shard populates an entry first.
//
// The struct lives in core (not runtime) so alloc-layer options can
// carry it without a layering inversion; Budget and ThreadPool are
// forward-declared since only pointers are stored. It is the only way
// to hand caches to GpaOptions, PortfolioOptions, BatchOptions and
// ServerOptions: each carries one `context` pointer and nothing else.
#pragma once

#include "core/compiled_cache.hpp"
#include "core/relax_cache.hpp"

namespace mfa::solver {
class Budget;
}  // namespace mfa::solver

namespace mfa::runtime {
class ThreadPool;
}  // namespace mfa::runtime

namespace mfa::core {

struct SolverContext {
  /// Relaxation memoization shared across lanes/requests. Not owned.
  RelaxationCache* relax_cache = nullptr;

  /// Compiled-GP model cache shared across lanes/requests — the
  /// process-wide structure cache a sharded service hangs off one
  /// context. Not owned.
  CompiledModelCache* model_cache = nullptr;

  /// Caller-managed shared budget. When set, Portfolio::solve charges
  /// its lanes against this budget instead of constructing a fresh one
  /// from PortfolioOptions::max_nodes/max_seconds, so the caller
  /// controls deadlines across many solves and can expire() them all.
  /// Node/tick usage accumulates across solves; the caller resets or
  /// replaces the budget as it sees fit. Not owned.
  solver::Budget* budget = nullptr;

  /// Worker pool portfolio lanes race on (null → the portfolio's own
  /// policy: private pool or sequential lanes). Not owned.
  runtime::ThreadPool* pool = nullptr;
};

}  // namespace mfa::core
