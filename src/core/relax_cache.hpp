// Thread-safe memoization cache for continuous-relaxation solves.
//
// Sweeps and solver portfolios repeat *identical* relaxation solves:
// distinct GP+A lanes of a portfolio (R < 1; equal-ceiling lanes run
// once) solve the same root relaxation, and batch grids repeat
// instances across methods. The cache memoizes those solves by a
// 128-bit fingerprint of everything the result depends on (problem,
// bounds, warm-start hint, algorithm tag — see core/fingerprint.hpp).
// The allocation service does not use it.
//
// Both feasible solutions and infeasibility proofs are cached.
//
// The cache machinery itself — sharding, FIFO bounding, first-writer-
// wins insertion, the determinism contract — is the generic
// core::ShardedCache (core/sharded_cache.hpp), shared with the
// compiled-GP model cache. A lookup hit returns exactly what the thread
// would have computed itself, which is how BatchRunner stays bit-for-bit
// identical across thread counts with the cache enabled; the default
// configuration (one shard, unbounded) reproduces the original
// single-map behavior exactly.
#pragma once

#include "core/relaxation.hpp"
#include "core/sharded_cache.hpp"
#include "support/status.hpp"

namespace mfa::core {

/// One cached relaxation outcome: a solution or the status that denied it.
using CachedRelaxation = StatusOr<RelaxedSolution>;

/// Sharding / bounding knobs; the defaults reproduce the original
/// single-shard unbounded cache bit-for-bit.
using RelaxCacheConfig = CacheConfig;

using RelaxationCache = ShardedCache<CachedRelaxation>;

}  // namespace mfa::core
