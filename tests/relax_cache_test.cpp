#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fingerprint.hpp"
#include "core/relax_cache.hpp"
#include "core/relaxation.hpp"
#include "solver/discretize.hpp"
#include "testutil.hpp"

namespace mfa::core {
namespace {

using test::tiny_problem;

TEST(Fingerprint, SensitiveToRelaxationInputsOnly) {
  const Problem base = tiny_problem();
  const Fingerprint fp = relaxation_fingerprint(base);

  // Anything the relaxation depends on changes the fingerprint…
  Problem changed = base;
  changed.app.kernels[0].wcet_ms += 1e-9;
  EXPECT_NE(relaxation_fingerprint(changed), fp);
  changed = base;
  changed.resource_fraction = 0.79;
  EXPECT_NE(relaxation_fingerprint(changed), fp);
  changed = base;
  changed.platform.num_fpgas = 3;
  EXPECT_NE(relaxation_fingerprint(changed), fp);

  // …while names and objective weights do not (so β = 0 twins share
  // relaxation entries).
  changed = base;
  changed.app.name = "renamed";
  changed.app.kernels[1].name = "other";
  changed.beta = 0.0;
  changed.alpha = 17.0;
  EXPECT_EQ(relaxation_fingerprint(changed), fp);
}

TEST(Fingerprint, BoundsAndHintsKeySeparateEntries) {
  const Problem p = tiny_problem();
  const CuBounds defaults = CuBounds::defaults(p);
  CuBounds tightened = defaults;
  tightened.upper[0] -= 1.0;
  EXPECT_NE(relaxation_cache_key(p, defaults, 0.0),
            relaxation_cache_key(p, tightened, 0.0));
  EXPECT_NE(relaxation_cache_key(p, defaults, 0.0),
            relaxation_cache_key(p, defaults, 2.5));
  // Bisection and interior-point entries never alias.
  EXPECT_NE(relaxation_cache_key(p, defaults, 0.0),
            relaxation_gp_cache_key(p, gp::SolverOptions{}));
}

TEST(RelaxationCache, HitMissAndFirstWriterWins) {
  RelaxationCache cache;
  const Problem p = tiny_problem();
  const Fingerprint key = relaxation_cache_key(p, CuBounds::defaults(p), 0.0);

  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  auto solved = solve_relaxation(p);
  ASSERT_TRUE(solved.is_ok());
  auto stored = cache.insert(key, solved);
  ASSERT_NE(stored, nullptr);

  auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), stored.get());  // same entry, shared ownership
  EXPECT_EQ(hit->value().ii, solved.value().ii);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  // A second insert under the same key keeps the first entry.
  auto second = cache.insert(key, solved);
  EXPECT_EQ(second.get(), stored.get());
  EXPECT_EQ(cache.size(), 1u);

  // Infeasible outcomes are cacheable too.
  CuBounds empty = CuBounds::defaults(p);
  empty.lower[0] = 5.0;
  empty.upper[0] = 4.0;
  const Fingerprint bad_key = relaxation_cache_key(p, empty, 0.0);
  auto entry = cache.get_or_solve(
      bad_key, [&] { return solve_relaxation(p, empty); });
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->is_ok());
  EXPECT_EQ(entry->status().code(), Code::kInfeasible);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // Entries handed out before clear() stay alive (shared ownership).
  EXPECT_TRUE(hit->is_ok());
}

TEST(RelaxationCache, ConcurrentGetOrSolveIsConsistent) {
  // Many threads hammer the same small key set; every returned entry for
  // a key must be valid and identical in value, whatever thread won.
  RelaxationCache cache;
  const Problem p = tiny_problem();
  std::vector<Fingerprint> keys;
  std::vector<CuBounds> bounds;
  for (int i = 0; i < 8; ++i) {
    CuBounds b = CuBounds::defaults(p);
    b.lower[i % p.num_kernels()] += 0.25 * (i + 1);  // 8 distinct keys
    bounds.push_back(b);
    keys.push_back(relaxation_cache_key(p, b, 0.0));
  }
  const auto reference = [&](int i) { return solve_relaxation(p, bounds[i]); };

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        const int i = (t + round) % 8;
        auto entry = cache.get_or_solve(
            keys[i], [&] { return solve_relaxation(p, bounds[i]); });
        auto expect = reference(i);
        if (entry->is_ok() != expect.is_ok()) {
          ++mismatches;
        } else if (entry->is_ok() &&
                   entry->value().ii != expect.value().ii) {
          ++mismatches;  // bit-identical, not merely close
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), 8u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 8u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(RelaxationCache, ShardedCacheBehavesLikeSingleShard) {
  // Sharding is a pure concurrency optimization: the same key set lands
  // in the same cache with identical hit/miss behavior, just spread
  // over independently locked shards.
  RelaxCacheConfig config;
  config.shards = 7;  // rounded up to 8
  RelaxationCache cache(config);
  EXPECT_EQ(cache.num_shards(), 8u);
  EXPECT_EQ(cache.capacity(), 0u);  // unbounded

  const Problem p = tiny_problem();
  std::vector<Fingerprint> keys;
  for (int i = 0; i < 64; ++i) {
    CuBounds b = CuBounds::defaults(p);
    b.lower[i % p.num_kernels()] += 0.1 * (i + 1);
    keys.push_back(relaxation_cache_key(p, b, 0.0));
    cache.insert(keys.back(), solve_relaxation(p, b));
  }
  EXPECT_EQ(cache.size(), 64u);
  for (const Fingerprint& key : keys) {
    EXPECT_NE(cache.lookup(key), nullptr);
  }
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RelaxationCache, EvictionBoundsResidencyAndStaysTransparent) {
  RelaxCacheConfig config;
  config.shards = 4;
  config.max_entries = 16;  // 4 per shard
  RelaxationCache cache(config);
  EXPECT_EQ(cache.capacity(), 16u);

  const Problem p = tiny_problem();
  std::vector<CuBounds> bounds;
  std::vector<Fingerprint> keys;
  for (int i = 0; i < 200; ++i) {
    CuBounds b = CuBounds::defaults(p);
    b.lower[i % p.num_kernels()] += 0.05 * (i + 1);
    bounds.push_back(b);
    keys.push_back(relaxation_cache_key(p, b, 0.0));
    cache.get_or_solve(keys.back(),
                       [&] { return solve_relaxation(p, b); });
  }
  // Residency never exceeds the bound, and evictions happened.
  EXPECT_LE(cache.size(), 16u);
  const auto stats = cache.stats();
  EXPECT_GE(stats.evictions, 200u - 16u);
  EXPECT_LE(stats.entries, 16u);

  // Transparency: an evicted key re-solves to bit-identical bytes.
  for (int i = 0; i < 200; ++i) {
    auto entry = cache.get_or_solve(
        keys[static_cast<std::size_t>(i)],
        [&] { return solve_relaxation(p, bounds[static_cast<std::size_t>(i)]); });
    const auto fresh = solve_relaxation(p, bounds[static_cast<std::size_t>(i)]);
    ASSERT_EQ(entry->is_ok(), fresh.is_ok());
    if (fresh.is_ok()) {
      EXPECT_EQ(entry->value().ii, fresh.value().ii);
      EXPECT_EQ(entry->value().n_hat, fresh.value().n_hat);
    }
  }
}

TEST(RelaxationCache, EvictedEntriesStayAliveForHolders) {
  RelaxCacheConfig config;
  config.shards = 1;
  config.max_entries = 1;
  RelaxationCache cache(config);
  const Problem p = tiny_problem();
  CuBounds b0 = CuBounds::defaults(p);
  auto held = cache.insert(relaxation_cache_key(p, b0, 0.0),
                           solve_relaxation(p, b0));
  CuBounds b1 = CuBounds::defaults(p);
  b1.lower[0] += 1.0;
  cache.insert(relaxation_cache_key(p, b1, 0.0), solve_relaxation(p, b1));
  EXPECT_EQ(cache.size(), 1u);  // b0's entry was evicted…
  ASSERT_NE(held, nullptr);     // …but the held pointer still works
  EXPECT_TRUE(held->is_ok());
  EXPECT_GT(held->value().ii, 0.0);
}

TEST(CompiledModelCache, GpSolveIsByteTransparentAcrossCoefficients) {
  // The model cache must be invisible in the solved bytes: a hit is
  // re-patched from the caller's problem, so whatever structurally
  // identical problem populated the entry, the cached-path result
  // equals the fresh-compile result exactly.
  const Problem base = tiny_problem();
  Problem reweighted = base;
  for (Kernel& k : reweighted.app.kernels) k.wcet_ms *= 1.7;

  CompiledModelCache models;
  // Populate the structure entry with `reweighted`'s coefficients…
  const auto seed = solve_relaxation_gp(reweighted, gp::SolverOptions{},
                                        &models);
  ASSERT_TRUE(seed.is_ok());
  EXPECT_EQ(models.stats().misses, 1u);
  EXPECT_EQ(models.size(), 1u);

  // …then solve `base` through the cache (hit + patch) and fresh.
  const std::int64_t patches0 = gp::total_coefficient_patches();
  const std::int64_t compiles0 = gp::total_structure_compiles();
  const auto cached = solve_relaxation_gp(base, gp::SolverOptions{},
                                          &models);
  EXPECT_EQ(gp::total_coefficient_patches() - patches0, 1);
  EXPECT_EQ(gp::total_structure_compiles() - compiles0, 0);
  EXPECT_EQ(models.stats().hits, 1u);
  const auto fresh = solve_relaxation_gp(base);
  ASSERT_TRUE(cached.is_ok());
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(cached.value().ii, fresh.value().ii);  // bit-identical
  EXPECT_EQ(cached.value().n_hat, fresh.value().n_hat);

  // Warm-started solves go through the same artifact.
  const auto cached_warm = solve_relaxation_gp(base, gp::SolverOptions{},
                                               fresh.value(), &models);
  const auto fresh_warm =
      solve_relaxation_gp(base, gp::SolverOptions{}, fresh.value());
  ASSERT_TRUE(cached_warm.is_ok());
  ASSERT_TRUE(fresh_warm.is_ok());
  EXPECT_EQ(cached_warm.value().ii, fresh_warm.value().ii);
  EXPECT_EQ(cached_warm.value().n_hat, fresh_warm.value().n_hat);
}

TEST(CompiledModelCache, StructuralChangeMissesReweightingHits) {
  const Problem base = tiny_problem();
  CompiledModelCache models;
  ASSERT_TRUE(solve_relaxation_gp(base, gp::SolverOptions{}, &models)
                  .is_ok());
  const auto stats0 = models.stats();
  EXPECT_EQ(stats0.misses, 1u);

  // Pure re-weighting (WCET change): same structure → hit.
  Problem reweighted = base;
  reweighted.app.kernels[0].wcet_ms *= 3.0;
  ASSERT_TRUE(
      solve_relaxation_gp(reweighted, gp::SolverOptions{}, &models).is_ok());
  EXPECT_EQ(models.stats().hits, stats0.hits + 1);
  EXPECT_EQ(models.size(), 1u);

  // One more kernel: new structure → miss, second entry.
  Problem grown = base;
  grown.app.kernels.push_back(grown.app.kernels[0]);
  grown.app.kernels.back().name = "clone";
  ASSERT_TRUE(
      solve_relaxation_gp(grown, gp::SolverOptions{}, &models).is_ok());
  EXPECT_EQ(models.stats().misses, stats0.misses + 1);
  EXPECT_EQ(models.size(), 2u);
}

TEST(CompiledModelCache, ConcurrentCloneAndPatchIsConsistent) {
  // Threads race solve_relaxation_gp over a shared cache on two
  // structures × several coefficient variants: concurrent misses
  // (compile + insert), hits (clone + patch of one shared structure)
  // and lazy slack lowerings must all produce exactly the uncached
  // bytes. Runs under TSan in CI.
  CompiledModelCache models;
  const Problem base = tiny_problem();
  Problem grown = base;
  grown.app.kernels.push_back(grown.app.kernels[0]);
  grown.app.kernels.back().name = "clone";

  std::vector<Problem> variants;
  for (int i = 0; i < 6; ++i) {
    Problem p = (i % 2 == 0) ? base : grown;
    for (Kernel& k : p.app.kernels) {
      k.wcet_ms *= 1.0 + 0.25 * static_cast<double>(i);
    }
    variants.push_back(std::move(p));
  }
  std::vector<StatusOr<RelaxedSolution>> reference;
  reference.reserve(variants.size());
  for (const Problem& p : variants) {
    reference.push_back(solve_relaxation_gp(p));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 12; ++round) {
        const std::size_t i =
            static_cast<std::size_t>(t + round) % variants.size();
        const auto got = solve_relaxation_gp(variants[i], gp::SolverOptions{},
                                             &models);
        if (got.is_ok() != reference[i].is_ok()) {
          ++mismatches;
        } else if (got.is_ok() &&
                   (got.value().ii != reference[i].value().ii ||
                    got.value().n_hat != reference[i].value().n_hat)) {
          ++mismatches;  // bit-identical, not merely close
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(models.size(), 2u);  // one entry per structure
}

TEST(CompiledModelCache, EvictionIsTransparent) {
  // A capacity-1 cache thrashes between two structures; every solve
  // still returns exactly the uncached bytes.
  CacheConfig config;
  config.shards = 1;
  config.max_entries = 1;
  CompiledModelCache models(config);

  const Problem a = tiny_problem();
  Problem grown = a;
  grown.app.kernels.push_back(grown.app.kernels[0]);
  grown.app.kernels.back().name = "clone";
  const Problem& b = grown;
  for (int round = 0; round < 3; ++round) {
    for (const Problem* p : {&a, &b}) {
      const auto cached = solve_relaxation_gp(*p, gp::SolverOptions{},
                                              &models);
      const auto fresh = solve_relaxation_gp(*p);
      ASSERT_EQ(cached.is_ok(), fresh.is_ok());
      if (fresh.is_ok()) {
        EXPECT_EQ(cached.value().ii, fresh.value().ii);
        EXPECT_EQ(cached.value().n_hat, fresh.value().n_hat);
      }
    }
  }
  EXPECT_LE(models.size(), 1u);
  EXPECT_GT(models.stats().evictions, 0u);
}

TEST(RelaxationWarmStart, BisectionHintPreservesOptimum) {
  // Any positive hint — inside or outside the bracket, feasible or not —
  // must leave the bisection optimum unchanged to tolerance.
  const Problem p = tiny_problem();
  const CuBounds b = CuBounds::defaults(p);
  const auto cold = solve_relaxation(p, b);
  ASSERT_TRUE(cold.is_ok());
  for (double hint : {1e-6, 0.5, 0.9, 1.0, 1.1, 2.0, 1e6}) {
    const auto warm = solve_relaxation(p, b, hint * cold.value().ii);
    ASSERT_TRUE(warm.is_ok()) << "hint factor " << hint;
    EXPECT_NEAR(warm.value().ii, cold.value().ii,
                1e-9 * cold.value().ii)
        << "hint factor " << hint;
  }
}

TEST(RelaxationWarmStart, GpWarmStartMatchesCold) {
  const Problem p = tiny_problem();
  const auto cold = solve_relaxation_gp(p);
  ASSERT_TRUE(cold.is_ok());
  const auto warm = solve_relaxation_gp(p, gp::SolverOptions{}, cold.value());
  ASSERT_TRUE(warm.is_ok());
  EXPECT_NEAR(warm.value().ii, cold.value().ii, 1e-4 * cold.value().ii);
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    EXPECT_NEAR(warm.value().n_hat[k], cold.value().n_hat[k],
                1e-3 * cold.value().n_hat[k] + 1e-6);
  }
}

TEST(Discretizer, CachedSearchMatchesUncachedSearch) {
  // The cache is a pure acceleration: a hit returns the bits a solve
  // would, so the search (totals, II, node count) must match exactly.
  const Problem p = tiny_problem();
  const auto uncached = solver::Discretizer().run(p);
  ASSERT_TRUE(uncached.is_ok());

  RelaxationCache cache;
  solver::DiscretizeOptions cached_opts;
  cached_opts.cache = &cache;
  const auto cached = solver::Discretizer(cached_opts).run(p);
  ASSERT_TRUE(cached.is_ok());
  EXPECT_EQ(cached.value().totals, uncached.value().totals);
  EXPECT_EQ(cached.value().ii, uncached.value().ii);
  EXPECT_EQ(cached.value().nodes, uncached.value().nodes);
  EXPECT_GT(cache.size(), 0u);

  // Re-running with a populated cache reproduces the result from hits.
  const auto replay = solver::Discretizer(cached_opts).run(p);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(replay.value().totals, cached.value().totals);
  EXPECT_EQ(cache.stats().hits, cache.stats().misses);
}

}  // namespace
}  // namespace mfa::core
