// ShardRouter coverage: the pinned hash (stability is a wire/WAL
// contract), deterministic routing, per-shard equivalence with
// standalone servers, resize broadcast, and WAL recovery of a sharded
// deployment.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "scenario/trace.hpp"
#include "service/alloc_server.hpp"
#include "service/shard_router.hpp"
#include "testutil.hpp"

namespace mfa::service {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("mfa_router_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

scenario::Trace small_trace(int events, std::uint64_t seed = 71) {
  scenario::TraceSpec spec;
  spec.num_events = events;
  spec.num_fpgas = 3;
  spec.max_live_pipelines = 4;
  spec.max_kernels = 3;
  return scenario::generate_trace(spec, seed);
}

std::string incumbent_json(const AllocServer& server) {
  const std::optional<runtime::SolveResult> inc = server.incumbent();
  if (!inc.has_value() || !inc->allocation.has_value()) return "";
  return io::to_json(*inc->allocation).dump() + "|" + inc->winner;
}

TEST(ShardRouter, StableHashIsPinnedFnv1a64) {
  // Reference FNV-1a 64 vectors. These values are load-bearing: they
  // decide which shard (and which on-disk WAL) owns a pipeline, so a
  // hash change is a breaking format change, not a refactor.
  EXPECT_EQ(stable_hash(""), 14695981039346656037ull);
  EXPECT_EQ(stable_hash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(stable_hash("foobar"), 0x85944171f73967e8ull);
}

TEST(ShardRouter, RoutingIsDeterministicAcrossInstances) {
  const scenario::Trace trace = small_trace(1);
  RouterOptions options;
  options.shards = 4;
  auto a = ShardRouter::open(trace.platform, options);
  auto b = ShardRouter::open(trace.platform, options);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  bool multiple_shards_used = false;
  for (int i = 0; i < 64; ++i) {
    const std::string id = "pipeline-" + std::to_string(i);
    const std::size_t shard = a.value()->shard_of(id);
    EXPECT_LT(shard, options.shards);
    EXPECT_EQ(shard, b.value()->shard_of(id));
    if (shard != a.value()->shard_of("pipeline-0")) {
      multiple_shards_used = true;
    }
  }
  // The ring actually spreads ids (not a fixed-to-one-shard bug).
  EXPECT_TRUE(multiple_shards_used);
}

TEST(ShardRouter, MatchesStandaloneServersPerShard) {
  const scenario::Trace trace = small_trace(16);
  RouterOptions options;
  options.shards = 2;
  auto router = ShardRouter::open(trace.platform, options);
  ASSERT_TRUE(router.is_ok());

  // Partition the trace exactly the way the router will: per-pipeline
  // events by shard_of, resizes to every shard.
  std::map<std::size_t, std::vector<Event>> partitions;
  for (const Event& event : trace.events) {
    if (event.type == Event::Type::kResizePlatform) {
      for (std::size_t s = 0; s < options.shards; ++s) {
        partitions[s].push_back(event);
      }
      continue;
    }
    const std::string& id = event.type == Event::Type::kAddPipeline
                                ? event.pipeline.id
                                : event.id;
    partitions[router.value()->shard_of(id)].push_back(event);
  }

  for (const Event& event : trace.events) router.value()->apply(event);

  for (std::size_t s = 0; s < options.shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    AllocServer standalone(trace.platform, options.server);
    for (const Event& event : partitions[s]) standalone.apply(event);
    standalone.stop();
    EXPECT_EQ(incumbent_json(router.value()->shard(s)),
              incumbent_json(standalone));
    EXPECT_EQ(router.value()->shard(s).active_pipelines(),
              standalone.active_pipelines());
  }
}

TEST(ShardRouter, ResizeBroadcastsToEveryShard) {
  const scenario::Trace trace = small_trace(1);
  RouterOptions options;
  options.shards = 3;
  auto router = ShardRouter::open(trace.platform, options);
  ASSERT_TRUE(router.is_ok());

  core::Platform bigger = trace.platform;
  bigger.num_fpgas += 2;
  const EventOutcome merged = router.value()->apply(Event::resize(bigger));
  EXPECT_TRUE(merged.status.is_ok()) << merged.status.to_string();

  // Every shard consumed exactly one event and counted the broadcast.
  for (const ServiceStats& s : router.value()->shard_stats()) {
    EXPECT_EQ(s.sequence, 1u);
    EXPECT_EQ(s.resizes, 1u);
  }
  EXPECT_EQ(router.value()->stats().sequence, 3u);
  EXPECT_EQ(router.value()->stats().resizes, 3u);
}

TEST(ShardRouter, RecoversEveryShardFromWalRoot) {
  const TempDir dir("recover");
  const scenario::Trace trace = small_trace(14);
  RouterOptions options;
  options.shards = 2;
  options.wal_root = dir.path;

  std::vector<std::string> incumbents;
  std::size_t active = 0;
  {
    auto router = ShardRouter::open(trace.platform, options);
    ASSERT_TRUE(router.is_ok()) << router.status().to_string();
    for (const Event& event : trace.events) router.value()->apply(event);
    for (std::size_t s = 0; s < options.shards; ++s) {
      incumbents.push_back(incumbent_json(router.value()->shard(s)));
    }
    active = router.value()->active_pipelines();
    router.value()->stop();
  }

  auto recovered = ShardRouter::recover(options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  ASSERT_EQ(recovered.value()->num_shards(), options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(incumbent_json(recovered.value()->shard(s)), incumbents[s]);
  }
  EXPECT_EQ(recovered.value()->active_pipelines(), active);
  recovered.value()->stop();
}

TEST(ShardRouter, RecoverRejectsShardCountMismatch) {
  const TempDir dir("mismatch");
  const scenario::Trace trace = small_trace(4);
  RouterOptions options;
  options.shards = 2;
  options.wal_root = dir.path;
  {
    auto router = ShardRouter::open(trace.platform, options);
    ASSERT_TRUE(router.is_ok());
    for (const Event& event : trace.events) router.value()->apply(event);
    router.value()->stop();
  }
  // Fewer shards than the layout: shard-1's history would be orphaned.
  RouterOptions fewer = options;
  fewer.shards = 1;
  EXPECT_FALSE(ShardRouter::recover(fewer).is_ok());
  // More shards than the layout: shard-2 has no WAL to recover from.
  RouterOptions more = options;
  more.shards = 3;
  EXPECT_FALSE(ShardRouter::recover(more).is_ok());
}

TEST(ShardRouter, OpenRejectsZeroShards) {
  const scenario::Trace trace = small_trace(1);
  RouterOptions options;
  options.shards = 0;
  EXPECT_FALSE(ShardRouter::open(trace.platform, options).is_ok());
}

}  // namespace
}  // namespace mfa::service
