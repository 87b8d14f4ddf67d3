// Allocation-service coverage: trace generator determinism and JSON
// round-trips, replay-log determinism (the `serve --trace` contract),
// per-event invariants of the served allocation and its ledger,
// event-queue MPMC behavior, the event error paths (unknown ids,
// duplicates, empty pools), and WAL recovery when a snapshot point
// falls on an unsolved workload.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "io/serialize.hpp"
#include "scenario/trace.hpp"
#include "service/alloc_server.hpp"
#include "service/composite.hpp"
#include "service/event_queue.hpp"
#include "solver/exact.hpp"
#include "testutil.hpp"

namespace mfa::service {
namespace {

using scenario::Trace;
using scenario::TraceSpec;

TraceSpec small_spec(int events) {
  TraceSpec spec;
  spec.num_events = events;
  spec.num_fpgas = 3;
  spec.max_live_pipelines = 4;
  spec.max_kernels = 3;
  return spec;
}

/// Replays `trace` through a fresh server, returning every outcome.
std::vector<EventOutcome> replay(const Trace& trace,
                                 const ServerOptions& options) {
  AllocServer server(trace.platform, options);
  std::vector<EventOutcome> outcomes;
  outcomes.reserve(trace.events.size());
  for (const Event& event : trace.events) {
    outcomes.push_back(server.apply(event));
  }
  return outcomes;
}

/// Equality over the deterministic outcome fields (everything the CLI
/// writes to the replay log; wall-clock seconds excluded).
void expect_deterministic_eq(const std::vector<EventOutcome>& a,
                             const std::vector<EventOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].sequence, b[i].sequence);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].status.code(), b[i].status.code());
    EXPECT_EQ(a[i].status.message(), b[i].status.message());
    EXPECT_EQ(a[i].solve_status.code(), b[i].solve_status.code());
    EXPECT_EQ(a[i].active_pipelines, b[i].active_pipelines);
    EXPECT_EQ(a[i].solve.ii, b[i].solve.ii);  // bit-identical
    EXPECT_EQ(a[i].solve.phi, b[i].solve.phi);
    EXPECT_EQ(a[i].solve.goal, b[i].solve.goal);
    EXPECT_EQ(a[i].solve.totals, b[i].solve.totals);
    EXPECT_EQ(a[i].solve.nodes, b[i].solve.nodes);
    // The delta class depends only on the event stream.
    EXPECT_EQ(a[i].cache.delta, b[i].cache.delta);
    // The migration diff is part of the deterministic replay contract
    // (it is derived from consecutive incumbents, which are).
    EXPECT_EQ(a[i].diff.computed, b[i].diff.computed);
    EXPECT_EQ(a[i].diff.cus_moved, b[i].diff.cus_moved);
    EXPECT_EQ(a[i].diff.pipelines_disturbed, b[i].diff.pipelines_disturbed);
    EXPECT_EQ(a[i].diff.goal_regret, b[i].diff.goal_regret);
    EXPECT_EQ(a[i].diff.stability_applied, b[i].diff.stability_applied);
    EXPECT_EQ(a[i].diff.budget_exceeded, b[i].diff.budget_exceeded);
  }
}

TEST(TraceGenerator, SameSeedSameBytes) {
  const TraceSpec spec = small_spec(80);
  const Trace a = scenario::generate_trace(spec, 11);
  const Trace b = scenario::generate_trace(spec, 11);
  EXPECT_EQ(io::to_json(a).dump(), io::to_json(b).dump());
  const Trace c = scenario::generate_trace(spec, 12);
  EXPECT_NE(io::to_json(a).dump(), io::to_json(c).dump());
}

TEST(TraceGenerator, ProducesRequestedEventMixAndValidLifecycle) {
  const Trace trace = scenario::generate_trace(small_spec(200), 3);
  ASSERT_EQ(trace.events.size(), 200u);
  int adds = 0;
  int removes = 0;
  std::vector<std::string> live;
  double last_time = 0.0;
  for (const Event& e : trace.events) {
    EXPECT_GE(e.time_ms, last_time);  // non-decreasing timestamps
    last_time = e.time_ms;
    switch (e.type) {
      case Event::Type::kAddPipeline: {
        ++adds;
        EXPECT_FALSE(e.pipeline.app.kernels.empty());
        EXPECT_GT(e.pipeline.weight, 0.0);
        // Arrivals are unique and not yet live.
        for (const std::string& id : live) {
          EXPECT_NE(id, e.pipeline.id);
        }
        live.push_back(e.pipeline.id);
        break;
      }
      case Event::Type::kRemovePipeline: {
        ++removes;
        // Every removal targets a live pipeline.
        auto it = std::find(live.begin(), live.end(), e.id);
        ASSERT_NE(it, live.end()) << "removal of dead id " << e.id;
        live.erase(it);
        break;
      }
      case Event::Type::kReprioritize: {
        auto it = std::find(live.begin(), live.end(), e.id);
        EXPECT_NE(it, live.end()) << "reprioritize of dead id " << e.id;
        EXPECT_GT(e.weight, 0.0);
        break;
      }
      case Event::Type::kResizePlatform:
        EXPECT_GE(e.platform.num_fpgas, 1);
        break;
    }
  }
  EXPECT_GT(adds, 0);
  EXPECT_GT(removes, 0);
}

TEST(TraceGenerator, JsonRoundTripIsLossless) {
  const Trace trace = scenario::generate_trace(small_spec(60), 5);
  const std::string text = io::to_json(trace).dump(2);
  auto parsed = io::trace_from_text(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(io::to_json(parsed.value()).dump(2), text);
}

TEST(AllocServer, ReplayLogIsDeterministic) {
  const Trace trace = scenario::generate_trace(small_spec(120), 17);
  const ServerOptions options;
  const auto a = replay(trace, options);
  const auto b = replay(trace, options);
  expect_deterministic_eq(a, b);

  // Lane parallelism must not change the log either (lanes write into
  // indexed slots; the winner is chosen by goal, not completion time).
  ServerOptions parallel = options;
  parallel.solver_threads = 3;
  expect_deterministic_eq(a, replay(trace, parallel));
}

TEST(AllocServer, StabilityOffMatchesGenerousBudgets) {
  // The stability ladder must be a no-op unless a budget actually
  // binds: a replay under absurdly generous budgets serializes to the
  // very same bytes as the stability-off replay (the bench gate's
  // --check property, asserted per event here).
  const Trace trace = scenario::generate_trace(small_spec(120), 17);
  const ServerOptions off;
  ServerOptions generous;
  generous.max_moves = 1 << 29;
  generous.max_disturbed = 1 << 29;
  const auto a = replay(trace, off);
  const auto b = replay(trace, generous);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(io::to_json(a[i]).dump(), io::to_json(b[i]).dump());
  }
}

TEST(AllocServer, StabilityBudgetsBoundDisturbance) {
  // The hard contract: with max_disturbed = k, no accepted event
  // disturbs more than k surviving pipelines unless the outcome says so
  // (budget_exceeded marks the ladder falling through to rung 3).
  const Trace trace = scenario::generate_trace(small_spec(120), 17);
  ServerOptions options;
  options.max_disturbed = 0;
  const auto outcomes = replay(trace, options);
  bool any_diff = false;
  bool any_constrained = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    const EventOutcome& o = outcomes[i];
    if (!o.diff.computed) continue;
    any_diff = true;
    any_constrained = any_constrained ||
                      o.diff.stability_applied || o.diff.budget_exceeded;
    if (!o.diff.budget_exceeded) {
      EXPECT_EQ(o.diff.pipelines_disturbed, 0);
    }
  }
  EXPECT_TRUE(any_diff);
  // The trace churns enough that a zero budget must actually bind
  // somewhere — otherwise this test is vacuous.
  EXPECT_TRUE(any_constrained);
}

TEST(AllocServer, StabilityReplayIsDeterministic) {
  // Budgeted replays (including the soft move-cost objective) stay on
  // the deterministic-log contract, sequential or lane-parallel.
  const Trace trace = scenario::generate_trace(small_spec(120), 17);
  ServerOptions options;
  options.max_moves = 3;
  options.max_disturbed = 1;
  options.move_cost = 0.05;
  const auto a = replay(trace, options);
  expect_deterministic_eq(a, replay(trace, options));

  ServerOptions parallel = options;
  parallel.solver_threads = 3;
  expect_deterministic_eq(a, replay(trace, parallel));
}

TEST(AllocServer, OccupancyTracksTheIncumbent) {
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});
  EXPECT_FALSE(server.occupancy().valid());

  PipelineSpec p0;
  p0.id = "p0";
  p0.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0),
                    test::make_kernel("b", 12.0, 8.0, 15.0, 4.0)};
  PipelineSpec p1;
  p1.id = "p1";
  p1.app.kernels = {test::make_kernel("c", 4.0, 5.0, 10.0, 8.0)};
  ASSERT_TRUE(server.apply(Event::add(p0)).solve_status.is_ok());
  ASSERT_TRUE(server.apply(Event::add(p1)).solve_status.is_ok());

  const OccupancyTracker occ = server.occupancy();
  ASSERT_TRUE(occ.valid());
  ASSERT_EQ(occ.placements().size(), 2u);
  const std::optional<runtime::SolveResult> inc = server.incumbent();
  ASSERT_TRUE(inc.has_value());
  const core::Allocation& alloc = *inc->allocation;
  int incumbent_cus = 0;
  for (std::size_t k = 0; k < alloc.num_kernels(); ++k) {
    incumbent_cus += alloc.total_cu(k);
  }
  int placed_cus = 0;
  for (const PipelinePlacement& p : occ.placements()) {
    placed_cus += p.total_cus();
  }
  EXPECT_EQ(placed_cus, incumbent_cus);
  int device_cus = 0;
  for (const DeviceOccupancy& dev : occ.devices()) device_cus += dev.cus;
  EXPECT_EQ(device_cus, incumbent_cus);
  ASSERT_NE(occ.placement("p0"), nullptr);
  EXPECT_EQ(occ.placement("p0")->rows.size(), 2u);  // two kernels
  EXPECT_EQ(occ.placement("ghost"), nullptr);
  EXPECT_EQ(occ.statistics().num_pipelines, 2u);
  EXPECT_EQ(occ.statistics().total_cus, incumbent_cus);

  // Departures drop the record; emptying the pool forgets everything.
  ASSERT_TRUE(server.apply(Event::remove("p0")).status.is_ok());
  const OccupancyTracker after = server.occupancy();
  ASSERT_TRUE(after.valid());
  EXPECT_EQ(after.placement("p0"), nullptr);
  ASSERT_TRUE(server.apply(Event::remove("p1")).status.is_ok());
  EXPECT_FALSE(server.occupancy().valid());
}

/// After every event whose re-solve succeeded, the served allocation
/// covers exactly the live composite, passes Allocation::check, and the
/// occupancy ledger's per-device CU counts are its column sums. The
/// traces are `gentrace --events 500` at seeds 1, 7 and 42.
TEST(AllocServer, ServedAllocationMatchesLiveSetAndLedgerOnEveryEvent) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TraceSpec spec;
    spec.num_events = 500;
    const Trace trace = scenario::generate_trace(spec, seed);
    AllocServer server(trace.platform, ServerOptions{});
    std::vector<std::pair<std::string, std::size_t>> live;  // id, kernels
    std::size_t solved = 0;
    for (const Event& event : trace.events) {
      const EventOutcome o = server.apply(event);
      SCOPED_TRACE("event " + std::to_string(o.sequence));
      if (!o.status.is_ok()) {
        EXPECT_EQ(o.cache.delta, CompositeDelta::kNone);
        continue;
      }
      switch (o.type) {
        case Event::Type::kAddPipeline:
          EXPECT_EQ(o.cache.delta, CompositeDelta::kStructural);
          live.emplace_back(event.pipeline.id,
                            event.pipeline.app.kernels.size());
          break;
        case Event::Type::kRemovePipeline:
          EXPECT_EQ(o.cache.delta, CompositeDelta::kStructural);
          live.erase(std::find_if(live.begin(), live.end(),
                                  [&](const auto& p) {
                                    return p.first == event.id;
                                  }));
          break;
        case Event::Type::kReprioritize:
          EXPECT_EQ(o.cache.delta, CompositeDelta::kCoefficients);
          break;
        case Event::Type::kResizePlatform:
          EXPECT_EQ(o.cache.delta, CompositeDelta::kRhs);
          break;
      }
      ASSERT_EQ(o.active_pipelines, live.size());
      if (!o.solve_status.is_ok() || live.empty()) continue;
      ++solved;
      std::size_t kernels = 0;
      for (const auto& p : live) kernels += p.second;
      const std::optional<runtime::SolveResult> inc = server.incumbent();
      ASSERT_TRUE(inc.has_value() && inc->allocation.has_value());
      const core::Allocation& alloc = *inc->allocation;
      ASSERT_EQ(alloc.num_kernels(), kernels);
      EXPECT_EQ(o.solve.totals.size(), kernels);
      EXPECT_EQ(alloc.check(), std::vector<std::string>{});
      const OccupancyTracker ledger = server.occupancy();
      ASSERT_TRUE(ledger.valid());
      ASSERT_EQ(ledger.devices().size(),
                static_cast<std::size_t>(alloc.num_fpgas()));
      for (int f = 0; f < alloc.num_fpgas(); ++f) {
        int column = 0;
        for (std::size_t k = 0; k < kernels; ++k) column += alloc.cu(k, f);
        EXPECT_EQ(ledger.devices()[static_cast<std::size_t>(f)].cus, column)
            << "device " << f;
      }
    }
    EXPECT_GT(solved, 0u);
  }
}

/// The PR-4 wholesale composite rebuild, replicated as a test oracle:
/// the incremental CompositeBuilder must stay bit-identical to it.
core::Problem wholesale_compose(const core::Platform& platform,
                                const std::vector<PipelineSpec>& pipes,
                                const ServerOptions& options) {
  core::Problem p;
  p.app.name = "composite";
  p.platform = platform;
  p.resource_fraction = options.resource_fraction;
  p.bw_fraction = options.bw_fraction;
  p.alpha = options.alpha;
  p.beta = options.beta;
  for (const PipelineSpec& pipe : pipes) {
    for (const core::Kernel& k : pipe.app.kernels) {
      core::Kernel scaled = k;
      scaled.name = pipe.id + "/" + k.name;
      scaled.wcet_ms = k.wcet_ms * pipe.weight;
      p.app.kernels.push_back(std::move(scaled));
    }
  }
  return p;
}

TEST(AllocServer, IncrementalCompositeMatchesWholesaleRebuild) {
  // Drive one server through every delta class — including repeated
  // reprioritizations of the same pipeline, which must rescale from the
  // base WCETs, never compound — and after each event compare the
  // composite the solve actually ran on (incumbent()->problem) against
  // a from-scratch rebuild, byte-for-byte via the JSON dump.
  core::Platform platform{"pool", 2};
  const ServerOptions options;
  AllocServer server(platform, options);

  PipelineSpec p0;
  p0.id = "p0";
  p0.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0),
                    test::make_kernel("b", 12.0, 8.0, 15.0, 4.0)};
  PipelineSpec p1;
  p1.id = "p1";
  p1.weight = 1.5;
  p1.app.kernels = {test::make_kernel("c", 6.0, 5.0, 10.0, 3.0)};

  std::vector<PipelineSpec> live;
  auto expect_composite_matches = [&] {
    ASSERT_TRUE(server.incumbent().has_value());
    const auto expected =
        io::to_json(wholesale_compose(platform, live, options)).dump(2);
    const auto actual = io::to_json(*server.incumbent()->problem).dump(2);
    EXPECT_EQ(actual, expected);
  };

  ASSERT_TRUE(server.apply(Event::add(p0)).status.is_ok());
  live.push_back(p0);
  expect_composite_matches();

  ASSERT_TRUE(server.apply(Event::add(p1)).status.is_ok());
  live.push_back(p1);
  expect_composite_matches();

  EventOutcome re = server.apply(Event::reprioritize("p0", 2.0));
  ASSERT_TRUE(re.status.is_ok());
  EXPECT_EQ(re.cache.delta, CompositeDelta::kCoefficients);
  live[0].weight = 2.0;
  expect_composite_matches();

  // Second reprioritization: 0.5 must replace 2.0, not stack on it.
  ASSERT_TRUE(server.apply(Event::reprioritize("p0", 0.5)).status.is_ok());
  live[0].weight = 0.5;
  expect_composite_matches();

  EventOutcome grown = server.apply(Event::resize(core::Platform{"pool3", 3}));
  ASSERT_TRUE(grown.status.is_ok());
  EXPECT_EQ(grown.cache.delta, CompositeDelta::kRhs);
  platform = core::Platform{"pool3", 3};
  expect_composite_matches();

  EventOutcome removed = server.apply(Event::remove("p0"));
  ASSERT_TRUE(removed.status.is_ok());
  EXPECT_EQ(removed.cache.delta, CompositeDelta::kStructural);
  live.erase(live.begin());
  expect_composite_matches();
}

/// A re-solve leaves the workload unplaced only where no allocation
/// exists: on the `gentrace --events 500` traces at seeds 1, 7 and 42,
/// the exact solver proves every such composite infeasible. Algorithm 1
/// alone misses placements that exist (event 96 of seed 7 places one CU
/// per kernel only in another kernel order).
TEST(AllocServer, UnplacedWorkloadsHaveNoPlacement) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TraceSpec spec;
    spec.num_events = 500;
    const Trace trace = scenario::generate_trace(spec, seed);
    const ServerOptions options;
    AllocServer server(trace.platform, options);
    core::Platform platform = trace.platform;
    std::vector<PipelineSpec> live;
    std::size_t unplaced = 0;
    for (const Event& event : trace.events) {
      const EventOutcome o = server.apply(event);
      if (!o.status.is_ok()) continue;
      auto target = std::find_if(live.begin(), live.end(),
                                 [&](const PipelineSpec& p) {
                                   return p.id == event.id;
                                 });
      switch (event.type) {
        case Event::Type::kAddPipeline:
          live.push_back(event.pipeline);
          break;
        case Event::Type::kRemovePipeline:
          live.erase(target);
          break;
        case Event::Type::kReprioritize:
          target->weight = event.weight;
          break;
        case Event::Type::kResizePlatform:
          platform = event.platform;
          break;
      }
      if (o.solve_status.is_ok() || live.empty()) continue;
      ++unplaced;
      const auto exact =
          solver::ExactSolver().solve(wholesale_compose(platform, live, options));
      EXPECT_EQ(exact.status().code(), Code::kInfeasible)
          << "event " << o.sequence << ": " << o.solve_status.to_string();
    }
    EXPECT_GT(unplaced, 0u);
  }
}

TEST(CompositeBuilder, SnapshotsShareStructureAcrossNumericDeltas) {
  // The contract behind the zero-allocation warm path: numeric deltas
  // (reprioritize / resize) republish through the *same*
  // core::ProblemStructure skeleton, so downstream consumers can use
  // pointer equality of Problem::structure as a constant-time "no
  // recompile needed" witness; structural edits mint a fresh skeleton.
  // A pinned older snapshot must also keep its exact bytes while newer
  // deltas publish — that immutability is what lets the server's
  // incumbent outlive the event that replaced it.
  CompositeBuilder builder(core::Platform{"pool", 2}, CompositeConfig{});

  PipelineSpec p0;
  p0.id = "p0";
  p0.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0),
                    test::make_kernel("b", 12.0, 8.0, 15.0, 4.0)};
  builder.add_pipeline(p0);

  const auto before = builder.snapshot();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->structure, builder.live().structure);
  const std::string before_bytes = io::to_json(*before).dump(2);

  PipelineSpec hot = p0;
  hot.weight = 2.0;
  builder.reprioritize(0, hot);
  const auto after = builder.snapshot();

  EXPECT_EQ(before->structure, after->structure) << "coefficient patches "
      "must not re-derive the structure skeleton";
  EXPECT_EQ(io::to_json(*after).dump(2), io::to_json(builder.live()).dump(2));
  EXPECT_EQ(io::to_json(*before).dump(2), before_bytes)
      << "a held snapshot changed under its holder";
  EXPECT_NE(io::to_json(*after).dump(2), before_bytes);

  builder.resize_platform(core::Platform{"pool3", 3});
  const auto resized = builder.snapshot();
  EXPECT_EQ(resized->structure, after->structure)
      << "an RHS patch is numeric too";

  PipelineSpec p1;
  p1.id = "p1";
  p1.app.kernels = {test::make_kernel("c", 6.0, 5.0, 10.0, 3.0)};
  builder.add_pipeline(p1);
  const auto grown = builder.snapshot();
  EXPECT_NE(grown->structure, resized->structure)
      << "structural edits must mint a fresh skeleton";
  EXPECT_EQ(io::to_json(*grown).dump(2), io::to_json(builder.live()).dump(2));
}

TEST(CompositeBuilder, PatchedBuilderMatchesFreshBuilderByteForByte) {
  // A builder that lived through reprioritize + resize deltas (and
  // their rollback inverses) must publish the same bytes as one
  // constructed directly in the final state — the identity that keeps
  // relaxation-cache keys and compiled-GP fingerprints honest.
  PipelineSpec p0;
  p0.id = "p0";
  p0.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0),
                    test::make_kernel("b", 12.0, 8.0, 15.0, 4.0)};
  PipelineSpec p1;
  p1.id = "p1";
  p1.weight = 1.5;
  p1.app.kernels = {test::make_kernel("c", 6.0, 5.0, 10.0, 3.0)};

  CompositeBuilder veteran(core::Platform{"pool", 2}, CompositeConfig{});
  veteran.add_pipeline(p0);
  veteran.add_pipeline(p1);
  const std::string original = io::to_json(veteran.live()).dump(2);

  PipelineSpec hot = p0;
  hot.weight = 3.0;
  veteran.reprioritize(0, hot);
  veteran.resize_platform(core::Platform{"pool4", 4});
  // Rollback inverses: restoring the old weight and platform must be
  // byte-exact, not merely approximately equal.
  veteran.reprioritize(0, p0);
  veteran.resize_platform(core::Platform{"pool", 2});
  EXPECT_EQ(io::to_json(veteran.live()).dump(2), original);

  veteran.reprioritize(0, hot);
  veteran.resize_platform(core::Platform{"pool4", 4});

  CompositeBuilder fresh(core::Platform{"pool4", 4}, CompositeConfig{});
  fresh.add_pipeline(hot);
  fresh.add_pipeline(p1);
  EXPECT_EQ(io::to_json(veteran.live()).dump(2),
            io::to_json(fresh.live()).dump(2));
  EXPECT_EQ(io::to_json(*veteran.snapshot()).dump(2),
            io::to_json(*fresh.snapshot()).dump(2));
}

TEST(AllocServer, WarmAllocCountersAreDeterministic) {
  // Whatever the counting interposer reports (zero when it is not
  // linked into this binary), two identical replays must report it
  // identically per event — the counter is part of the replay-log
  // surface and must not pick up noise from the environment.
  const Trace trace = scenario::generate_trace(small_spec(80), 91);
  const ServerOptions options;
  const auto a = replay(trace, options);
  const auto b = replay(trace, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].warm_allocs, b[i].warm_allocs);
  }
}

TEST(AllocServer, RemoveUnknownIdFailsCleanly) {
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});

  EventOutcome outcome = server.apply(Event::remove("ghost"));
  EXPECT_EQ(outcome.status.code(), Code::kInvalid);
  EXPECT_NE(outcome.status.message().find("ghost"), std::string::npos);
  EXPECT_EQ(outcome.active_pipelines, 0u);

  // The server keeps serving: a real add still works afterwards.
  PipelineSpec pipe;
  pipe.id = "p0";
  pipe.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0)};
  outcome = server.apply(Event::add(pipe));
  EXPECT_TRUE(outcome.status.is_ok());
  EXPECT_TRUE(outcome.solve_status.is_ok());
  EXPECT_EQ(outcome.active_pipelines, 1u);
  EXPECT_GT(outcome.solve.goal, 0.0);

  // Unknown reprioritize targets fail the same way.
  outcome = server.apply(Event::reprioritize("ghost", 2.0));
  EXPECT_EQ(outcome.status.code(), Code::kInvalid);
  // Duplicate arrivals are rejected without disturbing the incumbent.
  outcome = server.apply(Event::add(pipe));
  EXPECT_EQ(outcome.status.code(), Code::kInvalid);
  EXPECT_EQ(outcome.active_pipelines, 1u);
}

TEST(AllocServer, MalformedEventRollsBackAndNeverPoisonsTheServer) {
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});

  // A malformed resize on an *empty* pool (no composite to validate)
  // must be rejected outright, not silently installed.
  core::Platform empty_pool_broken{"broken", 2};
  empty_pool_broken.classes.push_back(core::DeviceClass{
      "c0", core::ResourceVec::uniform(100.0), 100.0});
  empty_pool_broken.class_of = {0};  // one entry for two FPGAs
  EventOutcome rejected = server.apply(Event::resize(empty_pool_broken));
  EXPECT_EQ(rejected.status.code(), Code::kInvalid);

  PipelineSpec pipe;
  pipe.id = "p0";
  pipe.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0)};
  EventOutcome ok = server.apply(Event::add(pipe));
  ASSERT_TRUE(ok.status.is_ok());
  ASSERT_TRUE(ok.solve_status.is_ok());
  const double goal_before = ok.solve.goal;

  // A resize that passes the shallow check (num_fpgas >= 1) but fails
  // structural validation: classes without a matching class_of. The
  // event must fail — and must NOT leave the broken platform behind.
  core::Platform broken{"broken", 2};
  broken.classes.push_back(core::DeviceClass{
      "c0", core::ResourceVec::uniform(100.0), 100.0});
  broken.class_of = {0};  // one entry for two FPGAs
  EventOutcome bad = server.apply(Event::resize(broken));
  EXPECT_EQ(bad.status.code(), Code::kInvalid);
  EXPECT_EQ(bad.solve.goal, goal_before);  // incumbent untouched

  // An add whose kernel carries negative resource demand fails the
  // same way, without growing the live set.
  PipelineSpec negative;
  negative.id = "neg";
  negative.app.kernels = {test::make_kernel("n", 5.0, -1.0, 10.0, 2.0)};
  bad = server.apply(Event::add(negative));
  EXPECT_EQ(bad.status.code(), Code::kInvalid);
  EXPECT_EQ(bad.active_pipelines, 1u);

  // The server still serves: a well-formed event after the malformed
  // ones solves on the *original* platform.
  PipelineSpec pipe2;
  pipe2.id = "p1";
  pipe2.app.kernels = {test::make_kernel("b", 6.0, 8.0, 12.0, 3.0)};
  EventOutcome after = server.apply(Event::add(pipe2));
  EXPECT_TRUE(after.status.is_ok());
  EXPECT_TRUE(after.solve_status.is_ok());
  EXPECT_EQ(after.active_pipelines, 2u);
}

TEST(AllocServer, LogRetentionIsBounded) {
  const Trace trace = scenario::generate_trace(small_spec(40), 53);
  ServerOptions options;
  options.log_capacity = 8;
  AllocServer server(trace.platform, options);
  for (const Event& event : trace.events) server.apply(event);

  // Only the newest log_capacity outcomes survive, in sequence order.
  const std::vector<EventOutcome> log = server.log();
  ASSERT_EQ(log.size(), 8u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].sequence, 40u - 8u + i);
  }
}

TEST(AllocServer, LifecycleAndIncumbentTracking) {
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});
  EXPECT_FALSE(server.incumbent().has_value());

  PipelineSpec heavy;
  heavy.id = "heavy";
  heavy.app.kernels = {test::make_kernel("a", 16.0, 10.0, 20.0, 5.0),
                       test::make_kernel("b", 8.0, 8.0, 15.0, 4.0)};
  const EventOutcome added = server.apply(Event::add(heavy));
  ASSERT_TRUE(added.solve_status.is_ok());
  ASSERT_TRUE(server.incumbent().has_value());
  EXPECT_EQ(server.active_pipelines(), 1u);

  // Raising a pipeline's weight re-solves to a different (worse-goal)
  // composite: weight scales effective WCET.
  const EventOutcome heavier =
      server.apply(Event::reprioritize("heavy", 2.0));
  ASSERT_TRUE(heavier.solve_status.is_ok());
  EXPECT_GT(heavier.solve.goal, added.solve.goal);

  // Growing the pool can only help the goal.
  const EventOutcome grown =
      server.apply(Event::resize(core::Platform{"pool4", 4}));
  ASSERT_TRUE(grown.solve_status.is_ok());
  EXPECT_LE(grown.solve.goal, heavier.solve.goal + 1e-12);

  // Removing the last pipeline clears the incumbent.
  const EventOutcome removed = server.apply(Event::remove("heavy"));
  EXPECT_TRUE(removed.status.is_ok());
  EXPECT_EQ(removed.active_pipelines, 0u);
  EXPECT_FALSE(server.incumbent().has_value());
  EXPECT_EQ(removed.solve.goal, 0.0);
}

TEST(AllocServer, RecoverWhenASnapshotPointFallsOnAnUnsolvedWorkload) {
  // An arrival the pool cannot place leaves the previous incumbent
  // standing over a live set it does not cover. A snapshot of that state
  // would pair the live set with the stale ledger, which recovery cannot
  // re-derive; the server skips it and recovery replays from the
  // previous snapshot instead.
  namespace fs = std::filesystem;
  struct TempDir {
    fs::path path = fs::temp_directory_path() /
                    ("mfa_service_test_unsolved_" +
                     std::to_string(::getpid()));
    TempDir() { fs::remove_all(path); }
    ~TempDir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } const dir;
  ServerOptions options;
  options.wal_dir = dir.path.string();
  options.wal_fsync = false;
  options.snapshot_every = 1;  // every event is a snapshot point
  const core::Platform platform{"pool", 2};

  PipelineSpec small;
  small.id = "small";
  small.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0)};
  // Three kernels of 60% BRAM each: one CU of each fits some FPGA, but
  // the two FPGAs cannot hold all three.
  PipelineSpec wide;
  wide.id = "wide";
  for (const char* name : {"x", "y", "z"}) {
    wide.app.kernels.push_back(test::make_kernel(name, 5.0, 60.0, 5.0, 1.0));
  }

  std::string served;
  {
    auto server = AllocServer::open(platform, options);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    ASSERT_TRUE(server.value()->apply(Event::add(small)).solve_status.is_ok());
    const EventOutcome unplaced = server.value()->apply(Event::add(wide));
    ASSERT_TRUE(unplaced.status.is_ok());
    ASSERT_FALSE(unplaced.solve_status.is_ok());
    ASSERT_TRUE(server.value()->incumbent().has_value());
    served = io::to_json(*server.value()->incumbent()->allocation).dump();
    server.value()->stop();
  }

  auto recovered = AllocServer::recover(options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_EQ(recovered.value()->active_pipelines(), 2u);
  ASSERT_TRUE(recovered.value()->incumbent().has_value());
  EXPECT_EQ(io::to_json(*recovered.value()->incumbent()->allocation).dump(),
            served);
  recovered.value()->stop();
}

TEST(AllocServer, MpmcSubmissionProcessesEveryEventExactlyOnce) {
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 8;

  std::vector<std::thread> producers;
  std::atomic<int> ok_adds{0};
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&server, &ok_adds, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        PipelineSpec pipe;
        pipe.id = "p" + std::to_string(t) + "_" + std::to_string(i);
        pipe.app.kernels = {test::make_kernel("k", 4.0 + t, 8.0, 12.0, 2.0)};
        const EventOutcome outcome =
            server.apply(Event::add(std::move(pipe)));
        if (outcome.status.is_ok()) ok_adds.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(ok_adds.load(), kProducers * kPerProducer);
  EXPECT_EQ(server.active_pipelines(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  // Sequences are unique and dense: every event was processed once.
  const std::vector<EventOutcome> log = server.log();
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::vector<bool> seen(log.size(), false);
  for (const EventOutcome& o : log) {
    ASSERT_LT(o.sequence, log.size());
    EXPECT_FALSE(seen[o.sequence]);
    seen[o.sequence] = true;
  }
}

TEST(EventQueue, ClosedQueueFailsFastAndDrains) {
  EventQueue queue;
  auto f1 = queue.push(Event::remove("a"));
  queue.close();
  // Still-queued items drain…
  auto item = queue.pop();
  ASSERT_TRUE(item.has_value());
  item->reply.set_value(EventOutcome{});
  f1.get();
  // …then pop reports closed, and new pushes fail fast.
  EXPECT_FALSE(queue.pop().has_value());
  auto f2 = queue.push(Event::remove("b"));
  EXPECT_EQ(f2.get().status.code(), Code::kInvalid);
}

TEST(AllocServer, StopDrainsQueuedEvents) {
  core::Platform platform{"pool", 2};
  auto server = std::make_unique<AllocServer>(platform, ServerOptions{});
  std::vector<std::future<EventOutcome>> futures;
  for (int i = 0; i < 16; ++i) {
    PipelineSpec pipe;
    pipe.id = "p" + std::to_string(i);
    pipe.app.kernels = {test::make_kernel("k", 6.0, 9.0, 14.0, 3.0)};
    futures.push_back(server->submit(Event::add(std::move(pipe))));
  }
  server->stop();  // must process everything already submitted
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.is_ok());
  }
}

}  // namespace
}  // namespace mfa::service
