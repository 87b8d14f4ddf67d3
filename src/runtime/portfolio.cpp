#include "runtime/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "alloc/gpa.hpp"
#include "solver/budget.hpp"
#include "solver/exact.hpp"
#include "solver/naive.hpp"

namespace mfa::runtime {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What one lane hands back to the aggregation step.
struct LaneRun {
  StrategyOutcome outcome;
  std::optional<core::Allocation> allocation;  // bound to the request problem
};

LaneRun run_lane(const StrategySpec& spec, const core::Problem& problem,
                 const PortfolioOptions& options, solver::Budget& shared) {
  LaneRun run;
  run.outcome.strategy = spec.name();
  const auto t0 = Clock::now();

  switch (spec.kind) {
    case StrategySpec::Kind::kGpa: {
      alloc::GpaOptions o = options.gpa;
      o.greedy.t_max = spec.t_max;
      // The lane sees one merged context: each cache the portfolio-level
      // context sets wins over the one the base GpaOptions carried.
      core::SolverContext lane_ctx;
      if (o.context != nullptr) lane_ctx = *o.context;
      if (options.context != nullptr) {
        if (options.context->relax_cache != nullptr) {
          lane_ctx.relax_cache = options.context->relax_cache;
        }
        if (options.context->model_cache != nullptr) {
          lane_ctx.model_cache = options.context->model_cache;
        }
      }
      o.context = &lane_ctx;
      // Stability rides the same wiring as the caches: the portfolio-
      // level pointer reaches every GP+A lane unless the base GpaOptions
      // already carried its own.
      if (o.stability == nullptr) o.stability = options.stability;
      StatusOr<alloc::GpaResult> r = alloc::GpaSolver(o).solve(problem);
      if (r.is_ok()) {
        run.allocation = std::move(r.value().allocation);
        run.outcome.nodes =
            r.value().discretize_nodes + r.value().placement_nodes;
      } else {
        run.outcome.status = r.status();
      }
      break;
    }
    case StrategySpec::Kind::kExact: {
      solver::ExactOptions o = options.exact;
      o.max_nodes = options.max_nodes;
      o.max_seconds = options.max_seconds;
      o.shared = &shared;
      StatusOr<solver::ExactResult> r =
          solver::ExactSolver(o).solve(problem);
      if (r.is_ok()) {
        run.allocation = std::move(r.value().allocation);
        run.outcome.nodes = r.value().nodes;
        run.outcome.proved_optimal = r.value().proved_optimal;
      } else {
        run.outcome.status = r.status();
      }
      break;
    }
    case StrategySpec::Kind::kNaive: {
      // Runs directly on the shared budget so expire() reaches it. The
      // solver reports its own node delta (exact when lanes are
      // sequential, approximate when another budgeted lane races
      // alongside); on error the delta is re-derived here.
      const std::int64_t nodes_before = shared.nodes_used();
      StatusOr<solver::NaiveResult> r =
          solver::NaiveMinlp(&shared).solve(problem);
      if (r.is_ok()) {
        run.allocation = std::move(r.value().allocation);
        run.outcome.nodes = r.value().nodes;
        run.outcome.proved_optimal = r.value().proved_optimal;
      } else {
        run.outcome.nodes = shared.nodes_used() - nodes_before;
        run.outcome.status = r.status();
      }
      break;
    }
  }

  if (run.allocation) {
    run.outcome.ii = run.allocation->ii();
    run.outcome.phi = run.allocation->phi();
    run.outcome.goal = problem.alpha * run.outcome.ii +
                       problem.beta * run.outcome.phi;
  }
  run.outcome.seconds = seconds_since(t0);

  // A completed search on the true objective makes the remaining races
  // pointless: cancel them, they keep their incumbents.
  if (options.stop_on_proved_optimal && run.outcome.proved_optimal) {
    shared.expire();
  }
  return run;
}

}  // namespace

Portfolio::Portfolio(PortfolioOptions options, int num_threads)
    : options_(std::move(options)) {
  if (num_threads == 1) return;  // sequential lanes
  if (num_threads <= 0) {
    const int lanes = static_cast<int>(options_.lanes().size());
    num_threads = std::min(
        lanes,
        std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
    if (num_threads <= 1) return;
  }
  pool_ = std::make_unique<ThreadPool>(num_threads);
}

Portfolio::Portfolio(PortfolioOptions options, ThreadPool* shared_pool)
    : options_(std::move(options)), shared_pool_(shared_pool) {}

Portfolio::~Portfolio() = default;

SolveResult Portfolio::solve(const core::Problem& problem) const {
  return solve(std::make_shared<const core::Problem>(problem));
}

SolveResult Portfolio::solve(
    std::shared_ptr<const core::Problem> problem) const {
  SolveRequest request;
  request.problem = std::move(problem);
  return solve(request);
}

SolveResult Portfolio::solve(const SolveRequest& request) const {
  const PortfolioOptions& options =
      request.options ? *request.options : options_;
  const core::Problem& problem = *request.problem;
  const auto t0 = Clock::now();

  SolveResult result;
  result.problem = request.problem;

  if (Status valid = problem.validate(); !valid.is_ok()) {
    result.status = std::move(valid);
    return result;
  }

  const std::vector<StrategySpec> lanes = options.lanes();
  if (lanes.empty()) {
    result.status = Status{Code::kInvalid, "no strategies configured"};
    return result;
  }
  // The context's caller-managed budget (when set) replaces the
  // per-solve one: an online caller can expire() every in-flight lane
  // across events, at the cost of node usage accumulating across solves.
  solver::Budget local(options.max_nodes, options.max_seconds);
  solver::Budget& shared =
      options.context != nullptr && options.context->budget != nullptr
          ? *options.context->budget
          : local;

  // Equal-ceiling GP+A lanes are one computation: every kGpa lane copies
  // options.gpa and sets only greedy.t_max, which Algorithm 1 reads only
  // through its escalation ceiling min(R + T, 1). Each distinct lane
  // runs once; a duplicate lane (source[i] != i) takes a copy of its
  // earlier representative's run. At R = 1 every T shares one ceiling.
  std::vector<std::size_t> source(lanes.size());
  std::vector<std::size_t> distinct;
  std::vector<double> ceiling(lanes.size(), 0.0);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    source[i] = i;
    if (lanes[i].kind == StrategySpec::Kind::kGpa) {
      alloc::GreedyOptions greedy = options.gpa.greedy;
      greedy.t_max = lanes[i].t_max;
      ceiling[i] = alloc::escalation_ceiling(problem, greedy);
      for (std::size_t j : distinct) {
        if (lanes[j].kind == StrategySpec::Kind::kGpa &&
            ceiling[j] == ceiling[i]) {
          source[i] = j;
          break;
        }
      }
    }
    if (source[i] == i) distinct.push_back(i);
  }

  std::vector<LaneRun> runs(lanes.size());
  ThreadPool* workers = pool();
  if (workers == nullptr && options.context != nullptr) {
    workers = options.context->pool;  // context as the pool wiring point
  }
  auto run = [&](std::size_t i) {
    runs[i] = run_lane(lanes[i], problem, options, shared);
  };
  if (workers != nullptr && distinct.size() > 1) {
    workers->parallel_for(distinct.size(),
                          [&](std::size_t d) { run(distinct[d]); });
  } else {
    for (std::size_t i : distinct) run(i);
  }
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (source[i] == i) continue;
    runs[i] = runs[source[i]];
    runs[i].outcome.strategy = lanes[i].name();
  }

  // Deterministic aggregation: best goal, ties to the earliest lane.
  std::size_t winner = lanes.size();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    result.lanes.push_back(runs[i].outcome);
    result.nodes += runs[i].outcome.nodes;
    if (runs[i].allocation &&
        (winner == lanes.size() ||
         runs[i].outcome.goal < result.lanes[winner].goal)) {
      winner = i;
    }
  }

  if (winner == lanes.size()) {
    // No lane produced an allocation. Every lane's kInfeasible is a
    // proof — GP+A's too: the pooled caps reject N_k = 1, or the exact
    // N_k = 1 packing does — so the first one is the aggregate verdict.
    Status status{Code::kLimit, "every lane exhausted its budget"};
    for (const LaneRun& r : runs) {
      if (r.outcome.status.code() == Code::kInfeasible) {
        status = r.outcome.status;
        break;
      }
    }
    result.status = std::move(status);
    result.seconds = seconds_since(t0);
    return result;
  }

  result.allocation = rebind(*runs[winner].allocation, *result.problem);
  result.ii = result.lanes[winner].ii;
  result.phi = result.lanes[winner].phi;
  result.goal = result.lanes[winner].goal;
  result.winner = result.lanes[winner].strategy;
  // "Proved" only when the returned incumbent matches (or, via a T > 0
  // cap relaxation, beats) a lane that completed its exact search.
  result.proved_optimal = std::any_of(
      result.lanes.begin(), result.lanes.end(),
      [&](const StrategyOutcome& o) {
        return o.proved_optimal && result.goal <= o.goal + 1e-12;
      });
  result.seconds = seconds_since(t0);
  return result;
}

}  // namespace mfa::runtime
