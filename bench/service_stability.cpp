// Serving-path churn benchmark for migration-aware stability: what do
// move budgets buy (fewer CUs torn off running FPGAs, fewer tenants
// disturbed) and what do they cost (goal regret, repack latency)?
//
// Replays one seeded arrival trace (scenario/trace.hpp) through a
// ladder of AllocServer configurations that differ only in the
// stability knobs (ServerOptions::max_moves / max_disturbed /
// move_cost). Per mode the replay accumulates the AllocationDiff
// section of every event outcome — CUs moved, pipelines disturbed,
// goal regret, stability repacks, budget-exceeded events — which is
// exactly the migration frontier the PR promises: tightening the
// budget trades solution quality (regret) for placement stability.
//
// `--check` exits non-zero when any PR-8 gate fails:
//   * budget soundness — with budgets (km, kd) every computed diff that
//     is not flagged budget_exceeded satisfies cus_moved <= km and
//     pipelines_disturbed <= kd (the differential-fuzz oracle checks
//     the same property at the packing-search level),
//   * inert transparency — the stability-off replay's deterministic
//     event log is byte-identical to a replay with astronomically
//     generous budgets (the constrained machinery must be observably
//     absent until a budget can actually bind), and
//   * determinism — two stability-off replays and two constrained
//     replays each produce byte-identical logs.
// `--smoke` shrinks the trace for CI wiring checks.
//
// With MFA_BENCH_OUT set to a directory, the frontier is written there
// as BENCH_service_stability.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "scenario/trace.hpp"
#include "service/alloc_server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// One point on the stability ladder. Budgets follow ServerOptions
/// semantics: -1 = unlimited.
struct ModeSpec {
  const char* name;
  int max_moves;
  int max_disturbed;
  double move_cost;
};

struct ReplayStats {
  std::int64_t cus_moved = 0;
  std::int64_t pipelines_disturbed = 0;
  double goal_regret = 0.0;          ///< Σ per-event regret
  std::int64_t stability_repacks = 0;  ///< events the ladder repacked
  std::int64_t budget_exceeded = 0;    ///< events accepted over budget
  /// In-budget events whose diff still violated the budgets — the
  /// --check soundness gate requires zero.
  std::int64_t violations = 0;
  std::int64_t nodes = 0;
  double seconds = 0.0;
  double mean_event_ms = 0.0;
  double p95_event_ms = 0.0;
  /// Concatenated deterministic outcome JSON, one line per event — the
  /// transparency and determinism gates byte-compare these.
  std::string log_digest;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

ReplayStats replay(const mfa::scenario::Trace& trace, const ModeSpec& mode) {
  mfa::service::ServerOptions options;
  options.max_moves = mode.max_moves;
  options.max_disturbed = mode.max_disturbed;
  options.move_cost = mode.move_cost;

  ReplayStats stats;
  const auto t0 = Clock::now();
  auto opened = mfa::service::AllocServer::open(trace.platform, options);
  if (!opened.is_ok()) {
    std::fprintf(stderr, "fatal: %s\n",
                 opened.status().to_string().c_str());
    std::exit(1);
  }
  mfa::service::AllocServer& server = *opened.value();
  std::vector<double> event_ms;
  event_ms.reserve(trace.events.size());
  for (const mfa::service::Event& event : trace.events) {
    const mfa::service::EventOutcome outcome = server.apply(event);
    const mfa::service::AllocationDiff& diff = outcome.diff;
    if (diff.computed) {
      stats.cus_moved += diff.cus_moved;
      stats.pipelines_disturbed += diff.pipelines_disturbed;
      stats.goal_regret += diff.goal_regret;
      if (diff.stability_applied) ++stats.stability_repacks;
      if (diff.budget_exceeded) ++stats.budget_exceeded;
      if (!diff.budget_exceeded) {
        const bool moves_ok =
            mode.max_moves < 0 || diff.cus_moved <= mode.max_moves;
        const bool disturbed_ok = mode.max_disturbed < 0 ||
                                  diff.pipelines_disturbed <=
                                      mode.max_disturbed;
        if (!moves_ok || !disturbed_ok) ++stats.violations;
      }
    }
    stats.nodes += outcome.solve.nodes;
    event_ms.push_back(outcome.seconds * 1e3);
    stats.log_digest += mfa::io::to_json(outcome).dump();
    stats.log_digest += '\n';
  }
  server.stop();
  stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  double total_ms = 0.0;
  for (double ms : event_ms) total_ms += ms;
  stats.mean_event_ms =
      event_ms.empty() ? 0.0 : total_ms / static_cast<double>(event_ms.size());
  stats.p95_event_ms = percentile(event_ms, 0.95);
  return stats;
}

void emit_json(int events, const std::vector<ModeSpec>& modes,
               const std::vector<ReplayStats>& stats) {
  const char* dir = std::getenv("MFA_BENCH_OUT");
  if (dir == nullptr || *dir == '\0') return;
  mfa::io::Json doc = mfa::io::Json::object();
  doc.set("bench", mfa::io::Json::string("service_stability"));
  doc.set("events", mfa::io::Json::number(events));
  mfa::io::Json frontier = mfa::io::Json::array();
  for (std::size_t i = 0; i < modes.size(); ++i) {
    mfa::io::Json row = mfa::io::Json::object();
    row.set("mode", mfa::io::Json::string(modes[i].name));
    row.set("max_moves", mfa::io::Json::number(modes[i].max_moves));
    row.set("max_disturbed", mfa::io::Json::number(modes[i].max_disturbed));
    row.set("move_cost", mfa::io::Json::number(modes[i].move_cost));
    row.set("cus_moved", mfa::io::Json::number(
                             static_cast<double>(stats[i].cus_moved)));
    row.set("pipelines_disturbed",
            mfa::io::Json::number(
                static_cast<double>(stats[i].pipelines_disturbed)));
    row.set("goal_regret", mfa::io::Json::number(stats[i].goal_regret));
    row.set("stability_repacks",
            mfa::io::Json::number(
                static_cast<double>(stats[i].stability_repacks)));
    row.set("budget_exceeded",
            mfa::io::Json::number(
                static_cast<double>(stats[i].budget_exceeded)));
    row.set("nodes",
            mfa::io::Json::number(static_cast<double>(stats[i].nodes)));
    row.set("mean_event_ms", mfa::io::Json::number(stats[i].mean_event_ms));
    row.set("p95_event_ms", mfa::io::Json::number(stats[i].p95_event_ms));
    frontier.push_back(std::move(row));
  }
  doc.set("frontier", std::move(frontier));
  const std::string path =
      std::string(dir) + "/BENCH_service_stability.json";
  const mfa::Status st = mfa::io::write_file(path, doc.dump(2) + "\n");
  if (st.is_ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  int events = 240;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      events = 60;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = std::atoi(argv[++i]);
      if (events <= 0) events = 1;
    }
  }

  mfa::scenario::TraceSpec spec;
  spec.num_events = events;
  const mfa::scenario::Trace trace =
      mfa::scenario::generate_trace(spec, /*seed=*/20190702);
  std::printf("service_stability: %d events, %d-FPGA pool (seed fixed)\n\n",
              events, trace.platform.num_fpgas);

  // The frontier, loose to tight. "generous" has astronomically large
  // budgets that can never bind — the transparency gate requires its
  // log to match "off" byte-for-byte.
  const std::vector<ModeSpec> modes = {
      {"off", -1, -1, 0.0},
      {"generous", 1 << 29, 1 << 29, 0.0},
      {"soft", -1, -1, 0.05},
      {"moves8", 8, -1, 0.0},
      {"moves2", 2, 1, 0.0},
      {"frozen", 0, 0, 0.0},
  };
  std::vector<ReplayStats> stats;
  stats.reserve(modes.size());
  for (const ModeSpec& mode : modes) {
    stats.push_back(replay(trace, mode));
  }

  std::printf("%-10s %10s %10s %12s %10s %10s %10s %12s\n", "mode",
              "cus_moved", "disturbed", "goal_regret", "repacks",
              "exceeded", "nodes", "mean_ms");
  for (std::size_t i = 0; i < modes.size(); ++i) {
    std::printf("%-10s %10lld %10lld %12.4f %10lld %10lld %10lld %12.3f\n",
                modes[i].name, static_cast<long long>(stats[i].cus_moved),
                static_cast<long long>(stats[i].pipelines_disturbed),
                stats[i].goal_regret,
                static_cast<long long>(stats[i].stability_repacks),
                static_cast<long long>(stats[i].budget_exceeded),
                static_cast<long long>(stats[i].nodes),
                stats[i].mean_event_ms);
  }
  const ReplayStats& off = stats[0];
  const ReplayStats& soft = stats[2];
  const ReplayStats& frozen = stats.back();
  std::printf("\nheadline: a soft move cost cuts torn CUs from %lld to "
              "%lld at %.4f total goal regret (%lld repacks); frozen "
              "budgets leave %lld/%d events over budget\n",
              static_cast<long long>(off.cus_moved),
              static_cast<long long>(soft.cus_moved), soft.goal_regret,
              static_cast<long long>(soft.stability_repacks),
              static_cast<long long>(frozen.budget_exceeded), events);
  emit_json(events, modes, stats);

  if (check) {
    int rc = 0;
    for (std::size_t i = 0; i < modes.size(); ++i) {
      if (stats[i].violations != 0) {
        std::printf("FAIL: mode %s had %lld in-budget events whose diff "
                    "violated the budgets (km=%d kd=%d)\n",
                    modes[i].name,
                    static_cast<long long>(stats[i].violations),
                    modes[i].max_moves, modes[i].max_disturbed);
        rc = 1;
      }
    }
    if (stats[1].log_digest != off.log_digest) {
      std::printf("FAIL: generous-budget replay diverged from stability-off "
                  "(inert budgets must be byte-transparent)\n");
      rc = 1;
    }
    // Determinism: replaying a mode must reproduce its log byte-for-byte.
    const ReplayStats off2 = replay(trace, modes[0]);
    if (off2.log_digest != off.log_digest) {
      std::printf("FAIL: stability-off replay is not deterministic\n");
      rc = 1;
    }
    const std::size_t tight = modes.size() - 2;  // "moves2"
    const ReplayStats tight2 = replay(trace, modes[tight]);
    if (tight2.log_digest != stats[tight].log_digest) {
      std::printf("FAIL: constrained replay (%s) is not deterministic\n",
                  modes[tight].name);
      rc = 1;
    }
    if (rc == 0) std::printf("\nall stability gates passed\n");
    return rc;
  }
  return 0;
}
