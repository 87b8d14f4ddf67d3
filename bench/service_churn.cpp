// Serving-path benchmark on the configuration mfallocd ships: default
// ServerOptions (bisection root, candidate-threshold discretization,
// heuristic lanes only), without and with the write-ahead log.
//
// Replays one seeded arrival trace (scenario/trace.hpp) through two
// AllocServers that differ only in ServerOptions::wal_dir. The second
// replay appends every event to a WAL (fsync on) before applying it, so
// the durability cost shows per event rather than hidden in the daemon.
//
// Reported per mode: wall-clock replay time, mean/p50/p95/p99/max
// per-event latency, solver nodes (discretization probes), and the heap
// allocations inside warm composite deltas.
//
// `--check` exits non-zero when a gate fails:
//   * the WAL replay's deterministic event log must be byte-identical
//     to the non-WAL replay — durability is observability-free (the
//     property crash recovery rides on), and
//   * zero heap allocations inside warm delta application — the runtime
//     half of the zero-allocation warm path (support/alloc_count.hpp).
//     Enforced when the counting interposer is linked
//     (-DMFA_COUNT_ALLOC=ON); skipped with a notice otherwise.
// `--smoke` shrinks the trace for CI wiring checks.
//
// With MFA_BENCH_OUT set to a directory, the measurements are written
// there as BENCH_service_churn.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "scenario/trace.hpp"
#include "service/alloc_server.hpp"
#include "support/alloc_count.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct ReplayStats {
  std::int64_t nodes = 0;  ///< solver nodes across all events
  double seconds = 0.0;    ///< wall-clock replay time
  double mean_event_ms = 0.0;
  double p50_event_ms = 0.0;
  double p95_event_ms = 0.0;
  double p99_event_ms = 0.0;
  double max_event_ms = 0.0;
  /// Heap allocations inside warm delta application, summed over the
  /// replay's reprioritize/resize events (measured only when the
  /// counting interposer is linked; --check gates it at zero then).
  std::uint64_t warm_allocs = 0;
  /// Concatenated deterministic outcome JSON, one line per event — the
  /// WAL determinism gate byte-compares these across replays.
  std::string log_digest;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// One full trace replay. A non-empty `wal_dir` runs the durable path
/// (AllocServer::open, fsync'd append-before-apply) so the WAL column
/// prices exactly what the daemon pays.
ReplayStats replay(const mfa::scenario::Trace& trace,
                   const std::string& wal_dir = "") {
  mfa::service::ServerOptions options;
  options.wal_dir = wal_dir;

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
    stats.nodes += outcome.solve.nodes;
    stats.warm_allocs += outcome.warm_allocs;
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
  stats.p50_event_ms = percentile(event_ms, 0.50);
  stats.p95_event_ms = percentile(event_ms, 0.95);
  stats.p99_event_ms = percentile(event_ms, 0.99);
  stats.max_event_ms =
      event_ms.empty() ? 0.0
                       : *std::max_element(event_ms.begin(), event_ms.end());
  return stats;
}

void emit_json(int events, const ReplayStats& served,
               const ReplayStats& wal) {
  const char* dir = std::getenv("MFA_BENCH_OUT");
  if (dir == nullptr || *dir == '\0') return;
  using mfa::io::Json;
  Json doc = Json::object();
  doc.set("bench", Json::string("service_churn"));
  doc.set("events", Json::number(events));
  doc.set("seconds", Json::number(served.seconds));
  doc.set("mean_event_ms", Json::number(served.mean_event_ms));
  doc.set("p50_event_ms", Json::number(served.p50_event_ms));
  doc.set("p95_event_ms", Json::number(served.p95_event_ms));
  doc.set("p99_event_ms", Json::number(served.p99_event_ms));
  doc.set("max_event_ms", Json::number(served.max_event_ms));
  doc.set("nodes", Json::number(static_cast<double>(served.nodes)));
  // Durability pricing: same configuration, WAL on (fsync).
  doc.set("wal_seconds", Json::number(wal.seconds));
  doc.set("wal_mean_event_ms", Json::number(wal.mean_event_ms));
  doc.set("wal_p95_event_ms", Json::number(wal.p95_event_ms));
  doc.set("wal_overhead_ratio",
          Json::number(served.mean_event_ms > 0.0
                           ? wal.mean_event_ms / served.mean_event_ms
                           : 0.0));
  doc.set("wal_log_identical",
          Json::boolean(wal.log_digest == served.log_digest));
  doc.set("alloc_counting_linked",
          Json::boolean(mfa::alloc_counting_linked()));
  doc.set("warm_allocs",
          mfa::io::alloc_count_to_json(served.warm_allocs + wal.warm_allocs));
  const std::string path = std::string(dir) + "/BENCH_service_churn.json";
  const mfa::Status st = mfa::io::write_file(path, doc.dump(2) + "\n");
  if (st.is_ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
  }
}

void print_mode_table(const ReplayStats& served, const ReplayStats& wal) {
  const auto row_f = [](const char* name, double a, double b) {
    std::printf("%-28s %14.3f %14.3f\n", name, a, b);
  };
  std::printf("%-28s %14s %14s\n", "metric", "served", "served+wal");
  std::printf("%-28s %14lld %14lld\n", "solver nodes",
              static_cast<long long>(served.nodes),
              static_cast<long long>(wal.nodes));
  row_f("replay seconds", served.seconds, wal.seconds);
  row_f("mean event latency (ms)", served.mean_event_ms, wal.mean_event_ms);
  row_f("p50 event latency (ms)", served.p50_event_ms, wal.p50_event_ms);
  row_f("p95 event latency (ms)", served.p95_event_ms, wal.p95_event_ms);
  row_f("p99 event latency (ms)", served.p99_event_ms, wal.p99_event_ms);
  row_f("max event latency (ms)", served.max_event_ms, wal.max_event_ms);
  if (mfa::alloc_counting_linked()) {
    std::printf("%-28s %14llu %14llu\n", "warm-path allocations",
                static_cast<unsigned long long>(served.warm_allocs),
                static_cast<unsigned long long>(wal.warm_allocs));
  } else {
    // Without the interposer nothing counts allocations; 0 would read
    // as a measurement.
    std::printf("%-28s %14s %14s\n", "warm-path allocations", "n/a", "n/a");
  }
}

}  // namespace

int main(int argc, char** argv) {
  int events = 400;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      events = 80;
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
  std::printf("service_churn: %d events, %d-FPGA pool (seed fixed)\n\n",
              events, trace.platform.num_fpgas);

  const ReplayStats served = replay(trace);

  // Durable replay: same configuration plus a fsync'd WAL in a scratch
  // directory, removed afterwards.
  char wal_template[] = "/tmp/mfa_churn_wal_XXXXXX";
  const char* wal_dir = ::mkdtemp(wal_template);
  if (wal_dir == nullptr) {
    std::fprintf(stderr, "fatal: mkdtemp failed\n");
    return 1;
  }
  const ReplayStats wal = replay(trace, wal_dir);
  {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
  }

  print_mode_table(served, wal);
  const bool wal_identical = wal.log_digest == served.log_digest;
  std::printf("\nheadline: %.3f ms mean, %.3f ms p99 per event; WAL replay "
              "%.2fx the mean, event log byte-identical: %s\n",
              served.mean_event_ms, served.p99_event_ms,
              served.mean_event_ms > 0.0
                  ? wal.mean_event_ms / served.mean_event_ms
                  : 0.0,
              wal_identical ? "yes" : "NO");
  emit_json(events, served, wal);
  if (!check) return 0;
  int rc = 0;
  if (!wal_identical) {
    std::printf("FAIL: WAL-enabled replay produced a different event log "
                "(durability must be byte-transparent)\n");
    rc = 1;
  }
  // Zero-allocation warm path: with the counting interposer linked
  // (-DMFA_COUNT_ALLOC=ON), no reprioritize/resize delta may allocate.
  // The static half is mfa_lint's suppression-free warm-path-alloc rule;
  // this is the runtime witness.
  if (mfa::alloc_counting_linked()) {
    const std::uint64_t total = served.warm_allocs + wal.warm_allocs;
    if (total != 0) {
      std::printf("FAIL: warm deltas performed %llu heap allocations "
                  "(expected 0)\n",
                  static_cast<unsigned long long>(total));
      rc = 1;
    }
  } else {
    std::printf("note: zero-allocation gate skipped — counting interposer "
                "not linked (build with -DMFA_COUNT_ALLOC=ON to enable "
                "it)\n");
  }
  return rc;
}
