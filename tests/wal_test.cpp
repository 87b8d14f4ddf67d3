// WAL + crash-recovery coverage: log/snapshot round-trips, torn-tail
// tolerance, corruption detection, and the headline guarantee — a
// server recovered from its WAL (including after a real SIGKILL) is
// byte-identical to one that never crashed.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "scenario/trace.hpp"
#include "service/alloc_server.hpp"
#include "service/wal.hpp"

namespace mfa::service {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("mfa_wal_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

scenario::Trace small_trace(int events, std::uint64_t seed = 20190702) {
  scenario::TraceSpec spec;
  spec.num_events = events;
  spec.num_fpgas = 3;
  spec.max_live_pipelines = 4;
  spec.max_kernels = 3;
  return scenario::generate_trace(spec, seed);
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The deterministic solve outputs of an outcome.
void expect_solve_eq(const EventOutcome& a, const EventOutcome& b) {
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.solve_status.code(), b.solve_status.code());
  EXPECT_EQ(a.active_pipelines, b.active_pipelines);
  EXPECT_DOUBLE_EQ(a.solve.ii, b.solve.ii);
  EXPECT_DOUBLE_EQ(a.solve.phi, b.solve.phi);
  EXPECT_DOUBLE_EQ(a.solve.goal, b.solve.goal);
  EXPECT_EQ(a.solve.totals, b.solve.totals);
}

std::string incumbent_json(const AllocServer& server) {
  const std::optional<runtime::SolveResult> inc = server.incumbent();
  if (!inc.has_value() || !inc->allocation.has_value()) return "";
  return io::to_json(*inc->allocation).dump() + "|" + inc->winner;
}

TEST(Wal, AppendLoadRoundTrip) {
  const TempDir dir("roundtrip");
  const scenario::Trace trace = small_trace(6);
  auto wal = Wal::create(dir.path, trace.platform);
  ASSERT_TRUE(wal.is_ok()) << wal.status().to_string();
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    ASSERT_TRUE(wal.value().append(i, trace.events[i]).is_ok());
  }

  auto recovery = Wal::load(dir.path);
  ASSERT_TRUE(recovery.is_ok()) << recovery.status().to_string();
  EXPECT_EQ(recovery.value().initial_platform.num_fpgas,
            trace.platform.num_fpgas);
  EXPECT_FALSE(recovery.value().snapshot.has_value());
  EXPECT_EQ(recovery.value().next_sequence, trace.events.size());
  ASSERT_EQ(recovery.value().tail.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const WalRecord& record = recovery.value().tail[i];
    EXPECT_EQ(record.sequence, i);
    EXPECT_EQ(record.event.type, trace.events[i].type);
    EXPECT_EQ(io::to_json(record.event).dump(),
              io::to_json(trace.events[i]).dump());
  }
}

TEST(Wal, TornTrailingRecordIsDropped) {
  const TempDir dir("torn");
  const scenario::Trace trace = small_trace(4);
  {
    auto wal = Wal::create(dir.path, trace.platform);
    ASSERT_TRUE(wal.is_ok());
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      ASSERT_TRUE(wal.value().append(i, trace.events[i]).is_ok());
    }
  }
  // Simulate a crash mid-append: chop the last record in half (no
  // trailing newline).
  const std::string log_path = dir.path + "/wal.log";
  std::string bytes = read_all(log_path);
  ASSERT_GT(bytes.size(), 20u);
  bytes.resize(bytes.size() - 17);
  {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto recovery = Wal::load(dir.path);
  ASSERT_TRUE(recovery.is_ok()) << recovery.status().to_string();
  EXPECT_EQ(recovery.value().tail.size(), trace.events.size() - 1);
  EXPECT_EQ(recovery.value().next_sequence, trace.events.size() - 1);
}

TEST(Wal, CorruptMiddleRecordIsRejected) {
  const TempDir dir("corrupt");
  const scenario::Trace trace = small_trace(4);
  {
    auto wal = Wal::create(dir.path, trace.platform);
    ASSERT_TRUE(wal.is_ok());
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      ASSERT_TRUE(wal.value().append(i, trace.events[i]).is_ok());
    }
  }
  const std::string log_path = dir.path + "/wal.log";
  std::string bytes = read_all(log_path);
  const std::size_t second_line = bytes.find('\n', bytes.find('\n') + 1);
  ASSERT_NE(second_line, std::string::npos);
  bytes.insert(second_line + 1, "this is not json\n");
  {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto recovery = Wal::load(dir.path);
  EXPECT_FALSE(recovery.is_ok());
}

TEST(Wal, LoadMissingDirectoryFails) {
  auto recovery = Wal::load("/nonexistent/mfa/wal/dir");
  EXPECT_FALSE(recovery.is_ok());
}

TEST(Wal, SnapshotSplicesTheTail) {
  const TempDir dir("snapshot");
  const scenario::Trace trace = small_trace(10);
  ServerOptions options;
  options.wal_dir = dir.path;
  options.snapshot_every = 4;
  {
    auto server = AllocServer::open(trace.platform, options);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    for (const Event& event : trace.events) {
      server.value()->apply(event);
    }
    EXPECT_GT(server.value()->stats().snapshots, 0u);
    server.value()->stop();
  }
  auto recovery = Wal::load(dir.path);
  ASSERT_TRUE(recovery.is_ok()) << recovery.status().to_string();
  ASSERT_TRUE(recovery.value().snapshot.has_value());
  const WalSnapshot& snapshot = *recovery.value().snapshot;
  EXPECT_EQ(snapshot.sequence % 4, 0u);
  EXPECT_GT(snapshot.sequence, 0u);
  // The tail starts at the snapshot point, not at zero.
  ASSERT_FALSE(recovery.value().tail.empty());
  EXPECT_EQ(recovery.value().tail.front().sequence, snapshot.sequence);
  EXPECT_EQ(recovery.value().next_sequence, trace.events.size());

  // A server recovered through the snapshot splice matches the
  // uninterrupted run's incumbent.
  ServerOptions plain;
  AllocServer uninterrupted(trace.platform, plain);
  for (const Event& event : trace.events) uninterrupted.apply(event);
  uninterrupted.stop();

  ServerOptions recover_options = options;
  auto recovered = AllocServer::recover(recover_options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_EQ(incumbent_json(*recovered.value()),
            incumbent_json(uninterrupted));
  EXPECT_EQ(recovered.value()->active_pipelines(),
            uninterrupted.active_pipelines());
  EXPECT_EQ(recovered.value()->stats().sequence, trace.events.size());
  recovered.value()->stop();
}

TEST(Wal, RecoveredServerMatchesUninterruptedRun) {
  const TempDir dir_full("full");
  const TempDir dir_crash("crash");
  const scenario::Trace trace = small_trace(12);
  const std::size_t crash_at = 7;

  ServerOptions options;  // snapshot_every default: no snapshot in 12
  options.wal_dir = dir_full.path;
  std::vector<EventOutcome> full_log;
  std::string full_incumbent;
  {
    auto server = AllocServer::open(trace.platform, options);
    ASSERT_TRUE(server.is_ok());
    for (const Event& event : trace.events) {
      full_log.push_back(server.value()->apply(event));
    }
    full_incumbent = incumbent_json(*server.value());
    server.value()->stop();
  }

  // "Crash" after crash_at events (clean process, dirty server state is
  // simply abandoned along with the object), then recover and finish.
  options.wal_dir = dir_crash.path;
  {
    auto server = AllocServer::open(trace.platform, options);
    ASSERT_TRUE(server.is_ok());
    for (std::size_t i = 0; i < crash_at; ++i) {
      server.value()->apply(trace.events[i]);
    }
    server.value()->stop();
  }
  auto recovered = AllocServer::recover(options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  std::vector<EventOutcome> tail_log;
  for (std::size_t i = crash_at; i < trace.events.size(); ++i) {
    tail_log.push_back(recovered.value()->apply(trace.events[i]));
  }
  EXPECT_EQ(incumbent_json(*recovered.value()), full_incumbent);
  for (std::size_t i = 0; i < tail_log.size(); ++i) {
    SCOPED_TRACE("post-recovery event " + std::to_string(i));
    expect_solve_eq(tail_log[i], full_log[crash_at + i]);
  }
  recovered.value()->stop();

  // Both runs logged the same history, byte for byte.
  EXPECT_EQ(read_all(dir_full.path + "/wal.log"),
            read_all(dir_crash.path + "/wal.log"));
}

TEST(Wal, StabilityDiffsSurviveRecovery) {
  // The occupancy ledger is rebuilt inside resolve_workload, so a
  // snapshot-spliced recovery under migration budgets must reproduce
  // the uninterrupted run's diffs (and repack decisions) exactly.
  const TempDir dir("stab");
  const scenario::Trace trace = small_trace(14);
  const std::size_t crash_at = 9;

  ServerOptions options;
  options.snapshot_every = 4;  // force the snapshot splice path
  options.max_moves = 2;
  options.max_disturbed = 1;
  std::vector<EventOutcome> full_log;
  std::string full_incumbent;
  {
    AllocServer server(trace.platform, options);
    for (const Event& event : trace.events) {
      full_log.push_back(server.apply(event));
    }
    full_incumbent = incumbent_json(server);
    server.stop();
  }

  options.wal_dir = dir.path;
  {
    auto server = AllocServer::open(trace.platform, options);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    for (std::size_t i = 0; i < crash_at; ++i) {
      server.value()->apply(trace.events[i]);
    }
    server.value()->stop();
  }
  auto recovered = AllocServer::recover(options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  // The rebuilt ledger matches the live one: same placements, same CUs.
  for (std::size_t i = crash_at; i < trace.events.size(); ++i) {
    SCOPED_TRACE("post-recovery event " + std::to_string(i));
    const EventOutcome replayed =
        recovered.value()->apply(trace.events[i]);
    const EventOutcome& expected = full_log[i];
    expect_solve_eq(replayed, expected);
    EXPECT_EQ(replayed.diff.computed, expected.diff.computed);
    EXPECT_EQ(replayed.diff.cus_moved, expected.diff.cus_moved);
    EXPECT_EQ(replayed.diff.pipelines_disturbed,
              expected.diff.pipelines_disturbed);
    EXPECT_DOUBLE_EQ(replayed.diff.goal_regret, expected.diff.goal_regret);
    EXPECT_EQ(replayed.diff.stability_applied,
              expected.diff.stability_applied);
    EXPECT_EQ(replayed.diff.budget_exceeded, expected.diff.budget_exceeded);
  }
  EXPECT_EQ(incumbent_json(*recovered.value()), full_incumbent);
  recovered.value()->stop();
}

TEST(Wal, KillNineRecoveryIsByteIdentical) {
  const TempDir dir_full("k9full");
  const TempDir dir_crash("k9crash");
  const scenario::Trace trace = small_trace(10);
  const std::size_t crash_at = 6;

  ServerOptions options;
  options.wal_dir = dir_full.path;
  std::vector<EventOutcome> full_log;
  std::string full_incumbent;
  {
    auto server = AllocServer::open(trace.platform, options);
    ASSERT_TRUE(server.is_ok());
    for (const Event& event : trace.events) {
      full_log.push_back(server.value()->apply(event));
    }
    full_incumbent = incumbent_json(*server.value());
    server.value()->stop();
  }

  // Real crash: the child applies crash_at events (each acknowledged,
  // so each fsync'd by append-before-apply) and SIGKILLs itself — no
  // destructors, no flush, exactly a power-cut.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ServerOptions child_options;
    child_options.wal_dir = dir_crash.path;
    auto server = AllocServer::open(trace.platform, child_options);
    if (!server.is_ok()) ::_exit(3);
    for (std::size_t i = 0; i < crash_at; ++i) {
      server.value()->apply(trace.events[i]);
    }
    ::kill(::getpid(), SIGKILL);
    ::_exit(4);  // unreachable
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  ServerOptions recover_options;
  recover_options.wal_dir = dir_crash.path;
  auto recovered = AllocServer::recover(recover_options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_EQ(recovered.value()->stats().sequence, crash_at);
  std::vector<EventOutcome> tail_log;
  for (std::size_t i = crash_at; i < trace.events.size(); ++i) {
    tail_log.push_back(recovered.value()->apply(trace.events[i]));
  }
  EXPECT_EQ(incumbent_json(*recovered.value()), full_incumbent);
  for (std::size_t i = 0; i < tail_log.size(); ++i) {
    SCOPED_TRACE("post-recovery event " + std::to_string(i));
    expect_solve_eq(tail_log[i], full_log[crash_at + i]);
  }
  recovered.value()->stop();
  EXPECT_EQ(read_all(dir_full.path + "/wal.log"),
            read_all(dir_crash.path + "/wal.log"));
}

TEST(Wal, RecoverWithoutWalDirFails) {
  ServerOptions options;
  auto recovered = AllocServer::recover(options);
  EXPECT_FALSE(recovered.is_ok());
}

}  // namespace
}  // namespace mfa::service
