#include "cli/commands.hpp"

#include <algorithm>
#include <cstddef>

namespace mfa::cli {
namespace {

struct CommandSpec {
  const char* name;
  const char* summary;
  void (*declare)(ArgParser&);
};

void declare_solve(ArgParser& p) {
  p.positional("problem.json", "problem file (see src/io/serialize.hpp)")
      .flag("exact", "prove the optimum with the exact branch-and-bound")
      .flag("json", "print the allocation as JSON instead of text");
}

void declare_portfolio(ArgParser& p) {
  p.positional("problem.json", "problem file (see src/io/serialize.hpp)")
      .option("seconds", "S", "shared wall-clock deadline for all lanes")
      .flag("naive", "also race the naive branch-and-bound lane")
      .option("jobs", "N", "worker threads (0 = hardware size)");
}

void declare_sweep(ArgParser& p) {
  p.positional("problem.json", "problem file (see src/io/serialize.hpp)")
      .positional("lo%", "resource-fraction grid start, percent")
      .positional("hi%", "grid end, percent")
      .positional("step%", "grid step, percent")
      .option("method", "gpa|minlp|minlpg", "solver per grid point")
      .option("jobs", "N", "grid points solved concurrently (default 1)");
}

void declare_simulate(ArgParser& p) {
  p.positional("problem.json", "problem file (see src/io/serialize.hpp)")
      .option("images", "N", "images to push through the pipeline");
}

void declare_gen(ArgParser& p) {
  p.positional("out.json|-", "output path, or - for stdout")
      .option("seed", "S", "RNG seed (same seed, same file, byte for byte)")
      .option("kernels", "N", "exact pipeline depth")
      .option("fpgas", "F", "exact pool size")
      .option("classes", "C", "max device classes (heterogeneous pools)")
      .option("tightness", "X", "resource pressure in (0, 1]")
      .option("skew", "X", "device-class imbalance in (0, 1]");
}

void declare_gentrace(ArgParser& p) {
  p.positional("out.json|-", "output path, or - for stdout")
      .option("seed", "S", "RNG seed (same seed, same file, byte for byte)")
      .option("events", "N", "trace length")
      .option("fpgas", "F", "pool size")
      .option("rate", "R", "Poisson arrival rate, pipelines/s")
      .option("lifetime", "S", "mean pipeline lifetime, seconds");
}

void declare_serve(ArgParser& p) {
  p.option("trace", "trace.json", "arrival trace to replay",
           /*required=*/true)
      .option("jobs", "N", "solver threads (1 = deterministic lanes)")
      .option("log", "out.json", "also write the deterministic event log")
      .flag("exact", "add the budgeted exact lane per event")
      .option("max-moves", "K",
              "stability budget: max CUs torn from surviving pipelines "
              "per event (default unlimited)")
      .option("max-disturbed", "K",
              "stability budget: max non-target pipelines disturbed per "
              "event (default unlimited)");
}

void declare_post(ArgParser& p) {
  p.option("trace", "trace.json", "arrival trace whose events to POST",
           /*required=*/true)
      .option("port", "P", "mfallocd port", /*required=*/true)
      .option("host", "A", "mfallocd IPv4 address (default 127.0.0.1)")
      .option("from", "N", "skip the first N events")
      .option("count", "N", "post at most N events")
      .option("batch", "N", "events per POST /v1/events request (default 16)")
      .flag("resume",
            "ask GET /v1/stats how many events the daemon already "
            "processed and skip those (overrides --from)");
}

constexpr CommandSpec kCommands[] = {
    {"solve", "Solve one problem with GP+A, or prove the optimum.",
     declare_solve},
    {"portfolio",
     "Race every solving strategy under one deadline; report the winner.",
     declare_portfolio},
    {"sweep", "Sweep the resource-fraction grid and tabulate II/phi/goal.",
     declare_sweep},
    {"simulate", "Solve, then cycle-simulate the resulting allocation.",
     declare_simulate},
    {"gen", "Write a seeded random scenario as a problem JSON.", declare_gen},
    {"gentrace", "Write a seeded arrival trace (Poisson arrivals, churn).",
     declare_gentrace},
    {"serve", "Replay an arrival trace through a long-lived AllocServer.",
     declare_serve},
    {"post", "POST a trace's events to a running mfallocd over HTTP.",
     declare_post},
};

}  // namespace

const std::vector<std::string>& command_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const CommandSpec& c : kCommands) v.emplace_back(c.name);
    return v;
  }();
  return names;
}

StatusOr<ArgParser> command_parser(const std::string& program,
                                   const std::string& command) {
  for (const CommandSpec& c : kCommands) {
    if (command == c.name) {
      ArgParser parser(program, c.name, c.summary);
      c.declare(parser);
      return parser;
    }
  }
  return Status{Code::kInvalid, "unknown command '" + command + "' (run '" +
                                    program + " --help' for the list)"};
}

ArgParser mfallocd_parser(const std::string& program) {
  ArgParser p(program, "",
              "Allocation daemon: serves the versioned wire API (POST "
              "/v1/events, GET /v1/allocation|/v1/occupancy|/v1/stats|"
              "/v1/healthz) over HTTP, sharding pipelines across "
              "AllocServers by consistent hashing, with optional "
              "write-ahead-log durability.");
  p.option("platform", "file.json",
           "initial pool: a platform JSON, or any problem/trace file with "
           "a \"platform\" field (required unless --recover)")
      .option("port", "P", "listen port (default 8080; 0 = ephemeral)")
      .option("bind", "A", "bind address (default 127.0.0.1)")
      .option("data", "dir",
              "WAL root; shard i logs to <dir>/shard-<i> (empty = no "
              "durability)")
      .option("shards", "N",
              "AllocServer shards (default 2; part of the WAL layout)")
      .option("snapshot-every", "N",
              "snapshot each shard's workload every N events (default 256)")
      .option("jobs", "N", "solver threads per shard (default 1)")
      .option("max-moves", "K",
              "stability budget: max CUs torn from surviving pipelines "
              "per event (default unlimited)")
      .option("max-disturbed", "K",
              "stability budget: max non-target pipelines disturbed per "
              "event (default unlimited)")
      .flag("recover",
            "rebuild every shard from --data WALs instead of starting "
            "fresh (ignores --platform)")
      .flag("no-fsync", "skip fsync on WAL appends (benchmarking only)");
  return p;
}

std::string global_usage(const std::string& program) {
  std::string out = "usage: " + program + " <command> [args]\n\ncommands:\n";
  std::size_t width = 0;
  for (const CommandSpec& c : kCommands) {
    width = std::max(width, std::string(c.name).size());
  }
  for (const CommandSpec& c : kCommands) {
    const std::string name = c.name;
    out += "  " + name + std::string(width - name.size() + 2, ' ') +
           c.summary + "\n";
  }
  out += "\nRun '" + program + " <command> --help' for flags.\n";
  return out;
}

}  // namespace mfa::cli
