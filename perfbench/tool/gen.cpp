#include <cstdio>
#include <fstream>
#include <string>

#include "io/serialize.hpp"
#include "scenario/trace.hpp"
#include "tool.hpp"

namespace perfbench {
namespace {

/// Generator settings of a named workload (README.md says why each was
/// chosen); false for an unknown name.
bool workload_spec(const std::string& name, mfa::scenario::TraceSpec& spec) {
  spec = mfa::scenario::TraceSpec{};
  // churn_open and bulk_replay run the default trace; they differ in how
  // the events reach the daemon (open loop, one per POST vs. closed loop,
  // 16 per POST), and run.py gives them different seeds.
  if (name == "churn_open" || name == "bulk_replay") return true;
  if (name == "dense_pool") {
    // Solver-bound: more and larger live pipelines on a bigger pool, so
    // relaxation, B&B and greedy placement dominate each event.
    spec.max_live_pipelines = 8;
    spec.min_kernels = 3;
    spec.max_kernels = 6;
    spec.max_cu_per_kernel = 6;
    spec.num_fpgas = 12;
    spec.reprioritize_fraction = 0.30;
    spec.mean_lifetime_s = 0.4;
    return true;
  }
  return false;
}

}  // namespace

int run_gen(const Args& args) {
  const std::string workload = args.need("workload");
  mfa::scenario::TraceSpec spec;
  if (!workload_spec(workload, spec)) {
    std::fprintf(stderr, "gen: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  spec.num_events = static_cast<int>(args.num("events", 1000));
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const std::string out = args.need("out");

  const mfa::scenario::Trace trace =
      mfa::scenario::generate_trace(spec, seed);
  if (mfa::Status s = mfa::io::write_file(
          out + "/platform.json",
          mfa::io::to_json(trace.platform).dump() + "\n");
      !s.is_ok()) {
    std::fprintf(stderr, "gen: %s\n", s.to_string().c_str());
    return 1;
  }
  // events.jsonl: one event per line, exactly what is POSTed.
  // index.tsv: type, id and trace time per event, for the client's checks.
  std::ofstream events(out + "/events.jsonl");
  std::ofstream index(out + "/index.tsv");
  index.precision(17);
  for (const mfa::service::Event& event : trace.events) {
    events << mfa::io::to_json(event).dump() << '\n';
    const bool add = event.type == mfa::service::Event::Type::kAddPipeline;
    const std::string& id = add ? event.pipeline.id : event.id;
    index << mfa::service::to_string(event.type) << '\t' << id << '\t'
          << event.time_ms << '\n';
  }
  events.close();
  index.close();
  if (!events || !index) {
    std::fprintf(stderr, "gen: cannot write to %s\n", out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
