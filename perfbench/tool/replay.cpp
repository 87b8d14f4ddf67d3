// replay: the traced run. The workload's events go through the same
// public calls mfallocd composes, in the same order, in-process, with a
// span around each call (name, start, end, parent; kept in memory and
// written out at the end). Per request:
//
//   request ─ net.parse        RequestParser::feed on the request bytes
//           ─ io.decode        Json::parse + event_from_json
//           ─ service.event    per event, in order
//               ─ service.route        ShardRouter::shard_of (resizes
//                                      broadcast to every shard)
//               ─ service.process      per shard, as AllocServer::process
//                   ─ service.wal.append        benchmark-owned Wal, fsync
//                   ─ service.composite.delta.<class>
//                   ─ service.composite.snapshot
//                   ─ runtime.solve     the GP+A lanes, winner by
//                       ─ runtime.lane    (goal, lane index)
//                           ─ core.relax / solver.discretize /
//                             alloc.greedy  (GpaResult's own timings)
//                   ─ service.occupancy.update  diff_against + update
//                   ─ service.wal.snapshot
//           ─ io.encode        to_json(EventOutcome) rows + dump
//           ─ net.format       format_response
//   read    ─ io.read_encode   to_json(OccupancyTracker) per shard + dump
//           ─ net.format
//
// Every event's served totals, goal and placed flag are checked against
// the daemon's outcome for the same event (--daemon), so the breakdown
// is known to describe the served path. A second pass submits the same
// requests to an in-process ShardRouter and records, per event, the
// time from submit to a ready future minus the event's own processing
// time: the wait in the shard queue.
//
// Outputs: --spans (TSV: request, id, parent, name, start_ns, end_ns)
// and --counters (JSON).
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/gpa.hpp"
#include "io/serialize.hpp"
#include "net/http.hpp"
#include "runtime/solve.hpp"
#include "service/composite.hpp"
#include "service/occupancy.hpp"
#include "service/shard_router.hpp"
#include "service/wal.hpp"
#include "tool.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mfa::io::Json;
using mfa::service::Event;

struct Span {
  std::size_t request = 0;
  int parent = -1;
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point t0) : t0_(t0) { spans_.reserve(1 << 16); }

  void set_request(std::size_t request) { request_ = request; }

  int begin(const char* name, int parent) {
    spans_.push_back(Span{request_, parent, name, now(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }
  int add(const char* name, int parent, std::int64_t start,
          std::int64_t end) {
    spans_.push_back(Span{request_, parent, name, start, end});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Valid until the next begin() or add().
  [[nodiscard]] const Span& at(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << s.request << '\t' << i << '\t' << s.parent << '\t' << s.name
          << '\t' << s.start << '\t' << s.end << '\n';
    }
    out.close();
    return static_cast<bool>(out);
  }

  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }

 private:
  Clock::time_point t0_;
  std::size_t request_ = 0;
  std::vector<Span> spans_;
};

/// One shard's dispatcher state, mirroring AllocServer's members.
struct Shard {
  Shard(const mfa::core::Platform& platform,
        const mfa::service::ServerOptions& options,
        mfa::core::CompiledModelCache* models)
      : relax_cache(mfa::core::RelaxCacheConfig{options.cache_shards,
                                                options.cache_entries}),
        composite(platform,
                  mfa::service::CompositeConfig{
                      options.resource_fraction, options.bw_fraction,
                      options.alpha, options.beta}) {
    ctx.relax_cache = &relax_cache;
    ctx.model_cache = models;
  }

  mfa::core::RelaxationCache relax_cache;
  mfa::alloc::GreedyCache greedy_cache;
  mfa::core::SolverContext ctx;
  mfa::service::CompositeBuilder composite;
  std::vector<mfa::service::PipelineSpec> pipelines;
  std::shared_ptr<const mfa::core::Problem> incumbent_problem;
  std::optional<mfa::core::Allocation> incumbent;
  double incumbent_goal = 0.0;
  mfa::service::OccupancyTracker occupancy;
  std::unordered_map<std::string, std::vector<double>> last_totals;
  double last_ii = 0.0;
  std::optional<mfa::service::Wal> wal;
  std::uint64_t sequence = 0;
};

/// What the replay served for one event on one shard.
struct Served {
  bool ok = true;      // event applied
  bool placed = true;  // re-solve produced an allocation (or none needed)
  double goal = 0.0;
  std::vector<int> totals;
};

struct Counters {
  std::int64_t bb_nodes = 0;
  std::int64_t lanes = 0;
  std::int64_t lanes_placed = 0;
  std::int64_t wal_appends = 0;
  std::int64_t snapshots = 0;
  std::int64_t request_bytes = 0;
  std::int64_t response_bytes = 0;
  std::int64_t post_requests = 0;
  std::int64_t read_requests = 0;
  std::int64_t events = 0;
  std::int64_t mismatches = 0;
  std::vector<std::int64_t> routed;  // per shard, broadcasts excluded
  double span_event_seconds = 0.0;   // Σ per-event max(service.process)
  double daemon_event_seconds = 0.0;  // Σ daemon latency_ms / 1e3
  std::vector<double> queue_wait_us;
};

/// AllocServer::make_warm: the previous solve's per-pipeline N̂ carried
/// into the new composite, scaled back inside its pooled constraints.
std::optional<mfa::core::RelaxedSolution> make_warm(
    const Shard& shard, const mfa::core::Problem& problem) {
  if (shard.last_ii <= 0.0) return std::nullopt;
  mfa::core::RelaxedSolution warm;
  warm.ii = shard.last_ii;
  for (const mfa::service::PipelineSpec& pipe : shard.pipelines) {
    const auto it = shard.last_totals.find(pipe.id);
    for (std::size_t k = 0; k < pipe.app.kernels.size(); ++k) {
      if (it != shard.last_totals.end() && k < it->second.size()) {
        warm.n_hat.push_back(it->second[k]);
      } else {
        const double wcet = pipe.app.kernels[k].wcet_ms * pipe.weight;
        warm.n_hat.push_back(std::max(1.0, wcet / shard.last_ii));
      }
    }
  }
  const mfa::core::ResourceVec pooled = problem.pooled_cap();
  double scale = 1.0;
  for (std::size_t axis = 0; axis < mfa::core::kNumResources; ++axis) {
    if (pooled.axis(axis) <= 0.0) continue;
    double used = 0.0;
    for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
      used += warm.n_hat[k] * problem.app.kernels[k].res.axis(axis);
    }
    if (used > 0.0) scale = std::min(scale, 0.95 * pooled.axis(axis) / used);
  }
  double bw_used = 0.0;
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    bw_used += warm.n_hat[k] * problem.app.kernels[k].bw;
  }
  if (bw_used > 0.0 && problem.pooled_bw_cap() > 0.0) {
    scale = std::min(scale, 0.95 * problem.pooled_bw_cap() / bw_used);
  }
  if (scale < 1.0) {
    warm.ii /= scale;
    for (double& n : warm.n_hat) n *= scale;
  }
  return warm;
}

class Replayer {
 public:
  Replayer(const mfa::core::Platform& platform, std::size_t num_shards,
           const std::string& wal_root, Tracer& tracer, Counters& counters)
      : tracer_(tracer), counters_(counters) {
    lanes_ = options_.server.portfolio.lanes();
    for (std::size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(
          std::make_unique<Shard>(platform, options_.server, &models_));
      if (!wal_root.empty()) {
        ::mkdir(wal_root.c_str(), 0755);
        open_wal(i, wal_root, platform);
      }
    }
    counters_.routed.assign(num_shards, 0);
  }

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const Shard& shard(std::size_t i) const { return *shards_[i]; }

  /// One event end to end on the shard `router` picks (every shard for a
  /// resize). Returns the served fields merged like the router's: shard
  /// 0's totals and goal, ok/placed only when every shard's were.
  Served event(const Event& event, const mfa::service::ShardRouter& router,
               int parent, double& process_seconds) {
    const int route = tracer_.begin("service.route", parent);
    std::vector<std::size_t> targets;
    if (event.type == Event::Type::kResizePlatform) {
      for (std::size_t i = 0; i < shards_.size(); ++i) targets.push_back(i);
    } else {
      const std::string& id = event.type == Event::Type::kAddPipeline
                                  ? event.pipeline.id
                                  : event.id;
      targets.push_back(router.shard_of(id));
      ++counters_.routed[targets.back()];
    }
    tracer_.end(route);

    Served merged;
    process_seconds = 0.0;
    for (std::size_t n = 0; n < targets.size(); ++n) {
      const int span = tracer_.begin("service.process", parent);
      Served served = process(*shards_[targets[n]], Event(event), span);
      tracer_.end(span);
      const Span s = tracer_.at(span);
      process_seconds = std::max(
          process_seconds, static_cast<double>(s.end - s.start) * 1e-9);
      if (n == 0) {
        merged = std::move(served);
      } else {
        merged.ok = merged.ok && served.ok;
        merged.placed = merged.placed && served.placed;
      }
    }
    return merged;
  }

 private:
  void open_wal(std::size_t i, const std::string& root,
                const mfa::core::Platform& platform) {
    const std::string dir = root + "/shard-" + std::to_string(i);
    mfa::StatusOr<mfa::service::Wal> wal =
        mfa::service::Wal::create(dir, platform);
    if (!wal.is_ok()) {
      error_ = wal.status().to_string();
      return;
    }
    shards_[i]->wal.emplace(std::move(wal.value()));
  }

  /// AllocServer::process for the heuristic, unbudgeted configuration
  /// mfallocd ships (no stability ladder, sequential lanes).
  Served process(Shard& shard, Event event, int parent) {
    Served served;
    const std::uint64_t sequence = shard.sequence++;
    if (shard.wal) {
      const int span = tracer_.begin("service.wal.append", parent);
      const mfa::Status s = shard.wal->append(sequence, event);
      tracer_.end(span);
      ++counters_.wal_appends;
      if (!s.is_ok()) {
        error_ = "wal append: " + s.to_string();
        served.ok = false;
        return served;
      }
    }

    auto find = [&shard](const std::string& id) {
      return std::find_if(
          shard.pipelines.begin(), shard.pipelines.end(),
          [&id](const mfa::service::PipelineSpec& p) { return p.id == id; });
    };
    std::string target;
    bool changed = false;
    switch (event.type) {
      case Event::Type::kAddPipeline: {
        target = event.pipeline.id;
        if (find(target) != shard.pipelines.end()) {
          served.ok = false;
          break;
        }
        const int span =
            tracer_.begin("service.composite.delta.structural", parent);
        shard.pipelines.push_back(std::move(event.pipeline));
        shard.composite.add_pipeline(shard.pipelines.back());
        tracer_.end(span);
        changed = true;
        break;
      }
      case Event::Type::kRemovePipeline: {
        target = event.id;
        const auto it = find(target);
        if (it == shard.pipelines.end()) {
          served.ok = false;
          break;
        }
        const int span =
            tracer_.begin("service.composite.delta.structural", parent);
        const std::size_t index =
            static_cast<std::size_t>(it - shard.pipelines.begin());
        shard.last_totals.erase(it->id);
        shard.pipelines.erase(it);
        shard.composite.remove_pipeline(index);
        tracer_.end(span);
        changed = true;
        break;
      }
      case Event::Type::kReprioritize: {
        target = event.id;
        const auto it = find(target);
        if (it == shard.pipelines.end() || event.weight <= 0.0) {
          served.ok = false;
          break;
        }
        const int span =
            tracer_.begin("service.composite.delta.coefficients", parent);
        const std::size_t index =
            static_cast<std::size_t>(it - shard.pipelines.begin());
        shard.pipelines[index].weight = event.weight;
        shard.composite.reprioritize(index, shard.pipelines[index]);
        tracer_.end(span);
        changed = true;
        break;
      }
      case Event::Type::kResizePlatform: {
        if (!event.platform.validate().is_ok()) {
          served.ok = false;
          break;
        }
        const int span = tracer_.begin("service.composite.delta.rhs", parent);
        shard.composite.resize_platform(std::move(event.platform));
        tracer_.end(span);
        changed = true;
        break;
      }
    }

    if (changed && shard.pipelines.empty()) {
      shard.incumbent.reset();
      shard.incumbent_problem.reset();
      shard.occupancy.clear();
      shard.last_totals.clear();
      shard.last_ii = 0.0;
    } else if (changed) {
      if (shard.composite.live().validate().code() == mfa::Code::kInvalid) {
        // Generated traces never build a malformed composite; the
        // daemon's rollback path is not part of what is measured.
        error_ = "replay: malformed composite";
        served.ok = false;
        return served;
      }
      solve(shard, target, parent, served);
    }

    if (shard.wal && shard.sequence % options_.server.snapshot_every == 0) {
      const int span = tracer_.begin("service.wal.snapshot", parent);
      mfa::service::WalSnapshot snapshot;
      snapshot.sequence = shard.sequence;
      snapshot.platform = shard.composite.platform();
      snapshot.pipelines = shard.pipelines;
      snapshot.placements = shard.occupancy.placements();
      const mfa::Status s = shard.wal->write_snapshot(snapshot);
      tracer_.end(span);
      ++counters_.snapshots;
      if (!s.is_ok()) error_ = "wal snapshot: " + s.to_string();
    }

    if (shard.incumbent) {
      served.goal = shard.incumbent_goal;
      for (std::size_t k = 0; k < shard.incumbent->num_kernels(); ++k) {
        served.totals.push_back(shard.incumbent->total_cu(k));
      }
    }
    return served;
  }

  /// AllocServer::resolve_workload: the portfolio's GP+A lanes in lane
  /// order, winner by (goal, lane index), then the occupancy ledger.
  void solve(Shard& shard, const std::string& target, int parent,
             Served& served) {
    const int snap = tracer_.begin("service.composite.snapshot", parent);
    const std::shared_ptr<const mfa::core::Problem> problem =
        shard.composite.snapshot();
    tracer_.end(snap);
    const std::optional<mfa::core::RelaxedSolution> warm =
        make_warm(shard, *problem);

    const int solve_span = tracer_.begin("runtime.solve", parent);
    std::optional<mfa::alloc::GpaResult> best;
    double best_goal = 0.0;
    for (const mfa::runtime::StrategySpec& lane : lanes_) {
      mfa::alloc::GpaOptions o = options_.server.portfolio.gpa;
      o.greedy.t_max = lane.t_max;
      o.greedy.cache = &shard.greedy_cache;
      o.context = &shard.ctx;
      if (warm) o.warm = warm;
      const int lane_span = tracer_.begin("runtime.lane", solve_span);
      mfa::StatusOr<mfa::alloc::GpaResult> r =
          mfa::alloc::GpaSolver(o).solve(*problem);
      tracer_.end(lane_span);
      ++counters_.lanes;
      if (!r.is_ok()) continue;
      ++counters_.lanes_placed;
      const mfa::alloc::GpaResult& g = r.value();
      counters_.bb_nodes += g.discretize_nodes;
      // Copies: add() may move the span storage.
      const std::int64_t lane_end = tracer_.at(lane_span).end;
      std::int64_t t = tracer_.at(lane_span).start;
      const auto child = [&](const char* name, double seconds) {
        const std::int64_t end =
            std::min(lane_end, t + static_cast<std::int64_t>(seconds * 1e9));
        tracer_.add(name, lane_span, t, end);
        t = end;
      };
      child("core.relax", g.seconds_relax);
      child("solver.discretize", g.seconds_discretize);
      child("alloc.greedy", g.seconds_allocate);
      const double goal = problem->alpha * g.allocation.ii() +
                          problem->beta * g.allocation.phi();
      if (!best || goal < best_goal) {
        best = std::move(r.value());
        best_goal = goal;
      }
    }
    tracer_.end(solve_span);

    if (!best) {
      served.placed = false;
      shard.last_totals.clear();
      shard.last_ii = 0.0;
      return;
    }
    shard.last_totals.clear();
    std::size_t k = 0;
    for (const mfa::service::PipelineSpec& pipe : shard.pipelines) {
      std::vector<double>& totals = shard.last_totals[pipe.id];
      for (std::size_t j = 0; j < pipe.app.kernels.size(); ++j, ++k) {
        totals.push_back(best->relaxed_n[k]);
      }
    }
    shard.last_ii = best->relaxed_ii;
    const int occ = tracer_.begin("service.occupancy.update", parent);
    [[maybe_unused]] const mfa::service::AllocationDiff diff =
        shard.occupancy.diff_against(shard.pipelines, best->allocation, target);
    shard.occupancy.update(*problem, shard.pipelines, best->allocation);
    tracer_.end(occ);
    shard.incumbent = mfa::runtime::rebind(best->allocation, *problem);
    shard.incumbent_problem = problem;
    shard.incumbent_goal = best_goal;
  }

  mfa::service::RouterOptions options_;
  mfa::core::CompiledModelCache models_{mfa::core::CacheConfig{4, 1024}};
  std::vector<mfa::runtime::StrategySpec> lanes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Tracer& tracer_;
  Counters& counters_;
  std::string error_;
};

bool read_lines(const std::string& path, std::vector<std::string>& lines,
                std::size_t limit) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (lines.size() < limit && std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return true;
}

std::string events_body(const std::vector<std::string>& lines,
                        std::size_t begin, std::size_t end) {
  std::string body = "{\"schema_version\":1,\"events\":[";
  for (std::size_t i = begin; i < end; ++i) {
    if (i > begin) body += ',';
    body += lines[i];
  }
  body += "]}";
  return body;
}

/// The daemon's served fields for one event (one outcome JSON line).
bool matches(const std::string& daemon_line, const Served& served,
             double& latency_seconds) {
  mfa::StatusOr<Json> doc = Json::parse(daemon_line);
  if (!doc.is_ok()) return false;
  const Json& o = doc.value();
  const Json* goal = o.find("goal");
  const Json* totals = o.find("totals");
  const Json* status = o.find("status");
  const Json* solve_status = o.find("solve_status");
  const Json* latency = o.find("latency_ms");
  if (goal == nullptr || totals == nullptr || status == nullptr ||
      solve_status == nullptr || latency == nullptr) {
    return false;
  }
  latency_seconds = latency->as_number() * 1e-3;
  if ((status->as_string() == "ok") != served.ok) return false;
  if ((solve_status->as_string() == "ok") != served.placed) return false;
  if (goal->as_number() != served.goal) return false;
  if (totals->size() != served.totals.size()) return false;
  for (std::size_t k = 0; k < served.totals.size(); ++k) {
    if (totals->at(k).as_number() != served.totals[k]) return false;
  }
  return true;
}

/// Submit→ready time minus the event's own processing time, per event,
/// through an in-process ShardRouter fed request by request.
bool queue_wait_pass(const mfa::core::Platform& platform,
                     const std::vector<std::string>& lines,
                     std::size_t batch, const std::string& wal_root,
                     std::vector<double>& out) {
  mfa::service::RouterOptions options;
  options.wal_root = wal_root;
  mfa::StatusOr<std::unique_ptr<mfa::service::ShardRouter>> router =
      mfa::service::ShardRouter::open(platform, options);
  if (!router.is_ok()) return false;
  for (std::size_t begin = 0; begin < lines.size(); begin += batch) {
    const std::size_t end = std::min(lines.size(), begin + batch);
    std::vector<std::future<mfa::service::EventOutcome>> futures;
    const Clock::time_point submitted = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      mfa::StatusOr<Json> doc = Json::parse(lines[i]);
      if (!doc.is_ok()) return false;
      mfa::StatusOr<Event> event = mfa::io::event_from_json(doc.value());
      if (!event.is_ok()) return false;
      futures.push_back(router.value()->submit(std::move(event.value())));
    }
    for (std::future<mfa::service::EventOutcome>& f : futures) {
      const mfa::service::EventOutcome outcome = f.get();
      const double waited =
          std::chrono::duration<double>(Clock::now() - submitted).count();
      out.push_back((waited - outcome.seconds) * 1e6);
    }
  }
  router.value()->stop();
  return true;
}

Json number_array(const std::vector<double>& values) {
  Json a = Json::array();
  for (const double v : values) a.push_back(Json::number(v));
  return a;
}

}  // namespace

int run_replay(const Args& args) {
  const std::size_t count =
      static_cast<std::size_t>(args.num("count", 1000));
  const std::size_t batch = static_cast<std::size_t>(args.num("batch", 1));
  const std::int64_t read_every = args.num("read-every", 0);
  const std::string wal_root = args.str("wal", "");

  mfa::StatusOr<std::string> platform_text =
      mfa::io::read_file(args.need("platform"));
  if (!platform_text.is_ok()) {
    std::fprintf(stderr, "replay: %s\n",
                 platform_text.status().to_string().c_str());
    return 1;
  }
  mfa::StatusOr<Json> platform_doc = Json::parse(platform_text.value());
  if (!platform_doc.is_ok()) return 1;
  mfa::StatusOr<mfa::core::Platform> platform =
      mfa::io::platform_from_json(platform_doc.value());
  if (!platform.is_ok()) return 1;

  std::vector<std::string> lines;
  std::vector<std::string> daemon;
  if (!read_lines(args.need("events"), lines, count) ||
      !read_lines(args.need("daemon"), daemon, count) ||
      daemon.size() != lines.size() || batch == 0) {
    std::fprintf(stderr, "replay: events and daemon outcomes disagree\n");
    return 1;
  }

  // The router instance is only asked for shard_of here; its shards idle.
  mfa::StatusOr<std::unique_ptr<mfa::service::ShardRouter>> router =
      mfa::service::ShardRouter::open(platform.value(),
                                      mfa::service::RouterOptions{});
  if (!router.is_ok()) return 1;

  Counters counters;
  Tracer tracer(Clock::now());
  Replayer replayer(platform.value(), router.value()->num_shards(), wal_root,
                    tracer, counters);
  if (!replayer.ok()) {
    std::fprintf(stderr, "replay: %s\n", replayer.error().c_str());
    return 1;
  }

  const auto read = [&](std::size_t request) {
    tracer.set_request(request);
    ++counters.read_requests;
    const int root = tracer.begin("read", -1);
    const int enc = tracer.begin("io.read_encode", root);
    Json shards = Json::array();
    for (std::size_t i = 0; i < replayer.num_shards(); ++i) {
      Json row = mfa::io::to_json(replayer.shard(i).occupancy);
      row.set("shard", Json::number(static_cast<double>(i)));
      shards.push_back(std::move(row));
    }
    Json reply = Json::object();
    reply.set("schema_version", Json::number(mfa::io::kSchemaVersion));
    reply.set("shards", std::move(shards));
    mfa::net::HttpResponse response;
    response.body = reply.dump() + "\n";
    tracer.end(enc);
    const int fmt = tracer.begin("net.format", root);
    const std::string bytes = mfa::net::format_response(response, true);
    tracer.end(fmt);
    tracer.end(root);
    counters.response_bytes += static_cast<std::int64_t>(bytes.size());
  };

  std::size_t request = 0;
  for (std::size_t begin = 0; begin < lines.size(); ++request) {
    if (read_every > 0 &&
        static_cast<std::int64_t>(request % read_every) == read_every - 1) {
      read(request);
      continue;
    }
    const std::size_t end = std::min(lines.size(), begin + batch);
    const std::string bytes = mfa::net::format_request(
        "POST", "/v1/events", "127.0.0.1", events_body(lines, begin, end));
    counters.request_bytes += static_cast<std::int64_t>(bytes.size());
    ++counters.post_requests;
    tracer.set_request(request);
    const int root = tracer.begin("request", -1);

    int span = tracer.begin("net.parse", root);
    mfa::net::RequestParser parser;
    const bool parsed =
        parser.feed(bytes) == mfa::net::RequestParser::State::kComplete;
    tracer.end(span);
    span = tracer.begin("io.decode", root);
    std::vector<Event> events;
    mfa::StatusOr<Json> doc = Json::parse(parser.request().body);
    const Json* list = doc.is_ok() ? doc.value().find("events") : nullptr;
    for (std::size_t i = 0; list != nullptr && i < list->size(); ++i) {
      mfa::StatusOr<Event> e = mfa::io::event_from_json(list->at(i));
      if (e.is_ok()) events.push_back(std::move(e.value()));
    }
    tracer.end(span);
    if (!parsed || events.size() != end - begin) {
      std::fprintf(stderr, "replay: request %zu does not decode\n", request);
      return 1;
    }

    std::vector<mfa::service::EventOutcome> outcomes;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const int ev = tracer.begin("service.event", root);
      double process_seconds = 0.0;
      const Served served = replayer.event(events[i], *router.value(), ev,
                                           process_seconds);
      tracer.end(ev);
      if (!replayer.ok()) {
        std::fprintf(stderr, "replay: %s\n", replayer.error().c_str());
        return 1;
      }
      double daemon_seconds = 0.0;
      if (!matches(daemon[begin + i], served, daemon_seconds)) {
        ++counters.mismatches;
      }
      ++counters.events;
      counters.span_event_seconds += process_seconds;
      counters.daemon_event_seconds += daemon_seconds;
      mfa::service::EventOutcome outcome;
      outcome.type = events[i].type;
      outcome.id = events[i].type == Event::Type::kAddPipeline
                       ? events[i].pipeline.id
                       : events[i].id;
      outcome.solve.goal = served.goal;
      outcome.solve.totals = served.totals;
      outcome.seconds = process_seconds;
      outcomes.push_back(std::move(outcome));
    }

    span = tracer.begin("io.encode", root);
    Json rows = Json::array();
    for (const mfa::service::EventOutcome& o : outcomes) {
      Json row = mfa::io::to_json(o);
      row.set("latency_ms", Json::number(o.seconds * 1e3));
      rows.push_back(std::move(row));
    }
    Json reply = Json::object();
    reply.set("schema_version", Json::number(mfa::io::kSchemaVersion));
    reply.set("outcomes", std::move(rows));
    mfa::net::HttpResponse response;
    response.body = reply.dump() + "\n";
    tracer.end(span);
    span = tracer.begin("net.format", root);
    const std::string out = mfa::net::format_response(response, true);
    tracer.end(span);
    tracer.end(root);
    counters.response_bytes += static_cast<std::int64_t>(out.size());
    begin = end;
  }
  router.value()->stop();

  if (!queue_wait_pass(platform.value(), lines, batch,
                       args.str("router-wal", ""), counters.queue_wait_us)) {
    std::fprintf(stderr, "replay: queue-wait pass failed\n");
    return 1;
  }

  std::uint64_t relax_hits = 0;
  std::uint64_t relax_misses = 0;
  for (std::size_t i = 0; i < replayer.num_shards(); ++i) {
    const auto stats = replayer.shard(i).relax_cache.stats();
    relax_hits += stats.hits;
    relax_misses += stats.misses;
  }
  std::int64_t wal_bytes = 0;
  if (!wal_root.empty()) {
    for (std::size_t i = 0; i < replayer.num_shards(); ++i) {
      struct stat st {};
      const std::string log =
          wal_root + "/shard-" + std::to_string(i) + "/wal.log";
      if (::stat(log.c_str(), &st) == 0) wal_bytes += st.st_size;
    }
  }

  Json c = Json::object();
  const auto put = [&c](const char* key, double v) {
    c.set(key, Json::number(v));
  };
  put("events", static_cast<double>(counters.events));
  put("mismatches", static_cast<double>(counters.mismatches));
  put("lanes", static_cast<double>(counters.lanes));
  put("lanes_placed", static_cast<double>(counters.lanes_placed));
  put("bb_nodes", static_cast<double>(counters.bb_nodes));
  put("relax_hits", static_cast<double>(relax_hits));
  put("relax_misses", static_cast<double>(relax_misses));
  put("wal_appends", static_cast<double>(counters.wal_appends));
  put("wal_bytes", static_cast<double>(wal_bytes));
  put("snapshots", static_cast<double>(counters.snapshots));
  put("post_requests", static_cast<double>(counters.post_requests));
  put("read_requests", static_cast<double>(counters.read_requests));
  put("request_bytes", static_cast<double>(counters.request_bytes));
  put("response_bytes", static_cast<double>(counters.response_bytes));
  put("span_event_seconds", counters.span_event_seconds);
  put("daemon_event_seconds", counters.daemon_event_seconds);
  Json routed = Json::array();
  for (const std::int64_t n : counters.routed) {
    routed.push_back(Json::number(static_cast<double>(n)));
  }
  c.set("routed", std::move(routed));
  c.set("queue_wait_us", number_array(counters.queue_wait_us));

  if (!tracer.write(args.need("spans")) ||
      !mfa::io::write_file(args.need("counters"), c.dump() + "\n").is_ok()) {
    std::fprintf(stderr, "replay: cannot write outputs\n");
    return 1;
  }
  return 0;
}

}  // namespace perfbench
