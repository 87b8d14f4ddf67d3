#!/usr/bin/env python3
"""End-to-end benchmark of the shipped mfallocd stack (see README.md).

    python3 perfbench/run.py --workload bulk_replay --seed 1 --trace 0

Builds the daemon and the benchmark's helper from source (first run only),
generates the workload from --seed, forks mfallocd on an ephemeral port
and drives it over one keep-alive connection. --trace 0 prints every
end-to-end metric; --trace 1 replays the same events in-process and
prints the per-layer metrics. Every line but the last is for people; the
last line is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The run exits non-zero when an output check fails (correct is then false)
or when it cannot run at all.
"""

import argparse
import collections
import hashlib
import http.client
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_run")
TOOL = os.path.join(BUILD, "perfbench_tool")
DAEMON = os.path.join(BUILD, "mfalloc", "example_mfallocd")

# ---- Workload constants. Fixed once from the seed commit's capacity on a
# 4-core machine (README.md); changing them re-baselines the benchmark.

# churn_open's offered event rates (events/s), from about a quarter of the
# open-loop capacity (4000-10000 events/s, depending on the host's load)
# to past it. Every rung replays the same events on a fresh daemon;
# together they last about --seconds.
CHURN_RATES = (1000, 2000, 4000, 8000, 16000)
CHURN_HEADLINE = 0  # the rung whose latencies are the headline metrics
READ_EVERY = 8  # one request in 8 is a monitoring read
READ_PATHS = ("/v1/occupancy", "/v1/allocation", "/v1/stats")
# Closed-loop workloads replay a fixed number of events, seconds x this
# nominal rate (events/s at the seed commit), so every commit does the
# same work per seed and the quality and recovery metrics stay comparable.
NOMINAL_RATE = {"bulk_replay": 6000, "dense_pool": 450}
BATCH = {"churn_open": 1, "bulk_replay": 16, "dense_pool": 1}
# How each workload runs mfallocd besides the shipped defaults, labelled
# non-default in README.md: dense_pool without a WAL (no --data); the
# others keep the WAL but do not fsync it, because on a shared virtual
# disk fsync latency swings more than any bound could absorb. The traced
# run keeps the shipped fsync.
WAL_OFF = {"dense_pool"}
DAEMON_FLAGS = {"churn_open": ("--no-fsync",), "bulk_replay": ("--no-fsync",),
                "dense_pool": ()}
# Generator seed = seed * 3 + salt, so the workloads never share a trace.
SEED_SALT = {"churn_open": 0, "bulk_replay": 1, "dense_pool": 2}

SLO_MS = 50.0  # event p99 limit behind max_rate_at_slo
SETUP_SPAWNS = 101  # daemon start-ups per run for setup_s
RECOVERIES = 15  # --recover start-ups per run for recover_s
# recover_s replays a log of this many events of the workload's trace at
# PROBE_SEED, the same on every run (about 0.3-0.5 s of replay).
PROBE_EVENTS = {"churn_open": 3000, "bulk_replay": 3008, "dense_pool": 240}
PROBE_SEED = 1000003
PROBE_FLAGS = ("--no-fsync", "--snapshot-every", "0")
REPEAT_EVENTS = 240  # prefix replayed on a second daemon (determinism)
TRACE_SHARE = 4  # traced run replays seconds x nominal / TRACE_SHARE events

WORKLOADS = ("churn_open", "bulk_replay", "dense_pool")
END_TO_END = (
    ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
    ("events_per_s", "1/s"), ("max_rate_at_slo", "1/s"),
    ("read_latency_p95_ms", "ms"),
    ("ok_share", "ratio"), ("placed_share", "ratio"),
    ("served_goal_mean", "ms"), ("setup_s", "s"), ("recover_s", "s"),
    ("rss_peak_mb", "MB"))
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_SEGMENTS = 8


class BenchError(Exception):
    """The benchmark could not run (not an output-check failure)."""


class DaemonFailed(BenchError):
    """mfallocd exited before its listening line."""


# ---- Statistics (covered by test_perfbench.py). -------------------------

def percentile(values, p):
    """Nearest-rank p-th percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(p/100 * n)
    return ordered[int(rank) - 1]


def supported_percentile(n, wanted):
    """Highest ladder percentile <= wanted with at least ten of n samples
    beyond it, or None when even the median lacks them."""
    for p in PERCENTILE_LADDER:
        if p > wanted:
            continue
        rank = -(-n * p // 100)
        if n - rank >= 10:
            return p
    return None


def segmented_percentile(values, p):
    """Median, over consecutive segments of time-ordered values, of each
    segment's p-th percentile, with as many segments (up to MAX_SEGMENTS)
    as leave ten samples beyond p in every segment: a stall of the shared
    host moves one segment, not the result. Returns (value, segments); a
    sample too small for even one segment is a benchmark defect."""
    n = len(values)
    segments = MAX_SEGMENTS
    while segments > 1 and supported_percentile(n // segments, p) != p:
        segments -= 1
    if supported_percentile(n, p) != p:
        raise BenchError("%d samples cannot support p%g" % (n, p))
    size = n // segments
    return statistics.median(
        percentile(values[i * size:(i + 1) * size], p)
        for i in range(segments)), segments


def segmented_rate(rows, sizes):
    """Events per second as the median over MAX_SEGMENTS consecutive
    segments of request rows (due, sent, recv, status), each segment timed
    from the previous segment's last response (the first from its first
    send) to its own last response. sizes: events per row."""
    size = max(1, len(rows) // MAX_SEGMENTS)
    rates = []
    for start in range(0, len(rows) - size + 1, size):
        begin = rows[start - 1][2] if start else rows[0][1]
        seconds = (rows[start + size - 1][2] - begin) * 1e-9
        rates.append(sum(sizes[start:start + size]) / seconds)
    return statistics.median(rates)


class Report:
    """Metrics with units and sample counts, plus the output checks."""

    def __init__(self):
        self.metrics = {}
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def put(self, name, value, unit, samples):
        self.metrics[name] = (float(value), unit, samples)

    def put_percentile(self, name, values, wanted, unit, scale=1.0):
        """Records percentile `wanted` of time-ordered values, as the median
        over segments (see segmented_percentile)."""
        value, segments = segmented_percentile(values, wanted)
        self.put(name, value * scale, unit, "%d in %d segments"
                 % (len(values), segments))

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def print_lines(self):
        for name, (value, unit, samples) in self.metrics.items():
            print("metric %-40s %14.6g %-6s n=%s" % (name, value, unit,
                                                     samples))
        for failure in self.failures:
            print("CHECK FAILED: %s" % failure)

    def result(self):
        return {
            "correct": not self.failures,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in self.metrics.items()},
        }


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    that the union of its children covers. spans: {id: (parent, start,
    end)}."""
    children = {}
    for sid, (parent, start, end) in spans.items():
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (_, start, end) in spans.items():
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def open_loop_latencies(rows):
    """Per-row latency (None when unanswered) and generator lag, in ns, of
    an open-loop run's rows (due, sent, recv, status) in send order.
    Latency counts from the due time, so a stall is charged to every
    request that fell due during it. Lag is how late a request left after
    it could have: after its due time and the previous response, whichever
    came later."""
    latency, lag = [], []
    previous = 0
    for due, sent, recv, status in rows:
        latency.append(recv - due if status else None)
        lag.append(sent - max(due, previous))
        previous = recv
    return latency, lag


def rate_at_slo(rungs):
    """Highest offered rate meeting the SLO, from rungs (rate, p99_ms, ok)
    in rising rate order: between the last rung that meets it and the
    first that does not, where log(p99) interpolated linearly in rate
    crosses SLO_MS. The rungs are fixed, so this moves smoothly with
    capacity instead of jumping from rung to rung."""
    for i, (rate, p99, ok) in enumerate(rungs):
        if ok:
            continue
        if i == 0:
            return rate * min(1.0, SLO_MS / p99)
        lo_rate, lo_p99, _ = rungs[i - 1]
        if p99 <= lo_p99:  # failed on backlog alone
            return lo_rate
        share = math.log(SLO_MS / lo_p99) / math.log(p99 / lo_p99)
        return lo_rate + (rate - lo_rate) * min(1.0, max(0.0, share))
    return rungs[-1][0]


# ---- Build and processes. -----------------------------------------------

def run_quiet(cmd, log, timeout):
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(log, "ab") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, cwd=ROOT, check=False,
                              env=dict(os.environ, TMPDIR=tmp))
    if proc.returncode != 0:
        with open(log, "rb") as f:
            sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
        raise BenchError("failed: %s" % " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no mfalloc sources next to perfbench/")
    os.makedirs(WORK, exist_ok=True)
    log = os.path.join(WORK, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, log, 600)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "--target", "example_mfallocd",
               "perfbench_tool", "-j", jobs], log, 840)


def tool(*args, timeout=170):
    proc = subprocess.run([TOOL] + [str(a) for a in args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise BenchError("perfbench_tool %s: %s"
                         % (args[0], proc.stderr.decode(errors="replace")))


class Daemon:
    """One mfallocd process; start-up is timed to its listening line."""

    def __init__(self, platform, wal_dir, flags=(), recover=False):
        cmd = [DAEMON, "--port", "0", "--shards", "2", "--jobs", "1"]
        cmd += list(flags)
        if recover:
            cmd += ["--recover"]
        else:
            cmd += ["--platform", platform]
        if wal_dir:
            cmd += ["--data", wal_dir]
        log_path = os.path.join(WORK, "mfallocd.log")
        t0 = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                         stderr=log)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        self.setup_s = time.perf_counter() - t0
        if "listening on" not in line:
            self.stop(kill=True)
            with open(log_path, errors="replace") as f:
                raise DaemonFailed("mfallocd did not start: %s"
                                   % f.read().strip())
        self.port = int(line.split()[-1])

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise BenchError("GET %s: HTTP %d" % (path, response.status))
            return body
        finally:
            conn.close()

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for mfallocd")

    def stop(self, kill=False):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def drive(daemon, plan, name):
    """Runs a plan [(due_ns | None, method, path, body)] on one connection
    (None: send once the previous response is in); returns rows (due,
    sent, recv, status, body)."""
    plan_path = os.path.join(WORK, name + ".plan")
    out_path = os.path.join(WORK, name + ".out")
    with open(plan_path, "w") as f:
        for due, method, path, body in plan:
            f.write("%s %s %s %s\n" % ("sync" if due is None else due,
                                       method, path, body))
    # Flush what the benchmark itself wrote (plans, earlier results, WALs)
    # so its write-back does not run during the measurement.
    os.sync()
    tool("drive", "--port", daemon.port, "--plan", plan_path, "--out",
         out_path)
    rows = []
    with open(out_path) as f:
        for line in f:
            parts = line.rstrip("\n").split(" ", 5)
            rows.append((int(parts[1]), int(parts[2]), int(parts[3]),
                         int(parts[4]), parts[5] if len(parts) > 5 else ""))
    return rows


# ---- Inputs. ------------------------------------------------------------

class Trace:
    def __init__(self, workload, seed, events, tag):
        self.dir = os.path.join(WORK, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        tool("gen", "--workload", workload, "--seed",
             seed * 3 + SEED_SALT[workload], "--events", events,
             "--out", self.dir)
        self.platform = os.path.join(self.dir, "platform.json")
        self.events_path = os.path.join(self.dir, "events.jsonl")
        with open(self.events_path) as f:
            self.lines = f.read().splitlines()
        # (type, id, time_ms) per event, so the events need not be parsed.
        with open(os.path.join(self.dir, "index.tsv")) as f:
            self.events = [(t, i, float(ms)) for t, i, ms in
                           (line.rstrip("\n").split("\t") for line in f)]

    def body(self, begin, end):
        return ('{"schema_version":1,"events":[%s]}'
                % ",".join(self.lines[begin:end]))



def interleave(trace, count, batch, due=None):
    """Requests for the first `count` events, `batch` to a POST, with one
    request in READ_EVERY a monitoring read (paths in rotation). due: each
    event's due time (open loop), or None (closed loop). Returns the plan
    and each request's event count (0 for a read)."""
    plan, sizes = [], []
    e = r = 0
    while e < count:
        if len(plan) % READ_EVERY == READ_EVERY - 1:
            when = None if due is None else (due[e - 1] + due[e]) // 2
            plan.append((when, "GET", READ_PATHS[r % len(READ_PATHS)], ""))
            sizes.append(0)
            r += 1
        else:
            end = min(count, e + batch)
            plan.append((None if due is None else due[e], "POST",
                         "/v1/events", trace.body(e, end)))
            sizes.append(end - e)
            e = end
    return plan, sizes


# ---- Output checks shared by the workloads. -----------------------------

# What the checks and metrics keep of one event's outcome: key is every
# field but wall clock, canonically encoded (the deterministic slice).
Outcome = collections.namedtuple(
    "Outcome", "status solve_status goal served latency_ms key")


def summarize(outcome):
    return Outcome(
        outcome.get("status"), outcome.get("solve_status"),
        outcome.get("goal"), bool(outcome.get("totals")),
        outcome.get("latency_ms"),
        json.dumps({k: v for k, v in outcome.items() if k != "latency_ms"},
                   sort_keys=True))


def event_outcomes(report, trace, rows, sizes):
    """Outcome of each event, in order (None where a transport error or a
    non-2xx reply lost it), each checked against its event's type and id.
    sizes: each request's event count, as interleave() returns it; every
    read must answer 200."""
    outcomes = []
    next_event = 0
    for (_, _, _, status, body), size in zip(rows, sizes):
        if not size:
            report.check(status == 200, "a monitoring read failed (%d)"
                         % status)
            continue
        got = []
        if 200 <= status < 300:
            try:
                got = json.loads(body)["outcomes"]
            except (ValueError, KeyError):
                got = []
        report.check(len(got) == size or not 200 <= status < 300,
                     "a POST of %d events returned %d outcomes"
                     % (size, len(got)))
        for i in range(size):
            kind, ident, _ = trace.events[next_event + i]
            o = got[i] if i < len(got) else None
            if o is not None:
                report.check(o.get("type") == kind
                             and o.get("id", "") == ident,
                             "outcome %d is for %s %s, not %s %s"
                             % (next_event + i, o.get("type"), o.get("id"),
                                kind, ident))
            outcomes.append(None if o is None else summarize(o))
        next_event += size
    return outcomes


def count_outcomes(report, outcomes):
    report.attempted += len(outcomes)
    report.failed += sum(1 for o in outcomes if o is None or o.status != "ok")


def quality(report, outcomes):
    """placed_share and served_goal_mean over a fixed event prefix."""
    placed = [o for o in outcomes if o and o.solve_status == "ok"]
    report.put("placed_share", len(placed) / len(outcomes), "ratio",
               len(outcomes))
    goals = [o.goal for o in placed if o.served]
    report.put("served_goal_mean", statistics.fmean(goals), "ms", len(goals))
    unplaced = len(outcomes) - len(placed)
    print("unplaced_share %.6f (%d of %d events: solve_status != ok)"
          % (unplaced / len(outcomes), unplaced, len(outcomes)))


def same_prefix(report, a, b, what):
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] is None or b[i] is None or a[i].key != b[i].key:
            report.check(False, "%s: outcome %d differs" % (what, i))
            return
    report.check(n > 0, "%s: nothing to compare" % what)


def digest_check(report, workload, seed, outcomes):
    """Across repeated runs of one daemon binary at one seed in this
    checkout: the deterministic outcome log must hash the same."""
    with open(DAEMON, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    h = hashlib.sha256()
    for o in outcomes:
        h.update(("-" if o is None else o.key).encode())
    path = os.path.join(WORK, "digests", "%s-%d-%d-%s"
                        % (workload, seed, len(outcomes), binary))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            report.check(f.read() == h.hexdigest(),
                         "outcomes differ from an earlier run at seed %d"
                         % seed)
    else:
        with open(path, "w") as f:
            f.write(h.hexdigest())


def state_checks(report, daemon):
    """Final ledger: every FPGA within capacity, CU counts equal to the
    served allocation. Returns (allocation bytes, stats)."""
    occupancy = json.loads(daemon.get("/v1/occupancy"))
    allocation_bytes = daemon.get("/v1/allocation")
    allocation = json.loads(allocation_bytes)
    stats = json.loads(daemon.get("/v1/stats"))
    eps = 1e-6
    for shard, alloc_row in zip(occupancy["shards"], allocation["shards"]):
        devices = shard["devices"]
        for f, dev in enumerate(devices):
            for axis, used in dev["used"].items():
                report.check(used <= dev["capacity"][axis] * (1 + eps) + eps,
                             "shard %s FPGA %d over %s capacity"
                             % (shard["shard"], f, axis))
            report.check(dev["bw_used"] <= dev["bw_capacity"] * (1 + eps)
                         + eps, "shard %s FPGA %d over bandwidth"
                         % (shard["shard"], f))
        served = alloc_row.get("allocation")
        cus = [0] * len(devices)
        if served:
            for row in served["matrix"]:
                for f, n in enumerate(row[:len(cus)]):
                    cus[f] += n
            report.check(len(served["matrix"][0]) == len(devices)
                         if served["matrix"] else True,
                         "shard %s ledger and allocation disagree on the "
                         "pool size" % shard["shard"])
        report.check([d["cus"] for d in devices] == cus,
                     "shard %s ledger CUs %s != allocation %s"
                     % (shard["shard"], [d["cus"] for d in devices], cus))
    return allocation_bytes, stats


def router_share(stats):
    """Largest shard's share of routed events from per-shard /v1/stats
    (broadcast resizes excluded)."""
    routed = [s["events_ok"] + s["events_failed"] - s["resizes"]
              for s in stats["shards"]]
    return max(routed) / max(1, sum(routed)), routed


def prefix_outcomes(report, trace, workload, count, wal_dir, flags, name):
    """The first `count` events on a fresh daemon, closed loop. Returns
    (daemon, outcomes, served allocation bytes); the caller stops the
    daemon."""
    plan, sizes = interleave(trace, count, BATCH[workload])
    daemon = Daemon(trace.platform, wal_dir, flags)
    try:
        rows = drive(daemon, plan, name)
        outcomes = event_outcomes(report, trace, rows, sizes)
        return daemon, outcomes, daemon.get("/v1/allocation")
    except BaseException:
        daemon.stop()
        raise


class RecoveryProbe:
    """recover_s on the same input every run: a daemon with a WAL and no
    snapshots takes the workload's first PROBE_EVENTS events at PROBE_SEED
    and is killed with -9; each recover() call then restarts it with
    --recover, which replays the whole log. Callers split the RECOVERIES
    start-ups around the timed run so the median samples both its ends.
    Every recovered allocation must be byte-identical."""

    def __init__(self, report, workload):
        self.report = report
        count = PROBE_EVENTS[workload]
        self.trace = Trace(workload, PROBE_SEED, count, workload + "-probe")
        self.wal_dir = os.path.join(WORK, "wal-probe")
        daemon, _, self.allocation_bytes = prefix_outcomes(
            report, self.trace, workload, count, self.wal_dir, PROBE_FLAGS,
            workload + "-probe")
        daemon.stop(kill=True)
        self.times = []

    def recover(self, times):
        for _ in range(times):
            again = Daemon(self.trace.platform, self.wal_dir, PROBE_FLAGS,
                           recover=True)
            self.times.append(again.setup_s)
            try:
                self.report.check(
                    again.get("/v1/allocation") == self.allocation_bytes,
                    "allocation differs after kill -9 and --recover")
            finally:
                again.stop()

    def put(self):
        self.report.put("recover_s", statistics.median(self.times), "s",
                        len(self.times))


def crash_test(report, trace, daemon, wal_dir, flags, allocation_bytes):
    """kill -9 at the end of the run, then --recover once. A recovered
    allocation must be byte-identical; a daemon that cannot recover is a
    failed operation, counted and printed (see README.md)."""
    daemon.stop(kill=True)
    report.attempted += 1
    try:
        again = Daemon(trace.platform, wal_dir, flags, recover=True)
    except DaemonFailed as e:
        report.failed += 1
        print("crash test: FAILED, %s" % e)
        return
    try:
        report.check(again.get("/v1/allocation") == allocation_bytes,
                     "allocation differs after kill -9 and --recover")
        print("crash test: recovered in %.4f s" % again.setup_s)
    finally:
        again.stop()


def setup_samples(trace, wal_dir, flags, count):
    """Start-up times of `count` daemons, each on an empty WAL directory
    like the timed run's daemon (truncating an old log costs more)."""
    times = []
    for _ in range(count):
        if wal_dir:
            shutil.rmtree(wal_dir, ignore_errors=True)
        d = Daemon(trace.platform, wal_dir, flags)
        times.append(d.setup_s)
        d.stop()
    return times


# ---- Workloads (tracing off). -------------------------------------------

def churn_open(report, seed, seconds):
    """Open loop at fixed offered rates, WAL on, one event per POST and one
    monitoring read in eight requests."""
    count = int(seconds / sum(1.0 / rate for rate in CHURN_RATES))
    trace = Trace("churn_open", seed, count, "churn_open")
    times = [ms for _, _, ms in trace.events]
    native_rate = (len(times) - 1) / ((times[-1] - times[0]) * 1e-3)
    wal_dir = os.path.join(WORK, "wal")
    flags = DAEMON_FLAGS["churn_open"]
    setups = setup_samples(trace, wal_dir, flags,
                           SETUP_SPAWNS - len(CHURN_RATES))
    probe = RecoveryProbe(report, "churn_open")
    probe.recover(RECOVERIES // 2)

    rungs = []
    for rate in CHURN_RATES:
        scale_ns = 1e6 * native_rate / rate  # trace ms -> due ns
        due = [int((t - times[0]) * scale_ns) for t in times[:count]]
        plan, sizes = interleave(trace, count, 1, due)
        daemon = Daemon(trace.platform, wal_dir, flags)
        setups.append(daemon.setup_s)
        try:
            rows = drive(daemon, plan, "churn_open-%d" % rate)
            outcomes = event_outcomes(report, trace, rows, sizes)
            count_outcomes(report, outcomes)
            allocation_bytes, stats = state_checks(report, daemon)
            rss = daemon.vm_hwm_mb()
            if rate == CHURN_RATES[-1]:
                crash_test(report, trace, daemon, wal_dir, flags,
                           allocation_bytes)
        finally:
            daemon.stop()
        event_rows = [x for x, n in zip(rows, sizes) if n]
        per_row, lag = open_loop_latencies([x[:4] for x in rows])
        latency = [t for t, n in zip(per_row, sizes) if n and t is not None]
        read_latency = [t for t, n in zip(per_row, sizes)
                        if not n and t is not None]
        tenth = max(1, len(latency) // 10)
        backlog = statistics.median(latency[-tenth:]) > SLO_MS * 1e6 / 2
        p99 = segmented_percentile(latency, 99)[0] / 1e6
        rungs.append(dict(rate=rate, outcomes=outcomes, latency=latency,
                          read_latency=read_latency, rss=rss, stats=stats,
                          throughput=segmented_rate(
                              [x[:4] for x in event_rows],
                              [1] * len(event_rows)),
                          p99_ms=p99,
                          ok=p99 <= SLO_MS and not backlog
                          and len(latency) == count))
        print("rung %5d/s: events %5d  p50 %8.3f ms  p99 %8.3f ms  "
              "served %7.1f/s  reads %4d  generator lag p50 %.3f ms "
              "max %.3f ms  backlog %s  %s"
              % (rate, count, percentile(latency, 50) / 1e6, p99,
                 rungs[-1]["throughput"], len(read_latency),
                 percentile(lag, 50) / 1e6, max(lag) / 1e6,
                 "growing" if backlog else "steady",
                 "meets SLO" if rungs[-1]["ok"] else "misses SLO"))

    for a in rungs[:-1]:
        same_prefix(report, a["outcomes"], rungs[-1]["outcomes"],
                    "churn_open at %d/s vs %d/s"
                    % (a["rate"], CHURN_RATES[-1]))
    top = rungs[-1]
    probe.recover(RECOVERIES - RECOVERIES // 2)
    probe.put()
    digest_check(report, "churn_open", seed, top["outcomes"])
    head = rungs[CHURN_HEADLINE]
    report.put_percentile("latency_p50_ms", head["latency"], 50, "ms", 1e-6)
    report.put_percentile("latency_p99_ms", head["latency"], 99, "ms", 1e-6)
    report.put("events_per_s", top["throughput"], "1/s",
               "%d in %d segments" % (len(top["latency"]), MAX_SEGMENTS))
    report.put("max_rate_at_slo",
               rate_at_slo([(r["rate"], r["p99_ms"], r["ok"]) for r in rungs]),
               "1/s", len(rungs))
    report.put_percentile("read_latency_p50_ms", head["read_latency"], 50,
                          "ms", 1e-6)
    report.put_percentile("read_latency_p95_ms", head["read_latency"], 95,
                          "ms", 1e-6)
    quality(report, top["outcomes"])
    report.put("setup_s", statistics.median(setups), "s", len(setups))
    report.put("rss_peak_mb", top["rss"], "MB", 1)
    return top["stats"]


def closed_loop(report, workload, seed, seconds):
    """bulk_replay (16 events per POST, WAL on) and dense_pool (one per
    POST, WAL off): a fixed number of events, one request in eight a
    monitoring read."""
    batch = BATCH[workload]
    count = int(seconds * NOMINAL_RATE[workload]) // batch * batch
    trace = Trace(workload, seed, count, workload)
    wal_dir = None if workload in WAL_OFF else os.path.join(WORK, "wal")
    flags = DAEMON_FLAGS[workload]
    # Start-ups before and after the timed run, so the median samples both
    # its ends; their WALs stay out of the run's directory.
    setup_wal = wal_dir and os.path.join(WORK, "wal-setup")
    setups = setup_samples(trace, setup_wal, flags, SETUP_SPAWNS // 2)
    probe = RecoveryProbe(report, workload)
    probe.recover(RECOVERIES // 2)
    daemon, repeat, _ = prefix_outcomes(
        report, trace, workload, REPEAT_EVENTS // batch * batch, wal_dir,
        flags, workload + "-repeat")
    daemon.stop()

    plan, sizes = interleave(trace, count, batch)
    daemon = Daemon(trace.platform, wal_dir, flags)
    setups.append(daemon.setup_s)
    try:
        rows = drive(daemon, plan, workload)
        outcomes = event_outcomes(report, trace, rows, sizes)
        count_outcomes(report, outcomes)
        allocation_bytes, stats = state_checks(report, daemon)
        report.put("rss_peak_mb", daemon.vm_hwm_mb(), "MB", 1)
        if wal_dir is not None:
            crash_test(report, trace, daemon, wal_dir, flags,
                       allocation_bytes)
    finally:
        daemon.stop()

    probe.recover(RECOVERIES - RECOVERIES // 2)
    probe.put()
    setups += setup_samples(trace, setup_wal, flags,
                            SETUP_SPAWNS - len(setups))
    same_prefix(report, repeat, outcomes, workload + " repeated at one seed")
    digest_check(report, workload, seed, outcomes)
    ms = [(x[2] - x[1]) * 1e-6 if x[3] else None for x in rows]
    latency = [t for t, n in zip(ms, sizes) if n and t is not None]
    report.put_percentile("latency_p50_ms", latency, 50, "ms")
    report.put_percentile("latency_p99_ms", latency, 99, "ms")
    # Reads are part of the mix, so rates count wall time across them.
    segments = "%d in %d segments" % (count, MAX_SEGMENTS)
    report.put("events_per_s", segmented_rate([x[:4] for x in rows], sizes),
               "1/s", segments)
    # A closed loop offers exactly what it is served: the rate at the SLO
    # is the goodput, events whose request met the limit, per second.
    good = [n if t is not None and t <= SLO_MS else 0
            for t, n in zip(ms, sizes)]
    report.put("max_rate_at_slo", segmented_rate([x[:4] for x in rows], good),
               "1/s", segments)
    reads = [t for t, n in zip(ms, sizes) if not n and t is not None]
    report.put_percentile("read_latency_p50_ms", reads, 50, "ms")
    report.put_percentile("read_latency_p95_ms", reads, 95, "ms")
    quality(report, outcomes)
    report.put("setup_s", statistics.median(setups), "s", len(setups))
    return stats


# ---- Traced run. --------------------------------------------------------

def traced(report, workload, seed, seconds):
    """Untraced daemon pass for the served outcomes, then the in-process
    replay of the same requests with spans."""
    batch = BATCH[workload]
    nominal = NOMINAL_RATE.get(workload, CHURN_RATES[1])
    count = max(batch * 64, int(seconds * nominal / TRACE_SHARE)
                // batch * batch)
    trace = Trace(workload, seed, count, workload + "-trace")
    wal = workload not in WAL_OFF
    plan, sizes = interleave(trace, count, batch)
    daemon = Daemon(trace.platform, os.path.join(WORK, "wal") if wal else None)
    try:
        rows = drive(daemon, plan, workload + "-trace")
        stats = json.loads(daemon.get("/v1/stats"))
    finally:
        daemon.stop()
    outcomes = event_outcomes(report, trace, rows, sizes)
    count_outcomes(report, outcomes)
    daemon_path = os.path.join(WORK, workload + "-daemon.jsonl")
    with open(daemon_path, "w") as f:
        for o in outcomes:
            served = json.loads(o.key) if o else {}
            served["latency_ms"] = o.latency_ms if o else 0.0
            f.write(json.dumps(served) + "\n")

    spans_path = os.path.join(WORK, "spans-%s-%d.tsv" % (workload, seed))
    counters_path = os.path.join(WORK, workload + "-counters.json")
    tool("replay", "--platform", trace.platform, "--events",
         trace.events_path, "--daemon", daemon_path, "--count", count,
         "--batch", batch, "--read-every", READ_EVERY,
         "--wal", os.path.join(WORK, "trace-wal") if wal else "",
         "--router-wal", os.path.join(WORK, "router-wal") if wal else "",
         "--spans", spans_path, "--counters", counters_path)
    with open(counters_path) as f:
        c = json.load(f)
    report.check(c["mismatches"] == 0,
                 "replay differs from the daemon on %d of %d events"
                 % (c["mismatches"], c["events"]))
    share, routed = router_share(stats)
    report.check(routed == c["routed"],
                 "shard_of routing %s != per-shard /v1/stats %s"
                 % (c["routed"], routed))
    layer_metrics(report, spans_path, c, share)


def layer_metrics(report, spans_path, c, share):
    spans, names = {}, {}
    with open(spans_path) as f:
        for line in f:
            _, sid, parent, name, start, end = line.rstrip("\n").split("\t")
            sid = int(sid)
            spans[sid] = (int(parent), int(start), int(end))
            names[sid] = name
    durations = {}
    for sid, (_, start, end) in spans.items():
        durations.setdefault(names[sid], []).append((end - start) / 1e3)
    own = self_times(spans)

    def dur(name, p=50, reduce=None):
        values = durations.get(name, [])
        if not values:
            return 0.0, 0
        value = reduce(values) if reduce else percentile(values, p)
        return value, len(values)

    def put(metric, value_n, unit="us"):
        report.put(metric, value_n[0], unit, value_n[1])

    events = max(1, c["events"])
    put("net.parse_us", dur("net.parse"))
    put("net.format_us", dur("net.format"))
    report.put("net.request_bytes",
               c["request_bytes"] / max(1, c["post_requests"]), "B",
               c["post_requests"])
    report.put("net.response_bytes",
               c["response_bytes"] / max(1, c["post_requests"]
                                         + c["read_requests"]),
               "B", c["post_requests"] + c["read_requests"])
    put("io.decode_us", dur("io.decode"))
    put("io.encode_us", dur("io.encode"))
    put("io.read_encode_us", dur("io.read_encode"))
    report.put("service.router.shard_share_max", share, "ratio",
               sum(c["routed"]))
    waits = c["queue_wait_us"]
    report.put("service.queue_wait_us", percentile(waits, 50), "us",
               len(waits))
    report.put("service.queue_wait_us_p99", percentile(waits, 99), "us",
               len(waits))
    put("service.wal.append_us_p50", dur("service.wal.append", 50))
    put("service.wal.append_us_p99", dur("service.wal.append", 99))
    report.put("service.wal.bytes_per_event",
               c["wal_bytes"] / c["wal_appends"] if c["wal_appends"] else 0.0,
               "B", c["wal_appends"])
    put("service.wal.snapshot_us_max", dur("service.wal.snapshot", reduce=max))
    report.put("service.wal.snapshots", c["snapshots"], "count", 1)
    for cls in ("structural", "coefficients", "rhs"):
        put("service.composite.delta_us." + cls,
            dur("service.composite.delta." + cls))
    put("service.composite.snapshot_us", dur("service.composite.snapshot"))
    put("service.occupancy.update_us", dur("service.occupancy.update"))
    put("runtime.solve_us_p50", dur("runtime.solve", 50))
    put("runtime.solve_us_p99", dur("runtime.solve", 99))
    report.put("runtime.lanes_per_event", c["lanes"] / events, "count", events)
    put("core.relax_us", dur("core.relax"))
    lookups = c["relax_hits"] + c["relax_misses"]
    report.put("core.relax_cache.hit_ratio",
               c["relax_hits"] / lookups if lookups else 0.0, "ratio", lookups)
    put("solver.discretize_us", dur("solver.discretize"))
    report.put("solver.bb_nodes_per_event", c["bb_nodes"] / events, "count",
               events)
    put("alloc.greedy_us", dur("alloc.greedy"))
    report.put("alloc.placed_ratio",
               c["lanes_placed"] / c["lanes"] if c["lanes"] else 0.0,
               "ratio", c["lanes"])
    report.put("trace.coverage",
               c["span_event_seconds"] / c["daemon_event_seconds"]
               if c["daemon_event_seconds"] else 0.0, "ratio", events)
    layer_self = {}
    for sid, t in own.items():
        layer = names[sid].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + t
    for layer in LAYERS:
        report.put("self_us_per_event." + layer,
                   layer_self.get(layer, 0) / 1e3 / events, "us", events)


LAYERS = ("net", "io", "service", "runtime", "core", "solver", "alloc")
PER_LAYER = (
    "net.parse_us", "net.format_us", "net.request_bytes",
    "net.response_bytes", "io.decode_us", "io.encode_us",
    "io.read_encode_us", "service.router.shard_share_max",
    "service.queue_wait_us", "service.queue_wait_us_p99",
    "service.wal.append_us_p50", "service.wal.append_us_p99",
    "service.wal.bytes_per_event", "service.wal.snapshot_us_max",
    "service.wal.snapshots", "service.composite.delta_us.structural",
    "service.composite.delta_us.coefficients",
    "service.composite.delta_us.rhs", "service.composite.snapshot_us",
    "service.occupancy.update_us", "runtime.solve_us_p50",
    "runtime.solve_us_p99", "runtime.lanes_per_event", "core.relax_us",
    "core.relax_cache.hit_ratio", "solver.discretize_us",
    "solver.bb_nodes_per_event", "alloc.greedy_us", "alloc.placed_ratio",
    "trace.coverage") + tuple("self_us_per_event." + l for l in LAYERS)


# ---- Driver. ------------------------------------------------------------

def provenance(seed, workload):
    info = {"seed": seed, "workload": workload, "nproc": os.cpu_count()}
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(("//", "#")) or "=" not in line:
                continue
            key, value = line.rstrip("\n").split("=", 1)
            cache[key.split(":")[0]] = value
    info["build_type"] = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "-dumpfullversion"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             check=False).stdout.decode().strip()
    info["compiler"] = "%s %s" % (os.path.basename(compiler), version)
    fs = subprocess.run(["stat", "-f", "-c", "%T", WORK],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                        check=False).stdout.decode().strip()
    info["wal_fs"] = fs or "unknown"
    return info


def tidy():
    """Removes the inputs, WALs and request logs runs leave in WORK; keeps
    the build log, the digests and the traced runs' spans and counters."""
    for name in os.listdir(WORK):
        kept = name in ("build.log", "digests", "tmp")
        if kept or name.startswith("spans-") or name.endswith("-counters.json"):
            continue
        path = os.path.join(WORK, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)


def run_workload(workload, seed, seconds, trace_mode):
    tidy()
    try:
        return measure(workload, seed, seconds, trace_mode)
    finally:
        tidy()


def measure(workload, seed, seconds, trace_mode):
    report = Report()
    print("provenance %s" % json.dumps(provenance(seed, workload)))
    if trace_mode:
        traced(report, workload, seed, seconds)
        wanted = PER_LAYER
    else:
        if workload == "churn_open":
            stats = churn_open(report, seed, seconds)
        else:
            stats = closed_loop(report, workload, seed, seconds)
        share, routed = router_share(stats)
        print("service.router.shard_share_max %.6f (per-shard routed "
              "events %s)" % (share, routed))
        report.put("ok_share", 1.0 - report.failed / max(1, report.attempted),
                   "ratio", report.attempted)
        wanted = tuple(name for name, _ in END_TO_END)
    missing = [m for m in wanted if m not in report.metrics]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    # Measured but not in BENCHMARK.json (see README.md): printed only.
    for name in sorted(set(report.metrics) - set(wanted)):
        value, unit, samples = report.metrics[name]
        print("info   %-40s %14.6g %-6s n=%s" % (name, value, unit, samples))
    report.metrics = {m: report.metrics[m] for m in wanted}
    report.print_lines()
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in workloads:
            results[w] = run_workload(w, args.seed, args.seconds,
                                      bool(args.trace)).result()
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[workloads[0]]
    else:
        for w, r in results.items():
            print("result %s %s" % (w, json.dumps(r)))
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
