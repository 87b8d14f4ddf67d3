#!/usr/bin/env python3
"""The benchmark's own tests: python3 perfbench/test_perfbench.py

The open-loop test builds the helper binary on first use (as run.py does).
"""

import json
import os
import socket
import sys
import threading
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7], 99), 7)

    def test_ten_samples_beyond(self):
        # p99 of 1000 samples leaves exactly ten above it; of 999, nine.
        self.assertEqual(run.supported_percentile(1000, 99), 99)
        self.assertEqual(run.supported_percentile(999, 99), 95)
        self.assertEqual(run.supported_percentile(200, 95), 95)
        self.assertEqual(run.supported_percentile(199, 95), 90)
        self.assertEqual(run.supported_percentile(20, 50), 50)
        self.assertIsNone(run.supported_percentile(19, 50))
        self.assertEqual(run.supported_percentile(100000, 99), 99)

    def test_report_refuses_unsupported_and_counts_samples(self):
        report = run.Report()
        report.put_percentile("p99", list(range(1000)), 99, "ms")
        self.assertEqual(report.metrics["p99"],
                         (989.0, "ms", "1000 in 1 segments"))
        with self.assertRaises(run.BenchError):
            report.put_percentile("p99", list(range(999)), 99, "ms")

    def test_segments_keep_ten_samples_beyond(self):
        self.assertEqual(run.segmented_percentile([1.0] * 8000, 99)[1], 8)
        self.assertEqual(run.segmented_percentile([1.0] * 7999, 99)[1], 7)
        self.assertEqual(run.segmented_percentile([1.0] * 1000, 50)[1], 8)

    def test_a_stalled_segment_does_not_move_the_median(self):
        values = [1.0] * 8000
        values[3000:3100] = [50.0] * 100  # a stall inside segment 3
        self.assertEqual(run.percentile(values, 99), 50.0)
        self.assertEqual(run.segmented_percentile(values, 99), (1.0, 8))

    def test_segmented_rate(self):
        # 16 requests of 2 events, one per ms; one segment stalls 10 ms.
        rows = [(0, i * 1_000_000, (i + 1) * 1_000_000, 200)
                for i in range(16)]
        self.assertAlmostEqual(run.segmented_rate(rows, [2] * 16), 2000.0)
        stalled = rows[:4] + [(0, s, r + 10_000_000, 200)
                              for _, s, r, _ in rows[4:]]
        self.assertAlmostEqual(run.segmented_rate(stalled, [2] * 16), 2000.0)


class RateAtSloTest(unittest.TestCase):
    def test_interpolates_between_rungs(self):
        slo = run.SLO_MS
        rungs = [(500, slo / 10, True), (1000, slo * 10, False),
                 (2000, slo * 100, False)]
        # log(p99) halfway between the two rungs crosses the limit.
        self.assertAlmostEqual(run.rate_at_slo(rungs), 750.0)

    def test_all_meet_and_none_meet(self):
        slo = run.SLO_MS
        self.assertEqual(run.rate_at_slo([(500, 1, True), (1000, 2, True)]),
                         1000)
        self.assertAlmostEqual(
            run.rate_at_slo([(500, slo * 2, False), (1000, slo * 4, False)]),
            250.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            doc = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in doc["per_layer"]],
                         list(run.PER_LAYER))
        for w in doc["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


class SelfTimeTest(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = {
            0: (-1, 0, 100),
            1: (0, 10, 30),
            2: (0, 20, 50),    # overlaps span 1
            3: (0, 90, 120),   # runs past its parent's end
            4: (1, 12, 18),
        }
        own = run.self_times(spans)
        self.assertEqual(own[0], 100 - 40 - 10)
        self.assertEqual(own[1], 20 - 6)
        self.assertEqual(own[2], 30)
        self.assertEqual(own[3], 30)
        self.assertEqual(own[4], 6)

    def test_self_times_sum_to_root_duration(self):
        spans = {0: (-1, 0, 1000), 1: (0, 100, 400), 2: (1, 150, 250),
                 3: (0, 500, 900)}
        self.assertEqual(sum(run.self_times(spans).values()), 1000)


class StallingServer:
    """Answers each request at once, except request `stall_at`, which it
    holds for `stall_s` before answering."""

    def __init__(self, stall_at, stall_s):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(1)
        self.port = self.sock.getsockname()[1]
        self.stall_at, self.stall_s = stall_at, stall_s
        self.thread = threading.Thread(target=self.serve)
        self.thread.start()

    def serve(self):
        conn, _ = self.sock.accept()
        buf, index = b"", 0
        while True:
            while b"\r\n\r\n" not in buf:
                chunk = conn.recv(65536)
                if not chunk:
                    conn.close()
                    return
                buf += chunk
            head, buf = buf.split(b"\r\n\r\n", 1)
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            while len(buf) < length:
                buf += conn.recv(65536)
            buf = buf[length:]
            if index == self.stall_at:
                time.sleep(self.stall_s)
            body = b'{"ok":true}\n'
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                         % (len(body), body))
            index += 1

    def close(self):
        self.thread.join()
        self.sock.close()


class OpenLoopTest(unittest.TestCase):
    def test_stall_is_charged_to_requests_due_during_it(self):
        run.build()
        os.makedirs(run.WORK, exist_ok=True)
        stall_ms, gap_ms = 300, 20
        server = StallingServer(stall_at=2, stall_s=stall_ms / 1e3)
        daemon = type("Stub", (), {"port": server.port})()
        plan = [(i * gap_ms * 1_000_000, "GET", "/x", "") for i in range(8)]
        try:
            rows = run.drive(daemon, plan, "selftest-open")
        finally:
            server.close()
        self.assertEqual([r[3] for r in rows], [200] * 8)
        latency, lag = run.open_loop_latencies([r[:4] for r in rows])
        ms = [t / 1e6 for t in latency]
        # The stalled request, and every request due before the stall
        # ended, waits for it: latency counts from the due time.
        self.assertGreaterEqual(ms[2], stall_ms)
        stall_end = 2 * gap_ms + stall_ms
        for i in range(3, 8):
            self.assertGreaterEqual(ms[i], stall_end - i * gap_ms - 1)
        # Before the stall requests go out on time and return fast.
        self.assertLess(ms[0], 50)
        # The generator itself kept up: each request left as soon as it
        # was due and the previous response was in.
        self.assertLess(max(lag) / 1e6, 20)
        self.assertEqual(len(lag), 8)


if __name__ == "__main__":
    unittest.main()
