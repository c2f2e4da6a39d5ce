#!/usr/bin/env python3
"""Tests of the benchmark harness itself (not of LION).

    python3 lionbench/test_bench.py        # from the repository root

Every case goes through lionbench/run.py at --size tiny (a few units, a
two-second run), so the first case pays for the build:

  * each workload, untraced, prints every end-to-end metric it names with
    its unit, passes its correctness checks, and ends with a JSON line that
    carries every BENCHMARK.json end_to_end metric with the same unit;
  * each workload, traced, prints every per-layer metric with its unit and
    ends with the BENCHMARK.json per_layer metrics;
  * a serve_mixed run that deliberately drops one response counts it in
    failed_share and exits nonzero.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metrics each workload prints by name, with their units.
E2E = {
    "batch_fleet": {
        "setup_s": "s", "failed_share": "share", "peak_rss_mb": "MB",
        "calibrations_per_s": "1/s", "center_error_mm_p50": "mm",
        "center_error_mm_p90": "mm",
    },
    "serve_mixed": {
        "setup_s": "s", "failed_share": "share", "peak_rss_mb": "MB",
        "center_error_mm_p50": "mm", "center_error_mm_p90": "mm",
        "flush_solve_p50_ms": "ms", "flush_solve_p90_ms": "ms",
        "flush_repeat_p50_ms": "ms", "flush_repeat_p99_ms": "ms",
        "tick_p50_ms": "ms", "tick_p99_ms": "ms",
        "bench.generator_lag_ms_p99": "ms",
    },
    "serve_ingest": {
        "setup_s": "s", "failed_share": "share", "peak_rss_mb": "MB",
        "ingest_reads_per_s": "1/s",
    },
}

# Per-layer metrics only a live daemon gives, printed by the traced run of
# the workload that has one.
SERVE_LAYERS = {
    "serve_mixed": {
        "serve.flush_inline_us": "us", "serve.tick_inline_us": "us",
        "serve.reorder_wait_ms": "ms", "serve.reorder_depth_hwm": "count",
        "serve.cal_source_share.memo.repeat": "share",
        "serve.cal_source_share.fallback.solve": "share",
        "bench.generator_lag_ms_p99": "ms",
    },
    "serve_ingest": {"serve.frontend_share": "share"},
}

LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            table[m.group(1)] = (m.group(2), m.group(3))
    result = json.loads(lines[-1]) if lines else None
    return proc, table, result


class HarnessTest(unittest.TestCase):
    def check_table(self, table, expected, proc):
        for name, unit in expected.items():
            self.assertIn(name, table, "%s not printed:\n%s" % (name, proc.stdout))
            self.assertEqual(table[name][1], unit, name)

    def check_json(self, result, specs):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_workloads_print_every_metric(self):
        spec = benchmark_json()
        for workload, expected in E2E.items():
            with self.subTest(workload=workload):
                proc, table, result = run(workload)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.check_table(table, expected, proc)
                self.check_json(result, spec["end_to_end"])

    def test_traced_workloads_print_every_layer(self):
        spec = benchmark_json()
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for workload in E2E:
            with self.subTest(workload=workload):
                proc, table, result = run(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.check_table(table, layers, proc)
                self.check_table(table, SERVE_LAYERS.get(workload, {}), proc)
                self.check_json(result, spec["per_layer"])

    def test_missing_response_fails_the_run(self):
        proc, table, result = run("serve_mixed",
                                  extra=("--drop-responses", "1"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertGreater(float(table["failed_share"][0]), 0.0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
