#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny namespaces.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py from the checkout root (building it first if
needed). Each workload runs untraced and traced on a namespace of
FILES files for one second. The tests check that:
  - every metric BENCHMARK.json names appears with its unit;
  - no op fails its oracle;
  - per-layer counts repeat exactly across two traced runs of one seed,
    and with pools of 1 and 3 workers;
  - a directory holding only BENCHMARK.json and perfbench/ makes the
    command fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
FILES = 3000
SEED = 1
COUNTS = ("graph.vertices", "graph.edges", "core.findings",
          "checker.repairs_applied", "online.records")
# Per-layer metrics of modules only some workloads run. A traced run
# prints them above its result line, which carries the per_layer list.
LAYER_LINES = (
    "scanner.wall_ms", "scanner.cpu_ms", "scanner.inodes", "scanner.sim_s",
    "aggregator.decode_ms", "aggregator.wire_mb", "aggregator.transfer_sim_s",
    "checker.check_ms", "checker.repair_ms", "checker.repairs_planned",
    "checker.repairs_applied", "checker.repair_yield", "checker.rounds",
    "online.catch_up_ms", "online.records", "online.scrub_ms",
    "online.scrub_slots", "online.check_ms", "online.freeze_ms",
    "online.check_self_ms", "online.plan_reuse_ratio",
    "online.vertex_drift_pct")


def run(workload, trace, workers=None, cwd=ROOT):
    """Returns (exit code, result dict or None, {metric: (value, unit)})."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
               "--files", str(FILES)]
    if workers is not None:
        command += ["--workers", str(workers)]
    proc = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = (float(parts[2]), parts[3])
    return proc.returncode, result, printed


class EndToEnd(unittest.TestCase):
    def test_every_end_to_end_metric_with_unit_and_no_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, printed = run(workload, trace=0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    expected)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertEqual(printed["op_failure_rate"], (0.0, "ratio"))
                if workload == "online_churn":
                    self.assertEqual(printed["latency_p90_ms"][1], "ms")
                    self.assertEqual(printed["write_p50_us"][1], "us")


class PerLayer(unittest.TestCase):
    def test_every_metric_and_counts_repeat_across_runs_and_pools(self):
        expected = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                counts = []
                for workers in (None, None, 1, 3):
                    code, result, printed = run(workload, trace=1,
                                                workers=workers)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        expected)
                    for name, metric in result["metrics"].items():
                        self.assertNotEqual(metric["value"], 0, name)
                    self.assertEqual(set(printed) - set(result["metrics"]),
                                     set(LAYER_LINES) | {"op_failure_rate"})
                    self.assertEqual(printed["op_failure_rate"], (0.0, "ratio"))
                    values = {k: v for k, (v, _) in printed.items()}
                    values.update({k: m["value"]
                                   for k, m in result["metrics"].items()})
                    counts.append({c: values[c] for c in COUNTS})
                self.assertGreater(counts[0]["graph.vertices"], 0)
                self.assertGreater(counts[0]["core.findings"], 0)
                self.assertEqual(counts[0], counts[1], "two runs of one seed")
                self.assertEqual(counts[0], counts[2], "a pool of 1")
                self.assertEqual(counts[0], counts[3], "a pool of 3")
                summary = ROOT / ".bench_build" / "traces" / f"{workload}-{SEED}"
                trace = json.loads(Path(f"{summary}.trace.json").read_text())
                self.assertTrue(trace["traceEvents"])
                spans = json.loads(Path(f"{summary}.summary.json").read_text())
                self.assertEqual(set(spans["metrics"]),
                                 set(expected) | set(LAYER_LINES))
                for name, metric in result["metrics"].items():
                    self.assertEqual(spans["metrics"][name], metric)


class BareCheckout(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = ROOT / ".bench_build" / "tests" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(WORKLOADS[0], trace=0, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
