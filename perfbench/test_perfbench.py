#!/usr/bin/env python3
"""The benchmark's own tests: output schema and model-clock determinism.

Run from the root of a checkout (builds like run.py, ~1.5 min warm):

    python3 perfbench/test_perfbench.py
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
LINE = re.compile(r"^metric (\S+) value=(\S+) unit=(\S+) clock=(host|model) "
                  r"workload=(dse|batch|stream|all) kind=(end_to_end|per_layer)$")
NPROC = max(1, min(4, os.cpu_count() or 1))

with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(binary, workload, trace, threads, seed=7):
    """Runs one quick pass; returns (metric lines by name, final JSON)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--exec-threads", str(threads), "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("perfbench exited %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    metrics = {}
    for line in lines:
        if not line.startswith("metric "):
            continue
        m = LINE.match(line)
        if m is None:
            raise AssertionError("malformed metric line: " + line)
        name, value, unit, clock, workload_of, kind = m.groups()
        metrics[name] = {"value": float(value), "unit": unit, "clock": clock,
                         "workload": workload_of, "kind": kind}
    return metrics, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")

    def check_schema(self, trace):
        metrics, result = bench(self.binary, "stream", trace, NPROC)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertEqual(metrics[m["name"]]["kind"],
                             "per_layer" if trace else "end_to_end")
        for name in metrics:
            self.assertRegex(name, NAME)
        if not trace:
            for m in declared:
                self.assertNotEqual(result["metrics"][m["name"]]["value"], 0, m["name"])
        return metrics

    def test_schema_end_to_end(self):
        self.check_schema(trace=0)

    def test_schema_per_layer(self):
        self.check_schema(trace=1)

    def test_model_clock_is_deterministic(self):
        def model(workload, threads):
            metrics, result = bench(self.binary, workload, 0, threads)
            self.assertTrue(result["correct"])
            return {k: v["value"] for k, v in metrics.items()
                    if v["clock"] == "model" and v["kind"] == "end_to_end"}

        first = model("dse", NPROC)
        self.assertEqual(len(first), 7)
        self.assertEqual(first, model("dse", NPROC))
        self.assertEqual(first, model("batch", 1))


if __name__ == "__main__":
    unittest.main()
