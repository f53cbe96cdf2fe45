#!/usr/bin/env python3
"""Tests of the benchmark runner and of BENCHMARK.json against the driver.

    PERFBENCH_BIN=.bench_build/perfbench python3 perfbench/tests/test_run.py

Without PERFBENCH_BIN the catalog comparison is skipped; ctest sets it.
"""

import importlib.util
import json
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(BENCH_DIR, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_setup_time_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in load_spec()["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    @unittest.skipUnless(os.environ.get("PERFBENCH_BIN"), "PERFBENCH_BIN unset")
    def test_driver_catalog_matches(self):
        out = subprocess.run([os.environ["PERFBENCH_BIN"], "--list-metrics"],
                             capture_output=True, text=True, check=True)
        catalog = json.loads(out.stdout)
        spec = load_spec()
        self.assertEqual(catalog["workloads"],
                         [w["name"] for w in spec["workloads"]])
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(catalog[kind],
                             [[m["name"], m["unit"]] for m in spec[kind]],
                             kind)


def result_line(spec, trace, drop=None, unit=None, extra=False, value=1.5):
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if drop:
        del metrics[drop]
    if unit:
        metrics[unit]["unit"] = "parsecs"
    if extra:
        metrics["bogus"] = {"value": 1, "unit": "s"}
    return json.dumps({"correct": True, "attempted": 10, "failed": 0,
                       "metrics": metrics})


class SelectResultTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_accepts_every_metric_in_spec_order(self):
        for trace in (False, True):
            got = run.select_result(result_line(self.spec, trace), self.spec,
                                    trace)
            kind = "per_layer" if trace else "end_to_end"
            self.assertEqual(list(got["metrics"]),
                             [m["name"] for m in self.spec[kind]])
            self.assertEqual(list(got), ["correct", "attempted", "failed",
                                         "metrics"])

    def test_rejects_missing_extra_wrong_unit_and_non_numbers(self):
        bad = [result_line(self.spec, False, drop="setup_s"),
               result_line(self.spec, False, extra=True),
               result_line(self.spec, False, unit="read_p50_us"),
               result_line(self.spec, False, value="fast"),
               result_line(self.spec, False, value=True),
               "not json"]
        for line in bad:
            with self.assertRaises(run.BenchError):
                run.select_result(line, self.spec, False)

    def test_rejects_zero_attempts(self):
        line = json.loads(result_line(self.spec, False))
        line["attempted"] = 0
        with self.assertRaises(run.BenchError):
            run.select_result(json.dumps(line), self.spec, False)


if __name__ == "__main__":
    unittest.main()
