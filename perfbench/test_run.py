#!/usr/bin/env python3
"""Tests of the benchmark itself: BENCHMARK.json's shape, the result-line
checks in run.py, and (after building) the C++ helpers in helpers_test.cc.

    python3 perfbench/test_run.py
"""

import json
import re
import subprocess
import sys
import unittest

import run

SPEC, DOC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def e2e_result(**overrides):
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                          for m in SPEC["end_to_end"]}}
    result.update(overrides)
    return result


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
                 for m in SPEC[group]]
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertRegex(m["unit"], UNIT)
        for name in names:
            self.assertRegex(name, NAME)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_docs_cover_every_metric(self):
        self.assertEqual(set(DOC["end_to_end"]), {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(set(DOC["per_layer"]), {m["name"] for m in SPEC["per_layer"]})
        workloads = {w["name"] for w in SPEC["workloads"]}
        for name, d in DOC["per_layer"].items():
            self.assertTrue(d["measured_on"], name)
            self.assertLessEqual(set(d["measured_on"]), workloads, name)
            self.assertTrue(d["measured_by"] and d["moves"], name)


class CheckResultTest(unittest.TestCase):
    def check(self, result, trace=0, workload="predict_closed"):
        return run.check_result(result, SPEC, DOC, workload, trace)

    def test_valid_end_to_end(self):
        out = self.check(e2e_result())
        self.assertEqual(list(out), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(list(out["metrics"]), [m["name"] for m in SPEC["end_to_end"]])

    def test_rejects_bad_results(self):
        missing = e2e_result()
        del missing["metrics"]["setup_s"]
        wrong_unit = e2e_result()
        wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
        extra = e2e_result()
        extra["metrics"]["bogus"] = {"value": 1.0, "unit": "s"}
        text = e2e_result()
        text["metrics"]["setup_s"]["value"] = "1.0"
        for bad in (missing, wrong_unit, extra, text, e2e_result(attempted=0),
                    e2e_result(failed=11), e2e_result(correct=1), {"correct": True}):
            with self.assertRaises(ValueError):
                self.check(bad)

    def test_per_layer_fills_layers_the_workload_skips(self):
        measured = [n for n, d in DOC["per_layer"].items() if "pipeline_cold" in d["measured_on"]]
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {n: {"value": 2.0, "unit": u} for n, u in
                              ((m["name"], m["unit"]) for m in SPEC["per_layer"])
                              if n in measured}}
        out = self.check(result, trace=1, workload="pipeline_cold")
        self.assertEqual(set(out["metrics"]), {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(out["metrics"]["serve.kernel_us"]["value"], 0.0)
        self.assertEqual(out["metrics"]["core.fra_s"]["value"], 2.0)
        del result["metrics"]["core.fra_s"]
        with self.assertRaises(ValueError):
            self.check(result, trace=1, workload="pipeline_cold")


class PlumbingTest(unittest.TestCase):
    def test_child_timeout_covers_two_phases(self):
        self.assertGreater(run.child_timeout(85), 2 * 85)
        # A run at the default length still ends within 180 s.
        self.assertLessEqual(run.child_timeout(SPEC["run_seconds"]), 170)

    def test_source_digest_ignores_bytecode(self):
        before = run.source_digest()
        cache = run.HERE / "__pycache__"
        cache.mkdir(exist_ok=True)
        stray = cache / "digest_probe.cpython.pyc"
        stray.write_bytes(b"\0")
        try:
            self.assertEqual(run.source_digest(), before)
        finally:
            stray.unlink()


class HelpersTest(unittest.TestCase):
    def test_cpp_helpers(self):
        run.build()
        proc = subprocess.run([str(run.BUILD / "perfbench_test")], capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1] + sys.argv[1:])
