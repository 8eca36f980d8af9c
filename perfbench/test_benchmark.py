"""Tests of the benchmark's own definition and arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The span ledger (self time, layer sums) is tested in Rust:

    cargo test --offline --manifest-path perfbench/Cargo.toml
"""

import importlib.util
import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
SPEC = load(os.path.join(HERE, "spec.json"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


class BenchmarkFile(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertLessEqual(len(BENCH["end_to_end"]), 16)
        self.assertLessEqual(len(BENCH["per_layer"]), 128)
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_names_and_units(self):
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for n in names:
            self.assertRegex(n, NAME)
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_bounds(self):
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))


class Spec(unittest.TestCase):
    """spec.json describes exactly what BENCHMARK.json lists."""

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(SPEC["workloads"]))
        for name, w in SPEC["workloads"].items():
            for key in ("loop", "threads", "pages", "k", "policy", "working_set", "why"):
                self.assertIn(key, w, f"{name} does not state its {key}")

    def test_end_to_end_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCH["end_to_end"]},
                         {n: d["unit"] for n, d in SPEC["end_to_end"].items()})

    def test_every_layer_metric_maps_to_an_end_to_end_metric_and_workload(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        workloads = set(SPEC["workloads"])
        self.assertEqual({m["name"]: m["unit"] for m in BENCH["per_layer"]},
                         {n: d["unit"] for n, d in SPEC["per_layer"].items()})
        for name, d in SPEC["per_layer"].items():
            self.assertTrue(d["moves"], f"{name} moves nothing")
            self.assertTrue(set(d["applies"]) <= workloads, name)
            for metric, workload in d["moves"]:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, workloads, name)

    def test_layers_are_repository_modules(self):
        modules = {
            "workloads.streaming": "crates/occ-workloads/src/streaming.rs",
            "sim.binio": "crates/occ-sim/src/binio.rs",
            "sim.stepper": "crates/occ-sim/src/stepper.rs",
            "probe.timeseries": "crates/occ-probe/src/timeseries.rs",
            "probe.checkpoint": "crates/occ-probe/src/checkpoint.rs",
            "sim.concurrent": "crates/occ-sim/src/concurrent.rs",
            "cli": "crates/occ-cli/src",
        }
        for m in BENCH["per_layer"]:
            layer = m["name"].rsplit(".", 1)[0]
            self.assertIn(layer, modules, m["name"])
            self.assertTrue(os.path.exists(os.path.join(ROOT, modules[layer])), layer)


class Histogram(unittest.TestCase):
    def test_bucket_bounds_follow_the_log_linear_layout(self):
        self.assertEqual(run.bucket_bounds(0), (0, 0))
        self.assertEqual(run.bucket_bounds(31), (31, 31))
        self.assertEqual(run.bucket_bounds(32), (32, 32))
        self.assertEqual(run.bucket_bounds(63), (63, 63))
        self.assertEqual(run.bucket_bounds(64), (64, 65))
        self.assertEqual(run.bucket_bounds(96), (128, 131))
        # Consecutive buckets tile the value range.
        for i in range(1, 400):
            self.assertEqual(run.bucket_bounds(i)[0], run.bucket_bounds(i - 1)[1] + 1)

    def test_quantile_interpolates_within_the_bucket(self):
        hist = {"count": 10, "max": "131", "buckets": [[40, 5], [96, 5]]}
        self.assertEqual(run.hist_quantile(hist, 0.5), 40.0)
        # Rank 7.5 is halfway into [128, 131].
        self.assertAlmostEqual(run.hist_quantile(hist, 0.75), 129.5)
        self.assertEqual(run.hist_quantile(hist, 1.0), 131)


if __name__ == "__main__":
    unittest.main()
