"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import benchlib  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)
        self.assertEqual(benchlib.tail_percentile(9999), 99.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(99), 50.0)
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertIsNone(benchlib.tail_percentile(0))

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)

    def test_wanted_percentile_falls_back_when_samples_are_few(self):
        values = list(range(1, 501))
        self.assertEqual(benchlib.timing_percentile(values, 99), (450.0, 90.0))
        self.assertEqual(benchlib.timing_percentile(list(range(1, 1001)), 99), (990.0, 99.0))
        self.assertEqual(benchlib.timing_percentile(values, 50), (250.0, 50.0))
        self.assertEqual(benchlib.timing_percentile([1, 2, 3], 50), (0.0, None))

    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2.0)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped_to_the_parent(self):
        spans = [
            (0, -1, "round", 0, 100),
            (1, 0, "a", 10, 30),
            (2, 0, "b", 20, 50),   # overlaps a: 10..50 is covered once
            (3, 0, "c", 90, 120),  # runs past the parent: only 90..100 counts
        ]
        self.assertEqual(benchlib.self_times(spans), {"round": 50, "a": 20, "b": 30, "c": 30})

    def test_grandchildren_count_against_their_parent_only(self):
        spans = [
            (0, -1, "round", 0, 100),
            (1, 0, "phase", 0, 80),
            (2, 1, "op", 10, 70),
            (3, 1, "op", 70, 75),
        ]
        self.assertEqual(benchlib.self_times(spans), {"round": 20, "phase": 15, "op": 65})

    def test_self_time_sums_over_spans_of_one_name(self):
        spans = [(0, -1, "op", 0, 5), (1, -1, "op", 10, 12)]
        self.assertEqual(benchlib.self_times(spans), {"op": 7})


class SchemaTest(unittest.TestCase):
    def test_repository_benchmark_is_valid(self):
        self.assertEqual(benchlib.validate_benchmark(BENCHMARK), [])

    def test_every_metric_has_a_computation_and_no_other(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
        self.assertEqual(names, set(run.METRICS))

    def test_benchmark_workloads_are_runnable(self):
        for w in BENCHMARK["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)

    def broken(self, mutate):
        doc = copy.deepcopy(BENCHMARK)
        mutate(doc)
        return benchlib.validate_benchmark(doc)

    def test_rejects_malformed_documents(self):
        cases = {
            "extra key": lambda d: d.update(extra=1),
            "bad name": lambda d: d["per_layer"][0].update(name="_x"),
            "long name": lambda d: d["per_layer"][0].update(name="x" * 65),
            "bad unit": lambda d: d["per_layer"][0].update(unit="m s"),
            "bound too wide": lambda d: d["end_to_end"][1].update(bound=0.3),
            "bound on per-layer": lambda d: d["per_layer"][0].update(bound=0.1),
            "no setup_s": lambda d: d["end_to_end"].pop(0),
            "duplicate name": lambda d: d["per_layer"].append(dict(d["per_layer"][0])),
            "absolute command": lambda d: d["command"].append("/bin/true"),
            "escaping path": lambda d: d["paths"].append("../x"),
            "one workload": lambda d: d.update(workloads=d["workloads"][:1]),
            "two-line why": lambda d: d["workloads"][0].update(why="a\nb"),
            "run_seconds": lambda d: d.update(run_seconds=61),
        }
        for what, mutate in cases.items():
            with self.subTest(what):
                self.assertNotEqual(self.broken(mutate), [])

    def test_result_validation(self):
        metrics = {"setup_s": "s", "work_units_per_s": "1/s"}
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"setup_s": {"value": 0.5, "unit": "s"},
                            "work_units_per_s": {"value": 10, "unit": "1/s"}}}
        self.assertEqual(benchlib.validate_result(good, metrics), [])
        cases = {
            "missing metric": lambda r: r["metrics"].pop("setup_s"),
            "extra metric": lambda r: r["metrics"].update(x={"value": 1, "unit": "s"}),
            "wrong unit": lambda r: r["metrics"]["setup_s"].update(unit="ms"),
            "not a number": lambda r: r["metrics"]["setup_s"].update(value="1"),
            "infinite": lambda r: r["metrics"]["setup_s"].update(value=float("inf")),
            "extra key": lambda r: r.update(notes=""),
            "nothing attempted": lambda r: r.update(attempted=0),
            "boolean count": lambda r: r.update(failed=False),
        }
        for what, mutate in cases.items():
            with self.subTest(what):
                result = copy.deepcopy(good)
                mutate(result)
                self.assertNotEqual(benchlib.validate_result(result, metrics), [])


if __name__ == "__main__":
    unittest.main()
