"""Tests for the benchmark's own code (no simulator build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import run  # noqa: E402
import steadiness  # noqa: E402


def span(name, start, end, parent=-1, rep=0, cell=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "rep": rep, "cell": cell}


class QuartileMath(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.1, 2.9, 3.3, 2.7, 3.0, 3.6, 2.8, 3.2, 3.05, 2.95]
        q1, q2, q3 = benchstats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))
        self.assertAlmostEqual(benchstats.spread(values), (q3 - q1) / q2)

    def test_single_value_and_zero_median(self):
        self.assertEqual(benchstats.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(benchstats.spread([2.0]), 0.0)
        self.assertEqual(benchstats.spread([0.0, 0.0, 0.0]), 0.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(benchstats.worse_by(10, 11, "lower"), 0.1)
        self.assertAlmostEqual(benchstats.worse_by(10, 11, "higher"), -0.1)
        self.assertAlmostEqual(benchstats.worse_by(10, 9, "higher"), 0.1)


class SpanSelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span("rep", 0.0, 10.0),
                 span("harness.get", 1.0, 4.0, parent=0),
                 span("sim.simulate", 5.0, 9.0, parent=0),
                 span("crashtest.step", 6.0, 7.0, parent=2)]
        self.assertEqual(benchstats.self_times(spans),
                         [3.0, 3.0, 3.0, 1.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span("rep", 0.0, 10.0),
                 span("a", 2.0, 6.0, parent=0),
                 span("b", 4.0, 12.0, parent=0)]
        self.assertAlmostEqual(benchstats.self_times(spans)[0], 2.0)

    def test_layer_split_by_probes(self):
        spans = [
            # probes: population takes 3/4 of a bundle build, the
            # checker 1/5 of a checked reference run
            span("probe.populate", 0.0, 3.0, rep=-1),
            span("probe.record", 3.0, 4.0, rep=-1),
            span("probe.unchecked_reference", 4.0, 8.0, rep=-1),
            span("probe.checked_reference", 8.0, 13.0, rep=-1),
            span("rep", 20.0, 30.0, rep=0),
            span("harness.get", 20.0, 24.0, parent=4, rep=0),
            span("sim.simulate_checked", 24.0, 29.0, parent=4, rep=0),
        ]
        times, coverage = benchstats.layer_times(spans)
        self.assertAlmostEqual(times["workloads.populate"], 3.0)
        self.assertAlmostEqual(times["trace.record"], 1.0)
        self.assertAlmostEqual(times["sim.simulate"], 4.0)
        self.assertAlmostEqual(times["analysis.check"], 1.0)
        self.assertAlmostEqual(coverage, 0.9)

    def test_median_over_traced_reps(self):
        spans = []
        for rep, length in enumerate([1.0, 5.0, 2.0]):
            root = len(spans)
            spans.append(span("rep", 0.0, length, rep=rep))
            spans.append(span("sim.simulate", 0.0, length, parent=root,
                              rep=rep))
        times, coverage = benchstats.layer_times(spans)
        self.assertEqual(times["sim.simulate"], 2.0)
        self.assertEqual(coverage, 1.0)


def fake_raw(trace):
    reps = [{"wall_s": w, "setup_s": w / 2, "main_s": w / 2,
             "ref_s": run.REFERENCE_S} for w in (2.0, 2.2, 2.1)]
    counts = {spec["name"]: 1.0 for spec in run.declared("per_layer")}
    counts["workloads.initops"] = 10.0
    return {"attempted": 9, "failed": 0, "errors": [], "untraced": reps,
            "traced": reps if trace else [], "sim_cycles": 12345,
            "sim_uops": 678, "peak_rss_mb": 80.5, "counts": counts}


class MetricsSchema(unittest.TestCase):
    def check_result(self, res, section):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        declared = {m["name"]: m["unit"] for m in run.declared(section)}
        self.assertEqual(set(res["metrics"]), set(declared))
        for name, m in res["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], declared[name])
            self.assertIsInstance(m["value"], (int, float))
        json.loads(json.dumps(res))

    def test_end_to_end_result(self):
        raw = fake_raw(trace=False)
        res = run.result(raw, run.end_to_end(raw), "end_to_end")
        self.check_result(res, "end_to_end")
        self.assertEqual(res["metrics"]["wall_s"]["value"], 2.0)
        self.assertEqual(res["metrics"]["sim_cycles"]["value"], 12345)

    def test_per_layer_result(self):
        raw = fake_raw(trace=True)
        spans = [span("rep", 0.0, 2.0),
                 span("sim.simulate", 0.0, 2.0, parent=0)]
        res = run.result(raw, run.per_layer(raw, spans), "per_layer")
        self.check_result(res, "per_layer")

    def test_host_times_are_in_reference_seconds(self):
        # A repetition on a host running at half speed takes twice the
        # seconds, and so does its reference pass.
        raw = fake_raw(trace=False)
        for r in raw["untraced"][1:]:
            for key in ("wall_s", "setup_s", "main_s", "ref_s"):
                r[key] *= 2
        m = run.end_to_end(raw)
        self.assertAlmostEqual(m["wall_s"][0], 2.0)
        self.assertAlmostEqual(m["setup_s"][0], 1.0)
        self.assertAlmostEqual(m["sim_uops_per_s"][0], 678 / 2.0)

    def test_host_times_are_first_quartiles(self):
        raw = fake_raw(trace=False)
        walls = [2.0, 2.1, 2.2, 2.3, 3.5, 3.9, 2.15]
        raw["untraced"] = [{"wall_s": w, "setup_s": w / 4, "main_s": w / 2,
                            "ref_s": run.REFERENCE_S} for w in walls]
        q1 = statistics.quantiles(walls, n=4)[0]
        m = run.end_to_end(raw)
        self.assertAlmostEqual(m["wall_s"][0], q1)
        self.assertAlmostEqual(m["setup_s"][0], q1 / 4)

    def test_failures_make_the_run_incorrect(self):
        raw = fake_raw(trace=False)
        raw.update(failed=1, errors=["QE/PMEM: run hit the cycle limit"])
        res = run.result(raw, run.end_to_end(raw), "end_to_end")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)


class BenchmarkContract(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_shape(self):
        bench = steadiness.load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        names = [w["name"] for w in bench["workloads"]]
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        self.assertEqual(sorted(run.DEFAULT_SEEDS), sorted(names))
        e2e = {m["name"]: m for m in bench["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        seen = set()
        for section in ("end_to_end", "per_layer"):
            for m in bench[section]:
                keys = {"name", "unit", "better"}
                if section == "end_to_end":
                    keys.add("bound")
                    self.assertTrue(0 < m["bound"] <= 0.25)
                self.assertEqual(set(m), keys)
                self.assertRegex(m["name"], self.NAME)
                self.assertRegex(m["unit"], self.UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])


class ExactMetrics(unittest.TestCase):
    def test_exact_mismatch_is_reported_per_seed(self):
        def r(seed, cycles, wall):
            return {"workload": "timing", "seed": seed, "result": {
                "metrics": {"sim_cycles": {"value": cycles,
                                           "unit": "cycles"},
                            "wall_s": {"value": wall, "unit": "s"}}}}
        same = [r(1, 100, 2.0), r(1, 100, 2.5), r(2, 120, 2.0)]
        self.assertEqual(steadiness.exact_mismatches(same), [])
        bad = same + [r(2, 121, 2.0)]
        self.assertEqual(steadiness.exact_mismatches(bad),
                         [("timing", 2, "sim_cycles", [120, 121])])


if __name__ == "__main__":
    unittest.main()
