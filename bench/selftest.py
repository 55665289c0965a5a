"""Tests of the benchmark's own logic, separate from the codec's test suite.

    python3 bench/selftest.py            # everything, including the smoke runs
    python3 bench/selftest.py -k Logic   # the fast tests only
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import benchlib  # noqa: E402
from workloads import WORKLOADS, generate, received_text, zero_runs_at_least  # noqa: E402


class LogicPercentiles(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(benchlib.highest_percentile(10_000), Fraction(999, 10))
        self.assertEqual(benchlib.highest_percentile(1000), 99)
        self.assertEqual(benchlib.highest_percentile(999), 95)
        self.assertEqual(benchlib.highest_percentile(200), 95)
        self.assertEqual(benchlib.highest_percentile(199), 90)
        self.assertEqual(benchlib.highest_percentile(20), 50)
        self.assertIsNone(benchlib.highest_percentile(19))
        for n in (20, 99, 100, 999, 1000, 1234, 10_000):
            self.assertGreaterEqual(benchlib.beyond(n, benchlib.highest_percentile(n)), 10)

    def test_nearest_rank(self):
        values = list(range(1000, 0, -1))
        self.assertEqual(benchlib.percentile(values, 50), 500)
        self.assertEqual(benchlib.percentile(values, 99), 990)
        self.assertEqual(sum(v > 990 for v in values), benchlib.beyond(1000, 99))
        self.assertEqual(benchlib.percentile([7], 99), 7)


class LogicSpans(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        sp = benchlib.Spans()
        rows = [
            ("word", 1, -1, 0, 100),  # 0: root
            ("encode", 1, 0, 10, 40),  # 1
            ("layer.a", 1, 1, 15, 25),  # 2: child of encode
            ("decode", 1, 0, 30, 60),  # 3: overlaps encode by 10
            ("layer.b", 1, 3, 55, 70),  # 4: runs past its parent's end
            ("word", 2, -1, 200, 230),  # 5: a second root without children
        ]
        sp.rows = list(rows)
        self.assertEqual(sp.self_times(), [50, 20, 10, 25, 15, 30])
        self.assertEqual(sp.roots(), [0, 0, 0, 0, 0, 5])

    def test_recorded_spans_nest(self):
        sp = benchlib.Spans()
        root = sp.open("word", 7)
        self.assertEqual(sp.call("layer.f", 7, root, sum, [1, 2, 3]), 6)
        sp.close(root)
        (name0, word0, parent0, s0, e0), (name1, word1, parent1, s1, e1) = sp.rows
        self.assertEqual((parent0, parent1, word0, word1), (-1, 0, 7, 7))
        self.assertTrue(s0 <= s1 <= e1 <= e0)
        self.assertEqual(sp.self_times()[0], (e0 - s0) - (e1 - s1))


class LogicGenerators(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in WORKLOADS.values():
            with self.subTest(workload=w.name):
                self.assertEqual(generate(w, 5, 40), generate(w, 5, 40))
                self.assertNotEqual(generate(w, 5, 40), generate(w, 6, 40))

    def test_channel_mix(self):
        for w in WORKLOADS.values():
            words = generate(w, 3, 1000)
            kinds = [wd.kind for wd in words]
            hit = round(w.indel_share * 1000)
            self.assertEqual(kinds.count("insertion"), hit // 2 + hit % 2)
            self.assertEqual(kinds.count("deletion"), hit // 2)
            self.assertTrue(all(len(wd.message) == w.k - 1 for wd in words))

    def test_sparse_messages_have_long_zero_runs(self):
        dense = generate(WORKLOADS["k4000-random"], 1, 50)
        sparse = generate(WORKLOADS["k4000-sparse"], 1, 50)
        ones = sum(wd.message.count("1") for wd in sparse) / (50 * 3999)
        self.assertAlmostEqual(ones, 1 / 16, delta=0.01)
        mean = lambda ws: sum(zero_runs_at_least(wd.message, 12) for wd in ws) / len(ws)
        self.assertLess(mean(dense), 2)
        self.assertGreater(mean(sparse), 50)

    def test_received_text(self):
        w = WORKLOADS["k60-clean"]
        for wd in generate(w, 9, 300):
            z = "01" * 34 + "0"
            rx = received_text(z, wd)
            self.assertEqual(len(rx) - len(z), {None: 0, "insertion": 1, "deletion": -1}[wd.kind])


class LogicCompare(unittest.TestCase):
    def test_verdicts(self):
        base = {s: 100.0 + s % 3 for s in range(10)}
        self.assertEqual(benchlib.classify(base, {s: 80.0 for s in range(10)}, "lower", 0.1), "better")
        self.assertEqual(benchlib.classify(base, {s: 130.0 for s in range(10)}, "lower", 0.1), "worse")
        self.assertEqual(benchlib.classify(base, {s: 104.0 for s in range(10)}, "lower", 0.1), "within bound")
        noisy = {s: 100.0 + 40 * (s % 2) for s in range(10)}
        self.assertEqual(benchlib.classify(noisy, {s: 115.0 for s in range(10)}, "lower", 0.1), "unresolved")
        self.assertEqual(benchlib.classify(base, {s: 130.0 for s in range(10)}, "higher", None), "better")
        self.assertEqual(benchlib.classify(base, dict(base), "higher", None), "unresolved")


class LogicSpec(unittest.TestCase):
    def test_benchmark_json_names_the_workloads_of_the_code(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertTrue(all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"]))


class Smoke(unittest.TestCase):
    """One --seconds 1 run of every workload, untraced and traced."""

    def test_every_workload_runs_clean(self):
        work = BENCH / "_work"
        work.mkdir(exist_ok=True)
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        with tempfile.TemporaryDirectory(dir=work) as out:
            for w in WORKLOADS:
                for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=w, trace=trace):
                        proc = subprocess.run(
                            [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace), "--out", out],
                            capture_output=True, text=True, timeout=180, cwd=BENCH.parent,
                        )
                        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                        result = json.loads(proc.stdout.splitlines()[-1])
                        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[key]})


if __name__ == "__main__":
    unittest.main()
