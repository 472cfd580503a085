"""Self-tests of the benchmark harness.

Run with ``python3 -m pytest bench/test_bench.py`` (or ``python3 -m
unittest discover -s bench``).  The last test runs the whole benchmark
once with one-second workloads and takes a couple of minutes.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
from tracing import Span, Tracer, covered  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_valid_and_unique(self):
        spec = load_spec()
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        for m in metrics:
            self.assertIsNotNone(UNIT.fullmatch(m["unit"]), m)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class SpanArithmetic(unittest.TestCase):
    def test_covered_merges_overlaps_and_gaps(self):
        self.assertEqual(covered([]), 0.0)
        self.assertEqual(covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0)
        self.assertEqual(covered([(0.0, 4.0), (1.0, 2.0)]), 4.0)

    def test_self_time_subtracts_children_clipped_to_parent(self):
        tracer = Tracer()
        tracer.spans = [
            Span(1, "child", 1.0, 3.0, 0, "r"),
            Span(2, "child", 2.0, 5.0, 0, "r"),
            Span(3, "child", 8.0, 12.0, 0, "r"),  # runs past its parent's end
            Span(4, "grandchild", 2.0, 2.5, 1, "r"),
            Span(0, "parent", 0.0, 10.0, None, "r"),
        ]
        parent = tracer.spans[-1]
        # children cover [1, 5] and [8, 10] inside the parent: 6 of its 10 s
        self.assertAlmostEqual(tracer.self_time(parent), 4.0)
        self.assertAlmostEqual(tracer.self_time(tracer.spans[0]), 1.5)
        self.assertAlmostEqual(tracer.self_time(tracer.spans[3]), 0.5)

    def test_nested_spans_record_parent_and_run_id(self):
        tracer = Tracer()
        with tracer.run("pass-1"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        with tracer.span("after"):
            pass
        by_name = {s.name: s for s in tracer.spans}
        self.assertEqual(by_name["inner"].parent, by_name["outer"].span_id)
        self.assertIsNone(by_name["outer"].parent)
        self.assertEqual(by_name["inner"].run_id, "pass-1")
        self.assertEqual(by_name["after"].run_id, "main")
        self.assertLessEqual(by_name["outer"].start, by_name["inner"].start)
        self.assertGreaterEqual(tracer.self_time(by_name["outer"]), 0.0)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            pass
        self.assertEqual(tracer.spans, [])


class HostSpeedScaling(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        self.w = workloads

    def test_scale_divides_by_the_mean_sample(self):
        w = self.w
        speed = w.HostSpeed()
        speed.samples = [w.REF_NOMINAL_S] * 4
        self.assertAlmostEqual(speed.scale(2.0), 2.0)
        # a host at half speed: the kernel takes twice as long, so does the work
        speed.samples = [2 * w.REF_NOMINAL_S] * 4
        self.assertAlmostEqual(speed.scale(4.0), 2.0)
        speed.samples = [w.REF_NOMINAL_S, 3 * w.REF_NOMINAL_S]
        self.assertAlmostEqual(speed.scale(4.0), 2.0)

    def test_timed_samples_during_the_call_and_takes_their_time_off(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        with self.w.HostSpeed() as speed:
            time.sleep(0.35)
        edge = self.w.EDGE_SAMPLES
        self.assertGreaterEqual(len(speed.samples), 2 * edge + 2)
        self.assertAlmostEqual(speed.inside, sum(speed.samples[edge:-edge]))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

        def work():
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                pass
            return 7

        started = time.perf_counter()
        result, seconds, speed = self.w.timed(work)
        self.assertEqual(result, 7)
        self.assertLess(seconds, time.perf_counter() - started)
        self.assertGreater(speed.inside, 0.0)

        result, seconds, speed = self.w.timed(work, during=False)
        self.assertEqual(len(speed.samples), 2 * edge)
        self.assertEqual(speed.inside, 0.0)


class Generator(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in ("agent", "panel_cv", "remote_cv"):
            a = gen.digest(gen.workload_inputs(workload, 7))
            b = gen.digest(gen.workload_inputs(workload, 7))
            c = gen.digest(gen.workload_inputs(workload, 8))
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)
        self.assertEqual(gen.model_series_csv(7), gen.model_series_csv(7))

    def test_shapes(self):
        text = gen.cv_panel_csv(1)
        self.assertEqual(text.count("\n"), 1 + gen.PANEL_CV_SERIES * gen.PANEL_CV_POINTS)
        panels = gen.agent_panels(1)
        self.assertEqual(len(panels), gen.AGENT_PANELS)
        self.assertEqual([p for p, _ in panels[:3]], list(gen.PROFILES))
        for _, csv in panels:
            ids = {line.split(",")[0] for line in csv.splitlines()[1:]}
            self.assertIn(len(ids), (1, 2, 3))

    def test_intermittent_profile_is_mostly_zero(self):
        import numpy as np

        y = gen.profile_values("intermittent", np.random.default_rng(0), 600)
        self.assertGreater(float(np.mean(y == 0.0)), 0.5)


class WholeBenchmark(unittest.TestCase):
    def test_refuses_to_run_without_the_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(
                BENCH_DIR, Path(tmp) / "bench",
                ignore=shutil.ignore_patterns(".work", "__pycache__"),
            )
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "agent", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_one_command_prints_every_metric_with_its_unit(self):
        spec = load_spec()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--all", "--seed", "3", "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        summary = proc.stdout.split("\nsummary\n", 1)[1]
        for workload in ("agent", "panel_cv", "remote_cv"):
            for m in spec["end_to_end"]:
                line = rf"{workload} +{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\n"
                self.assertRegex(summary, line)
            self.assertRegex(summary, rf"{workload} +error_rate = 0\.0 ratio\n")
        for name, unit in (
            ("agent_latency_p50_s", "s"),
            ("cv_evals_per_s", "1/s"),
            ("remote_forecasts_per_s", "1/s"),
        ):
            self.assertRegex(summary, rf"{re.escape(name)} = \S+ {re.escape(unit)} \(n=\d+\)")
        for m in spec["per_layer"]:
            line = rf"\(traced\) +{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\n"
            self.assertRegex(summary, line)


if __name__ == "__main__":
    unittest.main()
