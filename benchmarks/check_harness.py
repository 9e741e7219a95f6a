"""Tests of the benchmark harness itself: self-time arithmetic and digests.

    python3 benchmarks/check_harness.py

Kept out of the library's pytest suite (the file name does not match
``test_*.py``); it needs the library sources under src/.
"""

import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import run  # noqa: E402
from tracing import Span, Tracer, self_times, totals  # noqa: E402
from workloads import WORKLOADS, digest_of, op_seed  # noqa: E402

WORKDIR = BENCH_DIR / "out" / "work" / "check"


class SelfTimeArithmetic(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span("mlmc.run_mlmc", None, 0, 100),
            Span("sde.coupled_terminal_batch", 0, 10, 40),
            Span("sde.em_terminal_batch", 1, 12, 20),
            Span("sde.em_terminal_batch", 1, 25, 30),
            Span("stats.welford_update", 0, 60, 70),
        ]
        self.assertEqual(self_times(spans), [100 - 30 - 10, 30 - 8 - 5, 8, 5, 10])
        _, by_layer = totals(spans)
        self.assertEqual(by_layer["sde"].self_ns, 30)  # the coupled span's extent
        self.assertEqual(by_layer["mlmc"].self_ns, 60)
        self.assertEqual(sum(t.self_ns for t in by_layer.values()), 100)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            Span("cli.run_experiment", None, 0, 100),
            Span("a.x", 0, 10, 50),
            Span("b.y", 0, 40, 60),  # overlaps a.x by 10
            Span("c.z", 0, 90, 130),  # runs past its parent's end
        ]
        self.assertEqual(self_times(spans)[0], 100 - 50 - 10)

    def test_counts_add_and_bytes_take_the_maximum(self):
        spans = [Span("randomkit.increment_batch", None, 0, 1,
                      counts={"normals": 10, "bytes": 80}),
                 Span("randomkit.increment_batch", None, 1, 2,
                      counts={"normals": 5, "bytes": 40})]
        _, by_layer = totals(spans)
        self.assertEqual(by_layer["randomkit"].counts, {"normals": 15, "bytes": 80})


class TracerRebinding(unittest.TestCase):
    def test_coupled_batch_nests_both_em_calls(self):
        from irregmc import mlmc, sde

        model = sde.make_model("sincos")
        inc = np.random.default_rng(0).standard_normal((7, 16, 1)) * 0.25
        original = mlmc.coupled_terminal_batch
        with Tracer() as tracer:
            fine, coarse = mlmc.coupled_terminal_batch(model, inc, 4)
        self.assertIs(mlmc.coupled_terminal_batch, original)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names, ["sde.coupled_terminal_batch",
                                 "sde.em_terminal_batch", "sde.em_terminal_batch"])
        self.assertEqual([s.parent for s in tracer.spans], [None, 0, 0])
        _, by_layer = totals(tracer.spans)
        self.assertEqual(by_layer["sde"].counts["path_steps"], 7 * 16 + 7 * 4)
        self.assertEqual(by_layer["sde"].self_ns,
                         tracer.spans[0].end - tracer.spans[0].start)
        ref_fine, ref_coarse = original(model, inc, 4)
        np.testing.assert_array_equal(fine, ref_fine)
        np.testing.assert_array_equal(coarse, ref_coarse)

    def test_failed_call_is_recorded_and_reraised(self):
        from irregmc import maximal
        from irregmc.errors import InvalidArgumentError

        nu = maximal.measure_from_atoms([[0.0]], [1.0])
        with Tracer() as tracer, self.assertRaises(InvalidArgumentError):
            maximal.maximal_at(nu, [1.0], R=-1.0)
        self.assertEqual(tracer.spans[0].name, "maximal.at_atomic")
        self.assertTrue(tracer.spans[0].failed)


class Calibration(unittest.TestCase):
    def test_ref_mean_is_a_ratio_of_sums(self):
        self.assertAlmostEqual(run.ref_mean([1.0, 3.0], [1.0, 3.0]), 1.0)
        self.assertAlmostEqual(run.ref_mean([2.0], [0.5]), 4.0)

    def test_each_workload_has_a_calibration_loop(self):
        for workload in WORKLOADS.values():
            meter = run.Speedometer(workload)
            self.assertGreater(meter.slowness(), 0.0)


class Digests(unittest.TestCase):
    def test_digest_of_is_order_sensitive_and_stable(self):
        self.assertEqual(digest_of([0.1, b"x"]), digest_of([0.1, b"x"]))
        self.assertNotEqual(digest_of([0.1, 0.2]), digest_of([0.2, 0.1]))

    def test_op_seeds_are_reproducible_and_distinct(self):
        self.assertEqual(op_seed(3, 1), op_seed(3, 1))
        self.assertEqual(len({op_seed(s, i) for s in range(4) for i in range(4)}), 16)

    def test_same_seed_same_digest_and_trace_is_complete(self):
        workload = WORKLOADS["mlmc-sincos-indicator"]
        state = workload.setup(5, WORKDIR)
        meter = run.Speedometer(workload)
        untraced = run.timed_op(workload, state, 0, meter)
        traced = run.timed_op(workload, state, 0, meter, Tracer())
        self.assertEqual(untraced.result.failures, [])
        self.assertEqual(run.check_trace(traced, untraced), [])
        again = workload.operation(workload.setup(5, WORKDIR), 0)
        self.assertEqual(again.digest, untraced.result.digest)
        other = workload.operation(state, 1)
        self.assertNotEqual(other.digest, untraced.result.digest)


if __name__ == "__main__":
    unittest.main()
