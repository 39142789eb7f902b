"""Tests of the benchmark itself (stdlib unittest; about a minute).

    python3 perfbench/selftest.py

They are kept out of the program's pytest suite on purpose: they check
the benchmark's generators, checks and tracing, not the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from proxitop import cli  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

WORK = os.path.join(HERE, "work")


def _files(workload: str, seed: int) -> dict[str, bytes]:
    os.makedirs(WORK, exist_ok=True)
    d = tempfile.mkdtemp(dir=WORK)
    try:
        workloads.build(workload, seed, d, ROOT)
        out = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                out[name] = fh.read()
        return out
    finally:
        shutil.rmtree(d)


class _Ops:
    """Operations of a workload built in a scratch directory."""

    def __init__(self, workload: str, seed: int = 1):
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=WORK)
        self.ops = workloads.build(workload, seed, self.dir, ROOT)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_files(self):
        for w in ("classify", "queries", "hyperspace"):
            self.assertEqual(_files(w, 7), _files(w, 7), w)

    def test_seed_changes_files_but_not_their_shape(self):
        for w in ("classify", "queries", "hyperspace"):
            a, b = _files(w, 1), _files(w, 2)
            self.assertEqual(sorted(a), sorted(b), w)
            self.assertNotEqual(a, b, w)

    def test_six_block_file_does_not_depend_on_seed(self):
        self.assertEqual(_files("hyperspace", 1)["disc6-overlap.yaml"],
                         _files("hyperspace", 99)["disc6-overlap.yaml"])

    def test_many_seeds_generate(self):
        for seed in range(12):
            for w in ("classify", "queries", "hyperspace"):
                _files(w, seed)


class ReferenceTest(unittest.TestCase):
    def test_closed_forms(self):
        counts = [len(ref.topologies_up_to_homeomorphism(n)) for n in range(1, 5)]
        self.assertEqual(counts, [1, 3, 9, 33])
        self.assertEqual([ref.bell(n) for n in range(1, 6)], [1, 2, 5, 15, 52])
        tops = {n: ref.topologies_up_to_homeomorphism(n) for n in range(1, 5)}
        self.assertEqual(ref.exhaustive_candidates(4, tops), 436)

    def test_point_generated_facts_on_a_path_and_a_partition(self):
        path = [0b011, 0b111, 0b110]
        self.assertEqual(ref.classify(ref.point_generated_verdicts(path)), "basic")
        blocks = [0b011, 0b011, 0b100]
        self.assertEqual(ref.classify(ref.point_generated_verdicts(blocks)), "ef")
        self.assertTrue(ref.point_generated_verdicts([1, 2, 4])["P5"])


class CheckTest(unittest.TestCase):
    def _round(self, workload, select=lambda op: True, seed=1):
        built = _Ops(workload, seed)
        try:
            ops = [op for op in built.ops if select(op)]
            tally, _ = run.run_rounds(cli, ops, 0)
        finally:
            built.close()
        return tally

    def test_small_classify_ops_pass(self):
        tally = self._round("classify", lambda op: op.label.endswith("/5"))
        self.assertEqual((tally.failed, tally.problems), (0, []))

    def test_planted_wrong_verdict_is_a_failed_operation(self):
        from proxitop import proximity

        with mock.patch.object(proximity, "_classify", lambda verdicts: "lodato"):
            tally = self._round("classify", lambda op: op.label.endswith("/5"))
        self.assertEqual(tally.failed, tally.attempted)
        self.assertFalse(tally.correct)
        self.assertTrue(any("classification" in p for p in tally.problems))

    def test_planted_wrong_witness_is_a_failed_operation(self):
        from proxitop import strong
        from proxitop.cli import strongly_far as real

        def shifted(prox, a, b, **kw):
            r = real(prox, a, b, **kw)
            if r.witness is None:
                return r
            return strong.WitnessResult(True, (r.witness[0] ^ 1,))

        with mock.patch.object(cli, "strongly_far", shifted):
            tally = self._round("queries", lambda op: op.label.startswith("relations/overlap"))
        self.assertGreater(tally.failed, 0)
        self.assertFalse(tally.correct)

    def test_cap_failures_are_failed_but_not_wrong(self):
        tally = self._round("hyperspace", lambda op: "disc6" in op.label)
        self.assertEqual((tally.attempted, tally.failed), (3, 2))
        self.assertTrue(tally.correct)

    def test_unexpected_exit_is_wrong(self):
        built = _Ops("hyperspace")
        try:
            op = next(o for o in built.ops if o.expect_cap)
            op.expect_cap = False
            tally, _ = run.run_rounds(cli, [op], 0)
        finally:
            built.close()
        self.assertEqual(tally.failed, 1)
        self.assertFalse(tally.correct)


class TraceTest(unittest.TestCase):
    def test_benchmark_json_lists_every_layer_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(LAYER_METRICS))
        self.assertEqual([m["unit"] for m in bench["per_layer"]],
                         [u for u, _ in LAYER_METRICS.values()])

    def test_traced_round_counts_and_restores(self):
        from proxitop import proximity, spaces

        originals = (spaces.closure, proximity.closure, cli.check_axioms)
        built = _Ops("classify")
        tracer = Tracer()
        tracer.install()
        try:
            ops = [op for op in built.ops if op.label.endswith("/5")]
            tally, layers = run.run_rounds(cli, ops, 0, tracer)
        finally:
            tracer.uninstall()
            built.close()
        self.assertEqual((tally.failed, tally.problems), (0, []))
        self.assertEqual((spaces.closure, proximity.closure, cli.check_axioms), originals)
        (layer,) = layers
        self.assertEqual(sorted(layer), sorted(LAYER_METRICS))
        self.assertGreater(layer["proximity.near_calls"], 0)
        self.assertGreater(layer["proximity.axiom.P3_s"], 0)
        axioms = sum(layer[f"proximity.axiom.{a}_s"] for a in workloads.AXIOMS)
        self.assertLessEqual(axioms, layer["proximity.check_axioms_s"])
        self.assertEqual(layer["strong.hat_calls"], 0)

    def test_per_axiom_report_equals_single_call(self):
        from proxitop import modelfile, proximity

        built = _Ops("classify")
        tracer = Tracer()
        try:
            for op in built.ops[:6]:
                path = op.argv[1]
                plain = proximity.check_axioms(modelfile.parse_file(path).proximity)
                tracer.install()
                try:
                    traced = proximity.check_axioms(modelfile.parse_file(path).proximity)
                finally:
                    tracer.uninstall()
                self.assertEqual(plain, traced, op.label)
        finally:
            built.close()


class CommandTest(unittest.TestCase):
    def test_result_line(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", "queries", "--seed", "3", "--seconds", "0"])
        self.assertEqual(rc, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
        )
        self.assertTrue(result["correct"])
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_fails_without_the_program(self):
        os.makedirs(WORK, exist_ok=True)
        d = tempfile.mkdtemp(dir=WORK)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            os.makedirs(os.path.join(d, "perfbench"))
            for name in os.listdir(HERE):
                if name.endswith((".py", ".md")):
                    shutil.copy(os.path.join(HERE, name), os.path.join(d, "perfbench"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(d)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
