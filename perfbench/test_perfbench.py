"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Smoke runs use ``--seconds 0``: one round of each workload.
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
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from treea1 import maximal, verify  # noqa: E402
from treea1.tree import make_shape  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = HERE / "out"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def scratch_dir(test: unittest.TestCase) -> Path:
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    test.addCleanup(shutil.rmtree, path, True)
    return path


class SmokeRuns(unittest.TestCase):
    def _check(self, workload: str, trace: int, spec: list[dict]) -> None:
        out = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, out.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for metric in spec:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(any(line.split()[1:2] == [metric["name"]] and metric["unit"] in line.split()
                                for line in lines[:-1]), f"{metric['name']} not printed with its unit")
        self.assertTrue(lines[0].startswith("provenance "))
        provenance = json.loads(lines[0].split(" ", 1)[1])
        self.assertEqual(set(provenance) - {"host_scale"}, {"git_rev", "python", "nproc", "seed", "src_lines"})

    def test_timed_run_prints_every_end_to_end_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self._check(name, 0, SPEC["end_to_end"])

    def test_traced_run_prints_every_per_layer_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self._check(name, 1, SPEC["per_layer"])

    def test_end_to_end_metrics_are_never_zero(self):
        out = bench("--workload", "search_climb", "--seed", "4", "--seconds", "0")
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_fails_without_the_package(self):
        bare = scratch_dir(self)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = bench("--workload", "bound_large", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("correct", out.stdout)


class CorruptedOutputs(unittest.TestCase):
    """One flipped flag or one changed byte must count as a failed call."""

    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
        ctx = workloads.Context(workloads.DEFAULT_SEED, 1, cls.workdir, tracing.NullTracer())
        cls.call = workloads.WORKLOADS["verify_fuzz"]._job(ctx, 0, 2, 6)
        cls.trials = workloads.WORKLOADS["verify_fuzz"].trials
        cls.digests = json.loads(workloads.DIGESTS_PATH.read_text())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def _score(self, data: bytes) -> int:
        call = workloads.Call(self.call.label, 1, self.trials, True, {"report.csv": data},
                              digests={"report.csv": workloads.digest(data)})
        with contextlib.redirect_stderr(io.StringIO()):
            return run._score(workloads.WORKLOADS["verify_fuzz"], workloads.DEFAULT_SEED, [call], [0], self.digests)

    def test_untouched_report_passes(self):
        self.assertEqual(self.call.failures, [])
        self.assertEqual(self._score(self.call.outputs["report.csv"]), 0)

    def test_flipped_flag_fails(self):
        text = self.call.outputs["report.csv"].decode()
        header, first, rest = text.split("\n", 2)[1], text.split("\n", 3)[2], text.split("\n", 3)[3]
        flipped = first[: first.rindex("true")] + "false" + first[first.rindex("true") + 4:]
        data = "\n".join(["# manifest: manifest.json", header, flipped, rest]).encode()
        failures, _ = workloads.check_report(data, self.trials, verify.ALL_CHECKS)
        self.assertTrue(any("kadic_ok" in f for f in failures), failures)
        self.assertEqual(self._score(data), 1)

    def test_one_changed_byte_fails_the_digest(self):
        lines = self.call.outputs["report.csv"].decode().split("\n")
        cells = lines[2].split(",")
        cells[1] = ("1" if cells[1][0] == "0" else "0") + cells[1][1:]  # first hex digit of a weight hash
        lines[2] = ",".join(cells)
        data = "\n".join(lines).encode()
        failures, _ = workloads.check_report(data, self.trials, verify.ALL_CHECKS)
        self.assertEqual(failures, [])  # every flag still reads true: only the digest catches it
        self.assertEqual(self._score(data), 1)

    def test_missing_row_fails(self):
        data = self.call.outputs["report.csv"].rsplit(b"\n", 2)[0] + b"\n"
        failures, _ = workloads.check_report(data, self.trials, verify.ALL_CHECKS)
        self.assertTrue(any("rows" in f for f in failures), failures)

    def test_failed_inspect_audit_fails(self):
        payload = {"a1_constant": "2", "bound": "3", "sup_ratio": "3",
                   "audit": {"t": "3/4", "passed": True, "checks": {"nodes_are_members": True}}}
        self.assertEqual(workloads.check_inspect(json.dumps(payload).encode(), Fraction(3, 4))[0], [])
        payload["audit"]["passed"] = False
        self.assertNotEqual(workloads.check_inspect(json.dumps(payload).encode(), Fraction(3, 4))[0], [])

    def test_corrupted_run_is_not_scored_as_a_pass(self):
        real = workloads.collect_outputs

        def corrupt(outdir, names):
            out = real(outdir, names)
            out["report.csv"] = out["report.csv"].replace(b"true", b"fals", 1)
            return out

        wl = workloads.WORKLOADS["verify_fuzz"]
        with mock.patch.object(workloads, "collect_outputs", corrupt), contextlib.redirect_stderr(io.StringIO()):
            result = run.timed_run(wl, workloads.DEFAULT_SEED, 0, scratch_dir(self), self.digests)
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["passed_ratio"][0], 1)

    def test_replay_mismatch_fails(self):
        shape = make_shape(2, 2)
        item = workloads.ReplayItem("w", lambda: workloads.weights.make_step_weight(shape, (3, 1, 3, 1)),
                                    {"c": Fraction(2), "sup_ratio": Fraction(3)}, ("stopping",))
        self.assertEqual(workloads.replay(item, tracing.NullTracer())[0], [])
        item.expected["c"] = Fraction(5, 2)
        self.assertEqual(len(workloads.replay(item, tracing.NullTracer())[0]), 1)


class Guards(unittest.TestCase):
    def test_threads_never_exceed_cores(self):
        self.assertEqual(run.clamp_threads(10**6), os.cpu_count())
        self.assertEqual(run.clamp_threads(0), 1)

    def test_shape_above_the_leaf_cap_is_refused(self):
        big = mock.Mock(shapes=((2, 11),))
        big.name = "big"
        with self.assertRaises(ValueError):
            run.check_shapes(big, workloads.MAX_LEAVES)
        for wl in workloads.WORKLOADS.values():
            run.check_shapes(wl, workloads.MAX_LEAVES)


class Tracer(unittest.TestCase):
    def test_spans_nest_and_bindings_come_back(self):
        original = verify.a1_constant
        w = workloads.weights.make_step_weight(make_shape(2, 2), (3, 1, 3, 1))
        with tracing.Tracer() as tracer:
            self.assertIsNot(verify.a1_constant, original)
            verify.check_growth_bound(w)
        self.assertIs(verify.a1_constant, original)
        self.assertIs(maximal.a1_constant, original)
        totals = tracer.totals()
        calls, total, own = totals["verify.check_growth_bound"]
        self.assertEqual(calls, 1)
        self.assertLess(own, total)  # its a1_constant and stopping_family are child spans
        self.assertEqual(totals["maximal.a1_constant"][0], 1)
        parent = next(i for i, s in enumerate(tracer.spans) if s[0] == "verify.check_growth_bound")
        self.assertTrue(all(s[3] == parent for s in tracer.spans if s[0] == "maximal.a1_constant"))


if __name__ == "__main__":
    unittest.main()
