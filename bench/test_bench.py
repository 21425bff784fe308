"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)


def wrong(request):
    """A copy of the request whose expected answer is deliberately wrong."""
    bad = copy.copy(request)
    exp = dict(request.expected)
    command = request.command
    if command == "bracket":
        exp["result"] = {**exp["result"], ("L", 99): workloads.Q(1)}
    elif command in ("involution-check", "series-check", "sugawara-check"):
        exp["pass"] = False
    elif command == "verma-dims":
        exp["dims"] = exp["dims"][:-1] + [exp["dims"][-1] + 1]
    elif command == "gram":
        exp["norm"] += 1
    elif command == "unitary-check":
        exp["verdict"] = {"unitary": "not-unitary", "not-unitary": "unitary"}[exp["verdict"]]
    elif command == "reducibility":
        exp["first"] = (exp["first"] or 0) + 1
    elif command == "kac-scan":
        exp["setsEqual"] = False
    elif command == "classify":
        exp["bucket"] = 1 if exp["bucket"] is None else None
    bad.expected = exp
    return bad


class CorrectnessCheckTest(unittest.TestCase):
    def test_check_flags_a_wrong_expected_answer(self):
        cli = run.import_gapvir()
        os.makedirs(run.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as work_dir:
            requests = workloads.cli_mixed_small_round(random.Random(7), 0, work_dir)
            self.assertEqual({r.command for r in requests}, set(workloads.CHECKS))
            for request in requests:
                _, code, stdout, stderr = run.call(cli.main, request)
                self.assertEqual(run.verify(request, code, stdout, stderr), [], request)
                self.assertNotEqual(run.verify(wrong(request), code, stdout, stderr), [],
                                    request)

    def test_wrong_exit_code_and_exception_are_failures(self):
        request = workloads.bracket_request(random.Random(1), 2)
        self.assertTrue(workloads.check(request, 1, {"command": "bracket"}))
        self.assertTrue(run.verify(request, None, "", "Traceback\nKeyError: 'f'\n"))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["cli.main", 0, 100, -1, 0],
            ["forms.gram", 10, 40, 0, 0],
            ["verma.act", 20, 30, 1, 0],
            ["forms.definiteness", 50, 70, 0, 0],
            ["cli.main", 200, 260, -1, 1],
        ]
        self.assertEqual(tracing.self_times(spans), [50, 20, 10, 20, 60])
        totals = tracing.span_totals(spans)
        self.assertEqual(totals["cli.main"], (160, 110))
        self.assertEqual(totals["forms.gram"], (30, 20))

    def test_overlapping_children_are_covered_once(self):
        spans = [["a", 0, 100, -1, 0], ["b", 10, 50, 0, 0], ["c", 30, 120, 0, 0]]
        self.assertEqual(tracing.self_times(spans)[0], 10)

    def test_recursive_span_counts_once_inclusive(self):
        spans = [["x", 0, 100, -1, 0], ["y", 10, 90, 0, 0], ["x", 20, 80, 1, 0]]
        self.assertEqual(tracing.span_totals(spans)["x"], (100, 20 + 60))


def wrapped_attributes():
    """(owner, attribute) pairs in gapvir that still hold a tracer wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "gapvir" and not name.startswith("gapvir."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, tracing.MARK):
                found.append((name, attr))
            if isinstance(value, type) and value.__module__.startswith("gapvir"):
                found += [(value.__name__, k) for k, v in vars(value).items()
                          if hasattr(v, tracing.MARK)]
    return found


class WrapperRemovalTest(unittest.TestCase):
    def test_install_and_uninstall_restore_every_site(self):
        cli = run.import_gapvir()
        from gapvir import forms, verma
        from gapvir.scalars import Scalar

        originals = (forms.gram, cli.gram, verma.VermaModule.act, Scalar.__init__)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertTrue(wrapped_attributes())
            self.assertIsNot(cli.gram, originals[1])
            for owner, attr, original in tracer.patched_sites():
                self.assertIsNot(getattr(owner, attr), original)
        finally:
            tracer.uninstall()
        self.assertEqual(wrapped_attributes(), [])
        self.assertEqual((forms.gram, cli.gram, verma.VermaModule.act, Scalar.__init__),
                         originals)

        request = workloads.unitary_check(random.Random(3), "continuum", 2)
        tracer.reset()
        _, code, stdout, stderr = run.call(cli.main, request)
        self.assertEqual(run.verify(request, code, stdout, stderr), [])
        self.assertEqual(tracer.spans, [])
        self.assertEqual(set(tracer.counts.values()), {0})

    def test_traced_run_leaves_unwrapped_code(self):
        saved = workloads.WORKLOADS["cli-mixed-small"]
        workloads.WORKLOADS["cli-mixed-small"] = lambda *a: saved(*a)[:5]
        try:
            tally, lines, metrics = run.traced("cli-mixed-small", 11)
        finally:
            workloads.WORKLOADS["cli-mixed-small"] = saved
        self.assertEqual(tally.failed, 0, tally.problems)
        self.assertEqual(len(tally.latencies), 15)
        self.assertEqual(wrapped_attributes(), [])
        self.assertEqual(set(metrics), {m for m, _, _ in tracing.LAYER_METRICS})
        self.assertIn("cli-mixed-small exact counters repeat across the two traced passes: yes",
                      lines)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_match_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, unit, _ in tracing.LAYER_METRICS])
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual(set(workloads.MIN_ROUNDS), set(workloads.WORKLOADS))

    def test_fails_without_sources(self):
        os.makedirs(run.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as root:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
            os.mkdir(os.path.join(root, "bench"))
            for name in ("run.py", "tracer.py", "workloads.py"):
                shutil.copy(os.path.join(run.BENCH_DIR, name), os.path.join(root, "bench"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle-deep",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
