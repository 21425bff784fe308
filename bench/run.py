"""Benchmark for gapvir: exact verdicts through the CLI, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload oracle-deep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 2      # all three workloads, one process each

Seed 1 is the development seed, the one later changes are tuned on; seed 2 is
the held-out seed, kept for re-checking a claim on inputs not seen while it
was written.  ``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

Each workload is a closed loop with one client: requests go through
``gapvir.cli.main(argv)`` in this process, one at a time, with stdout
captured, and every report is checked against an answer from
``workloads.py``.  Rounds of requests run until ``--seconds`` have passed,
and at least ``workloads.MIN_ROUNDS`` rounds run, so that every slot of a
round is measured several times even on the slowest workloads.  The first
round is made during set-up; later rounds are made between requests, outside
the timed calls.  setup_s is the median of set-ups made half before the first
timed request and half after the last, so that it does not rest on the
machine's speed in one second.

Every end-to-end metric is printed as "<workload> <metric> <value> <unit>
n=<samples>", including request_s_p90 (only with >= 100 requests) and
fail_ratio.  requests_per_s is the median over rounds of a round's correctly
answered requests per second of its requests' time; its n is the number of
rounds.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the metrics of BENCHMARK.json's
``end_to_end`` list with ``--trace 0``, those of ``tracer.LAYER_METRICS``
with ``--trace 1``.

The traced run takes the first round of the same stream, runs it twice with
the tracer installed (the exact counters must agree), removes the tracer and
runs it once more untraced for the overhead ratio.  Its spans are written to
``bench/work/``.
"""

import argparse
import contextlib
import gc
import importlib
import itertools
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "work")

sys.path.insert(0, BENCH_DIR)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15  # set-ups before the timed loop, and as many after it; ~0.6 s each way
P90_MIN_REQUESTS = 100

END_TO_END = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("request_s_p50", "s"),
    ("peak_rss_mb", "MB"),
]


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- set-up -------------------------------------------------------------------


def unload_gapvir():
    for name in [n for n in sys.modules if n == "gapvir" or n.startswith("gapvir.")]:
        del sys.modules[name]


def import_gapvir():
    """Import gapvir afresh from this checkout's src/ and return gapvir.cli."""
    unload_gapvir()
    cli = importlib.import_module("gapvir.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError("gapvir imported from %s, not from %s" % (cli.__file__, SRC))
    return cli


def set_up(name, seed):
    """Import gapvir and make the first round SETUP_REPEATS times.

    Returns gapvir.cli, the last stream of rounds and the set-up times.  The
    previous import and its round are dropped and collected before each
    repeat, so that at most one copy of gapvir is alive at any time.
    """
    work_dir = os.path.join(WORK, "%s-%d" % (name, seed))
    times = []
    for _ in range(SETUP_REPEATS):
        cli = stream = first = None
        unload_gapvir()
        shutil.rmtree(work_dir, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        cli = import_gapvir()
        os.makedirs(work_dir)
        stream = workloads.rounds(name, seed, work_dir)
        first = next(stream)
        times.append(time.perf_counter() - start)
    return cli, itertools.chain([first], stream), times


# -- requests --------------------------------------------------------------------


def call(main, request):
    """Run one request; (latency s, exit code or None, stdout text, error text)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(request.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed request, not the end of the run
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def verify(request, code, stdout, stderr):
    """Problems with one response; an exception in the check is a problem too."""
    if code is None:
        return ["exception: " + stderr.strip().splitlines()[-1]]
    try:
        report = json.loads(stdout) if stdout.strip() else None
        return workloads.check(request, code, report)
    except Exception as exc:
        return ["unreadable %s report: %r" % (request.command, exc)]


class Tally:
    """Latencies and failures of a sequence of requests."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.problems = []

    @classmethod
    def merge(cls, tallies):
        out = cls()
        for t in tallies:
            out.latencies += t.latencies
            out.failed += t.failed
            out.problems += t.problems
        return out

    def add(self, request, latency, problems):
        self.latencies.append(latency)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append("%r: %s" % (request, "; ".join(problems)))


def run_requests(main, requests, tally):
    for request in requests:
        latency, code, stdout, stderr = call(main, request)
        tally.add(request, latency, verify(request, code, stdout, stderr))


def timed_loop(main, stream, seconds, min_rounds):
    """Closed loop, one client: whole rounds until `seconds` have passed, at least `min_rounds`."""
    done = []
    start = time.perf_counter()
    while len(done) < min_rounds or time.perf_counter() - start < seconds:
        tally = Tally()
        run_requests(main, next(stream), tally)
        done.append(tally)
    return done


# -- runs ---------------------------------------------------------------------------


def end_to_end(name, seed, seconds):
    cli, stream, setup_times = set_up(name, seed)
    done = timed_loop(cli.main, stream, seconds, workloads.MIN_ROUNDS[name])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cli = stream = None
    setup_times += set_up(name, seed)[2]
    tally = Tally.merge(done)
    lat = tally.latencies
    n = len(lat)
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        # Median over rounds: a round hit by a slow spell of the machine does not move it.
        "requests_per_s": (statistics.median(
            (len(t.latencies) - t.failed) / sum(t.latencies) for t in done), len(done)),
        "request_s_p50": (statistics.median(lat), n),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    lines = ["%s seed=%d rounds=%d requests=%d (closed loop, 1 client)"
             % (name, seed, len(done), n)]
    for metric, unit in END_TO_END:
        value, count = values[metric]
        lines.append("%s %s %.6g %s n=%d" % (name, metric, value, unit, count))
    if n >= P90_MIN_REQUESTS:
        p90 = statistics.quantiles(lat, n=10)[-1]
        lines.append("%s request_s_p90 %.6g s n=%d" % (name, p90, n))
    else:
        lines.append("%s request_s_p90 not reported: n=%d < %d" % (name, n, P90_MIN_REQUESTS))
    lines.append("%s fail_ratio %.6g ratio n=%d" % (name, tally.failed / n, n))
    metrics = {metric: {"value": values[metric][0], "unit": unit} for metric, unit in END_TO_END}
    return tally, lines, metrics


def traced_pass(tracer, main, requests):
    """One pass over the requests with the tracer installed; each request is a root span."""
    tracer.reset()
    gc.collect()
    tally = Tally()

    def root(argv):
        return tracer.run_span(tracing.ROOT_SPAN, main, argv)

    for k, request in enumerate(requests):
        tracer.begin_request(k)
        latency, code, stdout, stderr = call(root, request)
        tracer.end_request()
        tally.add(request, latency, verify(request, code, stdout, stderr))
    return tally, tracer.metrics(), tracer.spans


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "request"]) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def traced(name, seed):
    """Two traced passes over the first round of the stream, then one untraced.

    Times and spans come from the second traced pass, which is as warm as the
    untraced one; the spans are written out and dropped before the untraced
    pass so that they do not weigh on its garbage collection.
    """
    cli, stream, _ = set_up(name, seed)
    requests = next(stream)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        first, counts, _ = traced_pass(tracer, cli.main, requests)
        second, layer, spans = traced_pass(tracer, cli.main, requests)
    finally:
        tracer.uninstall()
    path = os.path.join(WORK, "spans-%s-%d.jsonl" % (name, seed))
    write_spans(spans, path)
    n_spans = len(spans)
    del spans
    tracer.reset()
    gc.collect()
    untraced = Tally()
    run_requests(cli.main, requests, untraced)

    tally = Tally.merge([first, second, untraced])
    layer["trace.overhead"] = sum(second.latencies) / sum(untraced.latencies)
    mismatched = ["%s %d != %d" % (c, counts[c], layer[c])
                  for c in tracing.EXACT_COUNTERS if counts[c] != layer[c]]
    if mismatched:
        tally.failed += 1
        tally.problems.append("counters differ between traced passes: " + ", ".join(mismatched))
    lines = ["%s seed=%d traced the first round, %d requests: two traced passes and one untraced"
             % (name, seed, len(requests))]
    for metric, unit, moves in tracing.LAYER_METRICS:
        lines.append("%s layer %s %.6g %s moves: %s" % (name, metric, layer[metric], unit, moves))
    lines.append("%s exact counters repeat across the two traced passes: %s"
                 % (name, "NO: " + ", ".join(mismatched) if mismatched else "yes"))
    lines.append("%s spans written to %s (%d spans)"
                 % (name, os.path.relpath(path, ROOT), n_spans))
    metrics = {metric: {"value": layer[metric], "unit": unit}
               for metric, unit, _ in tracing.LAYER_METRICS}
    return tally, lines, metrics


def run_one(args):
    if args.trace:
        tally, lines, metrics = traced(args.workload, args.seed)
    else:
        tally, lines, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    for problem in tally.problems:
        print("FAILED %s" % problem, file=sys.stderr)
    attempted = len(tally.latencies)
    return {"correct": tally.failed == 0, "attempted": attempted, "failed": tally.failed,
            "metrics": metrics}


def run_all(args):
    """Every workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(workloads.WORKLOADS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError("workload %s exited with %d" % (name, proc.returncode))
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = entry
    return combined


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gapvir", "cli.py")):
        print("bench: no gapvir sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = run_seconds()
    sys.path.insert(0, SRC)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
