"""Benchmark of the four CLI verbs: classify, queries, hyperspace, search.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 12 --trace 0

The run writes the workload's seeded model files under perfbench/work/,
measures set-up in fresh interpreters, then calls `proxitop.cli.main`
in this process, one operation after another, in whole rounds of the
workload's fixed operation list until `--seconds` have passed. Every
output is checked against values computed apart from the program
(outside the timed region). The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` - the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r})\n"
    "import proxitop.cli\n"
    "from proxitop.search import enumerate_topologies\n"
    "for n in range(1, 5): enumerate_topologies(n, True)\n"
)
MAX_PROBLEMS_SHOWN = 10


def measure_setup() -> float:
    """Median time from interpreter start until the first operation can run."""
    code = SETUP_CODE.format(src=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT)
        # A plain wait(): with a timeout, Popen polls in sleeps of up to
        # 50 ms, which would round every set-up time to that step.
        killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        killer.start()
        try:
            rc = child.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise RuntimeError(f"set-up interpreter exited {rc}")
    return statistics.median(times)


class Tally:
    """Outcome of every operation attempted in a run."""

    def __init__(self):
        self.rounds: list[list[float]] = []  # op times of each round, in op order
        self.models = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.problems

    def wall_s(self) -> float:
        """One pass over the operation list: the sum of each operation's
        median over the rounds, so a slow spell of the machine during one
        round does not move it."""
        return sum(self._op_medians())

    def op_p50_s(self) -> float:
        """Median over the operations of each one's median over the rounds."""
        return statistics.median(self._op_medians())

    def _op_medians(self) -> list[float]:
        return [statistics.median(times) for times in zip(*self.rounds)]


def run_op(cli, op, tally: Tally, tracer) -> float:
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_op()
    crash = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # a traceback is a failed operation, not a dead run
            rc, crash = None, exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    tally.attempted += 1
    if rc != 0:
        tally.failed += 1
        if not (rc == 3 and op.expect_cap):
            tally.problems.append(f"{op.label}: exit {rc} {crash!r} {err.getvalue().strip()}")
        return elapsed
    try:
        doc = json.loads(out.getvalue())
        bad = op.check(doc)
    except Exception as exc:  # output missing a field the check reads
        bad = [f"unreadable output: {exc!r}"]
    if bad:
        tally.failed += 1
        tally.problems += [f"{op.label}: {b}" for b in bad]
    else:
        tally.models += op.models(doc)
    return elapsed


def run_rounds(cli, ops, seconds: float, tracer=None) -> tuple[Tally, list[dict]]:
    """Whole rounds of the operation list until `seconds` have passed."""
    from spans import round_metrics

    tally = Tally()
    layers = []
    start = time.perf_counter()
    while True:
        gc.collect()
        before = tracer.snapshot() if tracer is not None else None
        tally.rounds.append([run_op(cli, op, tally, tracer) for op in ops])
        if tracer is not None:
            layers.append(round_metrics(before, tracer.snapshot()))
        if time.perf_counter() - start >= seconds:
            return tally, layers


def end_to_end(tally: Tally, setup_s: float) -> dict:
    wall = tally.wall_s()
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "op_p50_ms": {"value": tally.op_p50_s() * 1000.0, "unit": "ms"},
        "models_per_s": {"value": tally.models / len(tally.rounds) / wall, "unit": "1/s"},
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
    }


def per_layer(layers: list[dict], tracer) -> dict:
    from spans import LAYER_METRICS

    out = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name == "search.topologies_s":  # measured once per run, before the rounds
            value = tracer.total["search.topologies"]
        else:
            value = statistics.median(layer[name] for layer in layers)
        out[name] = {"value": value, "unit": unit}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "proxitop", "__init__.py")):
        print(f"perfbench: no proxitop sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "tests", "oracle.py")):
        print("perfbench: tests/oracle.py is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from proxitop import cli
    from proxitop.search import enumerate_topologies
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    for n in range(1, 5):
        enumerate_topologies(n, True)

    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "work"))
    tracer = Tracer() if args.trace else None
    try:
        ops = workloads.build(args.workload, args.seed, workdir, ROOT)
        if tracer is not None:
            tracer.install()
            tracer.time_topologies()
        try:
            tally, layers = run_rounds(cli, ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"ops_per_round={len(ops)} rounds={len(tally.rounds)} "
        f"wall_s={tally.wall_s():.4f} "
        f"attempted={tally.attempted} failed={tally.failed}"
    )
    for problem in tally.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {problem}")
    metrics = per_layer(layers, tracer) if tracer is not None else end_to_end(tally, setup_s)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
