"""Steadiness mode: repeat each workload over several seeds and summarize.

    python3 perfbench/steady.py --runs 10 [--workloads classify,search] [--trace]

Runs `perfbench/run.py` once per (workload, seed), seeds 1..runs, with
the run length from BENCHMARK.json, one run at a time, and
prints for every end-to-end metric its median, first and third quartile
(`statistics.quantiles(values, n=4)`) and the quartile spread as a share
of the median, next to the metric's bound in BENCHMARK.json. With
`--trace` each seed also gets a traced run, and the traced round time is
compared with the untraced `wall_s` to give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", action="store_true", help="also time a traced run per seed")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        traced_walls = []
        for seed in range(1, args.runs + 1):
            result, _ = run_once(workload, seed, bench["run_seconds"], 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs disagree with the checks", file=sys.stderr)
                return 1
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.trace:
                _, text = run_once(workload, seed, bench["run_seconds"], 1)
                traced_walls.append(float(re.search(r"wall_s=([0-9.]+)", text).group(1)))
        fail_share = {f / a for f, a in shares}
        print(f"{workload}: {args.runs} runs, failed share {sorted(fail_share)} "
              f"(failed/attempted {sorted(shares)})")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            med, q1, q3, rel = spread(vals)
            print(f"  {name:14s} {med:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.2%} {bounds[name]:6.2f}")
        if traced_walls:
            overhead = statistics.median(traced_walls) / statistics.median(values["wall_s"]) - 1
            print(f"  traced wall_s median {statistics.median(traced_walls):.4f} "
                  f"(tracing overhead {overhead:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
