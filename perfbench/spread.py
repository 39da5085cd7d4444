"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload search --seeds 1-10 --seconds 20

Each seed runs ``run.py`` in its own process, one after another.  For
every metric the script prints the median over seeds and the
inter-quartile range as a share of the median (``statistics.quantiles``
with ``n=4``), next to the metric's bound from ``BENCHMARK.json``; a
spread under a third of the bound is marked steady.  The runs are
untraced: only the end-to-end metrics have bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from measure import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return proc.returncode
        last = proc.stdout.strip().splitlines()[-1]
        for name, metric in json.loads(last)["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    print(f"{'metric':36s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        width = spread(vals) if len(vals) >= 2 else float("nan")
        bound = bounds[name]
        note = "steady" if width < bound / 3 else \
            "within bound" if width <= bound else "TOO NOISY"
        print(f"{name:36s} {median:14.6g} {width:8.4f} {bound:>6} {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
