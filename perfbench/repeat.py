"""Run one workload N times with consecutive seeds; report each metric's
median, interquartile range and spread against its BENCHMARK.json bound.

    python3 perfbench/repeat.py --workload n2-serve-mixed --runs 10 --seed 100

Runs are sequential subprocesses of ``perfbench/run.py``.  The spread is
IQR / median with ``statistics.quantiles(values, n=4)``; a metric is steady
when its spread is within its bound, and comfortably so below a third of it.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import contract  # noqa: E402
from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    bench = contract.load()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=contract.workload_names())
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failures = 0
    for i in range(args.runs):
        seed = args.seed + i
        cmd = [*bench["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", f"{args.seconds:g}",
               "--trace", "0"]
        proc = subprocess.run([sys.executable if c == "python3" else c
                               for c in cmd], cwd=ROOT, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"run {i + 1}: seed {seed} exited {proc.returncode}")
            return proc.returncode
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += out["failed"] + (not out["correct"])
        for name, rec in out["metrics"].items():
            values.setdefault(name, []).append(rec["value"])
            units[name] = rec["unit"]
        print(f"run {i + 1}/{args.runs}: seed {seed} correct={out['correct']} "
              f"attempted={out['attempted']} failed={out['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in out["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, seeds {args.seed}.."
          f"{args.seed + args.runs - 1}, {args.seconds:g} s each")
    print(f"{'metric':34s} {'median':>14s} {'IQR':>12s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    summary = {}
    for name, vals in values.items():
        med, iqr, spread = quartile_spread(vals)
        bound = bounds[name]
        verdict = ("steady" if spread <= bound / 3 else
                   "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:34s} {med:14.6g} {iqr:12.4g} {spread:8.4f} "
              f"{bound:>6}  {verdict}  {units[name]}")
        summary[name] = {"median": med, "iqr": iqr, "spread": spread,
                         "bound": bound, "values": vals, "unit": units[name]}
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "failures": failures, "metrics": summary}))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
