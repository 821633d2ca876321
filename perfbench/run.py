"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload n2-train-serial --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --record-reference

Run from the repository root.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` instruments
every layer, reports the per-layer metrics and writes the spans to
``.perfbench_work/trace-<workload>-seed<seed>.json``.  Lines before the last
one are for people: the provenance stamp, the correctness checks and extra
figures.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import contract  # noqa: E402

BLAS_THREADS = 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*contract.workload_names(), "all"),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="re-record perfbench/reference.json and exit")
    return ap.parse_args(argv)


def _emit(payload: dict) -> None:
    from perfbench.stats import check_metric_name

    for name in payload["metrics"]:
        check_metric_name(name)
    print(json.dumps(payload), flush=True)


def _check_reported(metrics: dict, trace: int) -> None:
    """A run reports exactly the metrics of its BENCHMARK.json section."""
    section = "per_layer" if trace else "end_to_end"
    units = contract.metric_units(section)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != units:
        raise RuntimeError(f"reported metrics differ from the {section} "
                           f"section of BENCHMARK.json: {got} vs {units}")


def run_all(args) -> int:
    """Each workload in its own process (peak RSS stays per workload)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in contract.workload_names():
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= out["correct"]
        total["attempted"] += out["attempted"]
        total["failed"] += out["failed"]
        for metric, rec in out["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = rec
            rows.append((name, metric, rec["value"], rec["unit"]))
        fail_frac = out["failed"] / out["attempted"]
        rows.append((name, "fail_frac", fail_frac, "ratio"))
    print("\n== all workloads ==")
    for name, metric, value, unit in rows:
        print(f"{name:18s} {metric:34s} {value:16.6g} {unit}")
    _emit(total)
    return 0


def stop_helper_processes() -> None:
    """Stop multiprocessing's resource tracker, which the process backend's
    shared-memory transport starts, and wait for it to exit."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all" and not args.record_reference:
        return run_all(args)

    # BLAS threads are pinned before numpy loads; forked ranks inherit them.
    from perfbench.provenance import pin_blas_threads, stamp

    blas_set = pin_blas_threads(BLAS_THREADS)
    try:
        import repro.api  # noqa: F401 - the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, record_reference

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    if args.record_reference:
        ref = record_reference(work)
        print(json.dumps(ref["serial"], indent=2))
        return 0

    t0 = time.perf_counter()
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, work,
                                          bool(args.trace))
    finally:
        stop_helper_processes()
    elapsed = time.perf_counter() - t0
    _check_reported(result.metrics, args.trace)
    prov = stamp(str(ROOT), args.seed, blas_set)
    prov.update(workload=args.workload, trace=args.trace,
                seconds=args.seconds, run_wall_s=elapsed)
    print("provenance " + json.dumps(prov))
    for c in result.checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['check']}"
              + (f"  ({c['detail']})" if c["detail"] else ""))
    for key, value in result.display.items():
        print(f"{key} {json.dumps(value)}")
    print(f"fail_frac {result.failed / max(result.attempted, 1):.6g} "
          f"({result.failed}/{result.attempted})")
    if result.tracer is not None:
        path = work / f"trace-{args.workload}-seed{args.seed}.json"
        result.tracer.write(path, extra={"provenance": prov})
        print(f"trace written to {path.relative_to(ROOT)}")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name:34s} {value:16.6g} {unit}")
    _emit({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
