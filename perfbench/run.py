#!/usr/bin/env python3
"""LoongServe reproduction benchmark: host cost plus simulated SLOs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mixed_single --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` serves the same traces untraced and then traced, and prints
the per-layer split.  ``--workload all`` runs every workload in its own
fresh process, one at a time.  The last line of a single-workload run is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads, the metrics and what each layer should
move.
"""

from __future__ import annotations

import os
import sys

# One thread per process: the numeric libraries would otherwise start a
# thread pool per core.  Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_runs"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="minimum measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one after the other."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        if child.returncode != 0:
            print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
            status = 1
    return status


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args: argparse.Namespace) -> int:
    import measure
    from tracing import SERVE, WRAPPERS
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run = measure.Run(workload=workload, seed=args.seed)
    run.generate()
    print(f"workload {workload.name}  seed {args.seed}  "
          f"traces {workload.traces} (sub-seeds {run.sub_seed(0)}.."
          f"{run.sub_seed(workload.traces - 1)})  trace {args.trace}")
    print(f"  why: {workload.why}")
    if args.trace:
        spans = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.csv.gz"
        values, outcomes, totals = measure.measure_layers(run, spans)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in measure.PER_LAYER.items()}
        for name, unit in measure.PER_LAYER.items():
            print(f"  {name:44s} {_fmt(values[name]):>12s} {unit}")
        traced_s = totals[SERVE]["incl_s"]
        print(f"  self-time shares of {traced_s:.3f} s of traced serving "
              f"(trace.overhead_ratio {values['trace.overhead_ratio']:.3f}; "
              f"{WRAPPERS} is the wrappers' own cost, charged to no layer):")
        for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:28s} {entry['self_s'] / traced_s:7.1%}  "
                  f"{int(entry['calls'])} calls")
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        values, outcomes = measure.measure_end_to_end(run, args.seconds)
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, (unit, _) in measure.END_TO_END.items()}
        for name, (unit, better) in measure.END_TO_END.items():
            value, note = values[name]
            print(f"  {name:22s} {_fmt(value):>12s} {unit:9s} "
                  f"({better} is better; {note})")
        for name, unit in measure.REPORTED.items():
            value, note = values[name]
            print(f"  {name:22s} {_fmt(value):>12s} {unit:9s} "
                  f"(lower is better, not gated; {note})")
    attempted = failed = 0
    for k, o in enumerate(outcomes):
        attempted += o.submitted
        failed += len(o.aborted) + len(o.stranded)
        if o.stranded:
            print(f"  trace {k}: {len(o.stranded)} stranded: {o.stranded}")
        if o.aborted:
            print(f"  trace {k}: {len(o.aborted)} aborted: {o.aborted}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources are missing ({SRC / 'repro'}); "
              f"run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
