"""Layered benchmark of ddmlab.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fem_geneo --seed 0 --seconds 20 --trace 0

Runs one workload in a child process with the BLAS thread count pinned to
one, prints every metric with its unit, the environment block and any
reference-output differences, and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full result, with the environment block and per-scenario outputs, is
written under ``perfbench/out/``. See ``perfbench/README.md``.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
OUT_DIR = HERE / "out"
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "iterations": "count", "peak_rss_mb": "MB"}


def per_layer_units():
    # wall_s and solve_s are end-to-end times, listed here because they carry
    # no bound: the host's speed swings exceed the largest bound allowed.
    units = {"wall_s": "s", "solve_s": "s"}
    units.update({m: "s" for m in tracing.SELF_METRICS.values()})
    units.update({m: "count" for m in tracing.COUNT_METRICS})
    units["krylov.prec_applies"] = "count"
    units.update({m: "ratio" for m in tracing.RATIO_METRICS})
    units["krylov.residual_drift"] = "ratio"
    units["bench.trace_overhead"] = "ratio"
    return units


def run_child(args):
    """Run child.py pinned to one BLAS thread; return its payload and peak RSS."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT_DIR, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"benchmark process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited with {proc.returncode}")
    # ru_maxrss is in KiB on Linux; the child is this process's only child.
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return json.loads(out.strip().splitlines()[-1]), peak_kib / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT_DIR / "src" / "ddmlab" / "__init__.py").is_file():
        print(f"perfbench: no ddmlab sources under {ROOT_DIR / 'src'}",
              file=sys.stderr)
        return 2

    try:
        payload, peak_mb = run_child(args)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    values = dict(payload["metrics"], peak_rss_mb=peak_mb)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": payload["failed"] == 0,
              "attempted": payload["attempted"],
              "failed": payload["failed"],
              "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(payload, result=result), indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{payload['passes']['untraced']} untraced and "
          f"{payload['passes']['traced']} traced passes")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    print(f"  failed_frac {payload['failed'] / payload['attempted']:.6g} "
          f"({payload['failed']} of {payload['attempted']} scenario runs)")
    for failure in payload["failures"]:
        print(f"  FAILED {failure}")
    for diff in payload["reference_diffs"]:
        print(f"  reference diff {diff}")
    print(f"  env {json.dumps(payload['env'])}")
    print(f"  full result in {path.relative_to(ROOT_DIR)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
