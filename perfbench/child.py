"""The benchmark's measured process: one workload, BLAS pinned to one thread.

``run.py`` starts this file with ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``.
It imports ddmlab from the checkout's ``src``, refuses to run unless the
pin reached it, runs whole workload passes for the given number of
seconds, checks every scenario's outputs, and prints one JSON payload as
its last line of standard output. With ``--trace 1`` it alternates
untraced and traced passes, so the tracing overhead is measured in the
same process.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
OUT_DIR = HERE / "out"
PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def blas_threads():
    """Thread count in effect in each OpenBLAS library numpy and scipy bundle.

    Libraries of other vendors are not queried; their pin rests on the
    environment variables alone.
    """
    import numpy
    import scipy
    counts = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in _OPENBLAS_THREAD_QUERIES:
                query = getattr(lib, symbol, None)
                if query is not None:
                    query.restype = ctypes.c_int
                    counts[path.name] = query()
                    break
    return counts


def git_commit():
    """Commit of the checkout, or None when it is not a git work tree."""
    git = ROOT_DIR / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": {k: os.environ.get(k)
                       for k in PIN + ("MKL_NUM_THREADS",)},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def pin_problems(env):
    """Reasons the one-thread pin did not reach this process."""
    problems = [f"{k}={env['thread_env'][k]!r}, expected '1'"
                for k in PIN if env["thread_env"][k] != "1"]
    problems += [f"{lib} runs {n} threads"
                 for lib, n in env["blas_threads"].items() if n != 1]
    return problems


def run_pass(ddmlab, cfgs, systems, targets):
    """Run every scenario once under ``targets``; check outputs afterwards.

    Returns the recorder holding the pass's spans and, per scenario, its
    name, failures, recomputed residual drift and reference outputs.
    """
    rec = tracing.Recorder()
    records = []
    with rec.patched(ddmlab, targets):
        for cfg in cfgs:
            rec.scenario = cfg["name"]
            try:
                with rec.span(tracing.ROOT):
                    records.append(ddmlab.bench.run_scenario(cfg))
            except ddmlab.bench.ScenarioError as err:
                records.append(err)

    solutions = {s.scenario: s.notes.pop("x") for s in rec.spans
                 if s.name == tracing.KRYLOV and s.notes is not None}
    columns = {s.scenario: s.notes for s in rec.spans
               if s.name == "coarse.space" and s.notes is not None}
    results = []
    for cfg, system, record in zip(cfgs, systems, records):
        name = cfg["name"]
        if isinstance(record, Exception):
            results.append({"name": name, "failures": [str(record)]})
            continue
        failures, relres = checks.check_outputs(cfg, record, solutions[name],
                                                system)
        outputs = {"iterations": record["solve"]["iterations"],
                   "coarse_dim": record["coarse_dim"],
                   "n_subdomains": record["n_subdomains"],
                   "final_relres": record["solve"]["final_relres"]}
        if targets is tracing.LAYER_TARGETS:
            outputs.update(columns.get(name, {"raw_columns": 0,
                                              "kept_columns": 0}))
        results.append({"name": name, "failures": failures,
                        "drift": checks.residual_drift(relres, record),
                        "outputs": outputs})
    return rec, results


def measure(ddmlab, workload, seed, seconds, traced):
    """Run passes for ``seconds``; return the metrics and the run's evidence."""
    cfgs = workloads.scenarios(workload, seed)
    systems = [checks.build_system(ddmlab.discretize, c["problem"]) for c in cfgs]
    plain, traced_passes = [], []
    begin = time.perf_counter()
    while True:
        plain.append(run_pass(ddmlab, cfgs, systems, tracing.KRYLOV_TARGETS))
        if traced:
            traced_passes.append(
                run_pass(ddmlab, cfgs, systems, tracing.LAYER_TARGETS))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break

    every = [r for _, results in plain + traced_passes for r in results]
    failures = sorted({f"{r['name']}: {f}" for r in every for f in r["failures"]})
    phases = [tracing.phase_times(rec.spans) for rec, _ in plain]
    metrics = _end_to_end_metrics(plain, phases)
    if traced:
        metrics.update(_traced_metrics(traced_passes, metrics["wall_s"]))
    last_rec, results = (traced_passes or plain)[-1]

    reference = checks.load_reference(workload)
    default = workloads.scenarios(workload, workloads.DEFAULT_SEED)
    diffs = []
    for cfg, ref_cfg, r in zip(cfgs, default, results):
        if cfg == ref_cfg and "outputs" in r:
            diffs += checks.reference_diffs(workload, r["name"], r["outputs"],
                                            reference)
    return {
        "attempted": len(every),
        "failed": sum(1 for r in every if r["failures"]),
        "failures": failures,
        "passes": {"untraced": len(plain), "traced": len(traced_passes)},
        "pass_phases": phases,
        "metrics": metrics,
        "reference_diffs": diffs,
        "outputs": {r["name"]: r.get("outputs") for r in results},
    }, last_rec.spans


def _end_to_end_metrics(plain, phases):
    iterations = [sum(r["outputs"]["iterations"] for r in results
                      if "outputs" in r) for _, results in plain]
    return {
        "wall_s": statistics.median(p[0] for p in phases),
        "setup_s": statistics.median(p[1] for p in phases),
        "solve_s": statistics.median(p[2] for p in phases),
        "iterations": statistics.median(iterations),
    }


def _traced_metrics(traced_passes, untraced_wall):
    per_pass = [tracing.layer_metrics(rec.spans) for rec, _ in traced_passes]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["krylov.residual_drift"] = max(
        (r["drift"] for _, results in traced_passes for r in results
         if "drift" in r), default=0.0)
    traced_wall = statistics.median(
        tracing.phase_times(rec.spans)[0] for rec, _ in traced_passes)
    metrics["bench.trace_overhead"] = traced_wall / untraced_wall - 1.0
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT_DIR / "src"))
    import ddmlab
    if Path(ddmlab.__file__).resolve().parent != ROOT_DIR / "src" / "ddmlab":
        print(f"perfbench: imported ddmlab from {ddmlab.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2
    env = environment(args.seed)
    problems = pin_problems(env)
    if problems:
        print("perfbench: BLAS thread pin did not reach the benchmark "
              "process: " + "; ".join(problems), file=sys.stderr)
        return 2

    payload, spans = measure(ddmlab, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    payload["env"] = env
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        path.write_text(json.dumps([s.to_dict() for s in spans]))
        payload["spans_file"] = str(path.relative_to(ROOT_DIR))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
