"""Tests of the benchmark's own machinery: python3 -m pytest perfbench/tests"""

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import ddmlab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Small scenarios that between them enter every wrapped layer: graph
# partition, GenEO, bound checks and right GMRES in the first; cartesian
# partition, Nicolaides and PCG in the second.
SMALL = [
    {"schema": 1, "name": "fem-small",
     "problem": {"kind": "fem_2d", "cells_x": 12, "cells_y": 12,
                 "alpha": {"kind": "constant", "value": 1.0}},
     "partition": {"kind": "graph", "N": 4, "seed": 0}, "overlap": 1,
     "schwarz": {"variant": "asm"}, "coarse": {"kind": "geneo", "tau": 0.5},
     "combinator": "adef1",
     "solver": {"ksp": "gmres", "tol": 1e-8, "maxit": 100, "side": "right"},
     "analysis": {"spectrum": True, "bounds": True}},
    {"schema": 1, "name": "fd-small",
     "problem": {"kind": "poisson_2d_fd", "nx": 16, "ny": 16},
     "partition": {"kind": "cartesian", "p": [2, 2]}, "overlap": 1,
     "schwarz": {"variant": "asm"}, "coarse": {"kind": "nicolaides"},
     "combinator": "ad", "solver": {"ksp": "pcg", "tol": 1e-8, "maxit": 100}},
]


def _systems(cfgs):
    return [checks.build_system(ddmlab.discretize, c["problem"]) for c in cfgs]


@pytest.fixture(scope="module")
def traced():
    begin = time.perf_counter()
    rec, results = child.run_pass(ddmlab, SMALL, _systems(SMALL),
                                  tracing.LAYER_TARGETS)
    return rec, results, time.perf_counter() - begin


def test_spans_nest(traced):
    rec, _, _ = traced
    spans = rec.spans
    assert {s.name for s in spans} == set(tracing.SELF_METRICS)
    for i, s in enumerate(spans):
        assert s.start <= s.end
        if s.parent is None:
            assert s.name == tracing.ROOT
            continue
        parent = spans[s.parent]
        assert s.parent < i
        assert parent.start <= s.start and s.end <= parent.end
        assert parent.scenario == s.scenario


def test_self_times_sum_to_traced_wall(traced):
    rec, _, elapsed = traced
    metrics = tracing.layer_metrics(rec.spans)
    self_total = sum(metrics[m] for m in tracing.SELF_METRICS.values())
    wall = tracing.phase_times(rec.spans)[0]
    assert self_total == pytest.approx(wall, rel=1e-9)
    assert wall <= elapsed


def test_patching_is_undone(traced):
    assert ddmlab.linalg.auto_factor.__module__ == "ddmlab.linalg"
    assert not hasattr(ddmlab.schwarz.OneLevelPreconditioner.apply,
                       "__wrapped__")


def test_layer_counts(traced):
    rec, results, _ = traced
    assert all(not r["failures"] for r in results)
    m = tracing.layer_metrics(rec.spans)
    assert m["decompose.subdomains"] == 8
    assert m["linalg.gen_eig_calls"] == 4
    assert m["analysis.bound_checks"] == 2
    assert m["analysis.bound_violations"] == 0
    assert m["krylov.pcg.prec_applies_per_iter"] == 1.0
    assert m["krylov.gmres.prec_applies_per_iter"] >= 1.0
    assert 0 < m["coarse.kept_ratio"] <= 1.0


def test_untraced_pass_wraps_only_krylov():
    rec, results = child.run_pass(ddmlab, SMALL[1:], _systems(SMALL[1:]),
                                  tracing.KRYLOV_TARGETS)
    assert [s.name for s in rec.spans] == [tracing.ROOT, tracing.KRYLOV]
    wall, setup, solve, post = tracing.phase_times(rec.spans)
    assert setup > 0 and solve > 0 and post > 0
    assert setup + solve + post == pytest.approx(wall, rel=1e-9)
    assert "raw_columns" not in results[0]["outputs"]


def test_same_seed_same_scenarios():
    for name in workloads.NAMES:
        assert workloads.scenarios(name, 7) == workloads.scenarios(name, 7)
        for cfg in workloads.scenarios(name, 7):
            ddmlab.bench.resolve_scenario(cfg)
    assert workloads.scenarios("fem_geneo", 1) != workloads.scenarios("fem_geneo", 2)
    assert workloads.scenarios("fd40k", 1) == workloads.scenarios("fd40k", 2)
    geneo = workloads.scenarios("fem_geneo", 1)
    assert {c["partition"]["seed"] for c in geneo} == set(range(8, 16))
    for name in workloads.NAMES:
        names = [c["name"] for c in workloads.scenarios(name, 1)]
        assert len(set(names)) == len(names)


def test_corrupted_solution_fails_output_check():
    cfg = SMALL[1]
    system = _systems([cfg])[0]
    rec = tracing.Recorder()
    with rec.patched(ddmlab, tracing.KRYLOV_TARGETS):
        record = ddmlab.bench.run_scenario(cfg)
    x = rec.spans[0].notes["x"]
    failures, relres = checks.check_outputs(cfg, record, x, system)
    assert failures == [] and relres <= cfg["solver"]["tol"]
    bad = x.copy()
    bad[len(bad) // 2] += 1e-3
    failures, _ = checks.check_outputs(cfg, record, bad, system)
    assert any("relative residual" in f for f in failures)


def test_violated_bound_fails_output_check():
    cfg = SMALL[0]
    record = {"solve": {"converged": True},
              "spectrum": {"records": [{"name": "coloring", "satisfied": False,
                                        "measured": 6.0, "bound": 5.0}]}}
    system = _systems([cfg])[0]
    x = np.linalg.solve(system.A.toarray(), system.F)
    failures, _ = checks.check_outputs(cfg, record, x, system)
    assert failures == ["bound coloring violated: measured 6 > bound 5"]


def test_reference_diffs_are_named():
    ref = {"s": {"iterations": 10, "final_relres": 1e-7, "coarse_dim": 4}}
    out = {"iterations": 11, "final_relres": 1e-7, "coarse_dim": 4}
    assert checks.reference_diffs("w", "s", out, ref) == ["w/s iterations: 10 -> 11"]


def test_pin_problems():
    env = {"thread_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None},
           "blas_threads": {"libopenblas.so": 2}}
    assert len(child.pin_problems(env)) == 2
    env = {"thread_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
           "blas_threads": {"libopenblas.so": 1}}
    assert child.pin_problems(env) == []


def test_metric_names_and_benchmark_file():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)
    for name in list(end_to_end) + list(per_layer):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
    traced_names = set(tracing.layer_metrics([])) | {
        "wall_s", "solve_s", "krylov.residual_drift", "bench.trace_overhead"}
    assert traced_names == set(per_layer)
