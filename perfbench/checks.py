"""Output checks and reference comparison for benchmark scenarios."""

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_FIELDS = ("iterations", "coarse_dim", "n_subdomains", "final_relres",
                    "raw_columns", "kept_columns")
# final_relres is compared to this relative tolerance; the rest exactly.
RELRES_RTOL = 1e-6


def build_system(discretize, problem):
    """Assemble a scenario's system with the public ``discretize`` builders.

    The check recomputes residuals against this system rather than against
    anything the scenario runner returns, so the oracle does not share the
    runner's code path.
    """
    kind = problem["kind"]
    if kind == "poisson_1d":
        return discretize.poisson_1d(problem["m"])
    if kind == "poisson_2d_fd":
        return discretize.poisson_2d_fd(problem["nx"], problem["ny"])
    if kind == "fem_2d" and problem["alpha"]["kind"] == "constant":
        value = problem["alpha"]["value"]
        mesh = discretize.unit_square_mesh(problem["cells_x"], problem["cells_y"])
        return discretize.diffusion_fem_2d(mesh, lambda c: value)
    if kind == "helmholtz_2d":
        grid = discretize.StructuredGrid(2, nx=problem["nx"], ny=problem["ny"])
        return discretize.helmholtz_2d(grid, problem["omega"],
                                       xi=problem.get("xi", 0.0),
                                       boundary=problem.get("boundary",
                                                            "dirichlet"))
    raise ValueError(f"no check builder for problem {problem}")


def check_outputs(cfg, record, x, system):
    """Failures of one scenario's outputs, and its true relative residual.

    The solve must report convergence, ``||b - A x|| / ||b||`` recomputed
    from the solution ``x`` must be within the scenario's tolerance, and
    when bound checks are on there must be some and all must hold.
    """
    failures = []
    solve = record["solve"]
    if not solve["converged"]:
        failures.append("solve did not converge")
    b = system.F
    relres = float(np.linalg.norm(b - system.A @ x) / np.linalg.norm(b))
    tol = cfg["solver"]["tol"]
    if not relres <= tol:
        failures.append(f"true relative residual {relres:.3e} exceeds tol {tol:g}")
    if cfg.get("analysis", {}).get("bounds"):
        records = (record["spectrum"] or {}).get("records") or []
        if not records:
            failures.append("bound checks requested but none recorded")
        for rec in records:
            if not rec["satisfied"]:
                failures.append(f"bound {rec['name']} violated: measured "
                                f"{rec['measured']:.4g} > bound {rec['bound']:.4g}")
    return failures, relres


def residual_drift(relres, record):
    """Relative gap between the recomputed and the recorded final residual."""
    recorded = record["solve"]["final_relres"]
    return abs(relres - recorded) / recorded if recorded else abs(relres)


def load_reference(workload):
    return json.loads(REFERENCE.read_text()).get(workload, {})


def reference_diffs(workload, name, outputs, reference):
    """Named differences between a scenario's outputs and its reference.

    Fields missing on either side (column counts of an untraced run) are
    not compared.
    """
    ref = reference.get(name)
    if ref is None:
        return [f"{workload}/{name}: no reference"]
    diffs = []
    for field in REFERENCE_FIELDS:
        if field not in ref or field not in outputs:
            continue
        old, new = ref[field], outputs[field]
        same = (math.isclose(old, new, rel_tol=RELRES_RTOL)
                if field == "final_relres" else old == new)
        if not same:
            diffs.append(f"{workload}/{name} {field}: {old!r} -> {new!r}")
    return diffs
