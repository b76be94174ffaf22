"""Scenario runner and command line interface.

A scenario is a JSON document (schema version 1) describing one solve:
problem, partition, overlap, partition of unity, Schwarz variant, coarse
space, combinator, Krylov settings, and analysis toggles. Validation is
fail-fast: unknown keys and bad enum values are rejected before anything
runs. Every run produces a RunRecord dictionary whose scenario hash
names the output directory, so any table cell can be traced back to the
record that produced it. Its timings are the self seconds of nested
spans keyed by span path, which add up to the run's duration: assembly,
partition, overlap, local setup, coarse basis, Krylov, analysis, and
inside them the matvecs, one-level applies and coarse solves, such as
``run/krylov/coarse.two_level/coarse.solve``. A rerun reproduces the
payload exactly, apart from the timings and the machine block.

Commands::

    ddmlab run <config.json>       one scenario -> record + residual csv
    ddmlab suite <suite.json>      sweep -> csv + markdown tables
    ddmlab spectrum <config.json>  eigenvalues -> csv + bound checks

Bundled configurations under ``ddmlab/configs`` can be addressed by bare
name, e.g. ``ddmlab run poisson_unit``.
"""

import argparse
import copy
import ctypes
import functools
import hashlib
import json
import platform
import time
from importlib import resources
from pathlib import Path

import numpy as np
import scipy

from . import analysis, coarse, decompose, discretize, krylov, schwarz

SCHEMA_VERSION = 1

# each coarse kind with the keys it takes besides "kind"
_COARSE_KINDS = {"none": (), "nicolaides": (), "grid": ("H", "ratio"), "geneo": ("tau",)}
_KSP = ("cg", "pcg", "gmres")


class ScenarioError(RuntimeError):
    """A scenario failed; the message carries the scenario name."""


# ---------------------------------------------------------------------------
# configuration


def _check_keys(section, allowed, where):
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be an object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}")


def _require(section, key, where):
    if key not in section:
        raise ValueError(f"missing required key {key!r} in {where}")
    return section[key]


def _enum(value, allowed, where):
    if value not in allowed:
        raise ValueError(f"{where} must be one of {list(allowed)}, got {value!r}")
    return value


def _resolve_problem(problem):
    kind = _enum(_require(problem, "kind", "problem"),
                 ("poisson_1d", "poisson_2d_fd", "fem_2d", "helmholtz_2d"),
                 "problem.kind")
    if kind == "poisson_1d":
        _check_keys(problem, {"kind", "m"}, "problem")
        return {"kind": kind, "m": int(_require(problem, "m", "problem"))}
    if kind == "poisson_2d_fd":
        _check_keys(problem, {"kind", "nx", "ny"}, "problem")
        return {"kind": kind, "nx": int(_require(problem, "nx", "problem")),
                "ny": int(_require(problem, "ny", "problem"))}
    if kind == "fem_2d":
        _check_keys(problem, {"kind", "cells_x", "cells_y", "alpha"}, "problem")
        alpha = problem.get("alpha", {"kind": "constant", "value": 1.0})
        akind = _enum(_require(alpha, "kind", "problem.alpha"),
                      ("constant", "channels"), "problem.alpha.kind")
        if akind == "constant":
            _check_keys(alpha, {"kind", "value"}, "problem.alpha")
            alpha = {"kind": "constant", "value": float(alpha.get("value", 1.0))}
        else:
            _check_keys(alpha, {"kind", "contrast", "count"}, "problem.alpha")
            alpha = {"kind": "channels",
                     "contrast": float(_require(alpha, "contrast", "problem.alpha")),
                     "count": int(alpha.get("count", 3))}
            if alpha["count"] < 1:  # no channel: the coefficient is 1 everywhere
                raise ValueError(f"problem.alpha.count must be >= 1, got {alpha['count']}")
        return {"kind": kind,
                "cells_x": int(_require(problem, "cells_x", "problem")),
                "cells_y": int(_require(problem, "cells_y", "problem")),
                "alpha": alpha}
    _check_keys(problem, {"kind", "nx", "ny", "omega", "xi", "boundary"},
                "problem")
    return {"kind": kind,
            "nx": int(_require(problem, "nx", "problem")),
            "ny": int(_require(problem, "ny", "problem")),
            "omega": float(_require(problem, "omega", "problem")),
            "xi": float(problem.get("xi", 0.0)),
            "boundary": _enum(problem.get("boundary", "dirichlet"),
                              discretize.BOUNDARIES, "problem.boundary")}


def _resolve_partition(partition, dim):
    kind = _enum(_require(partition, "kind", "partition"),
                 ("cartesian", "graph"), "partition.kind")
    if kind == "cartesian":
        _check_keys(partition, {"kind", "p"}, "partition")
        p = [int(v) for v in _require(partition, "p", "partition")]
        if len(p) != dim:
            raise ValueError(
                f"partition.p must have {dim} entries for this problem, got {p}")
        if any(v < 1 for v in p):
            raise ValueError("partition.p entries must be >= 1")
        return {"kind": kind, "p": p}
    _check_keys(partition, {"kind", "N", "seed"}, "partition")
    N = int(_require(partition, "N", "partition"))
    if N < 1:
        raise ValueError("partition.N must be >= 1")
    return {"kind": kind, "N": N, "seed": int(partition.get("seed", 0))}


def _resolve_robin_p(value):
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, list) and len(value) == 2:
        return [float(value[0]), float(value[1])]
    raise ValueError("schwarz.robin_p must be a number or [re, im]")


def resolve_scenario(config):
    """Validate a scenario and fill defaults; returns the resolved dict.

    Unknown keys anywhere in the document are rejected. The result is
    JSON-stable: resolving a resolved scenario is the identity.
    """
    _check_keys(config, {"schema", "name", "problem", "partition", "overlap",
                         "pu", "schwarz", "coarse", "combinator", "solver",
                         "analysis"}, "scenario")
    if config.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {config.get('schema')!r}; "
                         f"this build reads schema {SCHEMA_VERSION}")
    problem = _resolve_problem(_require(config, "problem", "scenario"))
    dim = 1 if problem["kind"] == "poisson_1d" else 2
    partition = _resolve_partition(_require(config, "partition", "scenario"), dim)

    overlap = int(config.get("overlap", 1))
    if overlap < 0:
        raise ValueError("overlap must be >= 0")
    pu = _enum(config.get("pu", "multiplicity"), decompose.PU_KINDS, "pu")

    sch = dict(config.get("schwarz", {}))
    _check_keys(sch, {"variant", "robin_p"}, "schwarz")
    variant = _enum(sch.get("variant", "ras"), schwarz.VARIANTS,
                    "schwarz.variant")
    robin_p = _resolve_robin_p(sch.get("robin_p"))
    if robin_p is not None and variant not in schwarz.ROBIN_VARIANTS:
        raise ValueError(
            f"robin parameter is only meaningful for oras/soras, not {variant!r}")

    crs = dict(config.get("coarse", {}))
    ckind = _enum(crs.get("kind", "none"), _COARSE_KINDS, "coarse.kind")
    _check_keys(crs, {"kind", *_COARSE_KINDS[ckind]}, f"coarse of kind {ckind!r}")
    coarse_cfg = {"kind": ckind}
    if ckind == "grid":
        H, ratio = crs.get("H"), crs.get("ratio")
        if (H is None) == (ratio is None):
            raise ValueError("grid coarse space needs exactly one of H or ratio")
        coarse_cfg["H"] = None if H is None else float(H)
        coarse_cfg["ratio"] = None if ratio is None else int(ratio)
    elif ckind == "geneo":
        tau = crs.get("tau", "auto")
        if tau != "auto":
            tau = float(tau)
            if tau <= 0:
                raise ValueError("geneo threshold tau must be positive")
        coarse_cfg["tau"] = tau

    # geneo_space reads the element matrices of a finite element mesh
    if ckind == "geneo":
        if problem["kind"] != "fem_2d":
            raise ValueError(f"geneo coarse space with problem kind "
                             f"{problem['kind']!r}: GenEO needs the Neumann "
                             f"matrices of a finite element mesh, which only "
                             f"'fem_2d' has; use coarse kind 'nicolaides' or "
                             f"'grid'")
        if coarse_cfg["tau"] == "auto" and overlap == 0:
            raise ValueError("geneo threshold tau 'auto' with overlap 0: the "
                             "threshold is the reciprocal of the worst ratio "
                             "H_j / overlap width, and the overlap width is "
                             "zero; give a numeric tau or a positive overlap")

    # grid_space samples a structured grid of the problem's unknowns
    if ckind == "grid":
        if problem["kind"] == "fem_2d":
            raise ValueError("grid coarse space with problem kind 'fem_2d': a "
                             "FEM mesh has no structured grid for grid_space "
                             "to sample; use coarse kind 'nicolaides' or "
                             "'geneo'")
        if problem["kind"] == "helmholtz_2d" and problem["boundary"] == "impedance":
            raise ValueError(f"grid coarse space with an impedance boundary: "
                             f"the impedance system has (nx+2)(ny+2) = "
                             f"{(problem['nx'] + 2) * (problem['ny'] + 2)} "
                             f"unknowns, but grid_space samples only the "
                             f"nx*ny = {problem['nx'] * problem['ny']} "
                             f"interior nodes")

    combinator = _enum(config.get("combinator", "adef1"), coarse.COMBINATORS,
                       "combinator")

    sol = dict(config.get("solver", {}))
    _check_keys(sol, {"ksp", "tol", "maxit", "side", "x0"}, "solver")
    ksp = _enum(sol.get("ksp", "gmres"), _KSP, "solver.ksp")
    solver = {
        "ksp": ksp,
        "tol": float(sol.get("tol", 1e-6)),
        "maxit": int(sol.get("maxit", 200)),
        "side": _enum(sol.get("side", "right"), krylov.SIDES, "solver.side"),
        "x0": _enum(sol.get("x0", "zero"), ("zero", "deflated"), "solver.x0"),
    }
    if solver["maxit"] < 0:
        raise ValueError(f"solver.maxit must be >= 0, got {solver['maxit']}")
    if not 0 <= solver["tol"] < np.inf:
        raise ValueError(f"solver.tol must be a finite number >= 0, "
                         f"got {solver['tol']}")
    if ksp == "cg" and (variant != "none" or ckind != "none"):
        raise ValueError("cg runs unpreconditioned; use pcg or gmres with a "
                         "Schwarz variant or coarse space")
    if solver["x0"] == "deflated" and ckind == "none":
        raise ValueError("deflated initial guess needs a coarse space")
    if ksp == "pcg" and variant in ("ras", "oras"):
        raise ValueError(f"pcg with schwarz variant {variant!r} is not supported: "
                         f"{variant} is nonsymmetric and CG does not converge "
                         "with it; use ksp 'gmres', or variant 'asm' or 'soras' "
                         "with pcg")
    if (ksp == "pcg" and variant == "soras" and isinstance(robin_p, list)
            and robin_p[1] != 0):
        raise ValueError("pcg with schwarz variant 'soras' and a complex robin_p "
                         "is not supported: complex Robin blocks make soras "
                         "complex symmetric, not Hermitian, and CG theory does "
                         "not cover it; use ksp 'gmres', or a real robin_p "
                         "with pcg")
    if ksp == "pcg" and combinator == "adef1" and ckind != "none":
        raise ValueError("pcg with combinator 'adef1' is not supported: adef1 is "
                         "nonsymmetric and CG does not converge with it, even "
                         "from a deflated start; use ksp 'gmres', or combinator "
                         "'ad', 'adef2' or 'bnn' with pcg")
    if (ckind != "none" and solver["x0"] == "zero"
            and (combinator in ("rbnn1", "rbnn2")
                 or (ksp == "pcg" and combinator == "adef2"))):
        raise ValueError(f"{ksp} with combinator {combinator!r} needs solver.x0 "
                         "'deflated' (the start Q b): rbnn1 and rbnn2 have no "
                         "+Q term, and CG converges with adef2 only from Q b")

    ana = dict(config.get("analysis", {}))
    _check_keys(ana, {"spectrum", "bounds"}, "analysis")
    analysis_cfg = {"spectrum": bool(ana.get("spectrum", False)),
                    "bounds": bool(ana.get("bounds", False))}
    if analysis_cfg["bounds"]:
        analysis_cfg["spectrum"] = True

    out = {
        "schema": SCHEMA_VERSION,
        "name": str(config.get("name", "scenario")),
        "problem": problem,
        "partition": partition,
        "overlap": overlap,
        "pu": pu,
        "schwarz": {"variant": variant, "robin_p": robin_p},
        "coarse": coarse_cfg,
        "combinator": combinator,
        "solver": solver,
        "analysis": analysis_cfg,
    }
    return out


def scenario_hash(resolved):
    """Hash of the canonical JSON form of a resolved scenario."""
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# execution


def _build_system(problem):
    kind = problem["kind"]
    if kind == "poisson_1d":
        return discretize.poisson_1d(problem["m"])
    if kind == "poisson_2d_fd":
        return discretize.poisson_2d_fd(problem["nx"], problem["ny"])
    if kind == "fem_2d":
        mesh = discretize.unit_square_mesh(problem["cells_x"], problem["cells_y"])
        a = problem["alpha"]
        if a["kind"] == "constant":
            value = a["value"]
            alpha = lambda c: value
        else:
            contrast, count = a["contrast"], a["count"]
            alpha = lambda c: contrast if int(c[1] * 2 * count) % 2 else 1.0
        return discretize.diffusion_fem_2d(mesh, alpha)
    grid = discretize.StructuredGrid(2, nx=problem["nx"], ny=problem["ny"])
    return discretize.helmholtz_2d(grid, problem["omega"], xi=problem["xi"],
                                   boundary=problem["boundary"])


def _build_partition(system, spec):
    if spec["kind"] == "cartesian":
        p = spec["p"]
        if len(p) == 1:
            return decompose.cartesian_partition(system.n, p[0])
        if system.grid is not None:
            return decompose.cartesian_partition(system.grid, p[0], p[1])
        # unstructured systems: block by coordinates instead of node indices
        px, py = p
        xy = system.coords
        lx = np.minimum((xy[:, 0] * px).astype(int), px - 1)
        ly = np.minimum((xy[:, 1] * py).astype(int), py - 1)
        # drop empty blocks, numbering the others in order
        return np.unique(lx + px * ly, return_inverse=True)[1]
    return decompose.greedy_graph_partition(system.A, spec["N"],
                                            seed=spec["seed"])


class _Clock:
    """Self seconds of nested spans, keyed by span path in pre-order.

    A span opened inside another is its child: its path is the parent's
    path plus its name (``run/krylov/coarse.two_level/schwarz.apply``).
    Each path keeps the time of its spans minus that of their children,
    so the values add up to the outermost span's duration.
    """

    def __init__(self):
        self.self_s = {}
        self._open = []

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        parent = self._open[-1] if self._open else None
        path = name if parent is None else f"{parent}/{name}"
        self.self_s.setdefault(path, 0.0)
        self._open.append(path)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self._open.pop()
            self.self_s[path] += elapsed
            if parent is not None:
                self.self_s[parent] -= elapsed

    def timed(self, name, fn):
        """``fn`` with each call run inside a span named ``name``."""
        return functools.partial(self.run, name, fn)


def _build_coarse(cfg, system, dec):
    spec = cfg["coarse"]
    if spec["kind"] == "nicolaides":
        return coarse.nicolaides_space(system.A, dec)
    if spec["kind"] == "grid":
        H = spec["H"] if spec["H"] is not None else spec["ratio"] * system.h
        return coarse.grid_space(system.A, system.grid, H)
    return coarse.geneo_space(system, dec, tau=spec["tau"])


def _bound_records(cfg, system, dec, M1, Q, tau, spectrum):
    """Bound checks applicable to this scenario, each on its own operator.

    The coloring bound concerns the one-level symmetric variant and the
    coarse-space threshold bound concerns the additive two-level
    composition, so both are measured on those operators even when the
    solve itself used a different combinator. The run's own spectrum is
    reused when it is the spectrum of that operator.
    """
    records = []
    if cfg["schwarz"]["variant"] == "asm":
        one_spec = (spectrum if cfg["coarse"]["kind"] == "none"
                    else analysis.preconditioned_spectrum(system.A, M1))
        records.append(
            analysis.coloring_bound_check(system.A, dec, M1, spectrum=one_spec))
        if cfg["coarse"]["kind"] == "geneo":
            ad_spec = (spectrum if cfg["combinator"] == "ad"
                       else analysis.preconditioned_spectrum(
                           system.A, coarse.TwoLevelPreconditioner(
                               M1, Q, system.A, combinator="ad")))
            records.append(analysis.geneo_bound_check(
                ad_spec, k0=dec.max_multiplicity, tau=tau))
    return records


def run_scenario(config):
    """Execute one scenario and return its RunRecord dictionary."""
    name = config.get("name", "scenario") if isinstance(config, dict) else "scenario"
    try:
        cfg = resolve_scenario(config)
        clock = _Clock()
        return clock.run("run", _execute, cfg, clock)
    except Exception as err:
        raise ScenarioError(f"scenario {name!r} failed: {err}") from err


_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def _blas_builds():
    """BLAS library and version that numpy and scipy report for their build."""
    builds = {}
    for pkg in (np, scipy):
        try:
            blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            builds[pkg.__name__] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):  # a version without the dict report
            builds[pkg.__name__] = None
    return builds


@functools.cache
def _openblas_thread_queries():
    """The thread-count queries of the OpenBLAS libraries numpy and scipy bundle."""
    queries = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for symbol in _OPENBLAS_THREAD_QUERIES:
                query = getattr(lib, symbol, None)
                if query is not None:
                    query.argtypes = []
                    query.restype = ctypes.c_int
                    queries.append(query)
                    break
    return tuple(queries)


def _blas_threads():
    """Threads in effect in the bundled OpenBLAS libraries (the largest count), or None."""
    counts = [query() for query in _openblas_thread_queries()]
    return max(counts) if counts else None


def _execute(cfg, clock):
    system = clock.run("discretize.assembly", _build_system, cfg["problem"])
    A, b = system.A, system.F

    part = clock.run("decompose.partition", _build_partition, system,
                     cfg["partition"])
    dec = clock.run("decompose.overlap", decompose.expand_overlap, A, part,
                    cfg["overlap"], coords=system.coords, h=system.h)
    if cfg["pu"] == "boolean":
        dec = clock.run("decompose.overlap", decompose.boolean_pu, dec)

    robin_p = cfg["schwarz"]["robin_p"]
    if isinstance(robin_p, list):
        robin_p = complex(robin_p[0], robin_p[1])
    M1 = clock.run("schwarz.setup", schwarz.one_level, A, dec,
                   cfg["schwarz"]["variant"], p=robin_p, h=system.h,
                   dim=system.dim)
    # a complex Robin p on a real system needs a complex solve
    b = b.astype(np.result_type(b, M1.dtype))
    one = clock.timed("schwarz.apply", M1.apply)
    matvec = clock.timed("matvec", lambda v: A @ v)

    cs = Q = None
    prec = None if cfg["schwarz"]["variant"] == "none" else one
    if cfg["coarse"]["kind"] != "none":
        cs = clock.run("coarse.basis", _build_coarse, cfg, system, dec)
        Q = clock.timed("coarse.solve", cs.apply_Q)
        M = coarse.TwoLevelPreconditioner(one, Q, matvec,
                                          combinator=cfg["combinator"])
        prec = clock.timed("coarse.two_level", M.apply)

    sol = cfg["solver"]
    x0 = Q(b) if sol["x0"] == "deflated" else None
    # the solver named by ksp, with the arguments only it takes
    only = {"cg": {}, "pcg": {"M": prec},
            "gmres": {"M": prec, "side": sol["side"]}}
    x, report = clock.run("krylov", getattr(krylov, sol["ksp"]), matvec, b,
                          x0=x0, tol=sol["tol"], maxit=sol["maxit"],
                          **only[sol["ksp"]])

    spectrum = None
    if cfg["analysis"]["spectrum"]:
        spectrum = clock.run("analysis.spectrum",
                             analysis.preconditioned_spectrum, A, prec)
        if cfg["analysis"]["bounds"]:
            spectrum.records.extend(clock.run(
                "analysis.bounds", _bound_records, cfg, system, dec, one, Q,
                None if cs is None else cs.tau, spectrum))

    return {
        "schema": SCHEMA_VERSION,
        "scenario_hash": scenario_hash(cfg),
        "scenario": cfg,
        "n_dofs": int(A.shape[0]),
        "n_subdomains": int(dec.N),
        "subdomain_dofs": np.diff(dec.offsets).tolist(),
        "local_factor": None if M1.factor is None else {
            "kind": M1.factor.kind, "order": M1.factor.n,
            "nnz": M1.factor.nnz,
            "distinct_blocks": M1.factor.distinct_blocks},
        "coarse_dim": 0 if cs is None else int(cs.m0),
        "coarse_raw_columns": 0 if cs is None else int(cs.raw_columns),
        "coarse_per_subdomain": (
            None if cs is None or cs.owners is None
            else np.bincount(cs.owners, minlength=dec.N).tolist()),
        "coarse_eigenvalues": (
            None if cs is None or cs.eigenvalues is None
            else cs.eigenvalues.tolist()),
        "coarse_min_pivot": None if cs is None else cs.min_pivot,
        "solve": report.to_dict(),
        "spectrum": None if spectrum is None else spectrum.to_dict(),
        # the same dict: complete once the enclosing run span closes
        "timings": clock.self_s,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_builds(),
            "blas_threads": _blas_threads(),
        },
    }


# ---------------------------------------------------------------------------
# suites


def merge_config(base, overrides):
    """Overlay sweep-point overrides on a base scenario.

    Sections merge key by key, except that changing a section's "kind"
    replaces the section wholesale (stale sibling keys from the old kind
    would otherwise leak through validation).
    """
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if key == "name":
            continue
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            old = out[key]
            if "kind" in value and value["kind"] != old.get("kind"):
                out[key] = copy.deepcopy(value)
            else:
                merged = dict(old)
                merged.update(value)
                out[key] = merged
        else:
            out[key] = value
    return out


def resolve_suite(config):
    _check_keys(config, {"schema", "name", "base", "sweep", "reference"},
                "suite")
    if config.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {config.get('schema')!r}")
    base = _require(config, "base", "suite")
    sweep = _require(config, "sweep", "suite")
    if not isinstance(sweep, list) or not sweep:
        raise ValueError("suite.sweep must be a non-empty list")
    names = []
    for entry in sweep:
        if "name" not in entry:
            raise ValueError("every sweep entry needs a name")
        names.append(entry["name"])
    if len(set(names)) != len(names):
        raise ValueError("sweep entry names must be unique")
    reference = config.get("reference")
    if reference is not None:
        _check_keys(reference, {"label", "rows"}, "suite.reference")
    return {"schema": SCHEMA_VERSION,
            "name": str(config.get("name", "suite")),
            "base": base, "sweep": sweep, "reference": reference}


def run_suite(config, out_root=None):
    """Run every sweep point; failures mark their row and do not abort."""
    suite = resolve_suite(config)
    ref = suite["reference"] or {"label": None, "rows": {}}
    rows = []
    for entry in suite["sweep"]:
        merged = merge_config(suite["base"], entry)
        merged["name"] = entry["name"]
        row = {"name": entry["name"], "record": None, "n_dofs": None,
               "n_subdomains": None, "iterations": None, "converged": None,
               "final_relres": None,
               "reference": ref["rows"].get(entry["name"]), "error": None}
        try:
            record = run_scenario(merged)
        except ScenarioError as err:
            row["error"] = str(err)
        else:
            row.update({
                "record": record["scenario_hash"][:12],
                "n_dofs": record["n_dofs"],
                "n_subdomains": record["n_subdomains"],
                "iterations": record["solve"]["iterations"],
                "converged": record["solve"]["converged"],
                "final_relres": record["solve"]["final_relres"],
            })
            if out_root is not None:
                _write_record(record, Path(out_root))
        rows.append(row)

    result = {"name": suite["name"], "reference_label": ref["label"],
              "rows": rows}
    if out_root is not None:
        canon = json.dumps(suite, sort_keys=True, separators=(",", ":"))
        suite_dir = Path(out_root) / hashlib.sha256(canon.encode()).hexdigest()[:12]
        suite_dir.mkdir(parents=True, exist_ok=True)
        (suite_dir / "suite.json").write_text(json.dumps(result, indent=2))
        (suite_dir / "suite.csv").write_text(_suite_csv(rows))
        (suite_dir / "suite.md").write_text(_suite_markdown(result))
        result["out_dir"] = str(suite_dir)
    return result


_SUITE_COLUMNS = ("name", "n_dofs", "n_subdomains", "iterations", "converged",
                  "final_relres", "reference", "record", "error")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)


def _suite_csv(rows):
    lines = [",".join(_SUITE_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            _cell(row[c]).replace(",", ";") for c in _SUITE_COLUMNS))
    return "\n".join(lines) + "\n"


def _suite_markdown(result):
    lines = [f"# Suite: {result['name']}", ""]
    lines.append("| " + " | ".join(_SUITE_COLUMNS) + " |")
    lines.append("|" + "---|" * len(_SUITE_COLUMNS))
    for row in result["rows"]:
        lines.append("| " + " | ".join(
            _cell(row[c]) for c in _SUITE_COLUMNS) + " |")
    if result["reference_label"]:
        lines += ["", f"Reference column: {result['reference_label']}."]
    lines += ["", "Each populated `record` cell names the directory holding "
              "that run's full record."]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# artifacts


def _write_record(record, out_root):
    run_dir = Path(out_root) / record["scenario_hash"][:12]
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "record.json").write_text(json.dumps(record, indent=2))
    hist = record["solve"]["residual_history"]
    lines = ["iteration,residual_norm"]
    lines += [f"{k},{r:.16e}" for k, r in enumerate(hist)]
    (run_dir / "residuals.csv").write_text("\n".join(lines) + "\n")
    (run_dir / "report.md").write_text(_report_markdown(record))
    if record["spectrum"] is not None:
        eigs = record["spectrum"]["eigenvalues"]
        rows = ["re,im"]
        for v in eigs:
            re, im = (v[0], v[1]) if isinstance(v, list) else (v, 0.0)
            rows.append(f"{re:.16e},{im:.16e}")
        (run_dir / "spectrum.csv").write_text("\n".join(rows) + "\n")
        (run_dir / "bounds.json").write_text(
            json.dumps(record["spectrum"]["records"], indent=2))
    return run_dir


def _report_markdown(record):
    cfg = record["scenario"]
    solve = record["solve"]
    lines = [
        f"# Run: {cfg['name']}",
        "",
        f"- scenario hash: `{record['scenario_hash']}`",
        f"- problem: {cfg['problem']['kind']}, {record['n_dofs']} dofs",
        f"- subdomains: {record['n_subdomains']} "
        f"(overlap {cfg['overlap']}, pu {cfg['pu']})",
        f"- preconditioner: {cfg['schwarz']['variant']}, "
        f"coarse {cfg['coarse']['kind']} (dim {record['coarse_dim']}), "
        f"combinator {cfg['combinator']}",
        f"- solver: {solve['method']}, tol {cfg['solver']['tol']:g}",
        f"- iterations: {solve['iterations']}, converged: {solve['converged']}, "
        f"final relative residual: {solve['final_relres']:.3e}",
        "",
        "## Timings (self seconds by span)",
        "",
        "| span | time |",
        "|---|---|",
    ]
    lines += [f"| {k} | {t:.4f} |" for k, t in record["timings"].items()]
    if record["spectrum"] is not None:
        spec = record["spectrum"]
        kap = "n/a" if spec["kappa"] is None else f"{spec['kappa']:.4g}"
        lines += ["", "## Spectrum", "",
                  f"- path: {spec['path']}, "
                  f"range [{spec['lambda_min']:.4g}, {spec['lambda_max']:.4g}], "
                  f"kappa {kap}"]
        for rec in spec["records"]:
            flag = "ok" if rec["satisfied"] else "VIOLATED"
            lines.append(f"- {rec['name']}: measured {rec['measured']:.4g} "
                         f"vs bound {rec['bound']:.4g} ({flag})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bundled configurations


def bundled_names():
    root = resources.files("ddmlab") / "configs"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled(name):
    if not name.endswith(".json"):
        name += ".json"
    path = resources.files("ddmlab") / "configs" / name
    return json.loads(path.read_text())


def _load_config(arg):
    path = Path(arg)
    if path.exists():
        return json.loads(path.read_text())
    try:
        return load_bundled(arg)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no config file {arg!r} and no bundled config of that name; "
            f"bundled: {', '.join(bundled_names())}") from None


# ---------------------------------------------------------------------------
# command line


def _apply_overrides(config, args):
    cfg = copy.deepcopy(config)

    def section(key):
        cfg.setdefault(key, {})
        return cfg[key]

    if args.partitioner:
        spec = args.partitioner
        kind, _, rest = spec.partition(":")
        if kind == "cartesian":
            p = [int(v) for v in rest.split("x")] if rest else []
            cfg["partition"] = {"kind": "cartesian", "p": p}
        elif kind == "graph":
            fields = rest.split(":") if rest else []
            part = {"kind": "graph", "N": int(fields[0])}
            if len(fields) > 1:
                part["seed"] = int(fields[1])
            cfg["partition"] = part
        else:
            raise ValueError(f"unknown partitioner {spec!r}; use "
                             "cartesian:PX[xPY] or graph:N[:seed]")
    if args.overlap is not None:
        cfg["overlap"] = args.overlap
    if args.pu:
        cfg["pu"] = args.pu
    if args.schwarz_method:
        section("schwarz")["variant"] = args.schwarz_method
    if args.coarse:
        spec = args.coarse
        kind, _, rest = spec.partition(":")
        coarse_cfg = {"kind": kind}
        if rest:
            key, _, value = rest.partition("=")
            coarse_cfg[key] = float(value) if key != "ratio" else int(value)
        cfg["coarse"] = coarse_cfg
    if args.geneo_threshold:
        tau = args.geneo_threshold
        # a switch of kind drops the old kind's keys, as in a suite sweep
        cfg = merge_config(cfg, {"coarse": {
            "kind": "geneo", "tau": tau if tau == "auto" else float(tau)}})
    if args.coarse_correction:
        cfg["combinator"] = args.coarse_correction
    if args.ksp:
        section("solver")["ksp"] = args.ksp
    if args.ksp_rtol is not None:
        section("solver")["tol"] = args.ksp_rtol
    if args.ksp_maxit is not None:
        section("solver")["maxit"] = args.ksp_maxit
    if args.pc_side:
        section("solver")["side"] = args.pc_side
    return cfg


def _add_scenario_flags(sub):
    sub.add_argument("--partitioner", help="cartesian:PX[xPY] or graph:N[:seed]")
    sub.add_argument("--overlap", type=int)
    sub.add_argument("--pu", choices=decompose.PU_KINDS)
    sub.add_argument("--schwarz-method", choices=schwarz.VARIANTS)
    sub.add_argument("--coarse",
                     help="none | nicolaides | grid:H=0.25 | grid:ratio=4 | geneo")
    sub.add_argument("--geneo-threshold",
                     help="spectral threshold tau, or 'auto'")
    sub.add_argument("--coarse-correction", choices=coarse.COMBINATORS)
    sub.add_argument("--ksp", choices=_KSP)
    sub.add_argument("--ksp-rtol", type=float)
    sub.add_argument("--ksp-maxit", type=int)
    sub.add_argument("--pc-side", choices=krylov.SIDES)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ddmlab",
        description="Overlapping Schwarz preconditioner benchmarks")
    subs = parser.add_subparsers(dest="command", required=True)

    for cmd, helptext in (("run", "run one scenario"),
                          ("spectrum", "run one scenario and dump its spectrum")):
        sub = subs.add_parser(cmd, help=helptext)
        sub.add_argument("config", help="scenario JSON file or bundled name")
        sub.add_argument("--out", default="out", help="output root directory")
        _add_scenario_flags(sub)

    sub = subs.add_parser("suite", help="run a sweep suite")
    sub.add_argument("config", help="suite JSON file or bundled name")
    sub.add_argument("--out", default="out", help="output root directory")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (FileNotFoundError, ValueError, ScenarioError) as err:
        print(f"ddmlab: {err}")
        return 1


def _dispatch(args):
    if args.command == "suite":
        suite = _load_config(args.config)
        result = run_suite(suite, out_root=args.out)
        for row in result["rows"]:
            if row["error"]:
                print(f"{row['name']}: FAILED ({row['error']})")
            else:
                print(f"{row['name']}: {row['iterations']} iterations, "
                      f"converged={row['converged']}, record {row['record']}")
        print(f"suite artifacts in {result['out_dir']}")
        return 0

    config = _apply_overrides(_load_config(args.config), args)
    if args.command == "spectrum":
        config.setdefault("analysis", {})
        config["analysis"]["spectrum"] = True
        config["analysis"]["bounds"] = True
    record = run_scenario(config)
    run_dir = _write_record(record, Path(args.out))
    solve = record["solve"]
    print(f"{record['scenario']['name']}: {solve['iterations']} iterations, "
          f"converged={solve['converged']}, "
          f"final relres {solve['final_relres']:.3e}")
    print(f"record in {run_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
