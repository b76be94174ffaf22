"""Scenario runner and command line interface.

A scenario is a JSON document (schema version 1) describing one solve:
problem, partition, overlap, partition of unity, Schwarz variant, coarse
space, combinator, Krylov settings, and analysis toggles. Validation is
fail-fast and comes first. The field tables reject, naming the field,
unknown keys, bad enum values, sections that are not objects, values of
the wrong type (integer fields take integral numbers only, number fields
finite ones only, boolean fields JSON booleans only) and values below
their field's bound (``overlap must be >= 0, got -1``). Then one ordered
table of cross-field rules, ``_RULES``, rejects the method combinations
the theory does not cover, and a spectrum too large for the dense
oracle, with the cause of the first row that holds, before anything is
assembled.
Every run produces a RunRecord dictionary whose scenario hash names the
output directory, so any table cell can be traced back to the record
that produced it. Its timings are the self seconds of nested spans keyed
by span path, which add up to the run's duration: assembly, partition,
overlap, local setup, coarse basis, Krylov, analysis, and inside them
the matvecs, one-level applies and coarse solves, such as
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
import math
import platform
import time
import types
from importlib import resources
from pathlib import Path

import numpy as np
import scipy

from . import analysis, coarse, decompose, discretize, krylov, schwarz

SCHEMA_VERSION = 1


class ScenarioError(RuntimeError):
    """A scenario failed; the message carries the scenario name."""


# ---------------------------------------------------------------------------
# configuration

_REQUIRED = object()

_CASTS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string"}


def _cast(value, cast, where):
    """``cast(value)``, or a ValueError naming ``where``; a float must be finite."""
    try:
        if (not isinstance(value, cast) if cast in (bool, str)
                else isinstance(value, bool)):
            raise TypeError
        out = cast(value)
        if cast is int and isinstance(value, float) and out != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} must be {_CASTS[cast]}, got {value!r}") from None
    if cast is float and not math.isfinite(out):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    return out


def _bound(value, bound, where):
    """``value`` if it meets ``bound`` (each entry, for a list); a string passes."""
    op, k = bound
    if isinstance(value, list):
        for i, v in enumerate(value):
            _bound(v, bound, f"{where}[{i}]")
    elif not isinstance(value, str) and (value < k or op == ">" and value == k):
        raise ValueError(f"{where} must be {op} {k}, got {value}")
    return value


def _object(value, where):
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    return dict(value)


def _section(value, fields, where, prefix=None):
    """Resolve one section against its field table; returns a new dict.

    A field table maps each key to (spec, default) or (spec, default,
    bound). The spec is a cast type (int and float cast numbers and numeric
    strings but no boolean, int no fraction and float no NaN or infinity;
    bool and str take JSON booleans and strings only), a tuple of allowed
    values, a field table for a nested section, a check function
    ``check(value, where)`` returning the resolved value, or, for "kind", a
    kind table mapping each kind to the fields it adds. The bound, (">=", k)
    or (">", k), is a lower bound on what a cast type or check function
    returns. A key left out takes its default, resolved like a given value;
    a _REQUIRED default makes it required, and a None default lets any spec
    but a check function take null. Keys come out in table order, "kind"
    first. A kind with a default is named in the unknown-key message, since
    the section may not spell it out. Fields are named ``prefix + key``
    (``where.key`` by default).
    """
    _object(value, where)
    prefix = f"{where}." if prefix is None else prefix
    out, label = {}, where
    kinds, default = fields.get("kind", (None, None))
    if isinstance(kinds, dict):
        kind = out["kind"] = _field(value, "kind", tuple(kinds), default, where, prefix)
        fields = {**fields, **kinds[kind]}
        if default is not _REQUIRED:
            label = f"{where} of kind {kind!r}"
    unknown = sorted(set(value) - set(fields))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {label}")
    for key, (spec, default, *bound) in fields.items():
        if key not in out:
            out[key] = _field(value, key, spec, default, where, prefix, *bound)
    return out


def _field(section, key, spec, default, where, prefix, bound=None):
    if key not in section and default is _REQUIRED:
        raise ValueError(f"missing required key {key!r} in {where}")
    value, path = section.get(key, default), prefix + key
    if callable(spec) and not isinstance(spec, type):
        value = spec(value, path)
    elif value is None and default is None:
        return None
    elif isinstance(spec, dict):
        return _section(value, spec, path)
    elif isinstance(spec, tuple):
        if value not in spec:
            raise ValueError(f"{path} must be one of {list(spec)}, got {value!r}")
        return value
    else:
        value = _cast(value, spec, path)
    return value if bound is None else _bound(value, bound, path)


def _schema(value, where, tail=f"; this build reads schema {SCHEMA_VERSION}"):
    if value != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {value!r}{tail}")
    return SCHEMA_VERSION


def _int_list(value, where):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} must be a list of integers, got {value!r}")
    return [_cast(v, int, f"{where}[{i}]") for i, v in enumerate(value)]


def _robin_p(value, where):
    if value is None:
        return None
    if isinstance(value, list) and len(value) == 2:
        return [_cast(v, float, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _cast(value, float, where)
    raise ValueError(f"{where} must be a number or [re, im]")


def _tau(value, where):
    return value if value == "auto" else _cast(value, float, where)


_ALPHA_KINDS = {"constant": {"value": (float, 1.0, (">", 0))},
                # with no channel the coefficient is 1 everywhere
                "channels": {"contrast": (float, _REQUIRED, (">", 0)),
                             "count": (int, 3, (">=", 1))}}
_PROBLEM_KINDS = {
    "poisson_1d": {"m": (int, _REQUIRED, (">=", 1))},
    "poisson_2d_fd": {"nx": (int, _REQUIRED, (">=", 1)),
                      "ny": (int, _REQUIRED, (">=", 1))},
    "fem_2d": {"cells_x": (int, _REQUIRED, (">=", 1)),
               "cells_y": (int, _REQUIRED, (">=", 1)),
               "alpha": ({"kind": (_ALPHA_KINDS, _REQUIRED)},
                         {"kind": "constant", "value": 1.0})},
    "helmholtz_2d": {"nx": (int, _REQUIRED, (">=", 1)),
                     "ny": (int, _REQUIRED, (">=", 1)),
                     "omega": (float, _REQUIRED, (">=", 0)),
                     "xi": (float, 0.0, (">=", 0)),
                     "boundary": (discretize.BOUNDARIES, "dirichlet")},
}
_PARTITION_KINDS = {"cartesian": {"p": (_int_list, _REQUIRED, (">=", 1))},
                    "graph": {"N": (int, _REQUIRED, (">=", 1)),
                              "seed": (int, 0, (">=", 0))}}
_COARSE_KINDS = {"none": {}, "nicolaides": {},
                 "grid": {"H": (float, None, (">", 0)),
                          "ratio": (int, None, (">=", 1))},
                 "geneo": {"tau": (_tau, "auto", (">", 0))}}

_SCENARIO = {
    "schema": (_schema, None),
    "name": (str, "scenario"),
    "problem": ({"kind": (_PROBLEM_KINDS, _REQUIRED)}, _REQUIRED),
    "partition": ({"kind": (_PARTITION_KINDS, _REQUIRED)}, _REQUIRED),
    "overlap": (int, 1, (">=", 0)),
    "pu": (decompose.PU_KINDS, "multiplicity"),
    "schwarz": ({"variant": (schwarz.VARIANTS, "ras"),
                 "robin_p": (_robin_p, None)}, {}),
    "coarse": ({"kind": (_COARSE_KINDS, "none")}, {}),
    "combinator": (coarse.COMBINATORS, "adef1"),
    "solver": ({"ksp": (krylov.METHODS, "gmres"), "tol": (float, 1e-6, (">=", 0)),
                "maxit": (int, 200, (">=", 0)), "side": (krylov.SIDES, "right"),
                "x0": (("zero", "deflated"), "zero")}, {}),
    "analysis": ({"spectrum": (bool, False), "bounds": (bool, False)}, {}),
}


def _terms(cfg):
    """The resolved fields the cross-field rules read, each by one short name."""
    problem, coarse_cfg, solver = cfg["problem"], cfg["coarse"], cfg["solver"]
    nx, ny = problem.get("nx", 0), problem.get("ny", 0)
    nodes, impedance_nodes = nx * ny, (nx + 2) * (ny + 2)
    # the order of A: a FEM system has the mesh's interior vertices
    dofs = {"poisson_1d": problem.get("m"),
            "fem_2d": (problem.get("cells_x", 1) - 1) * (problem.get("cells_y", 1) - 1),
            }.get(problem["kind"],
                  impedance_nodes if problem.get("boundary") == "impedance" else nodes)
    return types.SimpleNamespace(
        problem=problem["kind"], dim=1 if problem["kind"] == "poisson_1d" else 2,
        omega=problem.get("omega"), xi=problem.get("xi", 0.0),
        boundary=problem.get("boundary"),
        nodes=nodes, impedance_nodes=impedance_nodes, dofs=dofs,
        spectrum=cfg["analysis"]["spectrum"] or cfg["analysis"]["bounds"],
        p=cfg["partition"].get("p"), overlap=cfg["overlap"],
        variant=cfg["schwarz"]["variant"], robin_p=cfg["schwarz"]["robin_p"],
        coarse=coarse_cfg["kind"], H=coarse_cfg.get("H"),
        ratio=coarse_cfg.get("ratio"), tau=coarse_cfg.get("tau"),
        combinator=cfg["combinator"], ksp=solver["ksp"], x0=solver["x0"])


# The cross-field rules, checked in this order once the field tables pass:
# a scenario is rejected with the cause of the first row whose predicate
# holds on its _terms, the cause a str.format template over the same terms.
_RULES = (
    (lambda s: s.p is not None and len(s.p) != s.dim,
     "partition.p must have {dim} entries for this problem, got {p}"),
    (lambda s: s.robin_p is not None and s.variant not in schwarz.ROBIN_VARIANTS,
     "robin parameter is only meaningful for oras/soras, not {variant!r}"),
    (lambda s: s.coarse == "grid" and (s.H is None) == (s.ratio is None),
     "grid coarse space needs exactly one of H or ratio"),
    # geneo_space reads the element matrices of a finite element mesh
    (lambda s: s.coarse == "geneo" and s.problem != "fem_2d",
     "geneo coarse space with problem kind {problem!r}: GenEO needs the Neumann "
     "matrices of a finite element mesh, which only 'fem_2d' has; use coarse "
     "kind 'nicolaides' or 'grid'"),
    (lambda s: s.coarse == "geneo" and s.tau == "auto" and s.overlap == 0,
     "geneo threshold tau 'auto' with overlap 0: the threshold is the "
     "reciprocal of the worst ratio H_j / overlap width, and the overlap width "
     "is zero; give a numeric tau or a positive overlap"),
    # grid_space samples a structured grid of the problem's unknowns
    (lambda s: s.coarse == "grid" and s.problem == "fem_2d",
     "grid coarse space with problem kind 'fem_2d': a FEM mesh has no "
     "structured grid for grid_space to sample; use coarse kind 'nicolaides' "
     "or 'geneo'"),
    (lambda s: s.coarse == "grid" and s.boundary == "impedance",
     "grid coarse space with an impedance boundary: the impedance system has "
     "(nx+2)(ny+2) = {impedance_nodes} unknowns, but grid_space samples only "
     "the nx*ny = {nodes} interior nodes"),
    # with k = 0 the impedance closure du/dn = i k u is a Neumann one
    (lambda s: s.boundary == "impedance" and s.omega == 0 and s.xi == 0,
     "helmholtz_2d with omega 0, xi 0 and an impedance boundary is a pure "
     "Neumann Laplacian: its operator is singular, with the constants in its "
     "kernel; give omega > 0, xi > 0 or boundary 'dirichlet'"),
    # absorption or an impedance boundary puts i on the diagonal
    (lambda s: s.ksp in ("cg", "pcg") and (s.xi > 0 or s.boundary == "impedance"),
     "{ksp} on a complex Helmholtz system is not supported: absorption xi > 0 "
     "or an impedance boundary makes the operator complex symmetric, not "
     "Hermitian, and CG theory does not cover it; use ksp 'gmres'"),
    (lambda s: s.ksp == "cg" and (s.variant != "none" or s.coarse != "none"),
     "cg runs unpreconditioned; use pcg or gmres with a Schwarz variant or "
     "coarse space"),
    (lambda s: s.x0 == "deflated" and s.coarse == "none",
     "deflated initial guess needs a coarse space"),
    (lambda s: s.ksp == "pcg" and s.variant in ("ras", "oras"),
     "pcg with schwarz variant {variant!r} is not supported: {variant} is "
     "nonsymmetric and CG does not converge with it; use ksp 'gmres', or "
     "variant 'asm' or 'soras' with pcg"),
    (lambda s: (s.ksp == "pcg" and s.variant == "soras"
                and isinstance(s.robin_p, list) and s.robin_p[1] != 0),
     "pcg with schwarz variant 'soras' and a complex robin_p is not supported: "
     "complex Robin blocks make soras complex symmetric, not Hermitian, and CG "
     "theory does not cover it; use ksp 'gmres', or a real robin_p with pcg"),
    (lambda s: s.ksp == "pcg" and s.combinator == "adef1" and s.coarse != "none",
     "pcg with combinator 'adef1' is not supported: adef1 is nonsymmetric and "
     "CG does not converge with it, even from a deflated start; use ksp "
     "'gmres', or combinator 'ad', 'adef2' or 'bnn' with pcg"),
    (lambda s: (s.coarse != "none" and s.x0 == "zero"
                and (s.combinator in ("rbnn1", "rbnn2")
                     or (s.ksp == "pcg" and s.combinator == "adef2"))),
     "{ksp} with combinator {combinator!r} needs solver.x0 'deflated' (the "
     "start Q b): rbnn1 and rbnn2 have no +Q term, and CG converges with adef2 "
     "only from Q b"),
    # analysis.preconditioned_spectrum would refuse it only after the solve
    (lambda s: s.spectrum and s.dofs > analysis.DENSE_LIMIT,
     f"dense spectral analysis is capped at n <= {analysis.DENSE_LIMIT}, got "
     "{dofs}: analysis.spectrum and analysis.bounds assemble dense n x n "
     "operators; turn them off or take a smaller problem"),
)


def resolve_scenario(config):
    """Validate a scenario and fill defaults; returns the resolved dict.

    Unknown keys anywhere in the document are rejected, and so is a value
    of the wrong type or out of its field's bounds, naming its field; then
    the first row of _RULES that holds rejects it with its cause. The
    result is JSON-stable: resolving a resolved scenario is the identity.
    """
    cfg = _section(config, _SCENARIO, "scenario", prefix="")
    terms = _terms(cfg)
    for holds, cause in _RULES:
        if holds(terms):
            raise ValueError(cause.format_map(vars(terms)))
    cfg["analysis"]["spectrum"] |= cfg["analysis"]["bounds"]
    return cfg


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
            alpha = np.full(len(mesh.triangles), a["value"])
        else:
            # horizontal channels, by element centroid as diffusion_fem_2d takes them
            c = mesh.vertices[mesh.triangles].mean(axis=1)
            alpha = np.where((c[:, 1] * 2 * a["count"]).astype(int) % 2, a["contrast"], 1.0)
        return discretize.diffusion_fem_2d(mesh, alpha)
    grid = discretize.StructuredGrid(2, nx=problem["nx"], ny=problem["ny"])
    return discretize.helmholtz_2d(grid, problem["omega"], xi=problem["xi"],
                                   boundary=problem["boundary"])


def _build_partition(system, spec, graph=None):
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
    return decompose.greedy_graph_partition(system.A, spec["N"], seed=spec["seed"],
                                            graph=graph)


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
        records.append(analysis.coloring_bound_check(one_spec, dec.n_colors))
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

    # one symmetric pattern of A serves the graph partition, the overlap
    # and the Robin interface (Decomposition.graph)
    graph = clock.run("decompose.partition", decompose._symmetric_adjacency, A)
    part = clock.run("decompose.partition", _build_partition, system,
                     cfg["partition"], graph)
    dec = clock.run("decompose.overlap", decompose.expand_overlap, A, part,
                    cfg["overlap"], coords=system.coords, h=system.h,
                    graph=graph)
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


def _sweep(value, where):
    if not isinstance(value, list) or not value:
        raise ValueError(f"{where} must be a non-empty list")
    for i, entry in enumerate(value):
        if "name" not in _object(entry, f"{where}[{i}]"):
            raise ValueError("every sweep entry needs a name")
        _cast(entry["name"], str, f"{where}[{i}].name")
    names = [entry["name"] for entry in value]
    if len(set(names)) != len(names):
        raise ValueError("sweep entry names must be unique")
    return value


_SUITE = {
    "schema": (functools.partial(_schema, tail=""), None),
    "name": (str, "suite"),
    "base": (_object, _REQUIRED),
    "sweep": (_sweep, _REQUIRED),
    "reference": ({"label": (str, None), "rows": (_object, {})}, None),
}


def resolve_suite(config):
    """Validate a suite; its base and sweep entries are resolved per point."""
    return _section(config, _SUITE, "suite")


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


# the accepted form of each flag that stands for a scenario section
_FLAG_FORMS = {
    "--partitioner": "cartesian:PX[xPY] or graph:N[:seed]",
    "--coarse": "none | nicolaides | grid:H=0.25 | grid:ratio=4 | geneo[:tau=T]",
}


def _flag_section(flag, spec, key, section):
    """``section``, split from the value ``spec`` of ``flag``, resolved as ``key``.

    The field table casts the strings; a malformed value fails naming the
    flag and its accepted form.
    """
    try:
        return _section(section, _SCENARIO[key][0], key)
    except ValueError as err:
        raise ValueError(f"{flag} {spec!r} is malformed ({err}); use "
                         f"{_FLAG_FORMS[flag]}") from None


# each flag that sets one scenario field: its section (None for the top
# level), its key and its argparse options
_FIELD_FLAGS = {
    "--overlap": (None, "overlap", {"type": int}),
    "--pu": (None, "pu", {"choices": decompose.PU_KINDS}),
    "--schwarz-method": ("schwarz", "variant", {"choices": schwarz.VARIANTS}),
    "--coarse-correction": (None, "combinator", {"choices": coarse.COMBINATORS}),
    "--ksp": ("solver", "ksp", {"choices": krylov.METHODS}),
    "--ksp-rtol": ("solver", "tol", {"type": float}),
    "--ksp-maxit": ("solver", "maxit", {"type": int}),
    "--pc-side": ("solver", "side", {"choices": krylov.SIDES}),
}


def _set_field(cfg, section, key, value):
    # a section that is not an object is left for its field table to reject
    if section is not None:
        cfg = cfg.setdefault(section, {})
    if isinstance(cfg, dict):
        cfg[key] = value


def _apply_overrides(config, args):
    if not isinstance(config, dict):  # rejected whole by resolve_scenario
        return config
    cfg = copy.deepcopy(config)
    if args.partitioner:
        spec = args.partitioner
        kind, _, rest = spec.partition(":")
        if kind == "cartesian":
            part = {"kind": kind, "p": rest.split("x") if rest else []}
        elif kind == "graph":
            N, colon, seed = rest.partition(":")
            part = {"kind": kind, "N": N, "seed": seed if colon else 0}
        else:
            raise ValueError(f"unknown partitioner {spec!r}; use "
                             f"{_FLAG_FORMS['--partitioner']}")
        cfg["partition"] = _flag_section("--partitioner", spec, "partition", part)
    if args.coarse:
        kind, _, rest = args.coarse.partition(":")
        key, _, value = rest.partition("=")
        cfg["coarse"] = _flag_section("--coarse", args.coarse, "coarse",
                                      {"kind": kind, **({key: value} if rest else {})})
    for flag, (section, key, _) in _FIELD_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            _set_field(cfg, section, key, value)
    if args.command == "spectrum":
        for key in ("spectrum", "bounds"):
            _set_field(cfg, "analysis", key, True)
    return cfg


def _add_scenario_flags(sub):
    for flag, form in _FLAG_FORMS.items():
        sub.add_argument(flag, help=form)
    for flag, (_, _, options) in _FIELD_FLAGS.items():
        sub.add_argument(flag, **options)


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

    record = run_scenario(_apply_overrides(_load_config(args.config), args))
    run_dir = _write_record(record, Path(args.out))
    solve = record["solve"]
    print(f"{record['scenario']['name']}: {solve['iterations']} iterations, "
          f"converged={solve['converged']}, "
          f"final relres {solve['final_relres']:.3e}")
    print(f"record in {run_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
