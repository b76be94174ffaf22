"""Scenario runner and command line interface.

A scenario is a JSON document (schema version 1) describing one solve:
problem, partition, overlap, partition of unity, Schwarz variant, coarse
space, combinator, Krylov settings, and analysis toggles. Validation is
fail-fast: unknown keys and bad enum values are rejected before anything
runs. Every run produces a RunRecord dictionary whose scenario hash
names the output directory, so any table cell can be traced back to the
record that produced it. Re-running a scenario reproduces the payload
exactly, apart from the timing table.

Commands::

    ddmlab run <config.json>       one scenario -> record + residual csv
    ddmlab suite <suite.json>      sweep -> csv + markdown tables
    ddmlab spectrum <config.json>  eigenvalues -> csv + bound checks

Bundled configurations under ``ddmlab/configs`` can be addressed by bare
name, e.g. ``ddmlab run poisson_unit``.
"""

import argparse
import copy
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

_TIMING_BUCKETS = (
    "decomposition", "local_factorization", "coarse_setup",
    "krylov", "matvec", "preconditioner", "coarse_solve",
)

_COARSE_KINDS = ("none", "nicolaides", "grid", "geneo")
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


def _problem_dim(problem):
    return 1 if problem["kind"] == "poisson_1d" else 2


def _resolve_partition(partition, dim):
    kind = _enum(_require(partition, "kind", "partition"),
                 ("cartesian", "graph"), "partition.kind")
    if kind == "cartesian":
        _check_keys(partition, {"kind", "p", "seed"}, "partition")
        p = [int(v) for v in _require(partition, "p", "partition")]
        if len(p) != dim:
            raise ValueError(
                f"partition.p must have {dim} entries for this problem, got {p}")
        if any(v < 1 for v in p):
            raise ValueError("partition.p entries must be >= 1")
        return {"kind": kind, "p": p, "seed": int(partition.get("seed", 0))}
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
    dim = _problem_dim(problem)
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
    if robin_p is not None and variant not in ("oras", "soras"):
        raise ValueError(
            f"robin parameter is only meaningful for oras/soras, not {variant!r}")

    crs = dict(config.get("coarse", {}))
    _check_keys(crs, {"kind", "H", "ratio", "tau"}, "coarse")
    ckind = _enum(crs.get("kind", "none"), _COARSE_KINDS, "coarse.kind")
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
    if ksp == "cg" and (variant != "none" or ckind != "none"):
        raise ValueError("cg runs unpreconditioned; use pcg or gmres with a "
                         "Schwarz variant or coarse space")
    if solver["x0"] == "deflated" and ckind == "none":
        raise ValueError("deflated initial guess needs a coarse space")
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
        labels = lx + px * ly
        sets = [np.flatnonzero(labels == k) for k in range(px * py)]
        return decompose.Partition([s for s in sets if s.size], source="cartesian")
    return decompose.greedy_graph_partition(system.A, spec["N"],
                                            seed=spec["seed"])


def _timed(timers, key, fn):
    def wrapped(v):
        t0 = time.perf_counter()
        out = fn(v)
        timers[key] += time.perf_counter() - t0
        return out
    return wrapped


def _build_coarse(cfg, system, dec):
    spec = cfg["coarse"]
    if spec["kind"] == "nicolaides":
        return coarse.nicolaides_space(system.A, dec)
    if spec["kind"] == "grid":
        H = spec["H"] if spec["H"] is not None else spec["ratio"] * system.h
        return coarse.grid_space(system.A, system.grid, H)
    neumann = coarse.subdomain_neumann_matrices(system, dec)
    return coarse.geneo_space(system.A, dec, neumann, tau=spec["tau"])


def _bound_records(cfg, system, dec, M1, cs, spectrum):
    """Bound checks applicable to this scenario, each on its own operator.

    The coloring bound concerns the one-level symmetric variant and the
    coarse-space threshold bound concerns the additive two-level
    composition, so both are measured on those operators even when the
    solve itself used a different combinator.
    """
    records = []
    if cfg["schwarz"]["variant"] == "asm":
        one_spec = (spectrum if cfg["coarse"]["kind"] == "none"
                    else analysis.preconditioned_spectrum(system.A, M1))
        records.append(
            analysis.coloring_bound_check(system.A, dec, M1, spectrum=one_spec))
        if cfg["coarse"]["kind"] == "geneo":
            M_ad = coarse.TwoLevelPreconditioner(M1, cs, system.A,
                                                 combinator="ad")
            ad_spec = analysis.preconditioned_spectrum(system.A, M_ad)
            records.append(analysis.geneo_bound_check(
                ad_spec, k0=dec.max_multiplicity, tau=cs.tau))
    return records


def run_scenario(config):
    """Execute one scenario and return its RunRecord dictionary."""
    name = config.get("name", "scenario") if isinstance(config, dict) else "scenario"
    try:
        cfg = resolve_scenario(config)
        return _execute(cfg)
    except Exception as err:
        raise ScenarioError(f"scenario {name!r} failed: {err}") from err


def _execute(cfg):
    timers = {k: 0.0 for k in _TIMING_BUCKETS}
    system = _build_system(cfg["problem"])
    A, b = system.A, system.F
    dim = _problem_dim(cfg["problem"])

    t0 = time.perf_counter()
    part = _build_partition(system, cfg["partition"])
    dec = decompose.expand_overlap(A, part, cfg["overlap"],
                                   coords=system.coords, h=system.h)
    if cfg["pu"] == "boolean":
        dec = decompose.boolean_pu(dec)
    timers["decomposition"] = time.perf_counter() - t0

    robin_p = cfg["schwarz"]["robin_p"]
    if isinstance(robin_p, list):
        robin_p = complex(robin_p[0], robin_p[1])
    t0 = time.perf_counter()
    M1 = schwarz.one_level(A, dec, cfg["schwarz"]["variant"],
                           p=robin_p, h=system.h, dim=dim)
    timers["local_factorization"] = time.perf_counter() - t0
    # a complex Robin p on a real system needs a complex solve
    b = b.astype(np.result_type(b, M1.dtype))

    cs = None
    M = M1
    t0 = time.perf_counter()
    if cfg["coarse"]["kind"] != "none":
        cs = _build_coarse(cfg, system, dec)
        M = coarse.TwoLevelPreconditioner(M1, cs, A,
                                          combinator=cfg["combinator"])
    timers["coarse_setup"] = time.perf_counter() - t0

    sol = cfg["solver"]
    x0 = None
    if sol["x0"] == "deflated":
        x0 = coarse.deflated_initial_guess(cs, b)
    matvec = _timed(timers, "matvec", lambda v: A @ v)
    plain = cfg["schwarz"]["variant"] == "none" and cs is None
    prec = None if plain else _timed(timers, "preconditioner",
                                     krylov.as_preconditioner(M))

    if cs is not None:
        # time the coarse solves of the Krylov call only: neither the
        # deflated start above nor the analysis below
        cs.apply_Q = _timed(timers, "coarse_solve", cs.apply_Q)
    t0 = time.perf_counter()
    try:
        if sol["ksp"] == "cg":
            x, report = krylov.cg(matvec, b, x0=x0, tol=sol["tol"],
                                  maxit=sol["maxit"])
        elif sol["ksp"] == "pcg":
            ident = lambda r: r.copy()
            x, report = krylov.pcg(matvec, b, prec or ident, x0=x0,
                                   tol=sol["tol"], maxit=sol["maxit"])
        else:
            side = sol["side"] if prec is not None else "none"
            x, report = krylov.gmres(matvec, b, M=prec, side=side, x0=x0,
                                     tol=sol["tol"], maxit=sol["maxit"])
        timers["krylov"] = time.perf_counter() - t0
    finally:
        if cs is not None:
            # dropping the wrapper also breaks the cycle through its bound
            # method, so reference counting frees the coarse space (and its
            # dense basis) when the run ends, also when the solve fails
            del cs.apply_Q

    spectrum = None
    if cfg["analysis"]["spectrum"]:
        spectrum = analysis.preconditioned_spectrum(A, None if plain else M)
        if cfg["analysis"]["bounds"]:
            spectrum.records.extend(
                _bound_records(cfg, system, dec, M1, cs, spectrum))

    return {
        "schema": SCHEMA_VERSION,
        "scenario_hash": scenario_hash(cfg),
        "scenario": cfg,
        "n_dofs": int(A.shape[0]),
        "n_subdomains": int(dec.N),
        "coarse_dim": 0 if cs is None else int(cs.m0),
        "coarse_raw_columns": 0 if cs is None else int(cs.raw_columns),
        "coarse_per_subdomain": (
            None if cs is None or cs.owners is None
            else np.bincount(cs.owners, minlength=dec.N).tolist()),
        "solve": report.to_dict(),
        "spectrum": None if spectrum is None else spectrum.to_dict(),
        "timings": {k: timers[k] for k in _TIMING_BUCKETS},
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
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
        "## Timings (seconds)",
        "",
        "| bucket | time |",
        "|---|---|",
    ]
    lines += [f"| {k} | {record['timings'][k]:.4f} |" for k in _TIMING_BUCKETS]
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
        section("coarse")
        cfg["coarse"]["kind"] = "geneo"
        tau = args.geneo_threshold
        cfg["coarse"]["tau"] = tau if tau == "auto" else float(tau)
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
