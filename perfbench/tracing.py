"""Spans recorded around ddmlab's layers from outside the package.

A :class:`Recorder` replaces public functions and methods of the ddmlab
modules with wrappers that append a :class:`Span` (name, start, end,
parent, scenario) to an in-memory list, and puts the originals back on
exit. No package file is edited: the package calls its collaborators
through module attributes (``linalg.auto_factor``,
``decompose.expand_overlap``, ...) and through class attributes, so
replacing the attribute is enough to see every call.

The untraced run wraps only the three Krylov entry points; the traced run
wraps every target below. Both runs put a root span around each
``bench.run_scenario`` call.
"""

import time
from contextlib import contextmanager

ROOT = "bench"
KRYLOV = "krylov"
PRECONDITIONERS = ("schwarz.apply", "coarse.two_level")


def _nnz(args, out):
    return {"nnz": int(out.A.nnz)} if hasattr(out, "A") else {}


def _subdomains(args, out):
    return {"subdomains": int(out.N),
            "local_dofs": int(sum(len(s) for s in out.sets))}


def _factor_kind(args, out):
    return {"lu_fallbacks": int(out.kind == "lu")}


def _columns(args, out):
    space = args[0]
    return {"raw_columns": int(space.raw_columns),
            "kept_columns": int(space.m0)}


def _bound(args, out):
    return {"bound_checks": 1, "bound_violations": int(not out.satisfied)}


def _solution(args, out):
    x, report = out
    return {"x": x, "iterations": int(report.iterations),
            "method": report.method}


# (module, attribute, span name, note): the note turns a call's arguments
# and result into the counts stored on its span.
KRYLOV_TARGETS = (
    ("krylov", "cg", KRYLOV, _solution),
    ("krylov", "pcg", KRYLOV, _solution),
    ("krylov", "gmres", KRYLOV, _solution),
)
LAYER_TARGETS = KRYLOV_TARGETS + (
    ("discretize", "poisson_1d", "discretize.assembly", _nnz),
    ("discretize", "poisson_2d_fd", "discretize.assembly", _nnz),
    ("discretize", "unit_square_mesh", "discretize.assembly", None),
    ("discretize", "diffusion_fem_2d", "discretize.assembly", _nnz),
    ("discretize", "helmholtz_2d", "discretize.assembly", _nnz),
    ("discretize", "neumann_matrix", "discretize.neumann", None),
    ("coarse", "subdomain_element_sets", "discretize.neumann", None),
    ("decompose", "greedy_graph_partition", "decompose.partition", None),
    ("decompose", "cartesian_partition", "decompose.partition", None),
    ("decompose", "expand_overlap", "decompose.overlap", _subdomains),
    ("decompose", "boolean_pu", "decompose.overlap", None),
    ("schwarz", "one_level", "schwarz.setup", None),
    ("schwarz", "OneLevelPreconditioner.apply", "schwarz.apply", None),
    ("linalg", "auto_factor", "linalg.factor", _factor_kind),
    ("linalg", "sym_gen_eig", "linalg.gen_eig", None),
    ("coarse", "nicolaides_space", "coarse.basis", None),
    ("coarse", "grid_space", "coarse.basis", None),
    ("coarse", "geneo_space", "coarse.basis", None),
    ("coarse", "CoarseSpace.__init__", "coarse.space", _columns),
    ("coarse", "CoarseSpace.apply_Q", "coarse.solve", None),
    ("coarse", "TwoLevelPreconditioner.apply", "coarse.two_level", None),
    ("analysis", "preconditioned_spectrum", "analysis.spectrum", None),
    ("analysis", "coloring_bound_check", "analysis.bounds", _bound),
    ("analysis", "geneo_bound_check", "analysis.bounds", _bound),
)

# Self time of each span name is reported under one metric.
SELF_METRICS = {
    ROOT: "bench.self_s",
    KRYLOV: "krylov.self_s",
    "discretize.assembly": "discretize.assembly_s",
    "discretize.neumann": "discretize.neumann_s",
    "decompose.partition": "decompose.partition_s",
    "decompose.overlap": "decompose.overlap_s",
    "schwarz.setup": "schwarz.setup_s",
    "schwarz.apply": "schwarz.apply_s",
    "linalg.factor": "linalg.factor_s",
    "linalg.gen_eig": "linalg.gen_eig_s",
    "coarse.basis": "coarse.basis_s",
    "coarse.space": "coarse.space_s",
    "coarse.solve": "coarse.solve_s",
    "coarse.two_level": "coarse.two_level_s",
    "analysis.spectrum": "analysis.spectrum_s",
    "analysis.bounds": "analysis.bounds_s",
}

# metric -> (span name, note key); a key of None counts the spans.
COUNT_METRICS = {
    "discretize.nnz": ("discretize.assembly", "nnz"),
    "decompose.subdomains": ("decompose.overlap", "subdomains"),
    "decompose.local_dofs": ("decompose.overlap", "local_dofs"),
    "linalg.factor_calls": ("linalg.factor", None),
    "linalg.lu_fallbacks": ("linalg.factor", "lu_fallbacks"),
    "linalg.gen_eig_calls": ("linalg.gen_eig", None),
    "schwarz.applies": ("schwarz.apply", None),
    "coarse.raw_columns": ("coarse.space", "raw_columns"),
    "coarse.kept_columns": ("coarse.space", "kept_columns"),
    "coarse.solves": ("coarse.solve", None),
    "analysis.spectrum_calls": ("analysis.spectrum", None),
    "analysis.bound_checks": ("analysis.bounds", "bound_checks"),
    "analysis.bound_violations": ("analysis.bounds", "bound_violations"),
}

# Ratios computed from the counts above and from the Krylov spans.
RATIO_METRICS = (
    "coarse.kept_ratio",
    "krylov.prec_applies_per_iter",
    "krylov.gmres.prec_applies_per_iter",
    "krylov.pcg.prec_applies_per_iter",
)


class Span:
    """One call of a layer: ``parent`` indexes the enclosing span, or None."""

    __slots__ = ("name", "start", "end", "parent", "scenario", "notes")

    def __init__(self, name, parent, scenario):
        self.name = name
        self.parent = parent
        self.scenario = scenario
        self.start = self.end = 0.0
        self.notes = None

    def to_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "scenario": self.scenario,
                "notes": self.notes or {}}


class Recorder:
    """In-memory span list plus the stack of spans currently open."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.scenario = None

    def _begin(self, name):
        span = Span(name, self._open[-1] if self._open else None, self.scenario)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def _wrap(self, fn, name, note):
        def wrapper(*args, **kwargs):
            span = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if note is not None:
                span.notes = note(args, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self, package, targets):
        """Wrap ``targets`` of ``package`` for the duration of the block."""
        saved = []
        try:
            for module, attr, name, note in targets:
                owner = getattr(package, module)
                *path, key = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[key]
                saved.append((owner, key, original))
                setattr(owner, key, self._wrap(original, name, note))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def root_of(spans, i):
    while spans[i].parent is not None:
        i = spans[i].parent
    return i


def phase_times(spans):
    """Wall, setup, solve and post-solve seconds summed over the scenarios.

    Setup runs from ``run_scenario`` entry to Krylov entry, solve is the
    Krylov call, and the post-solve phase (analysis, record build) runs
    from Krylov return to ``run_scenario`` return.
    """
    wall = setup = solve = post = 0.0
    for i, s in enumerate(spans):
        if s.name == ROOT:
            wall += s.end - s.start
        elif s.name == KRYLOV:
            root = spans[root_of(spans, i)]
            setup += s.start - root.start
            solve += s.end - s.start
            post += root.end - s.end
    return wall, setup, solve, post


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (see SELF_METRICS and COUNT_METRICS)."""
    out = {metric: 0.0 for metric in SELF_METRICS.values()}
    for s, t in zip(spans, self_times(spans)):
        out[SELF_METRICS[s.name]] += t
    for metric, (name, key) in COUNT_METRICS.items():
        out[metric] = sum(1 if key is None else (s.notes or {}).get(key, 0)
                          for s in spans if s.name == name)
    out["coarse.kept_ratio"] = _ratio(out["coarse.kept_columns"],
                                      out["coarse.raw_columns"])

    applies = {"gmres": 0, "pcg": 0, "cg": 0}
    iterations = dict(applies)
    krylov = {i: s for i, s in enumerate(spans)
              if s.name == KRYLOV and s.notes is not None}
    for s in spans:
        if s.name in PRECONDITIONERS and s.parent in krylov:
            applies[krylov[s.parent].notes["method"]] += 1
    for s in krylov.values():
        iterations[s.notes["method"]] += s.notes["iterations"]
    out["krylov.prec_applies"] = sum(applies.values())
    out["krylov.prec_applies_per_iter"] = _ratio(out["krylov.prec_applies"],
                                                 sum(iterations.values()))
    for method in ("gmres", "pcg"):
        out[f"krylov.{method}.prec_applies_per_iter"] = _ratio(
            applies[method], iterations[method])
    return out


def _ratio(num, den):
    return num / den if den else 0.0
