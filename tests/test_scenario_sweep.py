"""A hypothesis sweep over the scenario field tables and cross-field rules.

Tiny scenarios (at most 100 dofs, at most 60 Krylov iterations) are drawn
from the kind tables of ``bench`` and from the enums the tables read, some
with one value just out of its field's bounds. A scenario with such a value
must fail its field table naming that field; any other must be rejected
exactly when a row of ``bench._RULES`` holds, with the first such row's
cause, or else run with a finite residual history and every bound record
satisfied, or fail with a ScenarioError whose cause is a named error. One
scenario per row shows that every rule is reached.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddmlab import bench, coarse, decompose, discretize, krylov, linalg, schwarz

NAMED = (ValueError, linalg.SingularMatrixError, coarse.EmptyCoarseSpaceError,
         krylov.KrylovBreakdownError, discretize.UnsupportedProblemError)

X0_KINDS = bench._SCENARIO["solver"][0]["x0"][0]

# a value just out of range for each bounded field, by its path
OUT_OF_RANGE = [
    (("overlap",), -1), (("solver", "maxit"), -1), (("solver", "tol"), -1e-6),
    (("problem", "m"), 0), (("problem", "nx"), 0), (("problem", "ny"), 0),
    (("problem", "cells_x"), 0), (("problem", "cells_y"), 0),
    (("problem", "omega"), -1.0), (("problem", "xi"), -1.0),
    (("problem", "alpha", "value"), 0.0), (("problem", "alpha", "contrast"), 0.0),
    (("problem", "alpha", "count"), 0), (("partition", "N"), 0),
    (("partition", "seed"), -1), (("partition", "p"), [0]),
    (("coarse", "H"), 0.0), (("coarse", "ratio"), 0), (("coarse", "tau"), 0.0),
]


def holder(config, path):
    """The section holding ``path``'s value, or None if it has none."""
    for key in path[:-1]:
        config = config.get(key, {})
    return config if path[-1] in config else None


@st.composite
def problems(draw):
    kind = draw(st.sampled_from(list(bench._PROBLEM_KINDS)))
    if kind == "poisson_1d":
        return {"kind": kind, "m": draw(st.integers(1, 100))}
    if kind == "poisson_2d_fd":
        return {"kind": kind, "nx": draw(st.integers(1, 10)),
                "ny": draw(st.integers(1, 10))}
    if kind == "fem_2d":  # (cells - 1)^2 interior nodes
        alpha_kind = draw(st.sampled_from(list(bench._ALPHA_KINDS)))
        alpha = ({"kind": alpha_kind, "value": draw(st.sampled_from([0.5, 1.0, 100.0]))}
                 if alpha_kind == "constant" else
                 {"kind": alpha_kind, "contrast": draw(st.sampled_from([1.0, 1e3, 1e6])),
                  "count": draw(st.integers(1, 3))})
        return {"kind": kind, "cells_x": draw(st.integers(2, 11)),
                "cells_y": draw(st.integers(2, 11)), "alpha": alpha}
    # (nx + 2)(ny + 2) unknowns with an impedance boundary
    return {"kind": kind, "nx": draw(st.integers(1, 8)), "ny": draw(st.integers(1, 8)),
            "omega": draw(st.sampled_from([0.0, 1.0, 4.0, np.pi * np.sqrt(2), 10.0])),
            "xi": draw(st.sampled_from([0.0, 1.0, 16.0])),
            "boundary": draw(st.sampled_from(discretize.BOUNDARIES))}


@st.composite
def scenarios(draw):
    problem = draw(problems())
    dim = 1 if problem["kind"] == "poisson_1d" else 2
    kind = draw(st.sampled_from(list(bench._PARTITION_KINDS)))
    if kind == "cartesian":
        partition = {"kind": kind, "p": draw(st.lists(st.integers(1, 4),
                                                      min_size=dim, max_size=dim))}
    else:
        partition = {"kind": kind, "N": draw(st.integers(1, 12)),
                     "seed": draw(st.integers(0, 3))}
    variant = draw(st.sampled_from(schwarz.VARIANTS))
    # a Robin parameter mostly where it is meaningful, sometimes elsewhere
    robin_p = None
    if variant in schwarz.ROBIN_VARIANTS or draw(st.integers(0, 9)) == 0:
        robin_p = draw(st.sampled_from([None, 2.0, 10.0, [0.0, 4.0], [4.0, -4.0]]))
    ckind = draw(st.sampled_from(list(bench._COARSE_KINDS)))
    coarse_cfg = {"kind": ckind}
    if ckind == "grid":  # neither or both of H and ratio now and then
        coarse_cfg.update(draw(st.sampled_from([{"H": 0.25}, {"H": 0.5},
                                                {"ratio": 2}, {"ratio": 4}, {},
                                                {"H": 0.25, "ratio": 2}])))
    elif ckind == "geneo":
        coarse_cfg["tau"] = draw(st.sampled_from(["auto", 1e-3, 0.1, 0.5, 1.0, 1e3]))
    config = {
        "schema": 1, "name": "drawn", "problem": problem, "partition": partition,
        "overlap": draw(st.integers(0, 2)),
        "pu": draw(st.sampled_from(decompose.PU_KINDS)),
        "schwarz": {"variant": variant, "robin_p": robin_p},
        "coarse": coarse_cfg,
        "combinator": draw(st.sampled_from(coarse.COMBINATORS)),
        # plain cg only runs without a preconditioner: draw it less often
        "solver": {"ksp": draw(st.sampled_from(("gmres", "pcg") + krylov.METHODS)),
                   "tol": draw(st.sampled_from([0.0, 1e-8, 1e-4])),
                   "maxit": draw(st.integers(0, 60)),
                   "side": draw(st.sampled_from(krylov.SIDES)),
                   "x0": draw(st.sampled_from(X0_KINDS))},
        "analysis": {"spectrum": draw(st.booleans()), "bounds": draw(st.booleans())},
    }
    # in one scenario of five, one bounded field takes a value out of range
    if draw(st.integers(0, 4)) != 4:
        return config, None
    path, value = draw(st.sampled_from(
        [(path, value) for path, value in OUT_OF_RANGE if holder(config, path) is not None]))
    holder(config, path)[path[-1]] = value
    return config, ".".join(path)


# pcg on the complex symmetric Helmholtz system: 200 iterations to a true
# relative residual of 1.4e+03 before it was rejected at validation
HELMHOLTZ_PCG = {
    "schema": 1, "name": "helmholtz-pcg",
    "problem": {"kind": "helmholtz_2d", "nx": 15, "ny": 15, "omega": 4.0,
                "xi": 16.0, "boundary": "dirichlet"},
    "partition": {"kind": "cartesian", "p": [2, 2]}, "overlap": 1,
    "schwarz": {"variant": "asm"}, "solver": {"ksp": "pcg", "tol": 1e-8},
}


# omega = xi = 0 with an impedance boundary: a pure Neumann Laplacian, which
# GMRES ran to n iterations and a relative residual near 1 before it was
# rejected at validation
NEUMANN_HELMHOLTZ = {
    "schema": 1, "name": "neumann-helmholtz",
    "problem": {"kind": "helmholtz_2d", "nx": 4, "ny": 4, "omega": 0.0,
                "boundary": "impedance"},
    "partition": {"kind": "cartesian", "p": [2, 2]},
}


# one dof, so every subdomain is a point: tau 'auto' divided by H_j = 0
POINT_GENEO = {
    "schema": 1, "name": "point-geneo",
    "problem": {"kind": "fem_2d", "cells_x": 2, "cells_y": 2},
    "partition": {"kind": "graph", "N": 1}, "schwarz": {"variant": "asm"},
    "coarse": {"kind": "geneo"},
}


@settings(derandomize=True, deadline=None, max_examples=500)
@given(scenarios())
@example((HELMHOLTZ_PCG, None))
@example((POINT_GENEO, None))
@example((NEUMANN_HELMHOLTZ, None))
def test_drawn_scenario_is_rejected_runs_or_names_its_failure(drawn):
    config, out_of_range = drawn
    try:
        fields = bench._section(config, bench._SCENARIO, "scenario", prefix="")
    except ValueError as err:
        # only the value drawn out of range fails a field table
        assert out_of_range is not None, err
        assert str(err).startswith(out_of_range) and " must be >" in str(err), err
        with pytest.raises(ValueError) as again:
            bench.resolve_scenario(config)
        assert str(again.value) == str(err)
        return
    assert out_of_range is None
    terms = bench._terms(fields)
    causes = [cause.format_map(vars(terms)) for holds, cause in bench._RULES
              if holds(terms)]
    try:
        cfg = bench.resolve_scenario(config)
    except ValueError as err:
        # rejected exactly when a rule holds, with the first one's cause
        assert causes and str(err) == causes[0], (err, causes)
        return
    assert not causes
    try:
        record = bench.run_scenario(cfg)
    except bench.ScenarioError as err:
        assert isinstance(err.__cause__, NAMED), repr(err.__cause__)
        return
    assert np.isfinite(record["solve"]["residual_history"]).all()
    if record["spectrum"] is not None:
        for bound in record["spectrum"]["records"]:
            assert bound["satisfied"], bound


def tiny(**overrides):
    return {"schema": 1, "name": "tiny", "problem": {"kind": "poisson_1d", "m": 24},
            "partition": {"kind": "cartesian", "p": [3]}, **overrides}


FEM = {"kind": "fem_2d", "cells_x": 4, "cells_y": 4}
HELMHOLTZ = {"kind": "helmholtz_2d", "nx": 4, "ny": 5, "omega": 1.0}
GRAPH_2, CARTESIAN_2X2 = {"kind": "graph", "N": 2}, {"kind": "cartesian", "p": [2, 2]}
NICOLAIDES = {"kind": "nicolaides"}

# one scenario per row of bench._RULES, in row order
TRIPS = [
    pytest.param(tiny(partition=CARTESIAN_2X2), id="partition-p-length"),
    pytest.param(tiny(schwarz={"variant": "asm", "robin_p": 2.0}), id="robin-p-variant"),
    pytest.param(tiny(coarse={"kind": "grid"}), id="grid-H-or-ratio"),
    pytest.param(tiny(coarse={"kind": "geneo"}), id="geneo-needs-fem"),
    pytest.param(tiny(problem=FEM, partition=GRAPH_2, overlap=0, coarse={"kind": "geneo"}),
                 id="geneo-auto-tau-overlap"),
    pytest.param(tiny(problem=FEM, partition=GRAPH_2, coarse={"kind": "grid", "ratio": 2}),
                 id="grid-on-fem"),
    pytest.param(tiny(problem={**HELMHOLTZ, "boundary": "impedance"},
                      partition=CARTESIAN_2X2, coarse={"kind": "grid", "ratio": 2}),
                 id="grid-on-impedance"),
    pytest.param(tiny(problem={**HELMHOLTZ, "omega": 0.0, "boundary": "impedance"},
                      partition=CARTESIAN_2X2), id="singular-neumann-helmholtz"),
    pytest.param(tiny(problem={**HELMHOLTZ, "xi": 1.0}, partition=CARTESIAN_2X2,
                      schwarz={"variant": "asm"}, solver={"ksp": "pcg"}),
                 id="cg-on-complex-helmholtz"),
    pytest.param(tiny(solver={"ksp": "cg"}), id="cg-preconditioned"),
    pytest.param(tiny(solver={"x0": "deflated"}), id="deflated-without-coarse"),
    pytest.param(tiny(solver={"ksp": "pcg"}), id="pcg-nonsymmetric-variant"),
    pytest.param(tiny(schwarz={"variant": "soras", "robin_p": [1.0, 2.0]},
                      solver={"ksp": "pcg"}), id="pcg-complex-soras"),
    pytest.param(tiny(schwarz={"variant": "asm"}, coarse=NICOLAIDES, solver={"ksp": "pcg"}),
                 id="pcg-adef1"),
    pytest.param(tiny(schwarz={"variant": "asm"}, coarse=NICOLAIDES, combinator="rbnn1"),
                 id="projection-needs-deflated-start"),
    pytest.param(tiny(problem={"kind": "poisson_1d", "m": 2001}, analysis={"bounds": True}),
                 id="dense-analysis-cap"),
]


def test_one_scenario_per_rule():
    assert len(TRIPS) == len(bench._RULES)


@pytest.mark.parametrize("row, config", [
    pytest.param(row, *trip.values, id=trip.id) for row, trip in enumerate(TRIPS)])
def test_each_rule_is_reached(row, config):
    terms = bench._terms(bench._section(config, bench._SCENARIO, "scenario", prefix=""))
    held = [i for i, (holds, _) in enumerate(bench._RULES) if holds(terms)]
    assert held[0] == row, held
    with pytest.raises(ValueError) as err:
        bench.resolve_scenario(config)
    assert str(err.value) == bench._RULES[row][1].format_map(vars(terms))
