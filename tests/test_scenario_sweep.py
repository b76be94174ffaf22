"""A hypothesis sweep over the scenario field tables.

Tiny scenarios (at most 100 dofs, at most 60 Krylov iterations) are drawn
from the kind tables of ``bench`` and from the enums the tables read. Each
must be rejected at validation with a ValueError, or run with a finite
residual history and every bound record satisfied, or fail with a
ScenarioError whose cause is a named error.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddmlab import bench, coarse, decompose, discretize, krylov, linalg, schwarz

NAMED = (ValueError, linalg.SingularMatrixError, coarse.EmptyCoarseSpaceError,
         krylov.KrylovBreakdownError, discretize.UnsupportedProblemError)

X0_KINDS = bench._SCENARIO["solver"][0]["x0"][0]


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
    if ckind == "grid":
        coarse_cfg.update(draw(st.sampled_from([{"H": 0.25}, {"H": 0.5},
                                                {"ratio": 2}, {"ratio": 4}])))
    elif ckind == "geneo":
        coarse_cfg["tau"] = draw(st.sampled_from(["auto", 1e-3, 0.1, 0.5, 1.0, 1e3]))
    return {
        "schema": 1, "name": "drawn", "problem": problem, "partition": partition,
        "overlap": draw(st.integers(0, 2)),
        "pu": draw(st.sampled_from(decompose.PU_KINDS)),
        "schwarz": {"variant": variant, "robin_p": robin_p},
        "coarse": coarse_cfg,
        "combinator": draw(st.sampled_from(coarse.COMBINATORS)),
        # plain cg only runs without a preconditioner: draw it less often
        "solver": {"ksp": draw(st.sampled_from(("gmres", "pcg") + bench._KSP)),
                   "tol": draw(st.sampled_from([0.0, 1e-8, 1e-4])),
                   "maxit": draw(st.integers(0, 60)),
                   "side": draw(st.sampled_from(krylov.SIDES)),
                   "x0": draw(st.sampled_from(X0_KINDS))},
        "analysis": {"spectrum": draw(st.booleans()), "bounds": draw(st.booleans())},
    }


# pcg on the complex symmetric Helmholtz system: 200 iterations to a true
# relative residual of 1.4e+03 before it was rejected at validation
HELMHOLTZ_PCG = {
    "schema": 1, "name": "helmholtz-pcg",
    "problem": {"kind": "helmholtz_2d", "nx": 15, "ny": 15, "omega": 4.0,
                "xi": 16.0, "boundary": "dirichlet"},
    "partition": {"kind": "cartesian", "p": [2, 2]}, "overlap": 1,
    "schwarz": {"variant": "asm"}, "solver": {"ksp": "pcg", "tol": 1e-8},
}


# one dof, so every subdomain is a point: tau 'auto' divided by H_j = 0
POINT_GENEO = {
    "schema": 1, "name": "point-geneo",
    "problem": {"kind": "fem_2d", "cells_x": 2, "cells_y": 2},
    "partition": {"kind": "graph", "N": 1}, "schwarz": {"variant": "asm"},
    "coarse": {"kind": "geneo"},
}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(scenarios())
@example(HELMHOLTZ_PCG)
@example(POINT_GENEO)
def test_drawn_scenario_is_rejected_runs_or_names_its_failure(config):
    try:
        cfg = bench.resolve_scenario(config)
    except ValueError:
        return
    try:
        record = bench.run_scenario(cfg)
    except bench.ScenarioError as err:
        assert isinstance(err.__cause__, NAMED), repr(err.__cause__)
        return
    assert np.isfinite(record["solve"]["residual_history"]).all()
    if record["spectrum"] is not None:
        for bound in record["spectrum"]["records"]:
            assert bound["satisfied"], bound
