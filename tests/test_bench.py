"""Tests for the scenario runner and its CLI.

Covers config validation (fail-fast on unknown keys), scenario hashing,
run determinism, artifact layout, suite tables with reference rows, and
the bundled configurations.
"""

import argparse
import copy
import gc
import hashlib
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ddmlab import analysis, bench, coarse, decompose, discretize, schwarz


def tiny_scenario(**overrides):
    cfg = {
        "schema": 1,
        "name": "tiny",
        "problem": {"kind": "poisson_1d", "m": 24},
        "partition": {"kind": "cartesian", "p": [3]},
    }
    cfg.update(overrides)
    return cfg


class TestConfig:
    def test_defaults_filled(self):
        cfg = bench.resolve_scenario(tiny_scenario())
        assert cfg["overlap"] == 1
        assert cfg["pu"] == "multiplicity"
        assert cfg["schwarz"]["variant"] == "ras"
        assert cfg["coarse"]["kind"] == "none"
        assert cfg["combinator"] == "adef1"
        assert cfg["solver"] == {
            "ksp": "gmres", "tol": 1e-6, "maxit": 200,
            "side": "right", "x0": "zero",
        }
        assert cfg["analysis"] == {"spectrum": False, "bounds": False}

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="warp"):
            bench.resolve_scenario(tiny_scenario(warp=1))

    def test_unknown_nested_key_rejected(self):
        cfg = tiny_scenario(solver={"ksp": "pcg", "krylov_dim": 30})
        with pytest.raises(ValueError, match="krylov_dim"):
            bench.resolve_scenario(cfg)

    def test_schema_version_checked(self):
        with pytest.raises(ValueError, match="schema"):
            bench.resolve_scenario(tiny_scenario(schema=2))

    def test_bad_enum_rejected(self):
        cfg = tiny_scenario(schwarz={"variant": "asmx"})
        with pytest.raises(ValueError, match="asmx"):
            bench.resolve_scenario(cfg)

    def test_missing_problem_rejected(self):
        cfg = tiny_scenario()
        del cfg["problem"]
        with pytest.raises(ValueError, match="problem"):
            bench.resolve_scenario(cfg)

    def test_robin_parameter_only_for_robin_variants(self):
        cfg = tiny_scenario(schwarz={"variant": "asm", "robin_p": 2.0})
        with pytest.raises(ValueError, match="robin"):
            bench.resolve_scenario(cfg)

    def test_cg_with_preconditioner_rejected(self):
        cfg = tiny_scenario(solver={"ksp": "cg"})
        with pytest.raises(ValueError, match="cg"):
            bench.resolve_scenario(cfg)

    def test_deflated_start_needs_coarse_space(self):
        cfg = tiny_scenario(solver={"ksp": "pcg", "x0": "deflated"},
                            schwarz={"variant": "asm"})
        with pytest.raises(ValueError, match="deflated"):
            bench.resolve_scenario(cfg)

    def test_pcg_with_adef1_and_coarse_space_rejected(self):
        for x0 in ("zero", "deflated"):
            cfg = tiny_scenario(schwarz={"variant": "asm"},
                                coarse={"kind": "nicolaides"},
                                combinator="adef1",
                                solver={"ksp": "pcg", "x0": x0})
            with pytest.raises(ValueError, match="pcg.*adef1") as err:
                bench.resolve_scenario(cfg)
            for alternative in ("gmres", "'ad'", "'adef2'", "'bnn'"):
                assert alternative in str(err.value)

    @pytest.mark.parametrize("schwarz", [{}, {"variant": "ras"},
                                         {"variant": "oras"},
                                         {"variant": "oras", "robin_p": 10.0}])
    def test_pcg_with_nonsymmetric_variant_rejected(self, schwarz):
        cfg = tiny_scenario(schwarz=schwarz, solver={"ksp": "pcg"})
        with pytest.raises(ValueError, match="pcg.*ras") as err:
            bench.resolve_scenario(cfg)
        for alternative in ("gmres", "'asm'", "'soras'"):
            assert alternative in str(err.value)
        cfg["solver"]["ksp"] = "gmres"
        assert bench.resolve_scenario(cfg)["solver"]["ksp"] == "gmres"
        for variant in ("asm", "soras", "none"):
            cfg = tiny_scenario(schwarz={"variant": variant}, solver={"ksp": "pcg"})
            assert bench.resolve_scenario(cfg)["schwarz"]["variant"] == variant

    def test_pcg_with_soras_and_complex_robin_p_rejected(self):
        for robin_p in ([0.0, 10.0], [10.0, 10.0], [10.0, -1.0]):
            cfg = tiny_scenario(schwarz={"variant": "soras", "robin_p": robin_p},
                                solver={"ksp": "pcg"})
            with pytest.raises(ValueError, match="pcg.*'soras'.*complex") as err:
                bench.resolve_scenario(cfg)
            for alternative in ("gmres", "real robin_p"):
                assert alternative in str(err.value)
            cfg["solver"]["ksp"] = "gmres"
            assert bench.resolve_scenario(cfg)["schwarz"]["robin_p"] == robin_p
        for robin_p in (10.0, [10.0, 0.0], None):
            cfg = tiny_scenario(schwarz={"variant": "soras", "robin_p": robin_p},
                                solver={"ksp": "pcg"})
            assert bench.resolve_scenario(cfg)["solver"]["ksp"] == "pcg"

    def test_adef1_accepted_with_gmres_or_without_coarse_space(self):
        gmres = tiny_scenario(schwarz={"variant": "asm"},
                              coarse={"kind": "nicolaides"},
                              combinator="adef1", solver={"ksp": "gmres"})
        assert bench.resolve_scenario(gmres)["combinator"] == "adef1"
        gmres["combinator"] = "adef2"
        assert bench.resolve_scenario(gmres)["solver"]["x0"] == "zero"
        one_level = tiny_scenario(schwarz={"variant": "asm"},
                                  solver={"ksp": "pcg"})
        assert bench.resolve_scenario(one_level)["combinator"] == "adef1"
        for combinator in ("ad", "bnn"):
            cfg = tiny_scenario(schwarz={"variant": "asm"},
                                coarse={"kind": "nicolaides"},
                                combinator=combinator, solver={"ksp": "pcg"})
            assert bench.resolve_scenario(cfg)["combinator"] == combinator
        # adef2 with pcg needs the deflated start
        cfg = tiny_scenario(schwarz={"variant": "asm"},
                            coarse={"kind": "nicolaides"}, combinator="adef2",
                            solver={"ksp": "pcg", "x0": "deflated"})
        assert bench.resolve_scenario(cfg)["combinator"] == "adef2"

    @pytest.mark.parametrize("combinator, ksp", [
        ("rbnn1", "pcg"), ("rbnn1", "gmres"), ("rbnn2", "pcg"),
        ("rbnn2", "gmres"), ("adef2", "pcg")])
    def test_projection_combinators_need_deflated_start(self, combinator, ksp):
        cfg = tiny_scenario(schwarz={"variant": "asm"},
                            coarse={"kind": "nicolaides"},
                            combinator=combinator, solver={"ksp": ksp})
        with pytest.raises(ValueError, match=f"{ksp}.*{combinator}") as err:
            bench.resolve_scenario(cfg)
        assert "'deflated'" in str(err.value)
        cfg["solver"]["x0"] = "deflated"
        assert bench.resolve_scenario(cfg)["solver"]["x0"] == "deflated"
        # without a coarse space the combinator is unused
        del cfg["coarse"]
        cfg["solver"]["x0"] = "zero"
        assert bench.resolve_scenario(cfg)["combinator"] == combinator

    @pytest.mark.parametrize("partition, coarse_cfg, cause", [
        ({"kind": "cartesian", "p": [2, 2]}, {"kind": "grid", "ratio": 4},
         "grid_space samples only"),
        ({"kind": "graph", "N": 4}, {"kind": "grid", "ratio": 4},
         "grid_space samples only"),
    ])
    def test_impedance_rejects_interior_node_samplers(self, partition,
                                                      coarse_cfg, cause):
        # The impedance system includes the boundary nodes; grid_space
        # samples only the interior ones, whatever the partition.
        cfg = tiny_scenario(
            name="closed",
            problem={"kind": "helmholtz_2d", "nx": 15, "ny": 15, "omega": 10.0,
                     "boundary": "impedance"},
            partition=partition, coarse=coarse_cfg)
        msg = (r"impedance system has \(nx\+2\)\(ny\+2\) = 289 unknowns, "
               rf"but {cause} the nx\*ny = 225 interior nodes")
        with pytest.raises(ValueError, match=msg):
            bench.resolve_scenario(cfg)
        with pytest.raises(bench.ScenarioError, match="'closed' failed: .*" + msg):
            bench.run_scenario(cfg)

    @pytest.mark.parametrize("spacing", [{"ratio": 3}, {"H": 0.25}])
    def test_fem_rejects_grid_space(self, spacing):
        # A FEM mesh has no structured grid: the scenario fails before
        # assembly, with the cause named.
        cfg = tiny_scenario(
            name="mesh",
            problem={"kind": "fem_2d", "cells_x": 8, "cells_y": 8},
            partition={"kind": "graph", "N": 4},
            coarse={"kind": "grid", **spacing})
        msg = "a FEM mesh has no structured grid"
        with pytest.raises(ValueError, match=msg):
            bench.resolve_scenario(cfg)
        with pytest.raises(bench.ScenarioError, match="'mesh' failed: .*" + msg):
            bench.run_scenario(cfg)

    @pytest.mark.parametrize("problem,partition", [
        ({"kind": "poisson_1d", "m": 24}, {"kind": "cartesian", "p": [3]}),
        ({"kind": "poisson_2d_fd", "nx": 8, "ny": 8},
         {"kind": "cartesian", "p": [2, 2]}),
        ({"kind": "helmholtz_2d", "nx": 8, "ny": 8, "omega": 5.0, "xi": 25.0},
         {"kind": "graph", "N": 4})])
    def test_geneo_needs_fem_problem(self, problem, partition, monkeypatch):
        # Only a FEM mesh has the element matrices GenEO reads: the
        # scenario fails at validation, before assembly, with the cause
        # named.
        cfg = tiny_scenario(name="no-mesh", problem=problem, partition=partition,
                            coarse={"kind": "geneo", "tau": 0.5})
        msg = (f"geneo coarse space with problem kind '{problem['kind']}': "
               "GenEO needs the Neumann matrices of a finite element mesh")
        with pytest.raises(ValueError, match=msg):
            bench.resolve_scenario(cfg)
        monkeypatch.setattr(bench, "_build_system", None)
        with pytest.raises(bench.ScenarioError, match="'no-mesh' failed: " + msg):
            bench.run_scenario(cfg)

    def test_auto_tau_needs_overlap(self, monkeypatch):
        # tau 'auto' divides by the overlap width: with overlap 0 the
        # scenario fails at validation instead of after the solver setup
        cfg = tiny_scenario(
            name="flat", overlap=0,
            problem={"kind": "fem_2d", "cells_x": 8, "cells_y": 8},
            partition={"kind": "graph", "N": 4}, coarse={"kind": "geneo"})
        msg = "geneo threshold tau 'auto' with overlap 0"
        with pytest.raises(ValueError, match=msg):
            bench.resolve_scenario(cfg)
        for fixed in ({"overlap": 1}, {"coarse": {"kind": "geneo", "tau": 0.5}}):
            assert bench.resolve_scenario({**cfg, **fixed})
        monkeypatch.setattr(bench, "_build_system", None)
        with pytest.raises(bench.ScenarioError, match="'flat' failed: " + msg):
            bench.run_scenario(cfg)

    def test_singular_neumann_helmholtz_rejected(self, monkeypatch):
        # omega = xi = 0 with an impedance boundary leaves -Laplace with
        # Neumann closure, whose kernel holds the constants: it ran and was
        # recorded as not converged (relres 0.994 at 4x4) before this rule
        cfg = tiny_scenario(
            name="neumann",
            problem={"kind": "helmholtz_2d", "nx": 4, "ny": 4, "omega": 0.0,
                     "boundary": "impedance"},
            partition={"kind": "cartesian", "p": [2, 2]})
        msg = ("helmholtz_2d with omega 0, xi 0 and an impedance boundary is a "
               "pure Neumann Laplacian: its operator is singular")
        with pytest.raises(ValueError, match=msg):
            bench.resolve_scenario(cfg)
        for fixed in ({"omega": 0.5}, {"xi": 1.0}, {"boundary": "dirichlet"}):
            assert bench.resolve_scenario({**cfg, "problem": {**cfg["problem"], **fixed}})
        monkeypatch.setattr(bench, "_build_system", None)
        with pytest.raises(bench.ScenarioError, match="'neumann' failed: " + msg):
            bench.run_scenario(cfg)

    def test_system_without_unknowns_named(self):
        # one cell has no interior node: the overlap growth used to fail
        # with numpy's "zero-size array to reduction operation minimum"
        cfg = tiny_scenario(name="empty",
                            problem={"kind": "fem_2d", "cells_x": 1, "cells_y": 1},
                            partition={"kind": "cartesian", "p": [1, 2]})
        with pytest.raises(bench.ScenarioError,
                           match="'empty' failed: the system has no unknowns") as err:
            bench.run_scenario(cfg)
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize("alpha", [
        {"kind": "constant", "value": 1.0}, {"kind": "constant", "value": 0.37},
        {"kind": "channels", "contrast": 1e6, "count": 3},
        {"kind": "channels", "contrast": 7.0, "count": 2}])
    def test_fem_coefficient_array_matches_centroid_callable(self, alpha):
        # the per-element coefficient array gives the system that the
        # callable evaluated at each centroid gave, bit for bit
        problem = {"kind": "fem_2d", "cells_x": 9, "cells_y": 7, "alpha": alpha}
        got = bench._build_system(problem)
        if alpha["kind"] == "constant":
            fn = lambda c: alpha["value"]
        else:
            fn = lambda c: (alpha["contrast"] if int(c[1] * 2 * alpha["count"]) % 2
                            else 1.0)
        ref = discretize.diffusion_fem_2d(discretize.unit_square_mesh(9, 7), fn)
        for a, b in ((got.A.data, ref.A.data), (got.A.indices, ref.A.indices),
                     (got.A.indptr, ref.A.indptr), (got.element_matrices,
                                                    ref.element_matrices), (got.F, ref.F)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("solver, field", [
        ({"ksp": "gmres", "maxit": -1}, "solver.maxit must be >= 0"),
        ({"ksp": "pcg", "maxit": -1}, "solver.maxit must be >= 0"),
        ({"tol": float("nan")}, "solver.tol must be a finite number, got nan"),
        ({"tol": "inf"}, "solver.tol must be a finite number, got 'inf'"),
        ({"tol": -1e-6}, "solver.tol must be >= 0, got -1e-06"),
    ])
    def test_degenerate_solver_settings_rejected(self, solver, field):
        # gmres would crash on a negative Krylov dimension, pcg would stop
        # at 0 iterations, and a NaN or negative tol would run to maxit
        cfg = tiny_scenario(schwarz={"variant": "asm"}, solver=solver)
        with pytest.raises(ValueError, match=field):
            bench.resolve_scenario(cfg)
        with pytest.raises(bench.ScenarioError, match=f"'tiny' failed: {field}"):
            bench.run_scenario(cfg)

    def test_zero_maxit_and_tol_accepted(self):
        solver = bench.resolve_scenario(
            tiny_scenario(solver={"maxit": 0, "tol": 0}))["solver"]
        assert solver["maxit"] == 0 and solver["tol"] == 0.0

    @pytest.mark.parametrize("section, unknown", [
        ({"kind": "nicolaides", "tau": 0.5}, "['tau']"),
        ({"kind": "grid", "ratio": 4, "tau": 0.5}, "['tau']"),
        ({"kind": "none", "H": 0.25, "ratio": 2}, "['H', 'ratio']"),
    ])
    def test_coarse_keys_checked_per_kind(self, section, unknown):
        # a key of another coarse kind is not dropped without a word
        cfg = tiny_scenario(coarse=section)
        msg = (rf"unknown key\(s\) {re.escape(unknown)} in coarse of kind "
               rf"'{section['kind']}'")
        with pytest.raises(ValueError, match=msg):
            bench.resolve_scenario(cfg)

    @pytest.mark.parametrize("count", [0, -1])
    def test_channel_count_below_one_rejected(self, count):
        # with count 0, int(y * 2 * count) % 2 is 0 everywhere: no channel
        cfg = tiny_scenario(
            problem={"kind": "fem_2d", "cells_x": 8, "cells_y": 8,
                     "alpha": {"kind": "channels", "contrast": 1e6,
                               "count": count}},
            partition={"kind": "graph", "N": 4})
        msg = f"problem.alpha.count must be >= 1, got {count}"
        with pytest.raises(ValueError, match=msg):
            bench.resolve_scenario(cfg)
        with pytest.raises(bench.ScenarioError, match=f"'tiny' failed: {msg}"):
            bench.run_scenario(cfg)

    def test_cartesian_partition_has_no_seed(self):
        cfg = tiny_scenario(partition={"kind": "cartesian", "p": [4], "seed": 0})
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['seed'\]"):
            bench.resolve_scenario(cfg)

    @pytest.mark.parametrize("overrides, msg", [
        # sections that are not objects, lists of pairs included
        ({"coarse": "geneo"}, "coarse must be an object"),
        ({"schwarz": [["variant", "asm"]]}, "schwarz must be an object"),
        ({"analysis": [["bounds", True]]}, "analysis must be an object"),
        ({"solver": "gmres"}, "solver must be an object"),
        ({"problem": "poisson_1d"}, "problem must be an object"),
        ({"partition": "cartesian"}, "partition must be an object"),
        ({"problem": {"kind": "fem_2d", "cells_x": 8, "cells_y": 8,
                      "alpha": "constant"}, "partition": {"kind": "graph", "N": 4}},
         "problem.alpha must be an object"),
        # values that cannot be cast
        ({"problem": {"kind": "poisson_1d", "m": "x"}},
         "problem.m must be an integer, got 'x'"),
        ({"problem": {"kind": "poisson_1d", "m": None}},
         "problem.m must be an integer, got None"),
        ({"partition": {"kind": "cartesian", "p": 5}},
         "partition.p must be a list of integers, got 5"),
        ({"solver": {"tol": "abc"}}, "solver.tol must be a number, got 'abc'"),
        # values that were coerced without a word
        ({"overlap": 1.5}, "overlap must be an integer, got 1.5"),
        ({"partition": {"kind": "cartesian", "p": [2.9]}},
         "partition.p[0] must be an integer, got 2.9"),
        ({"analysis": {"spectrum": "false"}},
         "analysis.spectrum must be true or false, got 'false'"),
        ({"problem": {"kind": "poisson_1d", "m": True}},
         "problem.m must be an integer, got True"),
        ({"schwarz": {"variant": "oras", "robin_p": [True, 1.0]}},
         "schwarz.robin_p[0] must be a number, got True"),
        ({"name": {"a": 1}}, "name must be a string, got {'a': 1}"),
    ])
    def test_malformed_value_names_its_field(self, overrides, msg):
        with pytest.raises(ValueError) as err:
            bench.resolve_scenario(tiny_scenario(**overrides))
        assert str(err.value) == msg

    @pytest.mark.parametrize("overrides, msg", [
        ({"coarse": {"kind": "geneo", "tau": "nan"}},
         "coarse.tau must be a finite number, got 'nan'"),
        ({"coarse": {"kind": "grid", "H": float("inf")}},
         "coarse.H must be a finite number, got inf"),
        ({"problem": {"kind": "helmholtz_2d", "nx": 4, "ny": 4, "omega": "-inf"}},
         "problem.omega must be a finite number, got '-inf'"),
        ({"problem": {"kind": "helmholtz_2d", "nx": 4, "ny": 4, "omega": 1.0,
                      "xi": float("nan")}},
         "problem.xi must be a finite number, got nan"),
        ({"problem": {"kind": "fem_2d", "cells_x": 4, "cells_y": 4,
                      "alpha": {"kind": "constant", "value": "nan"}}},
         "problem.alpha.value must be a finite number, got 'nan'"),
        ({"problem": {"kind": "fem_2d", "cells_x": 4, "cells_y": 4,
                      "alpha": {"kind": "channels", "contrast": "inf"}}},
         "problem.alpha.contrast must be a finite number, got 'inf'"),
        ({"schwarz": {"variant": "oras", "robin_p": float("nan")}},
         "schwarz.robin_p must be a finite number, got nan"),
    ])
    def test_non_finite_number_names_its_field(self, overrides, msg):
        # NaN or infinity would resolve and then fail inside the run with a
        # message that names no field (or, for tau = inf, run)
        with pytest.raises(ValueError) as err:
            bench.resolve_scenario(tiny_scenario(**overrides))
        assert str(err.value) == msg

    @pytest.mark.parametrize("overrides, msg", [
        ({"overlap": -1}, "overlap must be >= 0, got -1"),
        ({"partition": {"kind": "graph", "N": 0}}, "partition.N must be >= 1, got 0"),
        ({"partition": {"kind": "graph", "N": 4, "seed": -1}},
         "partition.seed must be >= 0, got -1"),
        ({"partition": {"kind": "cartesian", "p": [0]}},
         "partition.p[0] must be >= 1, got 0"),
        # a bound is checked before the cross-field rule on the entry count
        ({"partition": {"kind": "cartesian", "p": [2, -1]}},
         "partition.p[1] must be >= 1, got -1"),
        ({"problem": {"kind": "fem_2d", "cells_x": 8, "cells_y": 8},
          "partition": {"kind": "graph", "N": 4}, "coarse": {"kind": "geneo", "tau": 0}},
         "coarse.tau must be > 0, got 0.0"),
        ({"coarse": {"kind": "geneo", "tau": "-0.5"}}, "coarse.tau must be > 0, got -0.5"),
        ({"coarse": {"kind": "grid", "H": 0}}, "coarse.H must be > 0, got 0.0"),
        ({"coarse": {"kind": "grid", "ratio": 0}}, "coarse.ratio must be >= 1, got 0"),
        ({"problem": {"kind": "poisson_1d", "m": 0}}, "problem.m must be >= 1, got 0"),
        ({"problem": {"kind": "poisson_2d_fd", "nx": 0, "ny": 4}},
         "problem.nx must be >= 1, got 0"),
        ({"problem": {"kind": "helmholtz_2d", "nx": 4, "ny": -2, "omega": 1.0}},
         "problem.ny must be >= 1, got -2"),
        ({"problem": {"kind": "fem_2d", "cells_x": 0, "cells_y": 4}},
         "problem.cells_x must be >= 1, got 0"),
        ({"problem": {"kind": "fem_2d", "cells_x": 4, "cells_y": 0}},
         "problem.cells_y must be >= 1, got 0"),
        ({"problem": {"kind": "helmholtz_2d", "nx": 4, "ny": 4, "omega": -1}},
         "problem.omega must be >= 0, got -1.0"),
        ({"problem": {"kind": "helmholtz_2d", "nx": 4, "ny": 4, "omega": 1.0,
                      "xi": -0.5}}, "problem.xi must be >= 0, got -0.5"),
        ({"problem": {"kind": "fem_2d", "cells_x": 4, "cells_y": 4,
                      "alpha": {"kind": "constant", "value": 0}}},
         "problem.alpha.value must be > 0, got 0.0"),
        ({"problem": {"kind": "fem_2d", "cells_x": 4, "cells_y": 4,
                      "alpha": {"kind": "channels", "contrast": -1e6}}},
         "problem.alpha.contrast must be > 0, got -1000000.0"),
    ])
    def test_out_of_range_value_names_its_field(self, overrides, msg):
        # one message form for every bound; a seed of -1 or a grid H of 0,
        # say, used to pass validation and fail inside the run naming no field
        cfg = tiny_scenario(**overrides)
        with pytest.raises(ValueError) as err:
            bench.resolve_scenario(cfg)
        assert str(err.value) == msg
        with pytest.raises(bench.ScenarioError) as err:
            bench.run_scenario(cfg)
        assert str(err.value) == f"scenario 'tiny' failed: {msg}"

    def test_integral_numbers_and_numeric_strings_accepted(self):
        cfg = bench.resolve_scenario(tiny_scenario(
            overlap=2.0, partition={"kind": "cartesian", "p": ["3"]},
            solver={"tol": "1e-8"}))
        assert cfg["overlap"] == 2 and isinstance(cfg["overlap"], int)
        assert cfg["partition"]["p"] == [3]
        assert cfg["solver"]["tol"] == 1e-8

    @pytest.mark.parametrize("xi, boundary", [(16.0, "dirichlet"),
                                              (0.0, "impedance")])
    @pytest.mark.parametrize("ksp, variant", [("pcg", "asm"), ("cg", "none")])
    def test_cg_on_complex_helmholtz_rejected(self, xi, boundary, ksp, variant):
        # complex symmetric, not Hermitian: pcg ran 200 iterations to a true
        # relres of 1.4e+03 with xi = 16, and broke down with an impedance
        # boundary
        cfg = tiny_scenario(
            name="complex",
            problem={"kind": "helmholtz_2d", "nx": 15, "ny": 15, "omega": 4.0,
                     "xi": xi, "boundary": boundary},
            partition={"kind": "cartesian", "p": [2, 2]},
            schwarz={"variant": variant}, solver={"ksp": ksp, "tol": 1e-8})
        msg = f"{ksp} on a complex Helmholtz system is not supported"
        with pytest.raises(ValueError, match=msg) as err:
            bench.resolve_scenario(cfg)
        assert "use ksp 'gmres'" in str(err.value)
        with pytest.raises(bench.ScenarioError, match=f"'complex' failed: {msg}"):
            bench.run_scenario(cfg)
        cfg["solver"]["ksp"] = "gmres"
        assert bench.resolve_scenario(cfg)["solver"]["ksp"] == "gmres"
        # xi = 0 with a Dirichlet boundary is real symmetric
        cfg["problem"].update(xi=0.0, boundary="dirichlet")
        cfg["solver"]["ksp"] = ksp
        assert bench.resolve_scenario(cfg)["solver"]["ksp"] == ksp

    def test_side_none_rejected(self):
        # no preconditioner is schwarz variant 'none' with no coarse space
        with pytest.raises(ValueError, match=re.escape(
                "solver.side must be one of ['left', 'right'], got 'none'")):
            bench.resolve_scenario(tiny_scenario(solver={"side": "none"}))

    @pytest.mark.parametrize("problem", [
        {"kind": "poisson_1d", "m": 7},
        {"kind": "poisson_2d_fd", "nx": 4, "ny": 5},
        {"kind": "fem_2d", "cells_x": 5, "cells_y": 3},
        {"kind": "helmholtz_2d", "nx": 4, "ny": 5, "omega": 1.0},
        {"kind": "helmholtz_2d", "nx": 4, "ny": 5, "omega": 1.0, "boundary": "impedance"},
    ], ids=lambda p: p.get("boundary", p["kind"]))
    def test_dofs_term_is_the_assembled_order(self, problem):
        cfg = bench._section(tiny_scenario(problem=problem), bench._SCENARIO,
                             "scenario", prefix="")
        assert bench._terms(cfg).dofs == bench._build_system(cfg["problem"]).n

    @pytest.mark.parametrize("analysis_cfg", [{"spectrum": True}, {"bounds": True}])
    def test_dense_analysis_over_the_cap_rejected_before_assembly(self, analysis_cfg,
                                                                   monkeypatch):
        monkeypatch.setattr(bench, "_build_system", None)  # never reached
        cfg = tiny_scenario(problem={"kind": "poisson_2d_fd", "nx": 50, "ny": 50},
                            partition={"kind": "cartesian", "p": [2, 2]},
                            schwarz={"variant": "asm"}, solver={"ksp": "pcg"},
                            analysis=analysis_cfg)
        with pytest.raises(bench.ScenarioError,
                           match=r"capped at n <= 2000, got 2500"):
            bench.run_scenario(cfg)
        cfg["analysis"] = {}
        bench.resolve_scenario(cfg)
        cfg["problem"] = {"kind": "poisson_1d", "m": analysis.DENSE_LIMIT}
        cfg["partition"] = {"kind": "cartesian", "p": [4]}
        cfg["analysis"] = analysis_cfg
        bench.resolve_scenario(cfg)

    def test_round_trip_is_identity(self):
        resolved = bench.resolve_scenario(tiny_scenario())
        again = bench.resolve_scenario(
            json.loads(json.dumps(resolved)))
        assert again == resolved

    def test_hash_stable_and_sensitive(self):
        a = bench.scenario_hash(bench.resolve_scenario(tiny_scenario()))
        b = bench.scenario_hash(bench.resolve_scenario(tiny_scenario()))
        assert a == b
        c = bench.scenario_hash(
            bench.resolve_scenario(tiny_scenario(overlap=2)))
        assert c != a


class TestRunScenario:
    def test_plain_gmres_baseline(self):
        cfg = tiny_scenario(name="baseline",
                            schwarz={"variant": "none"})
        rec = bench.run_scenario(cfg)
        assert rec["solve"]["converged"]
        assert rec["n_dofs"] == 24
        assert rec["n_subdomains"] == 3
        # no preconditioner spans in a plain run
        assert list(rec["timings"]) == [
            "run", "run/discretize.assembly", "run/decompose.partition",
            "run/decompose.overlap", "run/schwarz.setup", "run/krylov",
            "run/krylov/matvec",
        ]
        assert rec["machine"]["python"]
        assert rec["scenario_hash"] == bench.scenario_hash(rec["scenario"])

    def test_machine_records_blas(self):
        machine = bench.run_scenario(tiny_scenario(
            schwarz={"variant": "none"}))["machine"]
        assert set(machine["blas"]) == {"numpy", "scipy"}
        assert all(v is None or isinstance(v, str) for v in machine["blas"].values())
        threads = machine["blas_threads"]
        assert threads is None or (type(threads) is int and threads >= 1)

    def test_geneo_run_builds_the_local_operator_once(self, monkeypatch):
        # The GenEO pencils gather D_j A_j D_j straight from the rows of A:
        # only the one-level preconditioner assembles the stacked operator.
        calls = []

        def counted(*args, real=schwarz.local_operator, **kwargs):
            calls.append(kwargs.get("kind", "dirichlet"))
            return real(*args, **kwargs)

        monkeypatch.setattr(schwarz, "local_operator", counted)
        rec = bench.run_scenario(tiny_scenario(
            problem={"kind": "fem_2d", "cells_x": 12, "cells_y": 12},
            partition={"kind": "graph", "N": 4}, schwarz={"variant": "asm"},
            coarse={"kind": "geneo", "tau": 0.5}))
        assert rec["solve"]["converged"] and rec["coarse_dim"] >= 1
        assert calls == ["dirichlet"]

    @pytest.mark.parametrize("overrides", [
        {"problem": {"kind": "fem_2d", "cells_x": 12, "cells_y": 12},
         "partition": {"kind": "graph", "N": 4}, "schwarz": {"variant": "asm"},
         "coarse": {"kind": "geneo", "tau": 0.5}},
        {"problem": {"kind": "poisson_2d_fd", "nx": 12, "ny": 12},
         "partition": {"kind": "cartesian", "p": [3, 2]},
         "schwarz": {"variant": "oras"}},
    ], ids=["graph-partitioned fem", "oras"])
    def test_one_symmetric_pattern_per_run(self, monkeypatch, overrides):
        # the graph partition, the overlap and the Robin interface share
        # the symmetric pattern of A, built once
        calls = []

        def counted(A, real=decompose._symmetric_adjacency):
            calls.append(A.shape)
            return real(A)

        monkeypatch.setattr(decompose, "_symmetric_adjacency", counted)
        rec = bench.run_scenario(tiny_scenario(**overrides))
        assert rec["solve"]["converged"]
        assert calls == [(rec["n_dofs"],) * 2]

    def test_deterministic_payload(self):
        cfg = tiny_scenario(schwarz={"variant": "asm"},
                            solver={"ksp": "pcg"})
        a = bench.run_scenario(cfg)
        b = bench.run_scenario(cfg)
        for rec in (a, b):
            rec.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @staticmethod
    def cyclic_coarse_spaces(cfg):
        """Coarse spaces a run leaves for the cyclic garbage collector."""
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            try:
                bench.run_scenario(cfg)
            except bench.ScenarioError:
                pass
            gc.collect()
            return [o for o in gc.garbage if isinstance(o, coarse.CoarseSpace)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    def test_coarse_space_freed_without_cycle_collector(self):
        # the coarse basis is dense (n x m0); it must go when the run ends,
        # not when the cyclic garbage collector next happens to run
        cfg = tiny_scenario(schwarz={"variant": "asm"},
                            coarse={"kind": "nicolaides"}, combinator="ad",
                            solver={"ksp": "pcg"})
        assert self.cyclic_coarse_spaces(cfg) == []

    def test_coarse_space_freed_when_the_solve_fails(self):
        # indefinite Helmholtz breaks PCG down inside the timed solve
        cfg = tiny_scenario(
            problem={"kind": "helmholtz_2d", "nx": 10, "ny": 10, "omega": 20.0},
            partition={"kind": "cartesian", "p": [2, 2]},
            schwarz={"variant": "asm"}, coarse={"kind": "nicolaides"},
            combinator="ad", solver={"ksp": "pcg"})
        with pytest.raises(bench.ScenarioError, match="not positive"):
            bench.run_scenario(cfg)
        assert self.cyclic_coarse_spaces(cfg) == []

    def test_coarse_solve_timed_inside_the_solve(self):
        # the applies made by the Krylov call and by the analysis land
        # under different span paths; adef2's formula multiplies by A, and
        # pcg runs it from the deflated start Q b
        cfg = tiny_scenario(
            problem={"kind": "poisson_2d_fd", "nx": 20, "ny": 20},
            partition={"kind": "cartesian", "p": [4, 4]},
            schwarz={"variant": "asm"},
            coarse={"kind": "nicolaides"},
            combinator="adef2",
            solver={"ksp": "pcg", "x0": "deflated"},
            analysis={"spectrum": True, "bounds": True},
        )
        t0 = time.perf_counter()
        t = bench.run_scenario(cfg)["timings"]
        wall = time.perf_counter() - t0
        assert all(v >= 0.0 for v in t.values())
        for path in ("run/coarse.solve",
                     "run/krylov/coarse.two_level/schwarz.apply",
                     "run/krylov/coarse.two_level/coarse.solve",
                     "run/krylov/coarse.two_level/matvec",
                     "run/analysis.spectrum/coarse.two_level/schwarz.apply",
                     "run/analysis.spectrum/coarse.two_level/coarse.solve",
                     "run/analysis.spectrum/coarse.two_level/matvec",
                     "run/discretize.assembly", "run/analysis.bounds"):
            assert path in t
        assert sum(t.values()) <= wall

    def test_ad_run_reuses_its_spectrum_for_the_geneo_bound(self, monkeypatch):
        # the ad spectrum is the run's own: the bound checks compute only
        # the one-level spectrum, and the records are those of an adef1 run,
        # whose bound checks compute the ad spectrum themselves
        calls = []

        def counted(*args, real=analysis.preconditioned_spectrum):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(analysis, "preconditioned_spectrum", counted)
        records = {}
        for combinator, spectra in (("ad", 2), ("adef1", 3)):
            calls.clear()
            rec = bench.run_scenario(tiny_scenario(
                problem={"kind": "fem_2d", "cells_x": 12, "cells_y": 12},
                partition={"kind": "graph", "N": 4}, overlap=2,
                schwarz={"variant": "asm"},
                coarse={"kind": "geneo", "tau": 0.5}, combinator=combinator,
                analysis={"spectrum": True, "bounds": True}))
            assert len(calls) == spectra
            records[combinator] = rec["spectrum"]["records"]
        assert [r["name"] for r in records["ad"]] == ["coloring", "geneo"]
        assert records["ad"] == records["adef1"]

    def test_two_level_with_spectrum(self):
        cfg = tiny_scenario(
            name="two-level",
            problem={"kind": "poisson_1d", "m": 48},
            partition={"kind": "cartesian", "p": [6]},
            schwarz={"variant": "asm"},
            coarse={"kind": "nicolaides"},
            combinator="ad",
            solver={"ksp": "pcg", "tol": 1e-8},
            analysis={"spectrum": True, "bounds": True},
        )
        rec = bench.run_scenario(cfg)
        assert rec["solve"]["converged"]
        assert rec["coarse_dim"] == 6
        assert rec["coarse_raw_columns"] == 6
        assert rec["coarse_per_subdomain"] == [1] * 6
        spec = rec["spectrum"]
        assert spec["path"] == "spd"
        assert spec["kappa"] >= 1.0
        assert len(spec["eigenvalues"]) == 48
        names = {r["name"] for r in spec["records"]}
        assert "coloring" in names

    def test_geneo_scenario_records_bound(self):
        cfg = {
            "schema": 1,
            "name": "geneo-small",
            "problem": {"kind": "fem_2d", "cells_x": 12, "cells_y": 12,
                        "alpha": {"kind": "constant", "value": 1.0}},
            "partition": {"kind": "graph", "N": 4, "seed": 0},
            "overlap": 2,
            "schwarz": {"variant": "asm"},
            "coarse": {"kind": "geneo", "tau": 0.5},
            "combinator": "adef1",
            "solver": {"ksp": "gmres", "side": "right"},
            "analysis": {"spectrum": True, "bounds": True},
        }
        rec = bench.run_scenario(cfg)
        assert rec["solve"]["converged"]
        # subdomains pinned by the outer boundary may select no modes
        assert rec["coarse_dim"] >= 1
        per = rec["coarse_per_subdomain"]
        assert len(per) == 4 and sum(per) == rec["coarse_dim"]
        assert rec["coarse_raw_columns"] >= rec["coarse_dim"]
        names = {r["name"] for r in rec["spectrum"]["records"]}
        assert "geneo" in names
        geneo_rec = next(r for r in rec["spectrum"]["records"]
                         if r["name"] == "geneo")
        assert geneo_rec["satisfied"]

    def test_coarse_decisions_recorded(self):
        one = bench.run_scenario(tiny_scenario(schwarz={"variant": "asm"},
                                               solver={"ksp": "pcg"}))
        assert one["coarse_dim"] == one["coarse_raw_columns"] == 0
        assert one["coarse_per_subdomain"] is None
        grid = bench.run_scenario(tiny_scenario(
            problem={"kind": "poisson_1d", "m": 23},
            schwarz={"variant": "asm"}, coarse={"kind": "grid", "ratio": 4},
            combinator="ad", solver={"ksp": "pcg"}))
        assert grid["coarse_dim"] == grid["coarse_raw_columns"] == 5
        assert grid["coarse_per_subdomain"] is None
        keys = list(grid)
        assert keys[keys.index("coarse_dim") + 1:][:2] == [
            "coarse_raw_columns", "coarse_per_subdomain"]
        assert grid["solve"]["true_final_relres"] <= 1e-6
        # GenEO, where only the first subdomain keeps a column: one count
        # per subdomain, trailing zeros included
        geneo = bench.run_scenario({
            "schema": 1, "name": "geneo-sparse",
            "problem": {"kind": "fem_2d", "cells_x": 8, "cells_y": 8},
            "partition": {"kind": "graph", "N": 6, "seed": 1}, "overlap": 1,
            "schwarz": {"variant": "asm"}, "coarse": {"kind": "geneo", "tau": 0.2},
            "solver": {"ksp": "gmres"}})
        assert geneo["coarse_per_subdomain"] == [1, 0, 0, 0, 0, 0]
        assert geneo["coarse_raw_columns"] == geneo["coarse_dim"] == 1

    def test_subdomain_sizes_and_kept_eigenvalues_recorded(self):
        one = bench.run_scenario(tiny_scenario(schwarz={"variant": "asm"},
                                               solver={"ksp": "pcg"}))
        # 3 subdomains of 8 dofs, each grown by one layer per neighbour
        assert one["subdomain_dofs"] == [9, 10, 9]
        assert one["coarse_eigenvalues"] is None
        keys = list(one)
        assert keys[keys.index("n_subdomains") + 1] == "subdomain_dofs"
        assert keys[keys.index("coarse_per_subdomain") + 1] == "coarse_eigenvalues"
        nico = bench.run_scenario(tiny_scenario(
            schwarz={"variant": "asm"}, coarse={"kind": "nicolaides"},
            combinator="ad", solver={"ksp": "pcg"}))
        assert nico["coarse_eigenvalues"] is None
        cfg = {
            "schema": 1, "name": "geneo-eigs",
            "problem": {"kind": "fem_2d", "cells_x": 10, "cells_y": 10},
            "partition": {"kind": "graph", "N": 4, "seed": 2}, "overlap": 1,
            "schwarz": {"variant": "asm"}, "coarse": {"kind": "geneo", "tau": 0.5},
            "solver": {"ksp": "gmres"}}
        rec = bench.run_scenario(cfg)
        # the kept eigenvalue of every column, in column order, as the
        # coarse space built outside the runner holds them
        mesh = discretize.unit_square_mesh(10, 10)
        system = discretize.diffusion_fem_2d(mesh, lambda c: 1.0)
        part = decompose.greedy_graph_partition(system.A, 4, seed=2)
        dec = decompose.expand_overlap(system.A, part, 1, coords=system.coords,
                                       h=system.h)
        cs = coarse.geneo_space(system, dec, tau=0.5)
        assert rec["subdomain_dofs"] == [len(s) for s in dec.sets]
        assert rec["coarse_eigenvalues"] == cs.eigenvalues.tolist()
        assert len(rec["coarse_eigenvalues"]) == rec["coarse_dim"] >= 1
        assert max(rec["coarse_eigenvalues"]) <= 0.5
        again = bench.run_scenario(cfg)
        assert again["coarse_eigenvalues"] == rec["coarse_eigenvalues"]
        assert again["subdomain_dofs"] == rec["subdomain_dofs"]

    def test_error_carries_scenario_context(self):
        cfg = tiny_scenario(name="doomed",
                            problem={"kind": "poisson_2d_fd", "nx": 8, "ny": 8},
                            partition={"kind": "cartesian", "p": [2, 2]},
                            schwarz={"variant": "asm"},
                            coarse={"kind": "geneo", "tau": 0.5})
        with pytest.raises(bench.ScenarioError, match="doomed"):
            bench.run_scenario(cfg)

    def test_complex_robin_parameter(self):
        cfg = {
            "schema": 1,
            "name": "helm",
            "problem": {"kind": "helmholtz_2d", "nx": 15, "ny": 15,
                        "omega": 10.0, "xi": 100.0, "boundary": "dirichlet"},
            "partition": {"kind": "cartesian", "p": [2, 2]},
            "schwarz": {"variant": "oras", "robin_p": [0.0, 10.0]},
            "solver": {"ksp": "gmres", "side": "right"},
        }
        rec = bench.run_scenario(cfg)
        assert rec["solve"]["converged"]

    @pytest.mark.parametrize("nx, p, omega, dofs, iterations", [
        (15, 2, 10.0, [80, 89, 89, 99], 15),
        (31, 4, 20.0, None, 47),
    ])
    def test_impedance_with_cartesian_partition_runs(self, nx, p, omega, dofs,
                                                     iterations):
        # the impedance system has no structured grid over its boundary
        # nodes, so the cartesian split blocks it by coordinates
        rec = bench.run_scenario(tiny_scenario(
            problem={"kind": "helmholtz_2d", "nx": nx, "ny": nx, "omega": omega,
                     "boundary": "impedance"},
            partition={"kind": "cartesian", "p": [p, p]},
            schwarz={"variant": "oras", "robin_p": [0.0, omega]},
            solver={"ksp": "gmres", "side": "right", "tol": 1e-8}))
        assert rec["n_dofs"] == (nx + 2) ** 2 and rec["n_subdomains"] == p * p
        assert sum(rec["subdomain_dofs"]) > (nx + 2) ** 2
        if dofs is not None:
            assert rec["subdomain_dofs"] == dofs
        assert rec["solve"]["converged"]
        assert rec["solve"]["iterations"] == iterations

    def test_coordinate_split_drops_empty_blocks_in_order(self):
        # the 3x3 interior vertices of a 4x4-cell mesh sit at 1/4, 1/2, 3/4
        # per axis, so an 8x8 split fills only blocks 2, 4, 6 of each axis:
        # nine blocks, numbered in order, one vertex each
        system = discretize.diffusion_fem_2d(discretize.unit_square_mesh(4, 4),
                                             lambda c: 1.0)
        owner = bench._build_partition(system, {"kind": "cartesian", "p": [8, 8]})
        np.testing.assert_array_equal(owner, np.arange(9))
        rec = bench.run_scenario(tiny_scenario(
            problem={"kind": "fem_2d", "cells_x": 4, "cells_y": 4},
            partition={"kind": "cartesian", "p": [8, 8]}, overlap=0,
            schwarz={"variant": "asm"}, solver={"ksp": "pcg"}))
        assert rec["n_subdomains"] == 9 and rec["subdomain_dofs"] == [1] * 9

    def test_impedance_with_graph_partition_runs(self):
        rec = bench.run_scenario(tiny_scenario(
            problem={"kind": "helmholtz_2d", "nx": 15, "ny": 15, "omega": 10.0,
                     "boundary": "impedance"},
            partition={"kind": "graph", "N": 4},
            schwarz={"variant": "oras", "robin_p": [0.0, 10.0]},
            solver={"ksp": "gmres", "tol": 1e-8}))
        assert rec["n_dofs"] == 17 * 17 and rec["coarse_dim"] == 0
        assert rec["solve"]["converged"] and rec["solve"]["iterations"] == 26

    def test_indefinite_helmholtz_keeps_every_grid_column(self):
        # xi = 0: A and Z^H A Z are indefinite, the basis has full rank
        rec = bench.run_scenario(tiny_scenario(
            problem={"kind": "helmholtz_2d", "nx": 15, "ny": 15, "omega": 10.0},
            partition={"kind": "cartesian", "p": [2, 2]},
            schwarz={"variant": "asm"}, coarse={"kind": "grid", "ratio": 4},
            solver={"ksp": "gmres", "tol": 1e-8}))
        assert rec["coarse_raw_columns"] == rec["coarse_dim"] == 9
        assert rec["solve"]["converged"] and rec["solve"]["iterations"] == 18

    def test_coarse_min_pivot_recorded(self):
        one = bench.run_scenario(tiny_scenario(schwarz={"variant": "asm"},
                                               solver={"ksp": "pcg"}))
        assert one["coarse_min_pivot"] is None
        keys = list(one)
        assert keys[keys.index("coarse_eigenvalues") + 1] == "coarse_min_pivot"
        cfg = tiny_scenario(schwarz={"variant": "asm"},
                            coarse={"kind": "nicolaides"}, combinator="ad",
                            solver={"ksp": "pcg"})
        nico = bench.run_scenario(cfg)
        sys = discretize.poisson_1d(24)
        dec = decompose.expand_overlap(
            sys.A, decompose.cartesian_partition(24, 3), 1)
        cs = coarse.nicolaides_space(sys.A, dec)
        assert nico["coarse_min_pivot"] == cs.min_pivot
        # pivots are squared distances from the span of the columns kept
        # before, relative to the largest squared column norm: the squared
        # diagonal of QR with the same greedy column pivoting
        Z = cs.Z.toarray()
        R = scipy.linalg.qr(Z, mode="r", pivoting=True)[0]
        ref = np.abs(R.diagonal()).min() ** 2 / (np.linalg.norm(Z, axis=0) ** 2).max()
        assert 0 < ref < 1
        assert cs.min_pivot == pytest.approx(ref, rel=1e-12)

    def test_local_factor_recorded(self):
        one = bench.run_scenario(tiny_scenario(schwarz={"variant": "asm"},
                                               solver={"ksp": "pcg"}))
        # 3 subdomains of 8 dofs grown by one layer toward their
        # neighbours: 9 + 10 + 9 stacked rows
        assert one["local_factor"]["kind"] == "cholesky"
        assert one["local_factor"]["order"] == 28
        assert one["local_factor"]["nnz"] >= 29
        # the two end blocks are the same 9 x 9 Dirichlet matrix
        assert one["local_factor"]["distinct_blocks"] == 2
        keys = list(one)
        assert keys[keys.index("local_factor") + 1] == "coarse_dim"
        robin = bench.run_scenario(tiny_scenario(
            schwarz={"variant": "oras", "robin_p": [0.0, 10.0]}))
        assert robin["local_factor"]["kind"] == "lu"
        assert robin["local_factor"]["order"] == 28
        # their Robin rows lie at opposite ends, so the end blocks differ
        assert robin["local_factor"]["distinct_blocks"] == 3
        plain = bench.run_scenario(tiny_scenario(schwarz={"variant": "none"}))
        assert plain["local_factor"] is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_complex_robin_on_real_system_solved_in_complex(self, side):
        # ORAS with an imaginary Robin parameter is a complex preconditioner
        # for the real FD Poisson system, so the solve must run complex
        cfg = tiny_scenario(
            problem={"kind": "poisson_2d_fd", "nx": 20, "ny": 20},
            partition={"kind": "cartesian", "p": [4, 4]},
            schwarz={"variant": "oras", "robin_p": [0.0, 10.0]},
            solver={"ksp": "gmres", "side": side, "tol": 1e-8})
        solve = bench.run_scenario(cfg)["solve"]
        assert solve["converged"] and solve["iterations"] <= 20
        assert solve["true_final_relres"] <= 1e-8


class TestClock:
    @pytest.fixture
    def ticks(self, monkeypatch):
        """perf_counter returning the given readings in turn."""
        def set_ticks(*readings):
            it = iter(readings)
            monkeypatch.setattr(bench.time, "perf_counter", lambda: next(it))
        return set_ticks

    def test_self_times_of_nested_and_repeated_spans(self, ticks):
        clock = bench._Clock()
        leaf = clock.timed("c", lambda: None)

        def outer():
            clock.run("b", leaf)
            clock.run("b", lambda: None)
            return "done"

        # a [0, 15]; b [1, 7] holding c [2, 4]; b again [8, 9]
        ticks(0.0, 1.0, 2.0, 4.0, 7.0, 8.0, 9.0, 15.0)
        assert clock.run("a", outer) == "done"
        assert clock.self_s == {"a": 8.0, "a/b": 5.0, "a/b/c": 2.0}
        assert sum(clock.self_s.values()) == 15.0

    def test_spans_closed_when_the_function_raises(self, ticks):
        clock = bench._Clock()

        def fail():
            raise KeyError("inner")

        ticks(0.0, 1.0, 3.0, 6.0, 10.0, 11.0)
        with pytest.raises(KeyError, match="inner"):
            clock.run("a", clock.run, "b", fail)
        clock.run("d", lambda: None)
        assert clock.self_s == {"a": 4.0, "a/b": 2.0, "d": 1.0}

    def test_paths_in_pre_order(self, ticks):
        clock = bench._Clock()
        ticks(*range(12))
        clock.run("a", lambda: (clock.run("d", lambda: None),
                                clock.run("b", clock.run, "c", lambda: None),
                                clock.run("d", lambda: None)))
        clock.run("e", lambda: None)
        assert list(clock.self_s) == ["a", "a/d", "a/b", "a/b/c", "e"]


class TestArtifacts:
    def test_run_writes_record_csv_markdown(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(tiny_scenario(
            schwarz={"variant": "asm"}, solver={"ksp": "pcg"})))
        out = tmp_path / "out"
        code = bench.main(["run", str(cfg_path), "--out", str(out)])
        assert code == 0
        dirs = list(out.iterdir())
        assert len(dirs) == 1
        run_dir = dirs[0]
        rec = json.loads((run_dir / "record.json").read_text())
        assert rec["scenario_hash"].startswith(run_dir.name)
        lines = (run_dir / "residuals.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,residual_norm"
        assert len(lines) == rec["solve"]["iterations"] + 2
        assert (run_dir / "report.md").read_text().startswith("#")

    def test_cli_overrides(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(tiny_scenario()))
        out = tmp_path / "out"
        code = bench.main([
            "run", str(cfg_path), "--out", str(out),
            "--partitioner", "cartesian:4",
            "--overlap", "2",
            "--schwarz-method", "asm",
            "--coarse", "nicolaides",
            "--coarse-correction", "ad",
            "--ksp", "pcg",
            "--ksp-rtol", "1e-8",
            "--ksp-maxit", "150",
        ])
        assert code == 0
        run_dir = next(out.iterdir())
        rec = json.loads((run_dir / "record.json").read_text())
        sc = rec["scenario"]
        assert sc["partition"] == {"kind": "cartesian", "p": [4]}
        assert sc["overlap"] == 2
        assert sc["schwarz"]["variant"] == "asm"
        assert sc["coarse"]["kind"] == "nicolaides"
        assert sc["combinator"] == "ad"
        assert sc["solver"]["ksp"] == "pcg"
        assert sc["solver"]["tol"] == 1e-8
        assert sc["solver"]["maxit"] == 150

    def test_coarse_geneo_tau_flag_replaces_another_kind(self, tmp_path, capsys):
        # switching the kind drops the grid's 'ratio', so the run fails on
        # the GenEO cause and not on a leftover key
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(tiny_scenario(
            problem={"kind": "poisson_2d_fd", "nx": 8, "ny": 8},
            partition={"kind": "cartesian", "p": [2, 2]},
            coarse={"kind": "grid", "ratio": 3})))
        code = bench.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                           "--coarse", "geneo:tau=0.5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "GenEO needs the Neumann matrices" in out
        assert "unknown key" not in out

    @pytest.mark.parametrize("argv, cause", [
        (["--pc-side", "none"], "argument --pc-side: invalid choice: 'none'"),
        (["--geneo-threshold", "0.4"], "unrecognized arguments: --geneo-threshold 0.4"),
    ])
    def test_removed_flag_forms_rejected(self, capsys, argv, cause):
        with pytest.raises(SystemExit) as exit_:
            bench.main(["run", "poisson_unit", *argv])
        assert exit_.value.code == 2
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("value, coarse_cfg", [
        ("geneo", {"kind": "geneo", "tau": "auto"}),
        ("geneo:tau=auto", {"kind": "geneo", "tau": "auto"}),
        ("geneo:tau=0.4", {"kind": "geneo", "tau": 0.4}),
    ])
    def test_coarse_flag_sets_the_geneo_tau(self, value, coarse_cfg):
        args = argparse.Namespace(command="run", partitioner=None, coarse=value,
                                  **{flag[2:].replace("-", "_"): None
                                     for flag in bench._FIELD_FLAGS})
        cfg = bench._apply_overrides(bench.load_bundled("poisson_unit"), args)
        assert bench.resolve_scenario(cfg)["coarse"] == coarse_cfg

    @pytest.mark.parametrize("flag, value, cause", [
        ("--partitioner", "graph:x", "partition.N must be an integer, got 'x'"),
        ("--partitioner", "graph", "partition.N must be an integer, got ''"),
        ("--partitioner", "graph:4:1:2",
         "partition.seed must be an integer, got '1:2'"),
        ("--partitioner", "cartesian:2x",
         "partition.p[1] must be an integer, got ''"),
        ("--coarse", "grid:ratio", "coarse.ratio must be an integer, got ''"),
        ("--coarse", "grid:H=abc", "coarse.H must be a number, got 'abc'"),
        ("--coarse", "geneo:tau=abc", "coarse.tau must be a number, got 'abc'"),
    ])
    def test_malformed_flag_names_itself(self, tmp_path, capsys, flag, value, cause):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(tiny_scenario()))
        code = bench.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                           flag, value])
        assert code == 1
        form = {"--partitioner": "cartesian:PX[xPY] or graph:N[:seed]",
                "--coarse": ("none | nicolaides | grid:H=0.25 | grid:ratio=4 | "
                             "geneo[:tau=T]")}[flag]
        assert capsys.readouterr().out == (
            f"ddmlab: {flag} {value!r} is malformed ({cause}); use {form}\n")

    @pytest.mark.parametrize("command, config, flags, name, msg", [
        ("run", tiny_scenario(solver="gmres"), ["--ksp", "gmres", "--ksp-maxit", "9"],
         "tiny", "solver must be an object"),
        ("run", tiny_scenario(schwarz="asm"), ["--schwarz-method", "asm"],
         "tiny", "schwarz must be an object"),
        ("spectrum", tiny_scenario(analysis=[["bounds", True]]), [],
         "tiny", "analysis must be an object"),
        ("spectrum", [1, 2], ["--overlap", "2", "--partitioner", "graph:3",
                              "--coarse", "geneo:tau=auto"],
         "scenario", "scenario must be an object"),
    ])
    def test_flag_leaves_a_non_object_to_validation(self, tmp_path, capsys, command,
                                                    config, flags, name, msg):
        # each raised a TypeError traceback setting the flag's field
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = bench.main([command, str(cfg_path), "--out", str(tmp_path / "out"),
                           *flags])
        assert code == 1
        assert capsys.readouterr().out == f"ddmlab: scenario {name!r} failed: {msg}\n"

    def test_spectrum_command(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(tiny_scenario(
            schwarz={"variant": "asm"}, solver={"ksp": "pcg"})))
        out = tmp_path / "out"
        code = bench.main(["spectrum", str(cfg_path), "--out", str(out)])
        assert code == 0
        run_dir = next(out.iterdir())
        lines = (run_dir / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 24 + 1
        bounds = json.loads((run_dir / "bounds.json").read_text())
        assert isinstance(bounds, list)
        rec = json.loads((run_dir / "record.json").read_text())
        assert rec["spectrum"]["kappa"] >= 1.0


def suite_config():
    return {
        "schema": 1,
        "name": "mini-suite",
        "base": tiny_scenario(schwarz={"variant": "asm"},
                              solver={"ksp": "pcg"}),
        "sweep": [
            {"name": "N3"},
            {"name": "N4", "partition": {"kind": "cartesian", "p": [4]}},
        ],
        "reference": {
            "label": "reference (settings unstated)",
            "rows": {"N3": 11, "N4": 13},
        },
    }


class TestSuite:
    def test_suite_artifacts_and_traceability(self, tmp_path):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(suite_config()))
        out = tmp_path / "out"
        code = bench.main(["suite", str(suite_path), "--out", str(out)])
        assert code == 0
        suite_dirs = [d for d in out.iterdir() if (d / "suite.csv").exists()]
        assert len(suite_dirs) == 1
        csv_lines = (suite_dirs[0] / "suite.csv").read_text().strip().splitlines()
        header = csv_lines[0].split(",")
        assert "record" in header and "reference" in header
        assert len(csv_lines) == 3
        for line in csv_lines[1:]:
            row = dict(zip(header, line.split(",")))
            rec_file = out / row["record"] / "record.json"
            assert rec_file.exists()
            rec = json.loads(rec_file.read_text())
            assert rec["solve"]["iterations"] == int(row["iterations"])
        md = (suite_dirs[0] / "suite.md").read_text()
        assert "reference (settings unstated)" in md

    def test_partial_failure_marks_row_and_continues(self, tmp_path):
        cfg = suite_config()
        cfg["sweep"].append({
            "name": "broken",
            "problem": {"kind": "poisson_2d_fd", "nx": 6, "ny": 6},
            "partition": {"kind": "cartesian", "p": [2, 2]},
            "coarse": {"kind": "geneo", "tau": 0.5},
            "combinator": "ad",
        })
        del cfg["reference"]
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = bench.main(["suite", str(suite_path), "--out", str(out)])
        assert code == 0
        suite_dir = [d for d in out.iterdir() if (d / "suite.csv").exists()][0]
        rows = json.loads((suite_dir / "suite.json").read_text())["rows"]
        by_name = {r["name"]: r for r in rows}
        assert by_name["broken"]["error"]
        assert by_name["N3"]["error"] is None
        assert by_name["N3"]["iterations"] > 0


    @pytest.mark.parametrize("change, msg", [
        ({"sweep": ["name"]}, "suite.sweep[0] must be an object"),
        ({"sweep": [{"name": 3}]}, "suite.sweep[0].name must be a string, got 3"),
        ({"reference": {"label": "x", "rows": [1]}},
         "suite.reference.rows must be an object"),
        ({"base": "poisson_unit"}, "suite.base must be an object"),
    ])
    def test_malformed_suite_section_names_itself(self, change, msg):
        with pytest.raises(ValueError) as err:
            bench.run_suite({**suite_config(), **change})
        assert str(err.value) == msg

    def test_reference_without_rows_runs(self):
        result = bench.run_suite({**suite_config(), "reference": {"label": "x"}})
        assert result["reference_label"] == "x"
        assert [row["reference"] for row in result["rows"]] == [None, None]


# sha256 of json.dumps(resolve_scenario(cfg)), keys in resolved order, for
# every bundled scenario and sweep point (merged as run_suite merges them)
# and every benchmark scenario: record.json bytes and scenario_hash follow
RESOLVED_SHA256 = {
    "helmholtz_k_sweep.json/k10-two":
        "2cd54ca98980b62464ab064dbcaa950d70f5be76941e26f3b2e96a33b39a8c70",
    "helmholtz_k_sweep.json/k20-two":
        "b494687de3ee97332750882273daaab8fec5970d9bb68a48f46d5499fc59ecb6",
    "helmholtz_k_sweep.json/k40-two":
        "f617013cbb71e9a2e7962bfc2b01c841305ca524c9132d8d1b49e5623a608d80",
    "helmholtz_k_sweep.json/k10-one":
        "7ac1f7cc568d5c7192a40f47f6456ee05aa38cb07f6086f96c5f9caf7d1d6617",
    "helmholtz_k_sweep.json/k20-one":
        "38edcdb9fc5cf3ad31f44cf582a732b84b852d42a63fd2ba52f9e2a8856ef3cb",
    "helmholtz_k_sweep.json/k40-one":
        "80c86da8580dc79f70b7ec6adba47fa38f58a8aab62f4459ce9d7a874847c02a",
    "poisson_unit.json":
        "4de212584a69fc03606ea2e7aa84ccef92d7d51dac043a3e38afe9e4d703cfce",
    "strong_scaling.json/2x2":
        "336b47163ab3cbbdd073f34184b85a156d4cc3c2b92bb0565702b85876a079f0",
    "strong_scaling.json/4x4":
        "f42f4c289b4a49f2524614c74d8d58f718ec93adf32c814b20a999ea7e9896bb",
    "strong_scaling.json/8x8":
        "27fadbbb710a3d8921f822156b3f97f764b8c9f03a8f0c06d048ab8c657b6293",
    "weak_scaling_1d.json/N8-one":
        "3a8bc106cddb2a99680f7a727d93b1a8484c783d29f5823d71e4b7659191021a",
    "weak_scaling_1d.json/N16-one":
        "094c7f79eb5157b2615c00576c59782928ce3fccbc8e453438cdfe8f37d11dd9",
    "weak_scaling_1d.json/N32-one":
        "0abb81e1cbe2df8544b375801639f2f0485faad8621e0a6d5133e8a02960b689",
    "weak_scaling_1d.json/N64-one":
        "e25d389a28242b6fe089a8d0ad7aaad989dc8745fa3348aecffbc3532f27ab37",
    "weak_scaling_1d.json/N8-nico":
        "34a953f9d625df8ae2fff51b7a561418add5236789232f4c2ab0c4379a23fb86",
    "weak_scaling_1d.json/N16-nico":
        "df5fff63dfc05a368aa4c9c53d9de7cefc718deb9ebb7929669b6eed75817355",
    "weak_scaling_1d.json/N32-nico":
        "1f19a0b425b7550b56021bb69b60550c65512ec7d469bb9caf089b96258ce90a",
    "weak_scaling_1d.json/N64-nico":
        "9dfad4bae73d90c7da21a5ba1e9e4d3394ac3aeb21937cdda9e6c9d5e234391e",
    "fem_geneo/poisson-unit":
        "4de212584a69fc03606ea2e7aa84ccef92d7d51dac043a3e38afe9e4d703cfce",
    "fem_geneo/poisson-unit-24-spectrum":
        "d7923d75ea34294635af1b86976995b463d0a885ff7de974b1c466ac1a7e0d8d",
    "bundled_suites/2x2":
        "336b47163ab3cbbdd073f34184b85a156d4cc3c2b92bb0565702b85876a079f0",
    "bundled_suites/4x4":
        "f42f4c289b4a49f2524614c74d8d58f718ec93adf32c814b20a999ea7e9896bb",
    "bundled_suites/8x8":
        "27fadbbb710a3d8921f822156b3f97f764b8c9f03a8f0c06d048ab8c657b6293",
    "bundled_suites/N8-one":
        "3a8bc106cddb2a99680f7a727d93b1a8484c783d29f5823d71e4b7659191021a",
    "bundled_suites/N16-one":
        "094c7f79eb5157b2615c00576c59782928ce3fccbc8e453438cdfe8f37d11dd9",
    "bundled_suites/N32-one":
        "0abb81e1cbe2df8544b375801639f2f0485faad8621e0a6d5133e8a02960b689",
    "bundled_suites/N64-one":
        "e25d389a28242b6fe089a8d0ad7aaad989dc8745fa3348aecffbc3532f27ab37",
    "bundled_suites/N8-nico":
        "34a953f9d625df8ae2fff51b7a561418add5236789232f4c2ab0c4379a23fb86",
    "bundled_suites/N16-nico":
        "df5fff63dfc05a368aa4c9c53d9de7cefc718deb9ebb7929669b6eed75817355",
    "bundled_suites/N32-nico":
        "1f19a0b425b7550b56021bb69b60550c65512ec7d469bb9caf089b96258ce90a",
    "bundled_suites/N64-nico":
        "9dfad4bae73d90c7da21a5ba1e9e4d3394ac3aeb21937cdda9e6c9d5e234391e",
    "bundled_suites/k10-two":
        "2cd54ca98980b62464ab064dbcaa950d70f5be76941e26f3b2e96a33b39a8c70",
    "bundled_suites/k20-two":
        "b494687de3ee97332750882273daaab8fec5970d9bb68a48f46d5499fc59ecb6",
    "bundled_suites/k40-two":
        "f617013cbb71e9a2e7962bfc2b01c841305ca524c9132d8d1b49e5623a608d80",
    "bundled_suites/k10-one":
        "7ac1f7cc568d5c7192a40f47f6456ee05aa38cb07f6086f96c5f9caf7d1d6617",
    "bundled_suites/k20-one":
        "38edcdb9fc5cf3ad31f44cf582a732b84b852d42a63fd2ba52f9e2a8856ef3cb",
    "bundled_suites/k40-one":
        "80c86da8580dc79f70b7ec6adba47fa38f58a8aab62f4459ce9d7a874847c02a",
    "fd40k/fd40k":
        "621c6bf337610b8a51fa0a30e65e2c14e00af426c82d10474308eab903f9be45",
}


def shipped_scenarios():
    for name in bench.bundled_names():
        cfg = bench.load_bundled(name)
        if "sweep" not in cfg:
            yield name, cfg
            continue
        for entry in cfg["sweep"]:
            merged = bench.merge_config(cfg["base"], entry)
            merged["name"] = entry["name"]
            yield f"{name}/{entry['name']}", merged
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.json"
    for workload, cfgs in json.loads(path.read_text()).items():
        for cfg in cfgs:
            yield f"{workload}/{cfg['name']}", cfg


class TestBundled:
    def test_resolved_forms_pinned(self):
        got = {label: hashlib.sha256(
                   json.dumps(bench.resolve_scenario(cfg)).encode()).hexdigest()
               for label, cfg in shipped_scenarios()}
        assert got == RESOLVED_SHA256

    def test_all_bundled_configs_resolve(self):
        names = bench.bundled_names()
        assert "poisson_unit.json" in names
        for name in names:
            cfg = bench.load_bundled(name)
            if "sweep" in cfg:
                resolved = bench.resolve_suite(cfg)
                for entry in resolved["sweep"]:
                    merged = bench.merge_config(resolved["base"], entry)
                    bench.resolve_scenario(merged)
            else:
                bench.resolve_scenario(cfg)

    def test_poisson_unit_converges_quickly(self):
        cfg = bench.load_bundled("poisson_unit.json")
        rec = bench.run_scenario(cfg)
        assert rec["solve"]["converged"]
        assert rec["solve"]["iterations"] <= 30

    def test_strong_scaling_suite_monotone(self, tmp_path):
        suite = bench.load_bundled("strong_scaling.json")
        result = bench.run_suite(suite, out_root=tmp_path)
        rows = result["rows"]
        assert [r["error"] for r in rows] == [None, None, None]
        iters = [r["iterations"] for r in rows]
        assert iters[0] < iters[1] < iters[2]
        assert all(r["reference"] is not None for r in rows)
