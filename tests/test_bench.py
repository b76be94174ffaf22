"""Tests for the scenario runner and its CLI.

Covers config validation (fail-fast on unknown keys), scenario hashing,
run determinism, artifact layout, suite tables with reference rows, and
the bundled configurations.
"""

import copy
import gc
import json

import numpy as np
import pytest

from ddmlab import bench, coarse


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
        assert set(rec["timings"]) == {
            "decomposition", "local_factorization", "coarse_setup",
            "krylov", "matvec", "preconditioner", "coarse_solve",
        }
        assert rec["machine"]["python"]
        assert rec["scenario_hash"] == bench.scenario_hash(rec["scenario"])

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
        # the deflated start and the spectrum's coarse solves lie outside
        # the Krylov call, so they must not reach the coarse_solve bucket
        cfg = tiny_scenario(
            problem={"kind": "poisson_2d_fd", "nx": 20, "ny": 20},
            partition={"kind": "cartesian", "p": [4, 4]},
            schwarz={"variant": "asm"},
            coarse={"kind": "nicolaides"},
            combinator="ad",
            solver={"ksp": "pcg", "x0": "deflated"},
            analysis={"spectrum": True},
        )
        t = bench.run_scenario(cfg)["timings"]
        assert 0.0 < t["coarse_solve"] <= t["preconditioner"] <= t["krylov"]

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
        assert sc["partition"] == {"kind": "cartesian", "p": [4], "seed": 0}
        assert sc["overlap"] == 2
        assert sc["schwarz"]["variant"] == "asm"
        assert sc["coarse"]["kind"] == "nicolaides"
        assert sc["combinator"] == "ad"
        assert sc["solver"]["ksp"] == "pcg"
        assert sc["solver"]["tol"] == 1e-8
        assert sc["solver"]["maxit"] == 150

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


class TestBundled:
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
