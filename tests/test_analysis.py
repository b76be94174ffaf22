"""Oracle tests for the spectral analysis toolkit.

Frozen references: exact eigenvalues of the preconditioned 1D Laplacian
under Jacobi, dense eigensolves done directly in the tests, and the
closed-form condition bound value 96 for k0 = 2, tau = 0.5.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from ddmlab import analysis, coarse, decompose, discretize, krylov, linalg, schwarz


def poisson_setup(m, parts, delta):
    sys = discretize.poisson_1d(m)
    part = decompose.cartesian_partition(m, parts)
    dec = decompose.expand_overlap(sys.A, part, delta)
    return sys, dec


def fem_setup(cells, parts_x, parts_y, delta, alpha=None):
    mesh = discretize.unit_square_mesh(cells, cells)
    if alpha is None:
        alpha = lambda xy: 1.0
    sys = discretize.diffusion_fem_2d(mesh, alpha)
    xy = sys.coords
    labels = np.minimum((xy[:, 0] * parts_x).astype(int), parts_x - 1)
    labels += parts_x * np.minimum((xy[:, 1] * parts_y).astype(int), parts_y - 1)
    dec = decompose.expand_overlap(sys.A, labels, delta, coords=xy, h=sys.h)
    return sys, dec


def dense_preconditioned(A, M):
    """Reference M^-1 A assembled column by column."""
    n = A.shape[0]
    prec = krylov.as_preconditioner(M)
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A)
    cols = [prec(Ad[:, j]) for j in range(n)]
    return np.column_stack(cols)


class TestPreconditionedSpectrum:
    def test_exact_preconditioner_gives_ones(self):
        sys = discretize.poisson_1d(12)
        M = linalg.dense_cholesky_factor(sys.A.toarray())
        rep = analysis.preconditioned_spectrum(sys.A, M)
        assert rep.path == "spd"
        np.testing.assert_allclose(rep.eigenvalues, np.ones(12), atol=1e-9)
        assert abs(rep.kappa - 1.0) <= 1e-9
        assert rep.kappa >= 1.0

    def test_single_subdomain_asm_gives_ones(self):
        sys, dec = poisson_setup(9, 1, 0)
        M = schwarz.one_level(sys.A, dec, "asm")
        rep = analysis.preconditioned_spectrum(sys.A, M)
        np.testing.assert_allclose(rep.eigenvalues, np.ones(9), atol=1e-9)

    def test_identity_preconditioner_matches_matrix_spectrum(self):
        sys = discretize.poisson_1d(15)
        rep = analysis.preconditioned_spectrum(sys.A, None)
        k = np.arange(1, 16)
        exact = np.sort(2.0 - 2.0 * np.cos(np.pi * k / 16)) / sys.h ** 2
        np.testing.assert_allclose(rep.eigenvalues, exact, rtol=1e-12)

    def test_two_subdomain_asm_bounds(self):
        sys, dec = poisson_setup(10, 2, 1)
        M = schwarz.one_level(sys.A, dec, "asm")
        rep = analysis.preconditioned_spectrum(sys.A, M)
        assert rep.path == "spd"
        assert rep.eigenvalues.dtype.kind == "f"
        assert rep.lambda_min > 0
        assert rep.lambda_max <= 2.0 + 1e-8
        assert rep.kappa >= 1.0

    def test_matches_dense_oracle_symmetric(self):
        sys, dec = poisson_setup(15, 3, 1)
        M = schwarz.one_level(sys.A, dec, "asm")
        rep = analysis.preconditioned_spectrum(sys.A, M)
        ref = np.sort(np.linalg.eigvals(dense_preconditioned(sys.A, M)).real)
        np.testing.assert_allclose(rep.eigenvalues, ref, atol=1e-8)

    def test_matches_dense_oracle_nonsymmetric(self):
        sys, dec = poisson_setup(15, 3, 1)
        M = schwarz.one_level(sys.A, dec, "ras")
        rep = analysis.preconditioned_spectrum(sys.A, M)
        assert rep.path == "general"
        assert rep.kappa is None
        ref = np.sort_complex(np.linalg.eigvals(dense_preconditioned(sys.A, M)))
        np.testing.assert_allclose(rep.eigenvalues, ref, atol=1e-8)
        # sorted by real part
        assert np.all(np.diff(rep.eigenvalues.real) >= -1e-12)

    def test_complex_system_takes_general_path(self):
        grid = discretize.StructuredGrid(2, nx=8, ny=8)
        sys = discretize.helmholtz_2d(grid, omega=6.0, xi=36.0, boundary="impedance")
        n = sys.A.shape[0]
        dec = decompose.expand_overlap(sys.A, np.repeat([0, 1], [n // 2, n - n // 2]), 1)
        M = schwarz.one_level(sys.A, dec, "oras", h=sys.h, dim=2)
        rep = analysis.preconditioned_spectrum(sys.A, M)
        assert rep.path == "general"
        assert rep.kappa is None
        assert rep.eigenvalues.dtype.kind == "c"

    def test_size_guard(self):
        sys = discretize.poisson_1d(2001)
        with pytest.raises(ValueError):
            analysis.preconditioned_spectrum(sys.A, None)

    def test_report_round_trip(self):
        sys, dec = poisson_setup(8, 2, 1)
        M = schwarz.one_level(sys.A, dec, "asm")
        rep = analysis.preconditioned_spectrum(sys.A, M)
        rep.records.append(analysis.coloring_bound_check(rep, dec.n_colors))
        d = rep.to_dict()
        assert d["path"] == "spd"
        assert len(d["eigenvalues"]) == 8
        assert d["records"][0]["name"] == "coloring"
        assert isinstance(d["records"][0]["satisfied"], bool)


# grids whose dof count is below the panel width, a multiple of it, and
# a multiple plus one (a last panel of one column)
PANEL_GRIDS = {"below": (8, 7), "multiple": (16, 8), "multiple_plus_one": (43, 3)}
PANEL_KINDS = ("asm", "ras", "soras", "oras-complex",
               *(f"two-level-{c}" for c in coarse.COMBINATORS))


def panel_preconditioner(kind, sys, dec):
    """The preconditioner named by ``kind`` and its one-level part."""
    if kind == "oras-complex":
        M1 = schwarz.one_level(sys.A, dec, "oras", p=10j, h=sys.h, dim=2)
        return M1, M1
    if kind.startswith("two-level-"):
        M1 = schwarz.one_level(sys.A, dec, "asm")
        cs = coarse.nicolaides_space(sys.A, dec)
        return coarse.TwoLevelPreconditioner(
            M1, cs.apply_Q, sys.A,
            combinator=kind.removeprefix("two-level-")), M1
    M1 = schwarz.one_level(sys.A, dec, kind, h=sys.h, dim=2)
    return M1, M1


class TestPanelFill:
    @pytest.mark.parametrize("size", PANEL_GRIDS)
    @pytest.mark.parametrize("kind", PANEL_KINDS)
    def test_equals_one_block_apply_of_identity(self, kind, size):
        sys = discretize.poisson_2d_fd(*PANEL_GRIDS[size])
        n = sys.A.shape[0]
        panel = analysis._PANEL
        assert {"below": n < panel, "multiple": n % panel == 0,
                "multiple_plus_one": n % panel == 1}[size]
        # a cartesian split repeats local blocks, so the solves go through
        # the grouped copies of SparseFactorization.solve
        dec = decompose.expand_overlap(
            sys.A, decompose.cartesian_partition(sys.grid, 4, 1), 1)
        M, M1 = panel_preconditioner(kind, sys, dec)
        assert M1.factor.distinct_blocks < dec.N

        whole = np.asarray(krylov.as_preconditioner(M)(np.eye(n)))
        panels = analysis._apply_inverse(M, n, sys.A.dtype)
        assert panels.dtype == whole.dtype
        assert np.array_equal(panels, whole)


class TestOracleMemory:
    @pytest.mark.parametrize("combinator,path", [("ad", "spd"), ("adef1", "general")])
    def test_peak_stays_within_four_dense_arrays(self, combinator, path):
        # the oracle needs three dense n x n arrays at once: M^-1, A or its
        # Cholesky factor, and their product; the bound leaves room for one more
        sys, dec = fem_setup(32, 4, 2, 2)
        n = sys.A.shape[0]
        M = coarse.TwoLevelPreconditioner(
            schwarz.one_level(sys.A, dec, "asm"), coarse.geneo_space(sys, dec).apply_Q,
            sys.A, combinator=combinator)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rep = analysis.preconditioned_spectrum(sys.A, M)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert n == 961 and rep.path == path
        assert peak <= 4 * n * n * np.dtype(np.float64).itemsize


class TestColoringBound:
    def test_decoupled_blocks_hit_one(self):
        blocks = [discretize.poisson_1d(4).A for _ in range(3)]
        A = sp.block_diag(blocks, format="csr")
        dec = decompose.expand_overlap(A, np.repeat([0, 1, 2], 4), 0)
        M = schwarz.one_level(A, dec, "asm")
        rec = analysis.coloring_bound_check(
            analysis.preconditioned_spectrum(A, M), dec.n_colors)
        assert rec.name == "coloring"
        assert dec.n_colors == 1
        assert abs(rec.measured - 1.0) <= 1e-8
        assert rec.satisfied
        assert rec.bound == dec.n_colors

    def test_coupled_blocks_without_overlap(self):
        sys, dec = poisson_setup(12, 3, 0)
        M = schwarz.one_level(sys.A, dec, "asm")
        rec = analysis.coloring_bound_check(
            analysis.preconditioned_spectrum(sys.A, M), dec.n_colors)
        # no overlap, but neighbors still couple through A
        assert rec.bound == dec.n_colors == 2
        assert rec.satisfied

    def test_chain_of_eight(self):
        sys, dec = poisson_setup(33, 8, 1)
        M = schwarz.one_level(sys.A, dec, "asm")
        rec = analysis.coloring_bound_check(
            analysis.preconditioned_spectrum(sys.A, M), dec.n_colors)
        assert dec.n_colors <= 3
        assert rec.satisfied

    def test_grid_three_by_three(self):
        sys = discretize.poisson_2d_fd(11, 11)
        part = decompose.cartesian_partition(sys.grid, 3, 3)
        dec = decompose.expand_overlap(sys.A, part, 1)
        M = schwarz.one_level(sys.A, dec, "asm")
        rec = analysis.coloring_bound_check(
            analysis.preconditioned_spectrum(sys.A, M), dec.n_colors)
        assert rec.satisfied

    def test_closed_form_value(self):
        rep = analysis.SpectrumReport(
            eigenvalues=np.array([0.5, 3.0]), path="spd",
            lambda_min=0.5, lambda_max=3.0, kappa=6.0)
        rec = analysis.coloring_bound_check(rep, 3)
        assert (rec.bound, rec.measured, rec.satisfied) == (3.0, 3.0, True)
        assert rec.details == {"n_colors": 3}
        assert not analysis.coloring_bound_check(rep, 2).satisfied


class TestFslConstants:
    def test_single_subdomain_is_exactly_one(self):
        sys, dec = fem_setup(4, 1, 1, 0)
        B = schwarz.local_operator(sys.A, dec)
        tau1, gamma1, mc, nc = analysis.fsl_constants(sys, dec, B)
        assert abs(tau1 - 1.0) <= 1e-8
        assert abs(gamma1 - 1.0) <= 1e-8
        assert mc == 1 and nc == 1

    def test_two_subdomain_bounds(self):
        sys, dec = fem_setup(8, 2, 1, 2)
        B = schwarz.local_operator(sys.A, dec, kind="robin", h=sys.h, dim=2)
        tau1, gamma1, mc, nc = analysis.fsl_constants(sys, dec, B)
        assert tau1 > 0 and gamma1 > 0

        asm = analysis.preconditioned_spectrum(
            sys.A, schwarz.one_level(sys.A, dec, "asm"))
        low = analysis.fsl_lower_bound_check(asm, tau1, mc)
        assert low.satisfied
        assert asm.lambda_min >= tau1 / mc - 1e-8

        soras = analysis.preconditioned_spectrum(
            sys.A, schwarz.one_level(sys.A, dec, "soras", h=sys.h, dim=2))
        up = analysis.fsl_upper_bound_check(soras, gamma1, nc)
        assert up.satisfied
        assert soras.lambda_max <= nc * gamma1 + 1e-8


    def test_counts_must_match_subdomains(self):
        # the stacked operator must have one row per stacked local dof
        sys, dec = fem_setup(8, 2, 2, 1)
        B = schwarz.local_operator(sys.A, dec)
        n = dec.offsets[-1]
        for bad in (B[:-1, :-1], sp.block_diag((B, [[1.0]]), format="csr")):
            order = bad.shape[0]
            with pytest.raises(ValueError, match=f"has order {order}, but the "
                                                 f"decomposition stacks {n} local dofs"):
                analysis.fsl_constants(sys, dec, bad)


class TestGeneoBound:
    def test_closed_form_value(self):
        rep = analysis.SpectrumReport(
            eigenvalues=np.array([1.0, 50.0]), path="spd",
            lambda_min=1.0, lambda_max=50.0, kappa=50.0)
        rec = analysis.geneo_bound_check(rep, k0=2, tau=0.5)
        assert rec.bound == 96.0
        assert rec.satisfied

        rep.kappa = 100.0
        rec = analysis.geneo_bound_check(rep, k0=2, tau=0.5)
        assert not rec.satisfied

    def test_holds_on_floating_layout(self):
        sys, dec = fem_setup(9, 3, 3, 1)
        cs = coarse.geneo_space(sys, dec, tau="auto")
        M1 = schwarz.one_level(sys.A, dec, "asm")
        M = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator="ad")
        rep = analysis.preconditioned_spectrum(sys.A, M)
        rec = analysis.geneo_bound_check(rep, k0=dec.max_multiplicity, tau=cs.tau)
        assert rep.kappa is not None and np.isfinite(rep.kappa)
        assert rec.satisfied


class TestPcgEnvelope:
    def test_jacobi_run_respects_envelope(self):
        sys = discretize.poisson_1d(40)
        d = sys.A.diagonal()
        M = lambda r: (r.T / d).T  # scales rows of a block too
        x_star = np.linalg.solve(sys.A.toarray(), sys.F)
        x, rep = krylov.pcg(sys.A, sys.F, M, tol=1e-10, maxit=200, x_star=x_star)
        assert rep.converged
        spec = analysis.preconditioned_spectrum(sys.A, M)
        rec = analysis.pcg_bound_envelope(rep, spec.kappa)
        assert rec.satisfied

    def test_plain_cg_with_matrix_condition(self):
        sys = discretize.poisson_2d_fd(8, 8)
        x_star = np.linalg.solve(sys.A.toarray(), sys.F)
        x, rep = krylov.cg(sys.A, sys.F, tol=1e-10, maxit=200, x_star=x_star)
        spec = analysis.preconditioned_spectrum(sys.A, None)
        rec = analysis.pcg_bound_envelope(rep, spec.kappa)
        assert rec.satisfied

    def test_synthetic_violation_detected(self):
        rep = krylov.SolveReport(
            method="pcg", residual_history=[1.0, 1.0], rtol=1e-6, bnorm=1.0,
            converged=False, energy_errors=[1.0, 1.0])
        rec = analysis.pcg_bound_envelope(rep, kappa=1.000001)
        assert not rec.satisfied

    def test_requires_energy_errors(self):
        rep = krylov.SolveReport(
            method="cg", residual_history=[1.0, 0.1], rtol=1e-6, bnorm=1.0,
            converged=True)
        with pytest.raises(ValueError):
            analysis.pcg_bound_envelope(rep, kappa=10.0)


class TestRichardson:
    def test_jacobi_radius_closed_form(self):
        m = 10
        sys = discretize.poisson_1d(m)
        d = sys.A.diagonal()
        M = lambda r: (r.T / d).T  # scales rows of a block too
        rho = analysis.richardson_spectral_radius(sys.A, M)
        assert abs(rho - np.cos(np.pi / (m + 1))) <= 1e-12

    def test_radius_below_one_iteration_converges(self):
        sys = discretize.poisson_1d(5)
        d = sys.A.diagonal()
        M = lambda r: (r.T / d).T  # scales rows of a block too
        rho = analysis.richardson_spectral_radius(sys.A, M)
        assert rho < 0.95
        x, rep = schwarz.richardson(sys.A, sys.F, M, tol=1e-8, maxit=2000)
        assert rep.converged

    def test_radius_above_one_iteration_diverges(self):
        sys = discretize.poisson_1d(10)
        d = sys.A.diagonal()
        M = lambda r: -0.5 * (r.T / d).T
        rho = analysis.richardson_spectral_radius(sys.A, M)
        assert rho > 1.05
        x, rep = schwarz.richardson(sys.A, sys.F, M, tol=1e-8, maxit=2000)
        assert not rep.converged
        assert rep.diverged

    def test_in_place_iteration_matrix_matches_identity_minus_product(self):
        sys, dec = poisson_setup(40, 4, 1)
        M = schwarz.one_level(sys.A, dec, "ras")
        Minv = analysis._apply_inverse(M, 40, sys.A.dtype)
        T = np.eye(40) - Minv @ sys.A.toarray()
        rho = analysis.richardson_spectral_radius(sys.A, M)
        assert rho == float(np.abs(np.linalg.eigvals(T)).max())


class TestDeflation:
    def test_adef1_has_unit_eigenvalue_per_coarse_dof(self):
        sys, dec = poisson_setup(30, 5, 1)
        cs = coarse.nicolaides_space(sys.A, dec)
        M1 = schwarz.one_level(sys.A, dec, "asm")
        M = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator="adef1")
        rep = analysis.preconditioned_spectrum(sys.A, M)
        n_unit = int(np.sum(np.abs(rep.eigenvalues - 1.0) <= 1e-8))
        assert n_unit >= cs.m0
