"""Oracle tests for one-level Schwarz preconditioners.

Dense reference applications are assembled inside the tests directly from
the restriction/weight data, independent of the module under test.
"""

import numpy as np
import pytest

from ddmlab import decompose, discretize, krylov, linalg, schwarz


def poisson_setup(m, parts, delta):
    sys = discretize.poisson_1d(m)
    part = decompose.cartesian_partition(m, parts)
    dec = decompose.expand_overlap(sys.A, part, delta)
    return sys, dec


def dense_apply(A, dec, r, weighted_left, weighted_right):
    """Reference sum over subdomains with optional weight factors."""
    Ad = np.asarray(A.toarray())
    out = np.zeros_like(r, dtype=float)
    for i, s in enumerate(dec.sets):
        Ai = Ad[np.ix_(s, s)]
        d = dec.weights[i]
        loc = r[s]
        if weighted_right:
            loc = d * loc
        loc = np.linalg.solve(Ai, loc)
        if weighted_left:
            loc = d * loc
        out[s] += loc
    return out


def column_loop(prec, V):
    """Oracle: a block apply done one column at a time."""
    return np.column_stack([prec(v) for v in V.T])


def assert_block_matches_columns(prec, V, rtol=1e-14):
    block = prec(V)
    ref = column_loop(prec, V)
    assert block.shape == ref.shape and block.dtype == ref.dtype
    assert np.abs(block - ref).max() <= rtol * np.abs(ref).max()


def fem_graph_setup(cells, N, seed, delta, pu="multiplicity"):
    mesh = discretize.unit_square_mesh(cells, cells)
    sys = discretize.diffusion_fem_2d(mesh, lambda xy: 1.0)
    part = decompose.greedy_graph_partition(sys.A, N, seed=seed)
    dec = decompose.expand_overlap(sys.A, part, delta, coords=sys.coords, h=sys.h)
    if pu == "boolean":
        dec = decompose.boolean_pu(dec)
    return sys, dec


class TestLocalOperators:
    def test_single_subdomain_is_global_matrix(self):
        sys, dec = poisson_setup(6, 1, 0)
        ops = schwarz.build_local_operators(sys.A, dec)
        rhs = np.arange(1.0, 7.0)
        np.testing.assert_allclose(
            ops[0].solve(rhs), np.linalg.solve(sys.A.toarray(), rhs), atol=1e-10
        )

    def test_local_matrices_are_lazy_and_checked_at_the_call(self):
        sys, dec = poisson_setup(7, 2, 1)
        with pytest.raises(ValueError):
            schwarz.local_matrices(sys.A, dec, kind="neumann")
        with pytest.raises(ValueError):
            schwarz.local_matrices(sys.A, dec, kind="robin")
        blocks = schwarz.local_matrices(sys.A, dec)
        assert not isinstance(blocks, list)
        Ad = sys.A.toarray()
        got = list(blocks)
        assert len(got) == dec.N
        for s, B in zip(dec.sets, got):
            np.testing.assert_array_equal(B, Ad[np.ix_(s, s)])

    def test_dirichlet_blocks_are_principal_submatrices(self):
        sys, dec = poisson_setup(5, 2, 1)
        assert [list(s) for s in dec.sets] == [[0, 1, 2, 3], [2, 3, 4]]
        ops = schwarz.build_local_operators(sys.A, dec)
        A1 = sys.A.toarray()[:4, :4]
        e = np.eye(4)
        got = np.column_stack([ops[0].solve(e[:, j]) for j in range(4)])
        np.testing.assert_allclose(got, np.linalg.inv(A1), atol=1e-9)

    def test_robin_zero_parameter_matches_dirichlet(self):
        sys, dec = poisson_setup(7, 2, 1)
        dops = schwarz.build_local_operators(sys.A, dec)
        rops = schwarz.build_local_operators(
            sys.A, dec, kind="robin", p=0.0, h=sys.h, dim=1
        )
        rhs = np.ones(len(dec.sets[0]))
        np.testing.assert_allclose(rops[0].solve(rhs), dops[0].solve(rhs), atol=1e-10)

    def test_robin_diagonal_shift_on_interface_only(self):
        sys, dec = poisson_setup(5, 2, 1)
        p = 3.0
        ops = schwarz.build_local_operators(
            sys.A, dec, kind="robin", p=p, h=sys.h, dim=1
        )
        Ad = sys.A.toarray()
        # Subdomain 0 owns dofs 0..3; only dof 3 touches the outside.
        B0 = Ad[:4, :4].copy()
        B0[3, 3] += p / sys.h
        rhs = np.linspace(1, 2, 4)
        np.testing.assert_allclose(
            ops[0].solve(rhs), np.linalg.solve(B0, rhs), atol=1e-10
        )
        # Subdomain 1 owns dofs 2..4; only dof 2 touches the outside.
        B1 = Ad[2:, 2:].copy()
        B1[0, 0] += p / sys.h
        rhs = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(
            ops[1].solve(rhs), np.linalg.solve(B1, rhs), atol=1e-10
        )

    def test_robin_two_dimensional_scaling_is_unscaled(self):
        sys = discretize.poisson_2d_fd(6, 6)
        part = decompose.cartesian_partition(sys.grid, 2, 1)
        dec = decompose.expand_overlap(sys.A, part, 1)
        p = 5.0
        ops = schwarz.build_local_operators(
            sys.A, dec, kind="robin", p=p, h=sys.h, dim=2
        )
        s = dec.sets[0]
        Ad = sys.A.toarray()
        B = Ad[np.ix_(s, s)].copy()
        outside = np.setdiff1d(np.arange(sys.n), s)
        for li, g in enumerate(s):
            if np.any(Ad[g, outside] != 0):
                B[li, li] += p
        rhs = np.random.default_rng(3).standard_normal(len(s))
        np.testing.assert_allclose(ops[0].solve(rhs), np.linalg.solve(B, rhs), atol=1e-9)


class TestOneLevel:
    def test_single_subdomain_asm_is_exact_inverse(self):
        sys, dec = poisson_setup(8, 1, 0)
        M = schwarz.one_level(sys.A, dec, "asm")
        r = np.sin(np.arange(8.0))
        np.testing.assert_allclose(M.apply(r), np.linalg.solve(sys.A.toarray(), r), atol=1e-10)

    def test_asm_matches_dense_oracle(self):
        sys, dec = poisson_setup(5, 2, 1)
        M = schwarz.one_level(sys.A, dec, "asm")
        for r in [np.eye(5)[:, 3], np.array([1.0, -2.0, 0.5, 4.0, 1.5])]:
            np.testing.assert_allclose(
                M.apply(r), dense_apply(sys.A, dec, r, False, False), atol=1e-10
            )

    def test_ras_matches_dense_oracle(self):
        sys, dec = poisson_setup(9, 3, 2)
        M = schwarz.one_level(sys.A, dec, "ras")
        r = np.cos(np.arange(9.0))
        np.testing.assert_allclose(
            M.apply(r), dense_apply(sys.A, dec, r, True, False), atol=1e-10
        )

    def test_soras_matches_dense_oracle(self):
        sys, dec = poisson_setup(9, 3, 2)
        M = schwarz.one_level(sys.A, dec, "soras", kind="dirichlet")
        r = np.cos(np.arange(9.0))
        np.testing.assert_allclose(
            M.apply(r), dense_apply(sys.A, dec, r, True, True), atol=1e-10
        )

    def test_no_overlap_asm_equals_ras(self):
        sys, dec = poisson_setup(10, 3, 0)
        Ma = schwarz.one_level(sys.A, dec, "asm")
        Mr = schwarz.one_level(sys.A, dec, "ras")
        r = np.random.default_rng(0).standard_normal(10)
        np.testing.assert_allclose(Ma.apply(r), Mr.apply(r), atol=1e-12)

    def test_block_diagonal_matrix_recovered_exactly(self):
        # Two decoupled diagonal blocks, partition aligned with them.
        rows = [0, 1, 2, 3, 4, 5, 0, 1, 1, 2, 3, 4, 4, 5]
        cols = [0, 1, 2, 3, 4, 5, 1, 0, 2, 1, 4, 3, 5, 4]
        vals = [2.0] * 6 + [-1.0] * 8
        A = linalg.csr_from_triplets(6, 6, rows, cols, vals)
        part = decompose.Partition([np.arange(3), np.arange(3, 6)], source="manual")
        dec = decompose.expand_overlap(A, part, 0)
        M = schwarz.one_level(A, dec, "asm")
        r = np.arange(1.0, 7.0)
        np.testing.assert_allclose(M.apply(r), np.linalg.solve(A.toarray(), r), atol=1e-12)

    def test_asm_and_soras_are_symmetric(self):
        sys, dec = poisson_setup(12, 3, 1)
        for variant, kw in [("asm", {}), ("soras", {"p": 2.0})]:
            M = schwarz.one_level(sys.A, dec, variant, h=sys.h, dim=1, **kw)
            dense = np.column_stack([M.apply(np.eye(12)[:, j]) for j in range(12)])
            assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))

    def test_oras_uses_robin_blocks_by_default(self):
        sys, dec = poisson_setup(7, 2, 1)
        Mo = schwarz.one_level(sys.A, dec, "oras", h=sys.h, dim=1)
        Mr = schwarz.one_level(sys.A, dec, "ras")
        r = np.ones(7)
        assert np.linalg.norm(Mo.apply(r) - Mr.apply(r)) > 1e-8
        # Same formula once the local blocks coincide.
        Mo0 = schwarz.one_level(sys.A, dec, "oras", p=0.0, h=sys.h, dim=1)
        np.testing.assert_allclose(Mo0.apply(r), Mr.apply(r), atol=1e-10)

    def test_none_variant_is_identity(self):
        sys, dec = poisson_setup(5, 2, 1)
        M = schwarz.one_level(sys.A, dec, "none")
        r = np.arange(5.0)
        np.testing.assert_allclose(M.apply(r), r, atol=0)

    def test_unknown_variant_rejected(self):
        sys, dec = poisson_setup(5, 2, 1)
        with pytest.raises(ValueError):
            schwarz.one_level(sys.A, dec, "msm")


class TestBlockApply:
    """An (n, k) block goes through the vector path, column by column."""

    @pytest.mark.parametrize("pu", ["multiplicity", "boolean"])
    @pytest.mark.parametrize("variant", schwarz.VARIANTS)
    def test_fem_graph_partition_matches_column_loop(self, variant, pu):
        sys, dec = fem_graph_setup(10, 5, 3, 1, pu=pu)
        M = schwarz.one_level(sys.A, dec, variant, h=sys.h, dim=2)
        n = sys.A.shape[0]
        rng = np.random.default_rng(4)
        assert_block_matches_columns(M.apply, rng.standard_normal((n, 7)))
        assert_block_matches_columns(M.apply, np.eye(n))

    @pytest.mark.parametrize("p", [None, 3.0 - 2.0j])
    @pytest.mark.parametrize("variant", ["oras", "soras"])
    def test_complex_helmholtz_matches_column_loop(self, variant, p):
        grid = discretize.StructuredGrid(2, nx=9, ny=9)
        sys = discretize.helmholtz_2d(grid, omega=7.0, boundary="impedance")
        part = decompose.greedy_graph_partition(sys.A, 4, seed=0)
        dec = decompose.expand_overlap(sys.A, part, 1)
        M = schwarz.one_level(sys.A, dec, variant, p=p, h=sys.h, dim=2)
        n = sys.A.shape[0]
        rng = np.random.default_rng(5)
        V = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
        assert_block_matches_columns(M.apply, V)
        assert_block_matches_columns(M.apply, np.eye(n))
        assert M.apply(np.eye(n)).dtype.kind == "c"

    @pytest.mark.parametrize("variant", schwarz.VARIANTS)
    def test_bad_shapes_rejected(self, variant):
        sys, dec = poisson_setup(9, 3, 1)
        M = schwarz.one_level(sys.A, dec, variant, h=sys.h, dim=1)
        for shape in [(8,), (10,), (8, 2), (10, 2), (9, 2, 2), ()]:
            with pytest.raises(ValueError):
                M.apply(np.ones(shape))


class TestRichardson:
    def test_exact_preconditioner_single_step(self):
        sys = discretize.poisson_1d(10)
        F = linalg.dense_cholesky_factor(sys.A.toarray())
        x, rep = schwarz.richardson(sys.A, sys.F, F)
        assert rep.converged and rep.iterations == 1
        np.testing.assert_allclose(sys.A @ x, sys.F, atol=1e-9)

    def test_divergence_flag(self):
        sys = discretize.poisson_1d(8)
        F = linalg.dense_cholesky_factor(sys.A.toarray())
        M = lambda r: -40.0 * F.solve(r)
        x, rep = schwarz.richardson(sys.A, sys.F, M, maxit=500)
        assert rep.diverged and not rep.converged

    def test_jacobi_rate_matches_spectral_radius(self):
        sys = discretize.poisson_1d(10)
        d = sys.A.diagonal()
        M = lambda r: r / d
        x, rep = schwarz.richardson(sys.A, sys.F, M, tol=1e-10, maxit=2000)
        assert rep.converged
        h = rep.residual_history
        rho = np.cos(np.pi / 11)
        tail = h[-6:-1]
        ratios = h[-5:] / tail
        np.testing.assert_allclose(ratios, rho, rtol=0.02)

    def test_block_jacobi_equivalence(self):
        sys = discretize.poisson_2d_fd(6, 6)
        part = decompose.cartesian_partition(sys.grid, 2, 2)
        dec = decompose.expand_overlap(sys.A, part, 0)
        M = schwarz.one_level(sys.A, dec, "asm")
        x0 = np.zeros(sys.n)
        Ad = sys.A.toarray()
        x1_hand = np.zeros(sys.n)
        for s in dec.sets:
            x1_hand[s] = np.linalg.solve(Ad[np.ix_(s, s)], sys.F[s])
        x1 = x0 + M.apply(sys.F - sys.A @ x0)
        np.testing.assert_allclose(x1, x1_hand, atol=1e-11)


class TestAlternating1d:
    def test_monotone_convergence(self):
        hist = schwarz.alternating_schwarz_1d(20, 10, 200)
        gs = hist["gauss_seidel"]
        assert len(gs) == 201
        assert all(gs[k + 1] <= gs[k] + 1e-15 for k in range(200))
        assert gs[-1] <= 1e-10

    def test_jacobi_no_faster_than_gauss_seidel(self):
        hist = schwarz.alternating_schwarz_1d(20, 10, 80)
        gs, ja = hist["gauss_seidel"], hist["jacobi"]
        assert all(ja[k] >= gs[k] - 1e-14 for k in range(len(gs)))
        assert ja[-1] > gs[-1]

    def test_degenerate_split(self):
        hist = schwarz.alternating_schwarz_1d(12, 11, 60)
        assert hist["gauss_seidel"][-1] <= 1e-10

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            schwarz.alternating_schwarz_1d(10, 0, 5)
        with pytest.raises(ValueError):
            schwarz.alternating_schwarz_1d(10, 10, 5)
