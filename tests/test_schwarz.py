"""Oracle tests for one-level Schwarz preconditioners.

Dense reference applications are assembled inside the tests directly from
the restriction/weight data, independent of the module under test.
"""

import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

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


def local_solve(B, dec, i, rhs):
    """Solve with block i of the stacked operator B through its one factorization.

    The right-hand side is zero outside block i, and so must the solution be.
    """
    a, b = dec.offsets[i], dec.offsets[i + 1]
    y = np.zeros(B.shape[0], dtype=np.result_type(B.dtype, rhs))
    y[a:b] = rhs
    x = linalg.auto_factor(B, blocks=dec.offsets).solve(y)
    assert not np.any(x[:a]) and not np.any(x[b:])
    return x[a:b]


def robin_blocks(A, dec, p, scale):
    """Oracle: dense blocks with ``p[g] * scale`` added where dof g touches the outside."""
    Ad = A.toarray()
    p = np.broadcast_to(np.asarray(p), (A.shape[0],))
    blocks = []
    for s in dec.sets:
        B = Ad[np.ix_(s, s)].astype(np.result_type(Ad, p))
        outside = np.setdiff1d(np.arange(A.shape[0]), s)
        for li, g in enumerate(s):
            if np.any(Ad[g, outside] != 0) or np.any(Ad[outside, g] != 0):
                B[li, li] += p[g] * scale
        blocks.append(B)
    return blocks


def loop_apply(blocks, dec, variant, r):
    """Oracle: the one-level apply as a dense loop over subdomains."""
    if variant == "none":
        return r.copy()
    out = np.zeros(r.shape, dtype=np.result_type(r, *blocks))
    for s, d, B in zip(dec.sets, dec.weights, blocks):
        loc = r[s]
        if variant == "soras":
            loc = (d * loc.T).T
        loc = np.linalg.solve(B, loc)
        if variant in ("ras", "oras", "soras"):
            loc = (d * loc.T).T
        out[s] += loc
    return out


class TestLocalOperators:
    def test_single_subdomain_is_global_matrix(self):
        sys, dec = poisson_setup(6, 1, 0)
        B = schwarz.local_operator(sys.A, dec)
        rhs = np.arange(1.0, 7.0)
        np.testing.assert_allclose(
            local_solve(B, dec, 0, rhs), np.linalg.solve(sys.A.toarray(), rhs),
            atol=1e-10
        )

    def test_local_operator_checks_its_arguments(self):
        sys, dec = poisson_setup(7, 2, 1)
        with pytest.raises(ValueError, match="unknown local operator kind 'neumann'"):
            schwarz.local_operator(sys.A, dec, kind="neumann")
        with pytest.raises(ValueError, match="need the mesh width h and dim"):
            schwarz.local_operator(sys.A, dec, kind="robin")
        with pytest.raises(ValueError, match="need the mesh width h and dim"):
            schwarz.local_operator(sys.A, dec, kind="robin", h=sys.h)

    @pytest.mark.parametrize("p", [np.ones(3), np.ones(37), np.ones((36, 1)), np.ones((6, 6))])
    def test_robin_parameter_of_another_shape_is_named(self, p):
        # it failed inside np.broadcast_to with "operands could not be
        # broadcast together with remapped shapes"
        sys = discretize.poisson_2d_fd(6, 6)
        dec = decompose.expand_overlap(sys.A, decompose.cartesian_partition(sys.grid, 2, 2), 1)
        shape = re.escape(f"robin parameter p has shape {p.shape}")
        with pytest.raises(ValueError, match=f"{shape}.*n_dofs = 36"):
            schwarz.local_operator(sys.A, dec, kind="robin", p=p, h=sys.h, dim=2)
        schwarz.local_operator(sys.A, dec, kind="robin", p=np.ones(36), h=sys.h, dim=2)

    def test_dirichlet_blocks_are_principal_submatrices(self):
        sys, dec = poisson_setup(5, 2, 1)
        assert [list(s) for s in dec.sets] == [[0, 1, 2, 3], [2, 3, 4]]
        B = schwarz.local_operator(sys.A, dec)
        A1 = sys.A.toarray()[:4, :4]
        e = np.eye(4)
        got = np.column_stack([local_solve(B, dec, 0, e[:, j]) for j in range(4)])
        np.testing.assert_allclose(got, np.linalg.inv(A1), atol=1e-9)
        Ad = sys.A.toarray()
        for s, a, b in zip(dec.sets, dec.offsets[:-1], dec.offsets[1:], strict=True):
            np.testing.assert_array_equal(B[a:b, a:b].toarray(), Ad[np.ix_(s, s)])

    def test_non_canonical_matrix_gives_a_canonical_operator(self):
        # every entry split into two exact halves, columns unsorted within a row
        sys = discretize.poisson_2d_fd(6, 6)
        dec = decompose.expand_overlap(sys.A, decompose.cartesian_partition(sys.grid, 2, 2), 1)
        A = sys.A.tocoo()
        order = np.lexsort((-np.tile(A.col, 2), np.tile(A.row, 2)))
        rows, cols = np.tile(A.row, 2)[order], np.tile(A.col, 2)[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=sys.n))])
        split = sp.csr_array((np.tile(A.data / 2, 2)[order], cols, indptr), shape=A.shape)
        assert not split.has_canonical_format
        B, ref = schwarz.local_operator(split, dec), schwarz.local_operator(sys.A, dec)
        assert B.has_canonical_format
        for got, want in ((B.indptr, ref.indptr), (B.indices, ref.indices), (B.data, ref.data)):
            np.testing.assert_array_equal(got, want)

    def test_robin_zero_parameter_matches_dirichlet(self):
        sys, dec = poisson_setup(7, 2, 1)
        D = schwarz.local_operator(sys.A, dec)
        R = schwarz.local_operator(sys.A, dec, kind="robin", p=0.0, h=sys.h, dim=1)
        rhs = np.ones(len(dec.sets[0]))
        np.testing.assert_allclose(local_solve(R, dec, 0, rhs),
                                   local_solve(D, dec, 0, rhs), atol=1e-10)

    def test_robin_diagonal_shift_on_interface_only(self):
        sys, dec = poisson_setup(5, 2, 1)
        p = 3.0
        B = schwarz.local_operator(sys.A, dec, kind="robin", p=p, h=sys.h, dim=1)
        Ad = sys.A.toarray()
        # Subdomain 0 owns dofs 0..3; only dof 3 touches the outside.
        B0 = Ad[:4, :4].copy()
        B0[3, 3] += p / sys.h
        rhs = np.linspace(1, 2, 4)
        np.testing.assert_allclose(
            local_solve(B, dec, 0, rhs), np.linalg.solve(B0, rhs), atol=1e-10
        )
        # Subdomain 1 owns dofs 2..4; only dof 2 touches the outside.
        B1 = Ad[2:, 2:].copy()
        B1[0, 0] += p / sys.h
        rhs = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(
            local_solve(B, dec, 1, rhs), np.linalg.solve(B1, rhs), atol=1e-10
        )

    def test_robin_two_dimensional_scaling_is_unscaled(self):
        sys = discretize.poisson_2d_fd(6, 6)
        part = decompose.cartesian_partition(sys.grid, 2, 1)
        dec = decompose.expand_overlap(sys.A, part, 1)
        p = 5.0
        stacked = schwarz.local_operator(sys.A, dec, kind="robin", p=p, h=sys.h, dim=2)
        s = dec.sets[0]
        Ad = sys.A.toarray()
        B = Ad[np.ix_(s, s)].copy()
        outside = np.setdiff1d(np.arange(sys.n), s)
        for li, g in enumerate(s):
            if np.any(Ad[g, outside] != 0):
                B[li, li] += p
        rhs = np.random.default_rng(3).standard_normal(len(s))
        np.testing.assert_allclose(local_solve(stacked, dec, 0, rhs),
                                   np.linalg.solve(B, rhs), atol=1e-9)

    def test_robin_interface_reads_the_symmetrized_graph(self):
        # lower bidiagonal: row g of A couples g to g - 1 only, so dof 2
        # reaches subdomain 1 only through the column entry A[3, 2]
        n = 6
        A = sp.csr_array(sp.diags([np.full(n, 2.0), np.full(n - 1, -1.0)], [0, -1]))
        dec = decompose.expand_overlap(A, np.repeat([0, 1], 3), 0)
        p, h = 5.0, 0.5
        B = schwarz.local_operator(A, dec, kind="robin", p=p, h=h, dim=1)
        np.testing.assert_array_equal(
            B.diagonal(), [2.0, 2.0, 2.0 + p / h, 2.0 + p / h, 2.0, 2.0])
        for i, ref in enumerate(robin_blocks(A, dec, p, 1.0 / h)):
            a, b = dec.offsets[i], dec.offsets[i + 1]
            np.testing.assert_array_equal(B[a:b, a:b].toarray(), ref)

    @pytest.mark.parametrize("p", [2.5, 3.0 - 2.0j, "per-dof"])
    def test_stacked_operator_holds_the_dense_blocks(self, p):
        sys, dec = fem_graph_setup(8, 5, 2, 2)
        if p == "per-dof":
            p = np.linspace(1.0, 2.0, sys.A.shape[0])
        B = schwarz.local_operator(sys.A, dec, kind="robin", p=p, h=sys.h, dim=2)
        oracle = robin_blocks(sys.A, dec, p, 1.0)
        assert len(oracle) == dec.N
        for i, ref in enumerate(oracle):
            a, b = dec.offsets[i], dec.offsets[i + 1]
            np.testing.assert_array_equal(B[a:b, a:b].toarray(), ref)
            # nothing couples two subdomains
            assert B[a:b].nnz == B[a:b, a:b].nnz


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
        # SORAS weights around Dirichlet blocks: one_level would pick Robin ones
        B = schwarz.local_operator(sys.A, dec)
        M = schwarz.OneLevelPreconditioner(
            "soras", dec, linalg.auto_factor(B, blocks=dec.offsets))
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
        dec = decompose.expand_overlap(A, [0, 0, 0, 1, 1, 1], 0)
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


class TestStackedApply:
    """The apply with the factorization of B against a dense loop over subdomains."""

    @staticmethod
    def assert_matches_loop(A, dec, variant, p, h, dim, r):
        M = schwarz.one_level(A, dec, variant, p=p, h=h, dim=dim)
        if variant in ("oras", "soras"):
            blocks = robin_blocks(A, dec, 1.0 / h if p is None else p, h ** (dim - 2))
        else:
            Ad = A.toarray()
            blocks = [Ad[np.ix_(s, s)] for s in dec.sets]
        got = M.apply(r)
        ref = loop_apply(blocks, dec, variant, r)
        assert got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("pu", ["multiplicity", "boolean"])
    @pytest.mark.parametrize("variant", schwarz.VARIANTS)
    def test_fem_graph_partition(self, variant, pu):
        sys, dec = fem_graph_setup(10, 5, 1, 2, pu=pu)
        r = np.random.default_rng(6).standard_normal((sys.A.shape[0], 3))
        self.assert_matches_loop(sys.A, dec, variant, None, sys.h, 2, r)
        self.assert_matches_loop(sys.A, dec, variant, None, sys.h, 2, r[:, 0])

    @pytest.mark.parametrize("variant", schwarz.VARIANTS)
    def test_one_dimensional_fd(self, variant):
        sys, dec = poisson_setup(40, 5, 2)
        r = np.cos(np.arange(40.0))
        self.assert_matches_loop(sys.A, dec, variant, None, sys.h, 1, r)

    @pytest.mark.parametrize("p", [None, 3.0 - 2.0j])
    @pytest.mark.parametrize("variant", schwarz.VARIANTS)
    def test_helmholtz(self, variant, p):
        grid = discretize.StructuredGrid(2, nx=9, ny=9)
        sys = discretize.helmholtz_2d(grid, omega=7.0, boundary="impedance")
        part = decompose.greedy_graph_partition(sys.A, 4, seed=0)
        dec = decompose.expand_overlap(sys.A, part, 1)
        rng = np.random.default_rng(7)
        r = rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
        p = p if variant in ("oras", "soras") else None
        self.assert_matches_loop(sys.A, dec, variant, p, sys.h, 2, r)

    def test_factor_kind_follows_the_blocks(self):
        sys, dec = fem_graph_setup(10, 5, 1, 2)
        assert schwarz.one_level(sys.A, dec, "asm").factor.kind == "cholesky"
        assert schwarz.one_level(sys.A, dec, "soras", h=sys.h, dim=2).factor.kind == "cholesky"
        M = schwarz.one_level(sys.A, dec, "oras", p=3.0 - 2.0j, h=sys.h, dim=2)
        assert M.factor.kind == "lu" and M.dtype.kind == "c"
        assert M.factor.n == dec.offsets[-1]
        assert schwarz.one_level(sys.A, dec, "none").factor is None

    def test_singular_subdomain_named(self):
        # subdomain 1 holds a pure Neumann block: its local problem is singular
        rows = [0, 1, 2, 3, 4, 5, 0, 1, 1, 2, 3, 4, 4, 5]
        cols = [0, 1, 2, 3, 4, 5, 1, 0, 2, 1, 4, 3, 5, 4]
        vals = [2.0, 2.0, 2.0, 1.0, 2.0, 1.0] + [-1.0] * 8
        A = linalg.csr_from_triplets(6, 6, rows, cols, vals)
        dec = decompose.expand_overlap(A, [0, 0, 0, 1, 1, 1], 0)
        with pytest.raises(linalg.SingularMatrixError, match="subdomain 1") as err:
            schwarz.one_level(A, dec, "asm")
        assert err.value.block == 1


def stacked_oracle(M, B, r):
    """Oracle: the apply through one SuperLU factorization of the whole stacked B.

    A Hermitian B gets the symmetric-mode ordering, as a single stacked
    factorization would; any other B a partial-pivoting LU.
    """
    B = sp.csc_array(B)
    if abs(B - B.conj().T).max() == 0:
        lu = scipy.sparse.linalg.splu(B, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                                      options={"SymmetricMode": True})
    else:
        lu = scipy.sparse.linalg.splu(B)
    dec = M.decomposition
    y = dec.R @ r
    if M.variant == "soras":
        y = (dec.w * y.T).T
    if np.iscomplexobj(y) and B.dtype.kind != "c":
        z = lu.solve(y.real) + 1j * lu.solve(y.imag)
    else:
        z = lu.solve(y)
    if M.variant in ("ras", "oras", "soras"):
        z = (dec.w * z.T).T
    return dec.R.T @ z


class TestSharedFactor:
    """On cartesian splits most local blocks repeat; the apply is unchanged."""

    @staticmethod
    def assert_matches_stacked(A, dec, variant, p, h, r):
        M = schwarz.one_level(A, dec, variant, p=p, h=h, dim=2)
        kind = "robin" if variant in schwarz.ROBIN_VARIANTS else "dirichlet"
        B = schwarz.local_operator(A, dec, kind=kind, p=p, h=h, dim=2)
        assert M.factor.distinct_blocks < dec.N
        for rhs in (r, np.column_stack([r, 2.0 * r])):
            got = M.apply(rhs)
            ref = stacked_oracle(M, B, rhs)
            assert got.dtype == ref.dtype
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("variant, p", [
        ("asm", None), ("ras", None), ("oras", None), ("soras", None),
        ("oras", 3.0 - 2.0j), ("soras", 3.0 - 2.0j)])
    def test_fd_cartesian(self, variant, p):
        sys = discretize.poisson_2d_fd(20, 20)
        part = decompose.cartesian_partition(sys.grid, 4, 4)
        dec = decompose.expand_overlap(sys.A, part, 2)
        r = np.sin(np.arange(sys.A.shape[0]) + 0.5)
        self.assert_matches_stacked(sys.A, dec, variant, p, sys.h, r)

    @pytest.mark.parametrize("variant, p", [("asm", None), ("oras", 20.0j)])
    def test_helmholtz_cartesian(self, variant, p):
        grid = discretize.StructuredGrid(2, nx=31, ny=31)
        sys = discretize.helmholtz_2d(grid, omega=20.0, xi=400.0)
        dec = decompose.expand_overlap(sys.A, decompose.cartesian_partition(grid, 4, 4), 1)
        rng = np.random.default_rng(10)
        r = rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
        self.assert_matches_stacked(sys.A, dec, variant, p, sys.h, r)


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

    @pytest.mark.parametrize("where", ["preconditioner", "matrix"])
    def test_nonfinite_residual_diverges(self, where):
        sys = discretize.poisson_1d(8)
        A, d = sys.A.copy(), sys.A.diagonal()
        M = lambda r: r / d
        if where == "preconditioner":
            M = lambda r: r * np.nan
        else:
            A.data[3] = np.nan
        x, rep = schwarz.richardson(A, sys.F, M, maxit=50)
        assert rep.diverged and not rep.converged
        # the first non-finite residual ends the iteration
        assert rep.iterations == (1 if where == "preconditioner" else 0)
        assert not np.isfinite(rep.residual_history[-1])

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
