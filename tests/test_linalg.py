"""Oracle tests for the shared linear algebra kernels.

Expected values are frozen: hand computations and closed forms are written
out as literals, and the generalized eigensolver is checked against an
independent whitening oracle built inside the test.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from ddmlab import linalg


def tridiag_fd(m):
    # 1D Poisson stencil triplets, h = 1/(m+1), entries (1/h^2)*(-1, 2, -1)
    h = 1.0 / (m + 1)
    i = np.arange(m)
    rows = np.concatenate([i, i[1:], i[:-1]])
    cols = np.concatenate([i, i[1:] - 1, i[:-1] + 1])
    vals = np.concatenate([np.full(m, 2.0 / h**2), np.full(2 * (m - 1), -1.0 / h**2)])
    return linalg.csr_from_triplets(m, m, rows, cols, vals)


class TestCsrFromTriplets:
    def test_duplicates_summed(self):
        A = linalg.csr_from_triplets(2, 2, [0, 0], [0, 0], [1.0, 2.0])
        assert A.nnz == 1
        assert A[0, 0] == 3.0

    def test_fd_tridiagonal_rows(self):
        # h = 1/4: diagonal 2/h^2 = 32, off-diagonal -16
        A = tridiag_fd(3)
        expect = np.array(
            [[32.0, -16.0, 0.0], [-16.0, 32.0, -16.0], [0.0, -16.0, 32.0]]
        )
        np.testing.assert_allclose(A.toarray(), expect)

    def test_single_entry_layout(self):
        A = linalg.csr_from_triplets(2, 3, [1], [2], [5.0])
        np.testing.assert_array_equal(A.indptr, [0, 0, 1])
        np.testing.assert_array_equal(A.indices, [2])
        np.testing.assert_array_equal(A.data, [5.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            linalg.csr_from_triplets(2, 2, [2], [0], [1.0])
        with pytest.raises(ValueError):
            linalg.csr_from_triplets(2, 2, [0], [-1], [1.0])

    def test_non_finite_values_rejected(self):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValueError, match="NaN or Inf"):
                linalg.csr_from_triplets(2, 2, [0, 1], [0, 1], [1.0, bad])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            linalg.csr_from_triplets(2, 2, [0, 1], [0], [1.0, 2.0])

    @pytest.mark.parametrize("rows, cols, dtype", [
        ([0.7, 1.2], [0, 1], "float64"),
        ([True, False], [0, 1], "bool"),
        ([0, 1], [0.0, 1.0], "float64"),
    ])
    def test_non_integer_indices_rejected(self, rows, cols, dtype):
        # truncating 0.7 and 1.2 would give diag(1, 2); True and False would read as 1 and 0
        with pytest.raises(ValueError, match=f"indices must be integers, got dtype {dtype}"):
            linalg.csr_from_triplets(2, 2, rows, cols, [1.0, 2.0])

    def test_empty_arrays_give_zero_matrix(self):
        A = linalg.csr_from_triplets(2, 3, [], [], [])
        assert A.shape == (2, 3) and A.nnz == 0

    def test_explicit_zeros_compressed(self):
        A = linalg.csr_from_triplets(2, 2, [0, 0, 0], [0, 1, 1], [1.0, 1.0, -1.0])
        assert A.nnz == 1

    def test_column_indices_sorted_within_rows(self):
        A = linalg.csr_from_triplets(1, 4, [0, 0, 0], [3, 1, 2], [1.0, 2.0, 3.0])
        assert np.all(np.diff(A.indices) > 0)


class TestCompress:
    @pytest.mark.parametrize("cls", [sp.csr_array, sp.csr_matrix])
    def test_argument_keeps_its_bytes(self, cls):
        # row 0: unsorted columns and a stored zero; row 1: a duplicate
        A = cls((np.array([1.0, 0.0, 2.0, 3.0, 4.0]), np.array([1, 0, 0, 1, 1]),
                 np.array([0, 2, 5])), shape=(2, 2))
        parts = ("data", "indices", "indptr")
        before = [getattr(A, k).tobytes() for k in parts]
        B = linalg.compress(A)
        assert [getattr(A, k).tobytes() for k in parts] == before
        np.testing.assert_array_equal(B.toarray(), [[0.0, 1.0], [2.0, 7.0]])
        np.testing.assert_array_equal(B.indices, [1, 0, 1])
        np.testing.assert_array_equal(B.indptr, [0, 1, 3])

    def test_canonical_matrix_is_not_copied(self):
        A = tridiag_fd(5)
        B = linalg.compress(A)
        for k in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(A, k), getattr(B, k))


class TestFactorizations:
    def test_diagonal_solve(self):
        F = linalg.dense_lu_factor(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(F.solve(np.array([2.0, 3.0])), [1.0, 1.0])

    def test_fd_solve_inverts_spmv(self):
        # hand product of tridiag(-16, 32, -16) with (1, 1, 1)
        A = tridiag_fd(3)
        b = A @ np.ones(3)
        np.testing.assert_allclose(b, 16.0 * np.array([1.0, 0.0, 1.0]))
        F = linalg.dense_cholesky_factor(A.toarray())
        x = F.solve(b)
        np.testing.assert_allclose(x, np.ones(3), atol=1e-12)

    def test_hilbert_residual_bound(self):
        n = 3
        H = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
        b = np.ones(n)
        for F in (linalg.dense_lu_factor(H), linalg.dense_cholesky_factor(H)):
            x = F.solve(b)
            res = np.linalg.norm(H @ x - b)
            assert res <= 1e-10 * (np.linalg.norm(H, "fro") * np.linalg.norm(b) + np.linalg.norm(b))

    def test_singular_rejected(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(linalg.SingularMatrixError):
            linalg.dense_lu_factor(A)

    def test_singular_error_names_the_column(self):
        # column 1 is twice column 0 on the rows that column 2 leaves free
        A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 3.0]])
        with pytest.raises(linalg.SingularMatrixError, match=r"\(column 1\)") as err:
            linalg.dense_lu_factor(A)
        assert err.value.column == 1 and err.value.block is None

    def test_cholesky_rejects_indefinite(self):
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises((linalg.SingularMatrixError, ValueError)):
            linalg.dense_cholesky_factor(A)

    def test_complex_lu(self):
        A = np.array([[2.0, 1j], [-1j, 3.0]])
        F = linalg.dense_lu_factor(A)
        b = np.array([1.0 + 0j, 2.0])
        np.testing.assert_allclose(A @ F.solve(b), b, atol=1e-12)

    def test_roundtrip_random_well_conditioned(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
            A = Q @ np.diag(rng.uniform(1.0, 1e3, 12)) @ Q.T
            b = rng.normal(size=12)
            x = linalg.dense_lu_factor(A).solve(b)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b) * np.linalg.norm(A, "fro")


def laplacian_2d(m):
    """Dense 5-point Laplacian on an m x m grid (unit spacing)."""
    T = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    return np.kron(T, np.eye(m)) + np.kron(np.eye(m), T)


def stacked(blocks):
    """Block-diagonal csc matrix of dense blocks, with its row offsets."""
    offsets = np.concatenate([[0], np.cumsum([len(B) for B in blocks])])
    return sp.csc_array(sp.block_diag(blocks, format="csc")), offsets


def spd_blocks():
    return [laplacian_2d(m) for m in (3, 5, 4, 6)]


def robin_blocks():
    # a complex diagonal term on the last row of each block: complex symmetric
    out = []
    for B in spd_blocks():
        B = B.astype(complex)
        B[-1, -1] += 3.0 - 2.0j
        out.append(B)
    return out


def helmholtz_blocks():
    # -Laplace - k^2 with k^2 inside each block's spectrum: real symmetric indefinite
    return [B - 3.1 * np.eye(len(B)) for B in spd_blocks()]


def hermitian_blocks():
    rng = np.random.default_rng(2)
    out = []
    for B in spd_blocks():
        S = 0.1 * rng.standard_normal(B.shape)
        out.append(B + 1j * (S - S.T))
    return out


class TestSparseFactor:
    """The SuperLU factorization of a block stack against dense LAPACK factors."""

    @pytest.mark.parametrize("blocks, kind", [
        (spd_blocks, "cholesky"), (robin_blocks, "lu"),
        (helmholtz_blocks, "lu"), (hermitian_blocks, "cholesky")])
    def test_matches_dense_factor(self, blocks, kind):
        B, offsets = stacked(blocks())
        F = linalg.auto_factor(B, blocks=offsets)
        oracle = linalg.auto_factor(B.toarray())
        assert isinstance(F, linalg.SparseFactorization)
        assert F.kind == oracle.kind == kind
        assert F.n == B.shape[0] and F.dtype == B.dtype
        assert F.nnz >= B.nnz
        rng = np.random.default_rng(0)
        b = rng.standard_normal(F.n)
        x = F.solve(b)
        assert x.dtype == np.result_type(B.dtype, b)
        ref = oracle.solve(b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_block_right_hand_side(self):
        B, offsets = stacked(spd_blocks())
        F = linalg.auto_factor(B, blocks=offsets)
        V = np.random.default_rng(1).standard_normal((F.n, 5))
        X = F.solve(V)
        assert X.shape == V.shape
        ref = linalg.dense_cholesky_factor(B.toarray()).solve(V)
        assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_complex_right_hand_side_on_real_factor(self):
        B, offsets = stacked(spd_blocks())
        F = linalg.auto_factor(B, blocks=offsets)
        assert F.dtype.kind == "f"
        rng = np.random.default_rng(3)
        for shape in [(F.n,), (F.n, 3)]:
            b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            x = F.solve(b)
            assert x.dtype.kind == "c"
            ref = linalg.dense_cholesky_factor(B.toarray()).solve(b)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_one_block_by_default(self):
        B = sp.csc_array(laplacian_2d(4))
        F = linalg.auto_factor(B)
        assert F.kind == "cholesky"
        b = np.arange(16.0)
        np.testing.assert_allclose(B @ F.solve(b), b, atol=1e-12)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("singular", ["rank one", "neumann"])
    def test_singular_block_named(self, position, singular):
        blocks = spd_blocks()
        m = len(blocks[position])
        if singular == "rank one":
            # SuperLU meets an exactly zero pivot and stops
            blocks[position] = np.ones((m, m))
        else:
            # pure Neumann Laplacian: a pivot at rounding level
            N = laplacian_2d(int(np.sqrt(m)))
            blocks[position] = N - np.diag(N.sum(axis=1)) + 1e-16 * np.eye(m)
        B, offsets = stacked(blocks)
        with pytest.raises(linalg.SingularMatrixError,
                           match=f"block {position}") as err:
            linalg.auto_factor(B, blocks=offsets)
        assert err.value.block == position

    def test_tiny_pivot_named_through_column_permutation(self):
        # sparse blocks in shuffled order: SuperLU's column ordering moves
        # pivots away from their blocks' rows, perm_c maps them back
        rng = np.random.default_rng(4)
        for trial in range(10):
            blocks = []
            for m in (2, 3, 2, 3, 2):
                q = rng.permutation(m * m)
                blocks.append(laplacian_2d(m)[np.ix_(q, q)])
            target = trial % 5
            blocks[target][:, rng.integers(len(blocks[target]))] *= 1e-25
            B, offsets = stacked(blocks)
            with pytest.raises(linalg.SingularMatrixError) as err:
                linalg.auto_factor(B, blocks=offsets)
            assert err.value.block == target

    def test_pivot_rule_is_per_block(self):
        # a well-conditioned block at a tiny scale is not singular, even
        # though its pivots lie far below 1e-14 times the norm of the stack
        blocks = [1e-14 * laplacian_2d(3), laplacian_2d(4)]
        B, offsets = stacked(blocks)
        F = linalg.auto_factor(B, blocks=offsets)
        assert F.kind == "cholesky"
        x = np.random.default_rng(5).standard_normal(F.n)
        np.testing.assert_allclose(F.solve(B @ x), x, rtol=1e-10)

    def test_zero_diagonal_hermitian_block_is_not_cholesky(self):
        # symmetric mode meets a zero diagonal and pivots off it: the
        # pivots (+1, +1) are positive, but the block is indefinite
        B, offsets = stacked([laplacian_2d(3), np.array([[0.0, 1.0], [1.0, 0.0]])])
        F = linalg.auto_factor(B, blocks=offsets)
        assert F.kind == linalg.auto_factor(B.toarray()).kind == "lu"
        b = np.arange(1.0, F.n + 1)
        np.testing.assert_allclose(B @ F.solve(b), b, atol=1e-12)

    def test_exact_zero_pivot_becomes_singular_matrix_error(self):
        B, offsets = stacked([np.ones((2, 2)), 2.0 * np.eye(3)])
        with pytest.raises(linalg.SingularMatrixError) as err:
            linalg.auto_factor(B, blocks=offsets)
        assert err.value.block == 0
        with pytest.raises(linalg.SingularMatrixError):
            linalg.auto_factor(sp.csc_array(np.ones((2, 2))))

    def test_entries_outside_the_blocks_rejected(self):
        B = sp.csc_array(laplacian_2d(3))
        with pytest.raises(ValueError, match="outside"):
            linalg.auto_factor(B, blocks=[0, 4, 9])
        with pytest.raises(ValueError, match="offsets"):
            linalg.auto_factor(B, blocks=[0, 4])
        with pytest.raises(ValueError):
            linalg.auto_factor(laplacian_2d(3), blocks=[0, 9])


def neumann_block(m):
    """Pure Neumann Laplacian on an m x m grid plus 1e-16 I: a pivot at rounding level."""
    N = laplacian_2d(m)
    return N - np.diag(N.sum(axis=1)) + 1e-16 * np.eye(m * m)


class TestRepeatedBlocks:
    """Bitwise-equal diagonal blocks share one factorization."""

    @staticmethod
    def assert_solves_match_dense(F, B):
        oracle = np.linalg.inv(B.toarray())
        rng = np.random.default_rng(8)
        for shape in [(F.n,), (F.n, 4)]:
            real = rng.standard_normal(shape)
            for b in (real, real + 1j * rng.standard_normal(shape)):
                x = F.solve(b)
                ref = oracle @ b
                assert x.shape == b.shape
                assert x.dtype == np.result_type(B.dtype, b)
                assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("blocks, kind", [
        (spd_blocks, "cholesky"), (robin_blocks, "lu"),
        (helmholtz_blocks, "lu"), (hermitian_blocks, "cholesky")])
    def test_copies_at_distant_positions_are_shared(self, blocks, kind):
        a, b, c, _ = blocks()
        B, offsets = stacked([a, b, a, c, a, b, c.copy()])
        F = linalg.auto_factor(B, blocks=offsets)
        assert F.distinct_blocks == 3 and F.kind == kind
        # fill of one copy per class: below that of the whole stack
        assert F.nnz < linalg.auto_factor(B).nnz
        self.assert_solves_match_dense(F, B)

    def test_near_copies_are_not_merged(self):
        L = laplacian_2d(3)
        ulp = L.copy()
        ulp[4, 4] = np.nextafter(ulp[4, 4], np.inf)
        # the same stored values, one entry moved within its column (equal
        # column pointers) or to the next column (equal row indices)
        moved = []
        for i, j in [(0, 2), (1, 2), (1, 0)]:
            M = np.diag([4.0, 4.0, 4.0])
            M[i, j] = 4.0
            moved.append(M)
        # the same stored values [2, 1, 1, 2], in a 2 x 2 and a 3 x 3 block
        small = np.array([[2.0, 1.0], [1.0, 2.0]])
        large = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        for pair, same_data in [((L, ulp), False), ((moved[0], moved[1]), True),
                                ((moved[1], moved[2]), True), ((small, large), True)]:
            B, offsets = stacked([pair[0], pair[1], pair[0]])
            B = sp.csc_array(linalg.compress(B))  # no stored zeros
            a, b, c = offsets[:3]
            assert np.array_equal(B[:, a:b].data, B[:, b:c].data) == same_data
            F = linalg.auto_factor(B, blocks=offsets)
            assert F.distinct_blocks == 2
            self.assert_solves_match_dense(F, B)

    @pytest.mark.parametrize("singular", [lambda m: np.ones((m * m, m * m)),
                                          neumann_block],
                             ids=["rank one", "neumann"])
    def test_repeated_singular_block_named_by_first_copy(self, singular):
        S = singular(2)
        blocks = [laplacian_2d(3), S, laplacian_2d(2), S, laplacian_2d(3)]
        B, offsets = stacked(blocks)
        with pytest.raises(linalg.SingularMatrixError, match="block 1") as err:
            linalg.auto_factor(B, blocks=offsets)
        assert err.value.block == 1

    @pytest.mark.parametrize("single, repeated, first", [(1, (2, 4), 1),
                                                         (3, (1, 4), 1)])
    def test_first_singular_block_across_groups(self, single, repeated, first):
        # a singular class with one copy and another with two copies: the
        # error names the lowest singular block of either
        blocks = [laplacian_2d(2) for _ in range(5)]
        blocks[single] = np.ones((3, 3))
        for i in repeated:
            blocks[i] = neumann_block(2)
        B, offsets = stacked(blocks)
        with pytest.raises(linalg.SingularMatrixError) as err:
            linalg.auto_factor(B, blocks=offsets)
        assert err.value.block == first

    def test_one_uncertified_repeated_class_makes_lu(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        blocks = [laplacian_2d(3), swap, laplacian_2d(2), swap, laplacian_2d(3)]
        B, offsets = stacked(blocks)
        F = linalg.auto_factor(B, blocks=offsets)
        assert F.kind == "lu" and F.distinct_blocks == 3
        self.assert_solves_match_dense(F, B)

    @pytest.mark.parametrize("blocks, hermitian", [
        (spd_blocks, True), (robin_blocks, False), (helmholtz_blocks, True)])
    def test_no_repeats_is_the_stacked_factorization(self, blocks, hermitian):
        B, offsets = stacked(blocks())
        F = linalg.auto_factor(B, blocks=offsets)
        options = (dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                        options={"SymmetricMode": True}) if hermitian else {})
        lu = scipy.sparse.linalg.splu(B, **options)
        if F.kind == "lu" and hermitian:  # certification failed: plain LU
            lu = scipy.sparse.linalg.splu(B)
        assert F.distinct_blocks == len(offsets) - 1 and F.nnz == lu.nnz
        rng = np.random.default_rng(9)
        for shape in [(F.n,), (F.n, 3)]:
            b = rng.standard_normal(shape)
            assert np.array_equal(F.solve(b), lu.solve(b))


def whitening_gen_eig(A, B, null_tol=1e-10):
    """Independent oracle for the pencil ``A v = lambda B v`` on range(B).

    Whitens with an explicit pseudo-inverse square root of B and solves
    the standard problem with full eigendecompositions.
    """
    w, U = np.linalg.eigh(B)
    keep = w > null_tol * w.max()
    S = U[:, keep] / np.sqrt(w[keep])
    C = S.conj().T @ A @ S
    values, Y = np.linalg.eigh((C + C.conj().T) / 2.0)
    return values, S @ Y


class TestSymGenEig:
    def test_identity_mass(self):
        values, vectors = linalg.sym_gen_eig(np.diag([2.0, 3.0]), np.eye(2))
        np.testing.assert_allclose(values, [2.0, 3.0])
        assert vectors.shape == (2, 2)

    def test_semidefinite_mass_splits_kernel(self):
        # A semidefinite B is rejected; the caller splits off its kernel
        # and solves the pencil on range(B), where B is definite.
        with pytest.raises(linalg.SingularMatrixError):
            linalg.sym_gen_eig(np.eye(2), np.diag([1.0, 0.0]))
        with pytest.raises(linalg.SingularMatrixError):
            linalg.sym_gen_eig(np.eye(2), np.ones((2, 2)))
        values, _ = linalg.sym_gen_eig(np.eye(2)[:1, :1], np.diag([1.0, 0.0])[:1, :1])
        np.testing.assert_allclose(values, [1.0])

    def test_matches_sym_eig_for_identity(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(9, 9))
        A = A + A.T
        ref = np.linalg.eigvalsh(A)
        values, _ = linalg.sym_gen_eig(A, np.eye(9))
        np.testing.assert_allclose(values, ref, atol=1e-9 * np.linalg.norm(A, "fro"))

    def test_rank2_mass_against_whitening_oracle(self):
        # B of rank 2 is rejected whole; on an orthonormal basis U of
        # range(B) the definite pencil (U^T A U, U^T B U) has the finite
        # eigenvalues that whitening on range(B) finds.
        rng = np.random.default_rng(11)
        M = rng.normal(size=(4, 4))
        A = M @ M.T + 4.0 * np.eye(4)
        L = rng.normal(size=(4, 2))
        B = L @ L.T
        with pytest.raises(linalg.SingularMatrixError):
            linalg.sym_gen_eig(A, B)

        oracle, _ = whitening_gen_eig(A, B)
        U, _ = np.linalg.qr(L)
        Bu = U.T @ B @ U
        values, vectors = linalg.sym_gen_eig(U.T @ A @ U, (Bu + Bu.T) / 2.0)
        np.testing.assert_allclose(values, oracle, rtol=1e-10)
        # B-orthonormal eigenvectors, lifted back to the full space
        V = U @ vectors
        np.testing.assert_allclose(V.T @ B @ V, np.eye(2), atol=1e-10)

    def test_indefinite_mass_rejected(self):
        with pytest.raises(ValueError):
            linalg.sym_gen_eig(np.eye(2), np.diag([1.0, -1.0]))
        with pytest.raises(linalg.SingularMatrixError):
            linalg.sym_gen_eig(np.eye(2), np.diag([1.0, -1.0]))

    def test_eigvec_residuals(self):
        rng = np.random.default_rng(12)
        M = rng.normal(size=(6, 6))
        A = M @ M.T + np.eye(6)
        N = rng.normal(size=(6, 6))
        B = N @ N.T
        values, vectors = linalg.sym_gen_eig(A, B)
        for k, lam in enumerate(values):
            v = vectors[:, k]
            r = A @ v - lam * (B @ v)
            assert np.linalg.norm(r) <= 1e-8 * (np.linalg.norm(A, "fro") + abs(lam) * np.linalg.norm(B, "fro"))

    def test_eigenvalue_at_upper_is_kept(self):
        A = np.diag([3.0, 1.0, 2.0, 4.0])
        values, vectors = linalg.sym_gen_eig(A, np.eye(4), upper=2.0)
        np.testing.assert_array_equal(values, [1.0, 2.0])
        np.testing.assert_array_equal(np.abs(vectors), np.eye(4)[:, [1, 2]])
        values, vectors = linalg.sym_gen_eig(A, np.eye(4), upper=np.nextafter(1.0, 0.0))
        assert values.shape == (0,) and vectors.shape == (4, 0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_subset_against_whitening_oracle(self, dtype):
        rng = np.random.default_rng(13)
        n = 12

        def random(size):
            X = rng.normal(size=size)
            return X + 1j * rng.normal(size=size) if dtype is complex else X

        M, N = random((n, n)), random((n, n))
        A = M @ M.conj().T
        B = N @ N.conj().T + n * np.eye(n)
        oracle, W = whitening_gen_eig(A, B)
        upper = (oracle[4] + oracle[5]) / 2.0
        values, V = linalg.sym_gen_eig(A, B, upper=upper)
        assert V.dtype == np.result_type(dtype, float)
        np.testing.assert_allclose(values, oracle[:5], rtol=1e-12)
        np.testing.assert_allclose(V.conj().T @ B @ V, np.eye(5), atol=1e-12)
        resid = A @ V - (B @ V) * values
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(A) * np.linalg.norm(V)
        # same B-orthonormal subspace: |<w_k, B v_k>| = 1 for simple eigenvalues
        overlap = np.abs(np.sum(W[:, :5].conj() * (B @ V), axis=0))
        np.testing.assert_allclose(overlap, np.ones(5), atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_finite_input_named(self, bad, side):
        # a NaN on A's diagonal used to select nothing and an Inf in B to
        # return (0, zero vector) with only a RuntimeWarning
        A, B = np.diag([1.0, 2.0, 3.0]), np.eye(3)
        (A if side == "left" else B)[0, 0] = bad
        for upper in (None, 2.5):
            with pytest.raises(ValueError, match=f"{side} matrix contains NaN or Inf"):
                linalg.sym_gen_eig(A, B, upper=upper)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exactly_hermitian_input_skips_the_norms(self, dtype, monkeypatch):
        rng = np.random.default_rng(14)
        M = rng.normal(size=(5, 5)).astype(dtype)
        if dtype is complex:
            M += 1j * rng.normal(size=(5, 5))
        A = M + M.conj().T  # exactly Hermitian, sum by sum
        B = A + 20 * np.eye(5)
        assert np.array_equal(B, B.conj().T)
        ref = linalg.sym_gen_eig(A, B)

        def no_norm(*args, **kwargs):
            raise AssertionError("Frobenius norm taken for an exactly Hermitian matrix")

        monkeypatch.setattr(np.linalg, "norm", no_norm)
        for got, want in zip(linalg.sym_gen_eig(A, B), ref):
            np.testing.assert_array_equal(got, want)

    def test_hermitian_tolerance_unchanged(self):
        # off the fast path the relative Frobenius gap decides, as before
        A = np.diag([1.0, 2.0, 3.0])
        near, far = A.copy(), A.copy()
        near[0, 1] = 1e-13
        far[0, 1] = 1e-6
        values, _ = linalg.sym_gen_eig(near, np.eye(3))
        assert len(values) == 3
        with pytest.raises(ValueError, match="left matrix is not Hermitian"):
            linalg.sym_gen_eig(far, np.eye(3))
        with pytest.raises(ValueError, match="right matrix is not Hermitian"):
            linalg.sym_gen_eig(np.eye(3), far)

    def test_empty_pencil(self):
        empty = np.zeros((0, 0))
        for upper in (None, 1.0):
            values, vectors = linalg.sym_gen_eig(empty, empty, upper=upper)
            assert len(values) == 0 and vectors.shape == (0, 0)
