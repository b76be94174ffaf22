"""Oracle tests for the shared linear algebra kernels.

Expected values are frozen: hand computations and closed forms are written
out as literals, and the generalized eigensolver is checked against an
independent whitening oracle built inside the test.
"""

import numpy as np
import pytest

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

    def test_empty_arrays_give_zero_matrix(self):
        A = linalg.csr_from_triplets(2, 3, [], [], [])
        assert A.shape == (2, 3) and A.nnz == 0

    def test_explicit_zeros_compressed(self):
        A = linalg.csr_from_triplets(2, 2, [0, 0, 0], [0, 1, 1], [1.0, 1.0, -1.0])
        assert A.nnz == 1

    def test_column_indices_sorted_within_rows(self):
        A = linalg.csr_from_triplets(1, 4, [0, 0, 0], [3, 1, 2], [1.0, 2.0, 3.0])
        assert np.all(np.diff(A.indices) > 0)


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

    def test_empty_pencil(self):
        empty = np.zeros((0, 0))
        for upper in (None, 1.0):
            values, vectors = linalg.sym_gen_eig(empty, empty, upper=upper)
            assert len(values) == 0 and vectors.shape == (0, 0)
