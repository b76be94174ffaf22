"""Shared dense and sparse linear algebra kernels.

Sparse matrices are ``scipy.sparse.csr_array`` instances in canonical form
(sorted column indices, summed duplicates, no explicit zeros). This module
owns their construction: assemblers hand ``csr_from_triplets`` coordinate
arrays ``(rows, cols, vals)`` and get canonical CSR back, so no caller
builds CSR index arrays itself.
Dense factorizations and the generalized symmetric eigensolver wrap
LAPACK through scipy. The eigensolver takes a positive definite
right-hand side, certified by its Cholesky factorization, and can compute
only the eigenpairs up to a threshold. A semidefinite right-hand side is
the caller's to split: the spectral coarse space restricts its pencils to
the dofs of nonzero partition-of-unity weight, where they are definite.

Real and complex double precision are both supported; real inputs never
produce complex output.
"""

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "SingularMatrixError",
    "Factorization",
    "csr_from_triplets",
    "compress",
    "dense_lu_factor",
    "dense_cholesky_factor",
    "auto_factor",
    "sym_gen_eig",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a factorization meets a pivot below the singularity tolerance."""


class Factorization:
    """Opaque handle for a dense LU or Cholesky factorization."""

    def __init__(self, kind, data, n, dtype):
        self.kind = kind
        self._data = data
        self.n = n
        self.dtype = dtype

    def solve(self, b):
        """Solve ``A x = b`` for a vector or an (n, k) block of right-hand sides."""
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise ValueError(
                f"right-hand side length {b.shape[0]} does not match order {self.n}")
        _require_finite(b, "right-hand side")
        if self.kind == "lu":
            return scipy.linalg.lu_solve(self._data, b, check_finite=False)
        return scipy.linalg.cho_solve(self._data, b, check_finite=False)


def _require_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} contains NaN or Inf")


def _require_hermitian(A, what, tol=1e-12):
    gap = np.linalg.norm(A - A.conj().T, "fro")
    if gap > tol * max(np.linalg.norm(A, "fro"), 1e-300):
        raise ValueError(f"{what} is not Hermitian (asymmetry {gap:.3e})")


def csr_from_triplets(nrows, ncols, rows, cols, vals):
    """Build a canonical CSR matrix from coordinate (COO) arrays.

    Entry ``k`` is ``(rows[k], cols[k], vals[k])``. Duplicate entries are
    summed, column indices are sorted within each row, and entries that
    cancel to exact zero are dropped.

    Parameters
    ----------
    nrows, ncols : int
        Matrix dimensions.
    rows, cols : array_like of int, shape (nnz,)
        Entry indices; they must lie in range.
    vals : array_like, shape (nnz,)
        Entry values; they must be finite.

    Returns
    -------
    scipy.sparse.csr_array
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals)
    if rows.size and (rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols):
        raise ValueError("triplet index out of range")
    _require_finite(vals, "triplet values")
    A = sp.coo_array((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
    return compress(A)


def compress(A):
    """Return ``A`` as canonical CSR: sorted indices, summed duplicates, no stored zeros."""
    A = sp.csr_array(A)
    A.sum_duplicates()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def dense_lu_factor(A):
    """LU-factorize a square dense matrix with partial pivoting.

    Raises
    ------
    SingularMatrixError
        If a pivot falls below 1e-14 times the Frobenius norm of ``A``.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("dense_lu_factor expects a square matrix")
    _require_finite(A, "matrix")
    with warnings.catch_warnings():
        # exact singularity is detected below and raised as SingularMatrixError
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if A.shape[0] and pivots.min() <= 1e-14 * np.linalg.norm(A, "fro"):
        raise SingularMatrixError("singular pivot in LU factorization")
    return Factorization("lu", (lu, piv), A.shape[0], A.dtype)


def dense_cholesky_factor(A):
    """Cholesky-factorize a Hermitian positive definite dense matrix.

    Positive definiteness is certified by the positivity of the pivots; a
    failure raises :class:`SingularMatrixError`.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("dense_cholesky_factor expects a square matrix")
    _require_finite(A, "matrix")
    _require_hermitian(A, "matrix")
    try:
        c, lower = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc
    if A.shape[0] and np.abs(np.diag(c)).min() ** 2 <= 1e-14 * np.linalg.norm(A, "fro"):
        raise SingularMatrixError("singular pivot in Cholesky factorization")
    return Factorization("cholesky", (c, lower), A.shape[0], A.dtype)


def auto_factor(A):
    """Factorize a dense matrix, preferring Cholesky.

    Falls back to LU when the matrix is not Hermitian positive definite;
    a genuinely singular matrix still raises :class:`SingularMatrixError`.
    """
    try:
        return dense_cholesky_factor(A)
    except (ValueError, SingularMatrixError):
        return dense_lu_factor(A)


def sym_gen_eig(A, B, upper=None):
    """Solve the Hermitian pencil ``A v = lambda B v`` with B positive definite.

    One LAPACK call (``[sy|he]gvx``, or ``[sy|he]gvd`` for the full
    spectrum) factorizes B by Cholesky, reduces the pencil to a standard
    Hermitian problem and solves it. With ``upper`` set, only the
    eigenpairs with ``lambda <= upper`` are computed. Returns
    ``(values, vectors)`` as ``scipy.linalg.eigh`` does: eigenvalues
    ascending, ``values[k]`` paired with the B-orthonormal column
    ``vectors[:, k]``.

    Raises
    ------
    SingularMatrixError
        If LAPACK fails, which on Hermitian input means that its Cholesky
        factorization found B not positive definite (the message says
        which leading minor). A B that is singular only up to rounding can
        pass; its near-kernel then shows up as very large eigenvalues.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("pencil matrices must be square and of equal shape")
    _require_hermitian(A, "left matrix")
    _require_hermitian(B, "right matrix")
    subset = {} if upper is None else {
        "subset_by_value": (-np.inf, float(upper)), "driver": "gvx"}
    try:
        return scipy.linalg.eigh(A, B, check_finite=False, **subset)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"generalized eigensolve failed: {exc}") from exc
