"""Shared dense and sparse linear algebra kernels.

Sparse matrices are ``scipy.sparse.csr_array`` instances in canonical form
(sorted column indices, summed duplicates, no explicit zeros). This module
owns their construction: assemblers hand ``csr_from_triplets`` coordinate
arrays ``(rows, cols, vals)`` and get canonical CSR back, so no caller
builds CSR index arrays itself.
Dense factorizations and the generalized symmetric eigensolver wrap
LAPACK through scipy. A sparse matrix is factorized by SuperLU
(``scipy.sparse.linalg.splu``) in one call, also when it is a stack of
independent diagonal blocks; singular pivots are then reported per
block. The eigensolver takes a positive definite
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
import scipy.sparse.linalg

__all__ = [
    "SingularMatrixError",
    "Factorization",
    "SparseFactorization",
    "csr_from_triplets",
    "compress",
    "dense_lu_factor",
    "dense_cholesky_factor",
    "auto_factor",
    "sym_gen_eig",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a factorization meets a pivot below the singularity tolerance.

    ``block`` is the index of the singular diagonal block when the
    factorized matrix was given as a stack of blocks, else None.
    ``column`` is the column of a dense LU's smallest pivot, where
    elimination breaks down, else None.
    """

    def __init__(self, message, block=None, column=None):
        super().__init__(message)
        self.block = block
        self.column = column


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


class SparseFactorization:
    """Opaque handle for a SuperLU factorization ``Pr A Pc = L U``.

    ``kind`` is "cholesky" when the factorization is a symmetric
    ``L D L^H`` with positive pivots (a certificate that ``A`` is
    Hermitian positive definite) and "lu" otherwise; ``nnz`` counts the
    stored entries of L and U.
    """

    def __init__(self, kind, lu, dtype):
        self.kind = kind
        self._lu = lu
        self.n = lu.shape[0]
        self.dtype = dtype
        self.nnz = int(lu.nnz)

    def solve(self, b):
        """Solve ``A x = b`` for a vector or an (n, k) block of right-hand sides."""
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise ValueError(
                f"right-hand side length {b.shape[0]} does not match order {self.n}")
        _require_finite(b, "right-hand side")
        if np.iscomplexobj(b) and self.dtype.kind != "c":
            return self._lu.solve(b.real) + 1j * self._lu.solve(b.imag)
        return self._lu.solve(b)


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
        If a pivot falls below 1e-14 times the Frobenius norm of ``A``;
        its ``column`` is the column of the smallest pivot.
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
        # row pivoting only: pivot k eliminates column k of A
        column = int(np.argmin(pivots))
        raise SingularMatrixError(
            f"singular pivot in LU factorization (column {column})", column=column)
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


def auto_factor(A, blocks=None):
    """Factorize a dense or sparse matrix, preferring Cholesky.

    A dense matrix gets a LAPACK Cholesky factorization and falls back to
    LU when it is not Hermitian positive definite.

    A ``scipy.sparse`` matrix gets one SuperLU factorization
    (:class:`SparseFactorization`). ``blocks`` are the row offsets of
    diagonal blocks that hold every entry of it (default: one block); a
    stack of independent blocks is factorized in the one call. A
    Hermitian matrix is factorized with a symmetric ordering and diagonal
    pivots (``L D L^H``), labelled "cholesky" when the row and column
    permutations agree and every pivot is real and positive. Otherwise,
    and for every non-Hermitian matrix, the factorization is
    partial-pivoting LU, labelled "lu".

    Raises
    ------
    SingularMatrixError
        If a pivot falls to ``1e-14`` times the Frobenius norm of its
        matrix (of its diagonal block, which ``block`` then names) or
        below, or if SuperLU meets an exactly zero pivot.
    """
    if sp.issparse(A):
        return _sparse_factor(A, blocks)
    if blocks is not None:
        raise ValueError("diagonal blocks are only taken with a sparse matrix")
    try:
        return dense_cholesky_factor(A)
    except (ValueError, SingularMatrixError):
        return dense_lu_factor(A)


def _sparse_factor(A, blocks):
    A = sp.csc_array(A)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("auto_factor expects a square matrix")
    _require_finite(A.data, "matrix")
    offsets = np.array([0, n]) if blocks is None else np.asarray(blocks)
    sizes = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != n or np.any(sizes < 0):
        raise ValueError("block offsets must rise from 0 to the matrix order")
    block = np.repeat(np.arange(sizes.size), sizes)
    col = np.repeat(np.arange(n), np.diff(A.indptr))
    if np.any(block[A.indices] != block[col]):
        raise ValueError("matrix has entries outside its diagonal blocks")
    tol = 1e-14 * np.sqrt(np.bincount(block[col], weights=np.abs(A.data) ** 2,
                                      minlength=sizes.size))

    if np.linalg.norm((A - A.conj().T).data) <= 1e-12 * np.linalg.norm(A.data):
        lu = _superlu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options={"SymmetricMode": True})
        if lu is not None and np.array_equal(lu.perm_r, lu.perm_c):
            d = lu.U.diagonal()
            # every pivot positive and, to rounding, real
            if (np.all(np.abs(d.imag) < 1e-12 * d.real)
                    and _small_pivot_block(d, lu.perm_c, block, tol) is None):
                return SparseFactorization("cholesky", lu, A.dtype)
    lu = _superlu(A)
    bad = (_first_singular_block(A, offsets, block, tol) if lu is None
           else _small_pivot_block(lu.U.diagonal(), lu.perm_c, block, tol))
    if bad is not None:
        raise SingularMatrixError(
            f"singular pivot in LU factorization of diagonal block {bad}",
            block=int(bad))
    return SparseFactorization("lu", lu, A.dtype)


def _superlu(A, **options):
    """SuperLU of a csc matrix, or None when it meets an exactly zero pivot."""
    try:
        return scipy.sparse.linalg.splu(A, **options)
    except RuntimeError as exc:  # "Factor is exactly singular", with no position
        if "singular" not in str(exc):
            raise
        return None


def _small_pivot_block(pivots, perm_c, block, tol):
    """First block with a pivot at or below its tolerance, or None.

    Pivot k (the diagonal of U) eliminates column j of A where
    ``perm_c[j] == k``.
    """
    pivot_block = np.empty_like(block)
    pivot_block[perm_c] = block
    small = np.abs(pivots) <= tol[pivot_block]
    return pivot_block[small].min() if small.any() else None


def _first_singular_block(A, offsets, block, tol):
    """Bisect the diagonal blocks for the first one that fails to factorize."""
    lo, hi = 0, len(offsets) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        a, b = offsets[lo], offsets[mid]
        lu = _superlu(A[a:b, a:b])
        if lu is None or _small_pivot_block(lu.U.diagonal(), lu.perm_c,
                                            block[a:b], tol) is not None:
            hi = mid
        else:
            lo = mid
    return lo


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
