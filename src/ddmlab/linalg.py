"""Shared dense and sparse linear algebra kernels.

Sparse matrices are ``scipy.sparse.csr_array`` instances in canonical form
(sorted column indices, summed duplicates, no explicit zeros). The
model-problem assemblers hand ``csr_from_triplets`` coordinate arrays
``(rows, cols, vals)`` and get canonical CSR back; the later stages
(overlap, local operators, coarse bases) build theirs from index arrays
they already hold, in the dtype :func:`index_dtype` picks.
Index arrays are int32 when every index and entry count of the matrix fits
in it, else int64 (:func:`index_dtype`); that rule alone picks the dtype,
so the sparse products of the pipeline never mix the two. A key that
combines two indices can pass ``2**31`` when no matrix index does, so it
does not follow the rule: the region-pair keys ``a * N + b`` of
``greedy_graph_partition`` are int64. ``Decomposition.within`` forms no
such key; it maps columns to stacked rows through a table in R's dtype.
Dense factorizations and the generalized symmetric eigensolver wrap
LAPACK through scipy. A sparse matrix is factorized by SuperLU
(``scipy.sparse.linalg.splu``). A stack of independent diagonal blocks
is factorized once per class of bitwise-equal blocks: the classes with
the same number of copies are stacked into one SuperLU call, and a solve
takes each class's copies as the columns of one multi-right-hand-side
solve. Singular pivots are reported per block. The eigensolver takes a
positive definite right-hand side, certified by its Cholesky factorization, and can compute
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
    "index_dtype",
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
    """Opaque handle for the SuperLU factorizations of a stack of diagonal blocks.

    Bitwise-equal blocks share one factorization. The distinct blocks are
    split into groups by their number of copies, and each group's first
    copies are factorized as one stacked matrix ``Pr G Pc = L U``; a
    solve gathers the copies of a group as the columns of one
    multi-right-hand-side solve. ``kind`` is "cholesky" when every group's
    factorization is a symmetric ``L D L^H`` with positive pivots (a
    certificate that ``A`` is Hermitian positive definite) and "lu"
    otherwise; ``nnz`` counts the stored entries of L and U over all
    groups and ``distinct_blocks`` the number of blocks factorized.
    """

    def __init__(self, kind, groups, n, dtype, distinct_blocks):
        self.kind = kind
        self._groups = groups  # (SuperLU, stacked rows of shape (order, copies))
        self.n = n
        self.dtype = dtype
        self.nnz = sum(int(lu.nnz) for lu, _ in groups)
        self.distinct_blocks = distinct_blocks

    def solve(self, b):
        """Solve ``A x = b`` for a vector or an (n, k) block of right-hand sides."""
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise ValueError(
                f"right-hand side length {b.shape[0]} does not match order {self.n}")
        _require_finite(b, "right-hand side")
        x = np.empty(b.shape, dtype=np.result_type(self.dtype, b, np.float64))
        for lu, rows in self._groups:
            # the copies of a group are the columns of one solve
            rhs = b[rows].reshape(rows.shape[0], -1)
            if np.iscomplexobj(rhs) and self.dtype.kind != "c":
                sol = lu.solve(rhs.real) + 1j * lu.solve(rhs.imag)
            else:
                sol = lu.solve(rhs)
            x[rows] = sol.reshape(rows.shape + b.shape[1:])
        return x


def _require_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} contains NaN or Inf")


def _require_hermitian(A, what, tol=1e-12):
    AH = A.conj().T if np.iscomplexobj(A) else A.T
    if np.array_equal(A, AH):
        return  # exactly Hermitian: the gap below would be zero
    gap = np.linalg.norm(A - AH, "fro")
    if gap > tol * max(np.linalg.norm(A, "fro"), 1e-300):
        raise ValueError(f"{what} is not Hermitian (asymmetry {gap:.3e})")


def index_dtype(*extents):
    """Index dtype of a sparse matrix: int32 when every extent fits in it, else int64.

    Pass the matrix's dimensions and its number of stored entries (or a
    bound on it): they bound every index and row pointer.
    """
    return np.int32 if max(extents, default=0) <= np.iinfo(np.int32).max else np.int64


def csr_from_triplets(nrows, ncols, rows, cols, vals):
    """Build a canonical CSR matrix from coordinate (COO) arrays.

    Entry ``k`` is ``(rows[k], cols[k], vals[k])``. Duplicate entries are
    summed, column indices are sorted within each row, and entries that
    cancel to exact zero are dropped. The index arrays take
    :func:`index_dtype` of the shape and the entry count; integer
    triplets of that dtype are used without a copy.

    Parameters
    ----------
    nrows, ncols : int
        Matrix dimensions.
    rows, cols : array_like of int, shape (nnz,)
        Entry indices; they must lie in range. A non-empty float or
        Boolean index array raises ValueError rather than be truncated.
    vals : array_like, shape (nnz,)
        Entry values; they must be finite.

    Returns
    -------
    scipy.sparse.csr_array
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    vals = np.asarray(vals)
    for name, ix in (("row", rows), ("column", cols)):
        if ix.size and not np.issubdtype(ix.dtype, np.integer):
            raise ValueError(f"triplet {name} indices must be integers, got dtype {ix.dtype}")
    if rows.size and (rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols):
        raise ValueError("triplet index out of range")
    _require_finite(vals, "triplet values")
    idx = index_dtype(nrows, ncols, rows.size)
    A = sp.coo_array((vals, (rows.astype(idx, copy=False), cols.astype(idx, copy=False))),
                     shape=(nrows, ncols)).tocsr()
    return _canonicalize(A)


def compress(A):
    """Return ``A`` as canonical CSR: sorted indices, summed duplicates, no stored zeros.

    ``A`` itself is never written. A canonical CSR ``A`` comes back sharing
    its arrays; any other is canonicalized in a copy.
    """
    A = sp.csr_array(A)
    if A.has_canonical_format and np.count_nonzero(A.data) == A.nnz:
        return A
    return _canonicalize(A.copy())


def _canonicalize(A):
    """Bring the CSR matrix ``A`` to canonical form in place; returns ``A``."""
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

    A ``scipy.sparse`` matrix gets SuperLU factorizations
    (:class:`SparseFactorization`). ``blocks`` are the row offsets of
    diagonal blocks that hold every entry of it (default: one block).
    Blocks with the same size and the same stored indices and value bytes
    are copies of one class, factorized once: the classes with the same
    number of copies form a group, and each group's first copies, in
    block order, are stacked into one SuperLU factorization. A stack
    without repeated blocks is therefore factorized in one call, as the
    matrix itself. For a Hermitian matrix each group is factorized with a
    symmetric ordering and diagonal pivots (``L D L^H``), kept when the row
    and column permutations agree and every pivot is real and positive;
    the result is labelled "cholesky" when every group is. A group that
    fails, and every group of a non-Hermitian matrix, gets a
    partial-pivoting LU, and the result is labelled "lu".

    Raises
    ------
    SingularMatrixError
        If a pivot falls to ``1e-14`` times the Frobenius norm of its
        matrix (of its diagonal block, which ``block`` then names) or
        below, or if SuperLU meets an exactly zero pivot. With blocks the
        error names the first singular block, the lowest-index copy of its
        class.
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
    # canonical CSR arrays of A are those of A^T in csc form: a csr input
    # serves as the transpose with no copy
    T = sp.csr_array(A)
    if not T.has_canonical_format:
        T = T.copy()
        T.sum_duplicates()
    n = T.shape[0]
    if T.shape[1] != n:
        raise ValueError("auto_factor expects a square matrix")
    A = T.tocsc()
    _require_finite(A.data, "matrix")
    offsets = np.array([0, n]) if blocks is None else np.asarray(blocks)
    sizes = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != n or np.any(sizes < 0):
        raise ValueError("block offsets must rise from 0 to the matrix order")
    block = np.repeat(np.arange(sizes.size, dtype=A.indices.dtype), sizes)
    # row indices ascend within a column: it stays in its block when its
    # first and last stored entries do
    cols = np.flatnonzero(np.diff(A.indptr))
    for end in (A.indptr[cols], A.indptr[cols + 1] - 1):
        if np.any(block[A.indices[end]] != block[cols]):
            raise ValueError("matrix has entries outside its diagonal blocks")
    del cols
    hermitian = _hermitian_gap(A, T) <= 1e-12 * np.linalg.norm(A.data)
    del T

    kind = "cholesky" if hermitian else "lu"
    groups, singular = [], []
    copy_groups, firsts = _copy_groups(A, offsets)
    # pivot tolerance of the blocks factorized, the first copies: 1e-14
    # times the Frobenius norm, its squares summed in storage order
    starts = A.indptr[offsets]
    tol = np.zeros(sizes.size)
    for k in firsts:
        squares = np.abs(A.data[starts[k]:starts[k + 1]]) ** 2
        tol[k] = 1e-14 * np.sqrt(np.add.accumulate(squares)[-1])
    # the stacked first copies of each group, after which A is no longer
    # needed; a group of every column is A itself
    stacks = [A if rows.shape[0] == n else _submatrix(A, rows[:, 0]) for rows in copy_groups]
    dtype = A.dtype
    del A
    for rows, G in zip(copy_groups, stacks):
        group_block = block[rows[:, 0]]
        lu = _certified_cholesky(G, group_block, tol) if hermitian else None
        if lu is None:
            kind = "lu"
            lu = _superlu(G)
            bad = (_first_singular_block(G, group_block, tol) if lu is None
                   else _small_pivot_block(lu.U.diagonal(), lu.perm_c, group_block, tol))
            if bad is not None:
                singular.append(bad)
                continue
        groups.append((lu, rows))
    if singular:
        bad = min(singular)
        raise SingularMatrixError(
            f"singular pivot in LU factorization of diagonal block {bad}",
            block=int(bad))
    return SparseFactorization(kind, groups, n, dtype, len(firsts))


def _hermitian_gap(A, T):
    """Frobenius norm of ``A - A^H``; A is canonical csc and T the same matrix as canonical csr."""
    if np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices):
        # symmetric pattern: entry k of A is at the transposed place of entry k of T
        if np.array_equal(A.data, T.data.conj()):
            return 0.0  # the finite difference vector is exactly zero
        return np.linalg.norm(A.data - T.data.conj())
    return np.linalg.norm((A - T.T.conj()).data)


def _copy_groups(A, offsets):
    """Stacked rows of each group of bitwise-equal diagonal blocks of a csc matrix.

    A class holds the nonempty blocks that equal each other: the same
    block-relative ``indptr`` and ``indices`` and the same ``data`` bytes,
    compared exactly as dictionary keys. Classes with the same number of
    copies form a group. Returns the groups in ascending copy count, each
    as an (order, copies) array whose column j holds the stacked rows of
    every class's j-th copy (copies ascending, classes in the order of
    their first copies), and the first copy of every class, ascending.
    Only the keys of the classes are kept: no byte copy of the whole
    matrix is made.
    """
    sizes = np.diff(offsets)
    starts = A.indptr[offsets]
    counts = np.diff(A.indptr)  # the block-relative indptr, as column counts
    classes = {}
    for k, (a, b, start, stop) in enumerate(zip(
            offsets[:-1].tolist(), offsets[1:].tolist(),
            starts[:-1].tolist(), starts[1:].tolist())):
        if a < b:
            key = (counts[a:b].tobytes(), (A.indices[start:stop] - a).tobytes(),
                   A.data[start:stop].tobytes())
            classes.setdefault(key, []).append(k)
    by_count = {}
    for copies in classes.values():
        by_count.setdefault(len(copies), []).append(copies)
    groups = []
    for c in sorted(by_count):
        blocks = np.array(by_count[c])
        m = sizes[blocks[:, 0]]
        local = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
        groups.append((np.repeat(offsets[blocks], m, axis=0) + local[:, None]).astype(
            A.indices.dtype))
    return groups, [copies[0] for copies in classes.values()]


def _submatrix(A, cols):
    """``A[cols, cols]`` of a csc matrix for columns that are whole diagonal blocks."""
    counts = np.diff(A.indptr)[cols]
    indptr = np.concatenate([[0], np.cumsum(counts)])
    entries = np.repeat(A.indptr[cols] - indptr[:-1], counts) + np.arange(indptr[-1])
    # each entry lies in its column's block, which moves as a whole
    shift = np.repeat(cols - np.arange(cols.size), counts)
    return sp.csc_array(
        (A.data[entries], (A.indices[entries] - shift).astype(A.indices.dtype),
         indptr.astype(A.indptr.dtype)), shape=(cols.size, cols.size))


def _certified_cholesky(A, block, tol):
    """Symmetric-mode SuperLU ``L D L^H`` of a Hermitian csc matrix, or None.

    The factorization is kept when the row and column permutations agree
    and every pivot is, to rounding, real and positive and above the
    tolerance of its block (``block`` names the block of each row).
    """
    lu = _superlu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
    if lu is None or not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    d = lu.U.diagonal()
    if (np.all(np.abs(d.imag) < 1e-12 * d.real)
            and _small_pivot_block(d, lu.perm_c, block, tol) is None):
        return lu
    return None


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


def _first_singular_block(A, block, tol):
    """Bisect the diagonal blocks for the first one that fails to factorize.

    ``block`` names the block of each row, in ascending runs.
    """
    offsets = np.append(np.flatnonzero(np.diff(block, prepend=-1)), block.size)
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
    return block[offsets[lo]]


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
    ValueError
        If either matrix holds NaN or Inf, or is not Hermitian (to a
        relative Frobenius gap of 1e-12); the message names the "left
        matrix" or the "right matrix".
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
    for M, what in ((A, "left matrix"), (B, "right matrix")):
        _require_finite(M, what)
        _require_hermitian(M, what)
    subset = {} if upper is None else {
        "subset_by_value": (-np.inf, float(upper)), "driver": "gvx"}
    try:
        return scipy.linalg.eigh(A, B, check_finite=False, **subset)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"generalized eigensolve failed: {exc}") from exc
