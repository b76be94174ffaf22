"""Coarse spaces and two-level Schwarz preconditioners.

A coarse space is a tall matrix Z whose columns span the low-energy
directions a one-level method handles poorly. The induced coarse solve

    Q r = Z (Z^H A Z)^(-1) Z^H r

is combined with a one-level preconditioner M1 and the operator A through
one of seven correction formulas (see :class:`TwoLevelPreconditioner`).

Three constructions are provided: the weighted indicator space
(:func:`nicolaides_space`), interpolation from a coarser structured grid
(:func:`grid_space`), and the spectral space built from local generalized
eigenproblems (:func:`geneo_space` over :func:`geneo_pencils`). Each
assembles its columns of local support as one sparse array, and
:class:`CoarseSpace` keeps Z as a ``scipy.sparse.csc_array``: ``Z^H A Z``
and every coarse solve are sparse products. Dependent columns are dropped
by pivoted Cholesky (LAPACK ?pstrf) of the small Gram matrix ``Z^H Z``,
after exact copies of earlier columns, which show as equal rows of that
same matrix: a column is kept when its distance from the span of the
columns kept before it exceeds about ``sqrt(m eps)`` times the largest
column norm, with m the number of candidates. No step densifies Z.

The GenEO pencil's right-hand matrix ``D_j A_j D_j`` is only
semidefinite when some partition-of-unity weights are zero (Boolean
weights). Its kernel is split off here, not in the eigensolver:
:func:`geneo_pencils` builds each pencil directly on the dofs of nonzero
weight, where it is definite, for both GenEO and
``analysis.fsl_constants``, and ``linalg.sym_gen_eig`` computes only the
eigenpairs up to the threshold. One index pass over the weighted stacked
rows finds every pencil entry: ``Decomposition.within`` gives the block
diagonal of A on them as one CSR matrix, and ``Decomposition.locate``
places the element-matrix entries. The dense pencils are then built one
subdomain at a time, so only one dense pair is alive.
The two pencil matrices differ only where the partition of unity and the
subdomain boundary act; on a row where they are equal the pencil has
eigenvalue 1, and every eigenvector below 1 is discrete-harmonic there.
So for a threshold below 1 :func:`geneo_space` eliminates those rows and
solves the Schur-complement pencil on the others: the GenEO
eigenproblems "in the overlaps" of Spillane, Dolean, Hauret, Nataf,
Pechstein & Scheichl (Numer. Math. 126, 2014). ``analysis.fsl_constants``
keeps the full pencils.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import discretize, linalg
from .krylov import as_operator, as_preconditioner

COMBINATORS = ("ad", "bnn", "adef1", "adef2", "rbnn1", "rbnn2", "none")


class EmptyCoarseSpaceError(RuntimeError):
    """Raised when a coarse-space construction selects no usable column."""


class CoarseSpace:
    """Span of coarse basis columns plus the factorized coarse operator.

    ``Z`` is kept as a ``scipy.sparse.csc_array`` (a dense basis is
    converted), so the coarse operator ``Z^H A Z`` and every coarse solve
    are sparse products; ``Z^H A Z`` itself is small and factorized dense,
    by Cholesky when it is positive definite. Columns that are numerically
    dependent on the others are dropped by pivoted Cholesky of ``Z^H Z``
    (see :func:`_independent_columns`): of m candidates, a column is kept
    when its distance from the span of the columns kept before it exceeds
    about ``sqrt(m eps)`` times the largest column norm (1.2e-7 at
    m = 64), and of exact copies, found as equal rows of ``Z^H Z``, the
    lowest index is kept. The filter reads Z alone, never A, and never
    densifies Z. The surviving columns keep their original values and
    order, and per-column metadata (owning subdomain, generalized
    eigenvalue) is filtered alongside.
    ``min_pivot`` is the smallest kept pivot over the largest squared
    column norm: how close the filter came to dropping a column.

    Raises :class:`EmptyCoarseSpaceError` when no column survives, and
    ``linalg.SingularMatrixError`` naming ``tag`` and the candidate column
    where elimination breaks down when ``Z^H A Z`` is singular.
    """

    def __init__(self, Z, A, tag, owners=None, eigenvalues=None, tau=None):
        if np.ndim(Z) != 2:
            raise ValueError("coarse basis must be a 2d array")
        Z = sp.csc_array(Z)
        self.raw_columns = Z.shape[1]
        keep, self.min_pivot = _independent_columns(Z)
        if keep.size == 0:
            raise EmptyCoarseSpaceError(
                f"{tag}: no independent coarse columns ({self.raw_columns} candidates)"
            )
        self.Z = Z if keep.size == Z.shape[1] else Z[:, keep]
        self._ZH = self.Z.conj(copy=False).T
        self.tag = tag
        self.tau = tau
        self.owners = None if owners is None else np.asarray(owners)[keep]
        self.eigenvalues = (
            None if eigenvalues is None else np.asarray(eigenvalues)[keep]
        )
        A0 = self._ZH @ (A @ self.Z)
        try:
            self.A0 = linalg.auto_factor(A0.toarray() if sp.issparse(A0) else A0)
        except linalg.SingularMatrixError as exc:
            raise linalg.SingularMatrixError(
                f"{tag}: coarse operator Z^H A Z is singular; elimination breaks "
                f"down at candidate column {keep[exc.column]} of "
                f"{self.raw_columns} candidates ({keep.size} kept)"
            ) from exc

    @property
    def n(self):
        return self.Z.shape[0]

    @property
    def m0(self):
        return self.Z.shape[1]

    def solve_coefficients(self, r):
        """Coarse coefficients ``(Z^H A Z)^(-1) Z^H r`` of a vector or (n, k) block."""
        r = np.asarray(r)
        if r.ndim not in (1, 2) or r.shape[0] != self.n:
            raise ValueError(
                f"expected a vector or block with {self.n} rows, got {r.shape}")
        return self.A0.solve(self._ZH @ r)

    def apply_Q(self, r):
        """Coarse correction ``Z (Z^H A Z)^(-1) Z^H r`` of a vector or (n, k) block."""
        return self.Z @ self.solve_coefficients(r)


def _independent_columns(Z):
    """Independent columns of a csc_array by pivoted Cholesky of ``Z^H Z``.

    Returns the kept column indices in their original order and the
    smallest kept pivot relative to the largest squared column norm.

    The Gram matrix ``G = Z^H Z`` of the canonical basis (float, row
    indices sorted, split entries summed) is formed by one sparse product,
    which sums entry (i, k) over column i's stored rows in storage order:
    exact copies of a column give bitwise-equal rows of G. Of equal rows
    only the lowest index is a candidate, so of equal columns the lowest
    index is kept. LAPACK ``?pstrf`` then factorizes G on the candidates
    with symmetric pivoting: step by step it takes the column whose
    squared distance from the span of the columns already taken is
    largest, and it stops at the first pivot at or below
    ``m eps max diag(G)``, with ``m`` the number of columns. A column is
    thus kept when its distance from the span of the columns kept before
    it exceeds about ``sqrt(m eps)`` times the largest column norm
    (1.2e-7 at m = 64). A column whose row of G equals an earlier one's
    without being a copy lies within rounding of it, well below that
    distance, so ``?pstrf`` would keep at most one of the two anyway. The
    rule depends on Z alone, not on the operator, and Z is never
    densified: only the m x m Gram matrix is.
    """
    m = Z.shape[1]
    if 0 in Z.shape:
        return np.empty(0, dtype=int), None
    if not np.isfinite(Z.data).all():
        raise ValueError("coarse basis contains NaN or Inf")
    Z = Z.astype(np.result_type(Z.dtype, np.float64), copy=False)
    if not Z.has_canonical_format:
        Z = Z.copy()
        Z.sum_duplicates()
    G = (Z.conj(copy=False).T @ Z).toarray()
    cand = np.sort(np.unique(G, axis=0, return_index=True)[1])
    G = G[np.ix_(cand, cand)]
    scale = G.diagonal().real.max()
    pstrf, = scipy.linalg.lapack.get_lapack_funcs(("pstrf",), (G,))
    C, piv, rank, info = pstrf(G, tol=m * np.finfo(float).eps * scale,
                               overwrite_a=True)
    if info < 0:
        raise ValueError(f"?pstrf: illegal argument {-info}")
    if rank == 0:
        return np.empty(0, dtype=int), None
    min_pivot = float(np.min(np.abs(C.diagonal()[:rank]) ** 2) / scale)
    return np.sort(cand[piv[:rank] - 1]), min_pivot


def nicolaides_space(A, decomposition):
    """One weighted indicator column per subdomain.

    Column i extends the subdomain's partition-of-unity weights by zero;
    together the columns reproduce the constant vector exactly. The basis
    is one sparse array that reads R's arrays as they are: the stacked
    weights ``w`` at the rows ``R.indices``, column i spanning
    ``offsets[i]:offsets[i + 1]``. Nothing here copies or writes them.
    """
    dec = decomposition
    weighted = np.bincount(dec.row_block, weights=dec.w != 0, minlength=dec.N)
    if not weighted.all():
        i = int(np.argmin(weighted))
        raise ValueError(
            f"subdomain {i} carries no partition-of-unity weight; "
            "its indicator column would vanish"
        )
    Z = sp.csc_array((dec.w, dec.R.indices, dec.offsets), shape=(dec.n_dofs, dec.N))
    return CoarseSpace(Z, A, tag="nicolaides", owners=np.arange(dec.N))


def _hat_matrix(m, h, H):
    """1d piecewise-linear interpolation from spacing H to spacing h."""
    ratio = H / h
    r = int(round(ratio))
    if r < 1 or abs(ratio - r) > 1e-9 * max(r, 1):
        raise ValueError(f"coarse spacing {H} is not an integer multiple of {h}")
    if (m + 1) % r:
        raise ValueError(
            f"coarse spacing must divide the domain evenly ({m + 1} cells, ratio {r})"
        )
    m0 = (m + 1) // r - 1
    if m0 < 1:
        raise ValueError("coarse grid has no interior nodes")
    # Coarse node J (fine index J * r) has weight 1 - |d| / r at fine node
    # J * r + d for |d| < r. Integer offsets keep the weights exact (1 stays 1).
    d = np.arange(1 - r, r)[:, None]
    J = np.arange(1, m0 + 1)[None, :]
    rows, cols = np.broadcast_arrays(J * r + d - 1, J - 1)
    vals = np.broadcast_to(1.0 - np.abs(d) / r, rows.shape)
    idx = linalg.index_dtype(m, rows.size)
    return sp.csc_array((vals.ravel(), (rows.ravel().astype(idx), cols.ravel().astype(idx))),
                        shape=(m, m0))


def grid_space(A, fine_grid, H_coarse):
    """Interpolation coarse space between nested structured grids.

    Columns are hat functions in 1d and bilinear tensor hats in 2d,
    sampled at the fine interior nodes. ``H_coarse`` must be an integer
    multiple of the fine spacing and divide the domain evenly; equal
    spacings give the identity.
    """
    if fine_grid.dim == 1:
        Z = _hat_matrix(fine_grid.nx, fine_grid.hx, H_coarse)
    else:
        Zx = _hat_matrix(fine_grid.nx, fine_grid.hx, H_coarse)
        Zy = _hat_matrix(fine_grid.ny, fine_grid.hy, H_coarse)
        Z = sp.kron(Zy, Zx, format="csc")
    return CoarseSpace(Z, A, tag="grid")


def subdomain_element_sets(system, decomposition):
    """Mesh elements whose vertices all lie inside each subdomain.

    A vertex counts as inside when it is an eliminated original-boundary
    vertex or its DoF belongs to the subdomain's set. Returns one
    ascending array of element indices per subdomain, read off one sparse
    product: element-to-dof incidence times the dof-to-subdomain
    membership, which holds a one at ``(R.indices[r], row_block[r])``.
    Raises ``discretize.UnsupportedProblemError`` for a system without a
    mesh and ValueError when the system's DoF count is not the
    decomposition's.
    """
    if system.mesh is None:
        raise discretize.UnsupportedProblemError(
            f"kind '{system.kind}' has no mesh; element sets need the FEM path"
        )
    dec = decomposition
    if system.n != dec.n_dofs:
        raise ValueError(
            f"system has {system.n} DoFs but the decomposition covers {dec.n_dofs}"
        )
    dmap = system.dof_of_vertex[system.mesh.triangles]
    nt = dmap.shape[0]
    elem, corner = np.nonzero(dmap >= 0)
    idx = linalg.index_dtype(nt, system.n, elem.size)
    E = sp.csr_array((np.ones(elem.size), (elem.astype(idx), dmap[elem, corner].astype(idx))),
                     shape=(nt, system.n))
    member = sp.csr_array((np.ones(dec.R.shape[0]), (dec.R.indices, dec.row_block)),
                          shape=(system.n, dec.N))
    # inside[t, j]: number of element t's dofs that lie in subdomain j
    inside = (E @ member).tocoo()
    dofs_per_element = np.bincount(elem, minlength=nt)
    full = inside.data == dofs_per_element[inside.row]
    # elements with no dof (all vertices on the boundary) lie in every subdomain
    bare = np.flatnonzero(dofs_per_element == 0)
    t = np.concatenate([inside.row[full], np.tile(bare, dec.N)]).astype(np.intp)
    j = np.concatenate([inside.col[full], np.repeat(np.arange(dec.N), bare.size)])
    order = np.lexsort((t, j))
    counts = np.bincount(j, minlength=dec.N)
    return np.split(t[order], np.cumsum(counts)[:-1])


def geneo_pencils(system, decomposition):
    """Local GenEO pencils ``(N_j, D_j A_j D_j)`` on the weighted dofs, in subdomain order.

    ``A_j`` is the principal submatrix of ``system.A`` on the overlapping
    set ``s_j`` and ``N_j`` is the Neumann matrix of the subdomain's
    element set (:func:`subdomain_element_sets`, summed as
    ``discretize.neumann_matrix`` sums it), zero-extended to ``s_j``.
    ``D_j A_j D_j`` vanishes exactly on the rows and columns of zero
    weight and is positive definite on the others, so the pencil is
    restricted to the dofs of nonzero weight, where it suits
    ``linalg.sym_gen_eig``; the directions dropped are infinite
    eigenvalues or vectors whose basis column ``D_j phi`` is zero.

    Returns an iterator that yields ``(dofs, d, Nw, Bw)`` for every
    subdomain: the ascending global dofs of nonzero weight in ``s_j``,
    their weights, and the two restricted dense matrices. One index pass
    over all subdomains runs at the call: ``Decomposition.within`` of A on
    the weighted rows, its entries scaled to ``(d_i a_ik) d_k``. Each dense
    pair is then built only when its subdomain is reached, ``Bw`` as the
    dense diagonal block of that matrix and ``Nw`` by one ``np.bincount``
    of the element-matrix entries, which sums them in the order
    ``discretize.neumann_matrix`` does. No Neumann matrix on the
    unweighted dofs is formed.

    Raises ``discretize.UnsupportedProblemError`` for a system without a
    mesh and ValueError when the system's DoF count is not the
    decomposition's.
    """
    _, pencil = _pencil_index(system, decomposition)
    return map(pencil, range(decomposition.N))


def _pencil_index(system, decomposition):
    """The index pass of :func:`geneo_pencils`.

    Returns ``(touched, pencil)``: whether each subdomain's element set
    touches any DoF, and the function that builds subdomain j's
    ``(dofs, d, Nw, Bw)``.
    """
    dec = decomposition
    elements = subdomain_element_sets(system, dec)
    # positions count among the weighted rows wrows; subdomain j owns wstart[j]:wstart[j + 1]
    wrows = np.flatnonzero(dec.w != 0)
    wdof, d = dec.R.indices[wrows], dec.w[wrows]
    # intp, so the flat positions (row * size + col) below are int64 even
    # where locate hands back int32 positions
    wstart = np.searchsorted(wrows, dec.offsets)
    size = np.diff(wstart)

    # D_j A_j D_j: the entries of A at weighted rows and columns of one
    # subdomain; entry (i, k) is (d_i a_ik) d_k, as in the dense product
    B = dec.within(system.A, wrows)
    B.data = (np.repeat(d, np.diff(B.indptr)) * B.data) * d[B.indices]

    # N_j: the element-matrix entries at weighted dofs, in (subdomain,
    # element, a, b) order, as discretize.neumann_matrix adds them
    t = np.concatenate(elements)
    ecount = [len(e) for e in elements]
    eblock = np.repeat(np.arange(dec.N), ecount)
    dof = system.dof_of_vertex[system.mesh.triangles[t]]
    touched = np.bincount(eblock, weights=(dof >= 0).any(axis=1),
                          minlength=dec.N) > 0
    at = dec.locate(eblock[:, None], dof, wrows)
    loc = at - wstart[eblock][:, None]
    kept = (at[:, :, None] >= 0) & (at[:, None, :] >= 0)
    nvals = system.element_matrices[t][kept]
    nflat = ((loc * size[eblock][:, None])[:, :, None] + loc[:, None, :])[kept]
    nbound = np.concatenate([[0], np.cumsum(kept.sum(axis=(1, 2)))])[
        np.concatenate([[0], np.cumsum(ecount)])]

    def pencil(j):
        m = size[j]
        lo, hi = nbound[j], nbound[j + 1]
        # bincount of no entries is an integer array
        Nw = np.bincount(nflat[lo:hi], nvals[lo:hi], minlength=m * m).astype(
            float, copy=False)
        lo, hi = wstart[j], wstart[j + 1]
        return wdof[lo:hi], d[lo:hi], Nw.reshape(m, m), B[lo:hi, lo:hi].toarray()

    return touched, pencil


def geneo_space(system, decomposition, tau="auto"):
    """Spectral coarse space from local generalized eigenproblems.

    For each subdomain solve the pencil ``N_j phi = lambda (D_j A_j D_j) phi``
    with ``N_j`` the local Neumann matrix and ``A_j`` the principal
    submatrix of ``system.A``, then keep the eigenvectors with
    ``lambda <= tau``. The pencils are those of :func:`geneo_pencils`, on
    the dofs of nonzero weight, where they are definite, one subdomain at
    a time; each is solved by one subset eigensolve that computes just
    the eigenpairs up to ``tau``. When ``tau < 1`` that eigensolve runs on
    the pencil reduced to the rows where its two matrices differ, the
    overlap and the subdomain boundary: the rows where they are equal
    only add the eigenvalue 1, and the kept eigenvectors are extended to
    them discrete-harmonically (:func:`_geneo_eig`). The kept pairs are
    those of the full pencil, up to rounding. A subdomain whose element
    set touches no DoF has no Neumann energy and is skipped. Selected vectors enter
    the basis as ``R_j^T D_j phi``, grouped by subdomain in ascending
    index and eigenvalue order.

    ``tau="auto"`` picks the reciprocal of the worst subdomain aspect
    ratio (diameter over overlap width), which needs the decomposition's
    geometry fields, a positive overlap and a subdomain of positive
    diameter: a decomposition built without ``coords`` or ``h``, with no
    overlap, or of single-point subdomains only, raises ValueError.
    """
    if tau == "auto":
        if (np.isnan(decomposition.overlap_width)
                or np.isnan(decomposition.H).any()):
            raise ValueError(
                "tau='auto' needs a decomposition with coordinates and mesh width"
            )
        if decomposition.overlap_width == 0:
            raise ValueError(
                "tau='auto' needs a positive overlap width: the aspect ratio "
                "H_j / overlap_width is undefined with no overlap; pass a "
                "numeric tau"
            )
        if not decomposition.H.any():
            raise ValueError(
                "tau='auto' needs a subdomain of positive diameter: every "
                "H_j is 0, so the aspect ratio H_j / overlap_width is 0 and "
                "its reciprocal infinite; pass a numeric tau"
            )
        tau = 1.0 / (decomposition.H.max() / decomposition.overlap_width)
    tau = float(tau)
    if tau <= 0:
        raise ValueError(f"threshold must be positive, got {tau}")

    kept = []
    touched, pencil = _pencil_index(system, decomposition)
    for j in np.flatnonzero(touched):
        dofs, d, Nw, Bw = pencil(j)
        values, vectors = _geneo_eig(Nw, Bw, tau)
        if len(values):
            kept.append((j, dofs, d[:, None] * vectors, values))

    if not kept:
        raise EmptyCoarseSpaceError(
            f"no generalized eigenvalue fell below tau = {tau:.3e}"
        )
    subdomains, rows, blocks, values = zip(*kept)
    counts = [len(v) for v in values]
    # column b of block V holds V[:, b] at the block's ascending rows
    indices = np.concatenate([np.tile(r, c) for r, c in zip(rows, counts)])
    idx = linalg.index_dtype(decomposition.n_dofs, sum(counts), indices.size)
    Z = sp.csc_array((
        np.concatenate([V.T.ravel() for V in blocks]), indices.astype(idx, copy=False),
        np.concatenate([[0], np.cumsum(np.repeat([len(r) for r in rows], counts))]).astype(idx)),
        shape=(decomposition.n_dofs, sum(counts)))
    return CoarseSpace(Z, system.A, tag="geneo", owners=np.repeat(subdomains, counts),
                       eigenvalues=np.concatenate(values), tau=tau)


def _geneo_eig(Nw, Bw, tau):
    """Eigenpairs of a real pencil ``(Nw, Bw)`` up to ``tau``, as ``linalg.sym_gen_eig``.

    For ``tau < 1`` the rows ``I`` on which ``Nw`` and ``Bw`` are equal,
    entry for entry (the same elements, summed in the same order), are
    eliminated first. With ``K = Nw[I, I]`` (positive definite, a
    principal submatrix of ``Bw``) and ``C = N_GI K^(-1) N_IG`` on the
    other rows ``G``, the spectrum is that of the reduced pencil
    ``(N_GG - C, B_GG - C)`` plus the eigenvalue 1 with multiplicity
    ``|I|``. An eigenvector below 1 is discrete-harmonic on ``I``,
    ``phi_I = -K^(-1) N_IG phi_G``, and this extension of a B-orthonormal
    reduced eigenvector is B-orthonormal. So the pairs up to ``tau`` are
    one ``linalg.sym_gen_eig`` of the reduced pencil, extended; ``C`` is
    formed only on the rows of ``G`` coupled to ``I``, where it is not
    zero. With ``tau >= 1`` or no equal row, the full pencil is solved.
    """
    inner = (Nw == Bw).all(axis=1) if tau < 1 else None
    if inner is None or not inner.any():
        return linalg.sym_gen_eig(Nw, Bw, upper=tau)
    I, G = np.flatnonzero(inner), np.flatnonzero(~inner)
    rows = Nw[I]
    coupled = rows[:, G]
    b = np.flatnonzero(coupled.any(axis=0))  # positions in G of the rows coupled to I
    try:
        L = scipy.linalg.cholesky(rows[:, I], lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise linalg.SingularMatrixError(f"generalized eigensolve failed: {exc}") from exc
    W = scipy.linalg.solve_triangular(L, coupled[:, b], lower=True, check_finite=False)
    C = W.T @ W
    left, right = Nw[G][:, G], Bw[G][:, G]
    for M in (left, right):
        M[np.ix_(b, b)] -= C
    values, reduced = linalg.sym_gen_eig(left, right, upper=tau)
    vectors = np.empty((Nw.shape[0], values.size))
    vectors[G] = reduced
    vectors[I] = -scipy.linalg.solve_triangular(L, W @ reduced[b], trans="T", lower=True,
                                                check_finite=False)
    return values, vectors


class TwoLevelPreconditioner:
    """One-level preconditioner enriched with a coarse correction.

    A formula in three callables: the one-level apply ``M1``, the coarse
    solve ``Q`` (``CoarseSpace.apply_Q``; a ``CoarseSpace`` itself raises
    TypeError) and the operator ``A``. The combinator names the formula:

    ======== =======================================
    ad       M1 + Q
    bnn      (I - QA) M1 (I - AQ) + Q
    adef1    M1 (I - AQ) + Q
    adef2    (I - QA) M1 + Q
    rbnn1    (I - QA) M1 (I - AQ)
    rbnn2    (I - QA) M1
    none     M1
    ======== =======================================

    Some formulas need the start ``x0 = Q b``, after which the initial
    residual has no coarse component (``Z^H r0 = 0``). rbnn1 (Hermitian
    semidefinite) and rbnn2 (nonsymmetric) have no ``+Q`` term, so neither
    CG nor GMRES converges with them from another start. adef2 is
    nonsymmetric; CG needs this start with it, GMRES does not. adef1 is
    not made CG-safe by this start; pair it with GMRES.
    """

    def __init__(self, M1, Q, A, combinator="adef1"):
        if combinator not in COMBINATORS:
            raise ValueError(
                f"unknown combinator {combinator!r}; expected one of {COMBINATORS}"
            )
        self.combinator = combinator
        self._prec = as_preconditioner(M1)
        self._coarse = as_preconditioner(Q)
        self._matvec = as_operator(A)

    def apply(self, r):
        """Apply the two-level preconditioner to a vector or an (n, k) block.

        The formulas are products, so a block is mapped column by column
        when ``M1``, ``Q`` and the matvec map blocks (as sparse ``A`` does).
        """
        c = self.combinator
        M1, mv, Q = self._prec, self._matvec, self._coarse
        if c == "none":
            return M1(r)
        if c == "ad":
            return M1(r) + Q(r)
        if c == "adef1":
            qr = Q(r)
            return M1(r - mv(qr)) + qr
        if c == "adef2":
            u = M1(r)
            return u + Q(r - mv(u))
        if c == "bnn":
            u = M1(r - mv(Q(r)))
            return u + Q(r - mv(u))
        if c == "rbnn1":
            u = M1(r - mv(Q(r)))
            return u - Q(mv(u))
        # rbnn2
        u = M1(r)
        return u - Q(mv(u))
