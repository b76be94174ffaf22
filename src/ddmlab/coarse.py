"""Coarse spaces and two-level Schwarz preconditioners.

A coarse space is a tall matrix Z whose columns span the low-energy
directions a one-level method handles poorly. The induced coarse solve

    Q r = Z (Z^H A Z)^(-1) Z^H r

is combined with a one-level preconditioner M1 through one of seven
correction formulas (see :class:`TwoLevelPreconditioner`).

Three constructions are provided: the weighted indicator space
(:func:`nicolaides_space`), interpolation from a coarser structured grid
(:func:`grid_space`), and the spectral space built from local generalized
eigenproblems (:func:`geneo_space` over :func:`geneo_pencils`). In each,
:class:`CoarseSpace` drops dependent columns by QR with column pivoting.

The GenEO pencil's right-hand matrix ``D_j A_j D_j`` is only
semidefinite when some partition-of-unity weights are zero (Boolean
weights). Its kernel is split off here, not in the eigensolver:
:func:`weighted_pencil` restricts the pencil to the dofs of nonzero
weight, where it is definite, for both GenEO and
``analysis.fsl_constants``, and ``linalg.sym_gen_eig`` computes only the
eigenpairs up to the threshold.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import discretize, linalg, schwarz
from .krylov import as_operator, as_preconditioner

COMBINATORS = ("ad", "bnn", "adef1", "adef2", "rbnn1", "rbnn2", "none")


class EmptyCoarseSpaceError(RuntimeError):
    """Raised when a coarse-space construction selects no usable column."""


class CoarseSpace:
    """Span of coarse basis columns plus the factorized coarse operator.

    Columns that are numerically dependent on the others are dropped by
    QR with column pivoting (relative tolerance ``rank_tol``); the
    surviving columns keep their original values and order. Per-column
    metadata (owning subdomain, generalized eigenvalue) is filtered
    alongside.
    """

    def __init__(self, Z, A, tag, owners=None, eigenvalues=None, tau=None,
                 rank_tol=1e-10):
        Z = np.asarray(Z)
        if Z.ndim != 2:
            raise ValueError("coarse basis must be a 2d array")
        self.raw_columns = Z.shape[1]
        keep = _independent_columns(Z, rank_tol)
        if keep.size == 0:
            raise EmptyCoarseSpaceError(
                f"{tag}: no independent coarse columns ({self.raw_columns} candidates)"
            )
        self.Z = Z[:, keep]
        self.tag = tag
        self.tau = tau
        self.owners = None if owners is None else np.asarray(owners)[keep]
        self.eigenvalues = (
            None if eigenvalues is None else np.asarray(eigenvalues)[keep]
        )
        A0 = self.Z.conj().T @ (A @ self.Z)
        self.A0 = linalg.auto_factor(A0)

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
        return self.A0.solve(self.Z.conj().T @ r)

    def apply_Q(self, r):
        """Coarse correction ``Z (Z^H A Z)^(-1) Z^H r`` of a vector or (n, k) block."""
        return self.Z @ self.solve_coefficients(r)


def _independent_columns(Z, rel_tol):
    """Indices of a maximal independent column subset, original order.

    QR with column pivoting (LAPACK geqp3) takes, step by step, the column
    with the largest norm orthogonal to the columns already taken. The
    leading pivots whose ``|R_kk|`` exceeds ``rel_tol`` times the largest
    column norm are kept, up to the first one that does not. Of equal
    columns the lowest index is kept.
    """
    Z = np.asarray(Z)
    if Z.size == 0:
        return np.empty(0, dtype=int)
    norms = np.linalg.norm(Z, axis=0)
    R, piv = scipy.linalg.qr(Z, mode="r", pivoting=True)
    strong = np.abs(R.diagonal()) > rel_tol * norms.max()
    keep = piv[:np.logical_and.accumulate(strong).sum()]
    # geqp3's column swaps can move a copy ahead of its original: map each
    # column to its first exact copy (equal norm, all but one dropped).
    same = np.flatnonzero(np.isin(norms, norms[piv[len(keep):]]))
    raw = np.ascontiguousarray(Z[:, same].T)
    raw = raw.view(np.dtype((np.void, raw.itemsize * raw.shape[1])))[:, 0]
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rep = np.arange(Z.shape[1])
    rep[same] = same[first[inverse]]
    return np.sort(rep[keep])


def nicolaides_space(A, decomposition):
    """One weighted indicator column per subdomain.

    Column i extends the subdomain's partition-of-unity weights by zero;
    together the columns reproduce the constant vector exactly. The basis
    is one scatter of the stacked weights ``w`` to the rows ``R.indices``.
    """
    dec = decomposition
    owner = _row_owners(dec)
    weighted = np.bincount(owner, weights=dec.w != 0, minlength=dec.N)
    if not weighted.all():
        i = int(np.argmin(weighted))
        raise ValueError(
            f"subdomain {i} carries no partition-of-unity weight; "
            "its indicator column would vanish"
        )
    Z = np.zeros((dec.n_dofs, dec.N))
    Z[dec.R.indices, owner] = dec.w
    return CoarseSpace(Z, A, tag="nicolaides", owners=np.arange(dec.N))


def _row_owners(decomposition):
    """Subdomain index of each row of the stacked restriction ``R``."""
    return np.repeat(np.arange(decomposition.N), np.diff(decomposition.offsets))


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
    # Integer index arithmetic keeps the weights exact (0 stays 0, 1 stays 1).
    i = np.arange(1, m + 1)
    J = np.arange(1, m0 + 1) * r
    Z = np.maximum(0.0, 1.0 - np.abs(i[:, None] - J[None, :]) / r)
    return Z


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
        Z = np.kron(Zy, Zx)
    return CoarseSpace(Z, A, tag="grid")


def subdomain_element_sets(system, decomposition):
    """Mesh elements whose vertices all lie inside each subdomain.

    A vertex counts as inside when it is an eliminated original-boundary
    vertex or its DoF belongs to the subdomain's set. Returns one
    ascending array of element indices per subdomain, read off one sparse
    product: element-to-dof incidence times the dof-to-subdomain
    membership ``R^T S``, with S mapping each row of R to its subdomain.
    """
    if system.mesh is None:
        raise discretize.UnsupportedProblemError(
            f"kind '{system.kind}' has no mesh; element sets need the FEM path"
        )
    dec = decomposition
    dmap = system.dof_of_vertex[system.mesh.triangles]
    nt = dmap.shape[0]
    elem, corner = np.nonzero(dmap >= 0)
    E = sp.csr_array((np.ones(elem.size), (elem, dmap[elem, corner])),
                     shape=(nt, system.n))
    rows = dec.R.shape[0]
    S = sp.csr_array((np.ones(rows), (np.arange(rows), _row_owners(dec))),
                     shape=(rows, dec.N))
    # inside[t, j]: number of element t's dofs that lie in subdomain j
    inside = (E @ (dec.R.T @ S)).tocoo()
    dofs_per_element = np.bincount(elem, minlength=nt)
    full = inside.data == dofs_per_element[inside.row]
    # elements with no dof (all vertices on the boundary) lie in every subdomain
    bare = np.flatnonzero(dofs_per_element == 0)
    t = np.concatenate([inside.row[full], np.tile(bare, dec.N)]).astype(np.intp)
    j = np.concatenate([inside.col[full], np.repeat(np.arange(dec.N), bare.size)])
    order = np.lexsort((t, j))
    counts = np.bincount(j, minlength=dec.N)
    return np.split(t[order], np.cumsum(counts)[:-1])


def subdomain_neumann_matrices(system, decomposition):
    """Neumann matrices of the element subdomains, one per DoF subdomain."""
    return [
        discretize.neumann_matrix(system, es)
        for es in subdomain_element_sets(system, decomposition)
    ]


def geneo_pencils(A, decomposition, neumann_matrices):
    """Local GenEO pencils ``(N_j, D_j A_j D_j)``, one subdomain at a time.

    Yields ``(s_j, D_j, N_j, D_j A_j D_j)`` for every subdomain j in
    order: the overlapping dof set, its partition-of-unity weights,
    ``neumann_matrices[j]`` zero-extended from its own dofs to ``s_j``,
    and the weighted principal submatrix ``A_j`` of A on ``s_j``. Raises
    ValueError unless there is one Neumann matrix per subdomain.
    """
    if len(neumann_matrices) != decomposition.N:
        raise ValueError(
            f"got {len(neumann_matrices)} Neumann matrices for "
            f"{decomposition.N} subdomains"
        )
    return map(_pencil, decomposition.sets, decomposition.weights,
               neumann_matrices, schwarz.local_matrices(A, decomposition))


def _pencil(s, D, neumann, Aj):
    N, dofs = neumann
    pos = np.searchsorted(s, dofs)
    Nloc = np.zeros(Aj.shape, dtype=np.asarray(N).dtype)
    Nloc[np.ix_(pos, pos)] = N
    return s, D, Nloc, (D[:, None] * Aj) * D[None, :]


def weighted_pencil(D, Nloc, B):
    """Restrict a GenEO pencil ``(N_j, D_j A_j D_j)`` to the weighted dofs.

    ``B = D_j A_j D_j`` vanishes exactly on the rows and columns of zero
    weight and is positive definite on the others, so the restricted
    pencil suits ``linalg.sym_gen_eig``. The directions dropped are
    infinite eigenvalues or vectors whose basis column ``D_j phi`` is zero.
    Returns the positions ``wd`` of the nonzero weights in ``D`` and the
    two restricted matrices.
    """
    wd = np.flatnonzero(D)
    sub = np.ix_(wd, wd)
    return wd, Nloc[sub], B[sub]


def geneo_space(A, decomposition, neumann_matrices, tau="auto"):
    """Spectral coarse space from local generalized eigenproblems.

    For each subdomain solve the pencil ``N_j phi = lambda (D_j A_j D_j) phi``
    with ``N_j`` the local Neumann matrix and ``A_j`` the principal
    submatrix of A, then keep the eigenvectors with ``lambda <= tau``.
    The pencil is solved on the dofs of nonzero weight
    (:func:`weighted_pencil`), where it is definite, by one subset
    eigensolve that computes just the eigenpairs up to ``tau``. Selected
    vectors enter the basis as ``R_j^T D_j phi``, grouped by subdomain in
    ascending index and eigenvalue order.

    ``tau="auto"`` picks the reciprocal of the worst subdomain aspect
    ratio (diameter over overlap width), which needs the decomposition's
    geometry fields: a decomposition built without ``coords`` or ``h``
    raises ValueError.
    """
    if tau == "auto":
        if (np.isnan(decomposition.overlap_width)
                or np.isnan(decomposition.H).any()):
            raise ValueError(
                "tau='auto' needs a decomposition with coordinates and mesh width"
            )
        aspect = max(
            decomposition.H[j] / decomposition.overlap_width
            for j in range(decomposition.N)
        )
        tau = 1.0 / aspect
    tau = float(tau)
    if tau <= 0:
        raise ValueError(f"threshold must be positive, got {tau}")

    kept = []
    pencils = geneo_pencils(A, decomposition, neumann_matrices)
    for j, (s, D, Nloc, B) in enumerate(pencils):
        if len(neumann_matrices[j][1]) == 0:
            continue
        wd, Nw, Bw = weighted_pencil(D, Nloc, B)
        values, vectors = linalg.sym_gen_eig(Nw, Bw, upper=tau)
        if len(values):
            kept.append((j, s[wd], D[wd, None] * vectors, values))

    if not kept:
        raise EmptyCoarseSpaceError(
            f"no generalized eigenvalue fell below tau = {tau:.3e}"
        )
    subdomains, rows, blocks, values = zip(*kept)
    counts = [len(v) for v in values]
    Z = np.zeros((decomposition.n_dofs, sum(counts)),
                 dtype=np.result_type(float, *blocks))
    for r, V, end in zip(rows, blocks, np.cumsum(counts)):
        Z[r, end - V.shape[1]:end] = V
    return CoarseSpace(Z, A, tag="geneo", owners=np.repeat(subdomains, counts),
                       eigenvalues=np.concatenate(values), tau=tau)


class TwoLevelPreconditioner:
    """One-level preconditioner enriched with a coarse correction.

    The combinator names the correction formula, with Q the coarse solve
    and M1 the one-level application:

    ======== =======================================
    ad       M1 + Q
    bnn      (I - QA) M1 (I - AQ) + Q
    adef1    M1 (I - AQ) + Q
    adef2    (I - QA) M1 + Q
    rbnn1    (I - QA) M1 (I - AQ)
    rbnn2    (I - QA) M1
    none     M1
    ======== =======================================
    """

    def __init__(self, M1, coarse_space, A, combinator="adef1"):
        if combinator not in COMBINATORS:
            raise ValueError(
                f"unknown combinator {combinator!r}; expected one of {COMBINATORS}"
            )
        self.combinator = combinator
        self.coarse = coarse_space
        self.M1 = M1
        self._prec = as_preconditioner(M1)
        self._matvec = as_operator(A)

    def apply(self, r):
        """Apply the two-level preconditioner to a vector or an (n, k) block.

        The formulas are products, so a block is mapped column by column
        when ``M1`` and the matvec map blocks (as sparse ``A`` does).
        """
        c = self.combinator
        M1, mv, Q = self._prec, self._matvec, self.coarse.apply_Q
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


def deflated_initial_guess(coarse_space, b):
    """Starting vector ``Q b`` for deflation-style corrections.

    The initial residual then has no coarse component (``Z^H r0 = 0``).
    rbnn1 (Hermitian semidefinite) and rbnn2 (nonsymmetric) have no ``+Q``
    term, so neither CG nor GMRES converges with them from another start.
    adef2 is nonsymmetric; CG needs this start with it, GMRES does not.
    adef1 is not made CG-safe by this start; pair it with GMRES.
    """
    return coarse_space.apply_Q(b)
