"""One-level overlapping Schwarz preconditioners.

Every variant is one product ``R^T W_L B^(-1) W_R R`` over the
decomposition's stacked restriction ``R``: restrict the residual to all
overlapping subdomains at once, solve the block-diagonal local problem
``B = blockdiag(B_i)`` with one ``linalg.auto_factor`` factorization of
the stacked operator (which factorizes each distinct block once and
solves equal blocks together), and scatter the result back. The weights
``W_L``, ``W_R`` are either the identity or the stacked partition-of-unity
weights ``w``:

* ``asm``    sum_i R_i^T B_i^(-1) R_i            (W_L = W_R = I)
* ``ras``    sum_i R_i^T D_i B_i^(-1) R_i        (W_L = D, restricted)
* ``oras``   same formula as ras with Robin local blocks
* ``soras``  sum_i R_i^T D_i B_i^(-1) D_i R_i    (W_L = W_R = D, Robin blocks)
* ``none``   identity

Local blocks B_i are either principal submatrices of A (Dirichlet kind)
or, for ``ROBIN_VARIANTS``, an extra Robin term on the artificial interface.
"""

import numpy as np

from . import discretize, linalg
from .krylov import SolveReport, as_operator, as_preconditioner, castable, starting_point

VARIANTS = ("asm", "ras", "oras", "soras", "none")
ROBIN_VARIANTS = ("oras", "soras")


def local_operator(A, decomposition, kind="dirichlet", p=None, h=None,
                   dim=None):
    """The stacked local operator ``B = blockdiag(B_i)`` as a sparse CSR matrix.

    Rows and columns follow the rows of the decomposition's stacked
    restriction ``R``, so block i spans ``offsets[i]:offsets[i + 1]``.
    ``B`` is the block-diagonal part of ``R A R^T`` (``Decomposition.within``):
    with ``kind="dirichlet"`` each B_i is the principal submatrix of A on
    the subdomain's dof set. With ``kind="robin"`` a diagonal term
    ``p * h**(dim - 2)`` is added at the artificial-interface rows, the
    stacked rows whose dof couples in the symmetrized pattern of A
    (``Decomposition.graph``) to a dof outside its subdomain; ``p``
    defaults to ``1/h`` and may be a scalar or a per-dof array (complex
    values are allowed); an array of another shape raises ValueError, and
    a shift that is not finite raises ValueError.
    B takes R's index dtype; its Dirichlet part is ``within(A)`` itself,
    made canonical by ``linalg.compress`` (a no-op but for stored zeros
    when A is canonical).

    The Robin term takes one of two paths, with the same result. When the
    off-diagonal entries of ``linalg.compress(A)`` are exactly the graph's
    edges (A is the matrix the decomposition grew on, or has its
    pattern), a row of the Dirichlet block holds its stored diagonal and
    its dof's graph neighbours inside the subdomain: the inside count is
    the row's length minus its diagonal, and no second ``within`` runs.
    If every interface row then stores a diagonal, the shift is added in
    place on those diagonals, the block's data upcast to the shift's
    dtype. Otherwise (a non-symmetric pattern, a graph from another
    matrix) the inside count is read off ``within(graph)``; there, or
    when an interface row stores no diagonal, B is summed with the
    diagonal matrix of the shifts.
    """
    if kind not in ("dirichlet", "robin"):
        raise ValueError(f"unknown local operator kind {kind!r}")
    if kind == "robin" and (h is None or dim is None):
        raise ValueError("robin local operators need the mesh width h and dim")
    n = decomposition.n_dofs
    if kind == "robin" and np.ndim(p) and np.shape(p) != (n,):
        raise ValueError(f"robin parameter p has shape {np.shape(p)}; expected a scalar "
                         f"or one value per dof, shape ({n},) for n_dofs = {n}")
    B = linalg.compress(decomposition.within(A))
    if kind == "robin":
        graph, dofs = decomposition.graph, decomposition.R.indices
        degree = np.diff(graph.indptr)
        # a row is on the interface when its own subdomain holds fewer of
        # its dof's graph neighbours than the whole graph does
        C = linalg.compress(A)
        rows = np.repeat(np.arange(n), np.diff(C.indptr))
        off = C.indices != rows
        if (np.count_nonzero(off) == graph.nnz
                and np.array_equal(C.indices[off], graph.indices)
                and np.array_equal(np.bincount(rows[off], minlength=n), degree)):
            # A's off-diagonal entries are the graph's edges, so a row of B
            # holds its dof's neighbours inside the subdomain and its diagonal
            on_diag = B.indices == np.repeat(np.arange(dofs.size), np.diff(B.indptr))
            stored = np.zeros(dofs.size, dtype=bool)
            stored[B.indices[on_diag]] = True
            inside = np.diff(B.indptr) - stored
        else:
            stored = None
            inside = np.diff(decomposition.within(graph).indptr)
        interface = np.flatnonzero(inside < degree[dofs])
        p_dof = np.broadcast_to(np.asarray(1.0 / h if p is None else p), (n,))
        shift = p_dof[dofs[interface]] * float(h) ** (dim - 2)
        if not np.isfinite(shift).all():
            raise ValueError("robin shift p * h**(dim - 2) contains NaN or Inf")
        if stored is not None and stored[interface].all():
            # add the shift on B's stored diagonals, as the sum below would
            at = np.flatnonzero(on_diag)[np.cumsum(stored)[interface] - 1]
            B.data = B.data.astype(np.result_type(B.dtype, shift.dtype), copy=False)
            B.data[at] += shift
        else:
            B = B + linalg.csr_from_triplets(dofs.size, dofs.size, interface, interface, shift)
        B = linalg.compress(B)
    return B


class OneLevelPreconditioner:
    """Additive Schwarz preconditioner ``R^T W_L B^(-1) W_R R``.

    ``factor`` factorizes the stacked local operator B (see
    :func:`local_operator`), None for the identity variant "none"; the
    variant fixes which of the weights W_L, W_R are the stacked
    partition-of-unity weights.
    """

    def __init__(self, variant, decomposition, factor):
        if variant not in VARIANTS:
            raise ValueError(f"unknown Schwarz variant {variant!r}")
        self.variant = variant
        self.decomposition = decomposition
        self.factor = factor
        self.n = decomposition.n_dofs
        self.dtype = np.dtype(np.float64) if factor is None else factor.dtype
        w = decomposition.w
        self._w_left = w if variant in ("ras", "oras", "soras") else None
        self._w_right = w if variant == "soras" else None

    def apply(self, r):
        """Apply the preconditioner to a vector or, column by column, an (n, k) block.

        Both go through the same sparse products and one multi-right-hand-side
        solve with the factorization of B.
        """
        r = np.asarray(r)
        if r.ndim not in (1, 2) or r.shape[0] != self.n:
            raise ValueError(
                f"expected a vector or block with {self.n} rows, got {r.shape}")
        if self.variant == "none":
            return r.copy()
        R = self.decomposition.R
        y = R @ r
        if self._w_right is not None:
            y = (self._w_right * y.T).T
        z = self.factor.solve(y)
        if self._w_left is not None:
            z = (self._w_left * z.T).T
        return R.T @ z


def one_level(A, decomposition, variant, p=None, h=None, dim=None):
    """Build a one-level Schwarz preconditioner for ``A``.

    ``ROBIN_VARIANTS`` get Robin local blocks (``p``, ``h``, ``dim``), the
    others Dirichlet blocks.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown Schwarz variant {variant!r}")
    if variant == "none":
        return OneLevelPreconditioner("none", decomposition, None)
    kind = "robin" if variant in ROBIN_VARIANTS else "dirichlet"
    B = local_operator(A, decomposition, kind=kind, p=p, h=h, dim=dim)
    try:
        factor = linalg.auto_factor(B, blocks=decomposition.offsets)
    except linalg.SingularMatrixError as err:
        if err.block is None:
            raise
        raise linalg.SingularMatrixError(
            f"local operator of subdomain {err.block} is singular: {err}",
            block=err.block) from err
    return OneLevelPreconditioner(variant, decomposition, factor)


def richardson(A, b, M, x0=None, tol=1e-6, maxit=200):
    """Stationary iteration ``x <- x + M(b - A x)``.

    Returns ``(x, SolveReport)``; the report's ``diverged`` flag is set,
    and the iteration ends, when the residual grows a factor 1e6 above its
    initial value or is not finite. The solve takes the dtype of
    ``b - A x0``, at least float (``krylov.starting_point``); M returning
    complex values for a real solve raises TypeError.
    """
    matvec = as_operator(A)
    prec = as_preconditioner(M)
    b, x, r = starting_point(matvec, b, x0)
    bnorm = float(np.linalg.norm(b)) or 1.0
    history = [float(np.linalg.norm(r))]
    converged = history[-1] <= tol * bnorm
    diverged = not np.isfinite(history[-1])
    while not converged and not diverged and len(history) - 1 < maxit:
        x = x + castable(prec(r), x.dtype)
        r = b - matvec(x)
        history.append(float(np.linalg.norm(r)))
        converged = history[-1] <= tol * bnorm
        diverged = not np.isfinite(history[-1]) or history[-1] >= 1e6 * history[0]
    return x, SolveReport("richardson", history, tol, bnorm, converged,
                          diverged=diverged)


def alternating_schwarz_1d(m, m_s, sweeps, f=None):
    """Historical two-subdomain alternating method on the 1d Poisson problem.

    The unit interval with ``m`` interior nodes is split at node ``m_s``
    into left and right pieces that share one grid cell. Each sweep
    solves both local Dirichlet problems, taking boundary data from the
    latest iterate (``gauss_seidel``) or from the previous sweep only
    (``jacobi``). Returns the max-norm errors against the direct solution
    after every sweep, index 0 holding the initial error.
    """
    if not 1 <= m_s <= m - 1:
        raise ValueError(f"split node must lie in 1..{m - 1}, got {m_s}")
    sys = discretize.poisson_1d(m, f)
    Ad = sys.A.toarray()
    u_star = np.linalg.solve(Ad, sys.F)

    idx = [np.arange(m_s), np.arange(m_s, m)]
    solvers = [linalg.dense_cholesky_factor(Ad[np.ix_(s, s)]) for s in idx]
    coupling = [Ad[np.ix_(idx[0], idx[1])], Ad[np.ix_(idx[1], idx[0])]]

    histories = {}
    for mode in ("gauss_seidel", "jacobi"):
        u = np.zeros(m)
        errs = [float(np.max(np.abs(u - u_star)))]
        for _ in range(sweeps):
            src = u if mode == "gauss_seidel" else u.copy()
            u[idx[0]] = solvers[0].solve(sys.F[idx[0]] - coupling[0] @ src[idx[1]])
            u[idx[1]] = solvers[1].solve(sys.F[idx[1]] - coupling[1] @ src[idx[0]])
            errs.append(float(np.max(np.abs(u - u_star))))
        histories[mode] = np.asarray(errs)
    return histories
