"""Krylov solvers: conjugate gradients, preconditioned CG, and GMRES.

All drivers return ``(x, SolveReport)``. The residual history holds one
norm per iterate with the initial residual at index 0, and convergence
is declared on the relative criterion ``||r_k|| <= rtol * ||b||`` applied
to the recorded norms. GMRES records true residual norms
``||b - A x_k||_2``. CG and PCG record the recursive residual
``r_k = r_{k-1} - alpha A p``, which drifts from the true one in finite
precision (on 1D Poisson with 1024 dofs and 32 subdomains, a recursive
relative residual of 2.3e-13 against a true one of 4.7e-11). Every
report therefore carries ``true_final_relres``, the true relative
residual of the returned iterate, which costs CG and PCG one extra
matvec at exit.

No preconditioner is ``M=None``; GMRES applies an M on one of the
``SIDES``, left or right. Right-preconditioned GMRES keeps ``Z = M V``
beside its Arnoldi basis V, as flexible GMRES does: one apply of M per
iteration, iterates ``x0 + Z y``. A complex M needs a complex system (a
complex ``b``): PCG and GMRES raise TypeError rather than drop its
imaginary part or turn a real solve complex.
GMRES takes ``y`` from a QR factorization of its Hessenberg matrix that
``scipy.linalg.qr_insert`` extends by one row and one column per
iteration, so its memory follows the iterations run, not ``maxit``.
"""

import numpy as np
import scipy.linalg

METHODS = ("cg", "pcg", "gmres")
SIDES = ("left", "right")


class KrylovBreakdownError(RuntimeError):
    """Raised when a Krylov solver cannot continue.

    CG and PCG raise it on a non-positive inner product, GMRES on an
    operator or preconditioner output holding NaN or Inf, on a zero
    preconditioned initial residual, and on an exactly singular triangular
    factor of the reduced Hessenberg matrix.
    """


class SolveReport:
    """Outcome of one solver run.

    Attributes
    ----------
    method : str
    iterations : int
        Number of completed iterations; ``len(residual_history) - 1``.
    converged : bool
    diverged : bool
        Set by stationary drivers when the residual grows a factor 1e6
        above its initial value or is not finite.
    residual_history : ndarray
        Residual norms, entry 0 is ``||b - A x0||``. True residual norms
        for GMRES and stationary drivers, recursive ones for CG and PCG.
    rtol : float
    bnorm : float
        Norm of the right-hand side used in the stopping test.
    true_residual : float
        ``||b - A x||`` of the returned iterate; defaults to the last
        history entry, which is exact when the history holds true norms.
    energy_errors : ndarray or None
        ``sqrt((x_k - x*)^H A (x_k - x*))`` per iterate when a reference
        solution was supplied.
    iterates : list of ndarray or None
        Solution iterates (excluding x0) when requested.
    """

    def __init__(self, method, residual_history, rtol, bnorm, converged,
                 diverged=False, energy_errors=None, iterates=None,
                 true_residual=None):
        self.method = method
        self.residual_history = np.asarray(residual_history, dtype=float)
        self.true_residual = float(
            self.residual_history[-1] if true_residual is None else true_residual)
        self.rtol = float(rtol)
        self.bnorm = float(bnorm)
        self.converged = bool(converged)
        self.diverged = bool(diverged)
        self.energy_errors = (
            None if energy_errors is None else np.asarray(energy_errors, dtype=float)
        )
        self.iterates = iterates

    @property
    def iterations(self):
        return len(self.residual_history) - 1

    @property
    def final_relres(self):
        return float(self.residual_history[-1]) / self.bnorm

    @property
    def true_final_relres(self):
        return self.true_residual / self.bnorm

    def to_dict(self):
        d = {
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "diverged": self.diverged,
            "rtol": self.rtol,
            "final_relres": self.final_relres,
            "true_final_relres": self.true_final_relres,
            "residual_history": self.residual_history.tolist(),
        }
        if self.energy_errors is not None:
            d["energy_errors"] = self.energy_errors.tolist()
        return d

    def __repr__(self):
        state = "converged" if self.converged else "not converged"
        return (f"SolveReport({self.method}, {self.iterations} iterations, "
                f"{state}, final relres {self.final_relres:.3e})")


def as_operator(A):
    """Wrap a matrix-like or callable as a matvec closure."""
    if hasattr(A, "__matmul__"):
        return lambda v: A @ v
    if callable(A):
        return A
    raise TypeError(f"cannot interpret {type(A).__name__} as a linear operator")


def as_preconditioner(M):
    """Wrap a preconditioner as a closure applying its action.

    Accepts None (identity), objects with an ``apply`` method, matrix
    factorizations with a ``solve`` method, plain callables, and
    matrix-likes applied via ``@``.

    A preconditioner maps a vector of length n to a vector, and an
    ``(n, k)`` block column by column to an ``(n, k)`` block. The solvers
    here pass vectors only; ``analysis`` assembles M^-1 from block
    applies of panels of identity columns, so a plain callable given
    there must honour the block form too (scale rows with
    ``(d * r.T).T``, not ``d * r``).
    """
    if M is None:
        return lambda r: r
    if hasattr(M, "apply"):
        return M.apply
    if hasattr(M, "solve"):
        return M.solve
    if callable(M):
        return M
    if hasattr(M, "__matmul__"):
        return lambda r: M @ r
    raise TypeError(f"cannot interpret {type(M).__name__} as a preconditioner")


def starting_point(matvec, b, x0):
    """``(b, x0, r0)`` of a solve from ``x0``, zero when None.

    The solve takes the dtype of ``b - A x0``, at least float: a complex
    start on a real system makes the solve complex. ``x0`` is copied.
    """
    b = np.asarray(b)
    x0 = np.zeros_like(b) if x0 is None else np.asarray(x0)
    r0 = b - matvec(x0)
    dtype = np.result_type(r0.dtype, float)
    return b, x0.astype(dtype), r0.astype(dtype, copy=False)


def castable(v, dtype):
    """``v`` as an array, not copied; TypeError if it is complex and ``dtype`` real.

    A preconditioner's output passes here before it enters a solve of
    ``dtype``, so that no imaginary part is dropped and a real solve does
    not turn complex unasked.
    """
    v = np.asarray(v)
    if not np.can_cast(v.dtype, dtype, casting="same_kind"):
        raise TypeError(f"preconditioner returned {v.dtype} values for a "
                        f"{np.dtype(dtype)} solve; give a complex right-hand side")
    return v


def _cast(v, dtype):
    """Copy ``v`` to ``dtype``; TypeError rather than drop an imaginary part."""
    return castable(v, dtype).astype(dtype)


def _norm(v):
    return float(np.linalg.norm(v))


def _energy_error(matvec, x, x_star):
    e = x - x_star
    val = np.vdot(e, matvec(e)).real
    return float(np.sqrt(max(val, 0.0)))


def cg(A, b, x0=None, tol=1e-6, maxit=200, x_star=None, keep_iterates=False):
    """Conjugate gradients for symmetric positive definite systems."""
    return _cg_loop(A, b, None, x0, tol, maxit, x_star, keep_iterates, "cg")


def pcg(A, b, M, x0=None, tol=1e-6, maxit=200, x_star=None, keep_iterates=False):
    """Preconditioned conjugate gradients; M applies the preconditioner.

    Raises TypeError if M returns complex values for a real system.
    """
    return _cg_loop(A, b, M, x0, tol, maxit, x_star, keep_iterates, "pcg")


def _cg_loop(A, b, M, x0, tol, maxit, x_star, keep_iterates, method):
    matvec = as_operator(A)
    prec = as_preconditioner(M)
    b, x, r = starting_point(matvec, b, x0)
    bnorm = _norm(b) or 1.0
    history = [_norm(r)]
    energy = None if x_star is None else [_energy_error(matvec, x, x_star)]
    iterates = [] if keep_iterates else None

    z = castable(prec(r), r.dtype)
    rz = np.vdot(r, z).real
    p = np.array(z, copy=True)
    converged = history[-1] <= tol * bnorm

    while not converged and len(history) - 1 < maxit:
        if rz <= 0.0:
            raise KrylovBreakdownError(
                f"{method}: preconditioned inner product {rz:.3e} is not positive"
            )
        Ap = matvec(p)
        pAp = np.vdot(p, Ap).real
        if pAp <= 0.0 or not np.isfinite(pAp):
            raise KrylovBreakdownError(
                f"{method}: curvature p^T A p = {pAp:.3e} is not positive"
            )
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        history.append(_norm(r))
        if energy is not None:
            energy.append(_energy_error(matvec, x, x_star))
        if iterates is not None:
            iterates.append(x.copy())
        converged = history[-1] <= tol * bnorm
        if converged:
            break
        z = castable(prec(r), r.dtype)
        rz_new = np.vdot(r, z).real
        p = z + (rz_new / rz) * p
        rz = rz_new

    report = SolveReport(method, history, tol, bnorm, converged,
                         energy_errors=energy, iterates=iterates,
                         true_residual=_norm(b - matvec(x)))
    return x, report


def gmres(A, b, M=None, side="right", x0=None, tol=1e-6, maxit=200,
          keep_iterates=False):
    """Full GMRES with modified Gram-Schmidt Arnoldi.

    ``side`` selects the preconditioning flavor: "right" (default) keeps
    the algorithm's residual equal to the true residual, "left" builds the
    Krylov space on preconditioned residuals; ``M=None`` runs without a
    preconditioner on either side. The reported history always contains
    true residual norms; convergence is tested on the true relative
    residual for every side.
    Right preconditioning applies M once per iteration (``Z = M V``).
    ``y`` solves ``R y = beta Q^H e1`` for the QR factors of the
    Hessenberg matrix, updated by a zero row and the new Arnoldi column.
    Raises TypeError if M returns complex values for a real system, and
    KrylovBreakdownError if M, or A in r0 or an Arnoldi vector, returns NaN
    or Inf, if left preconditioning maps r0 to zero, or if the triangular
    factor of the reduced Hessenberg matrix is exactly singular.
    """
    if side not in SIDES:
        raise ValueError(f"unknown preconditioning side {side!r}")
    matvec = as_operator(A)
    if M is None:
        side = None  # plain Arnoldi: no apply, and Z is V
    apply_M = as_preconditioner(M)

    def prec(v):
        z = apply_M(v)
        if not np.all(np.isfinite(z)):
            raise KrylovBreakdownError("gmres: preconditioner returned NaN or Inf")
        return z

    b, x0, r0 = starting_point(matvec, b, x0)
    dtype = r0.dtype
    bnorm = _norm(b) or 1.0

    history = [_norm(r0)]
    if not np.isfinite(history[0]):
        raise KrylovBreakdownError("gmres: operator returned NaN or Inf")
    iterates = [] if keep_iterates else None
    if history[0] <= tol * bnorm:
        report = SolveReport("gmres", history, tol, bnorm, True,
                             iterates=iterates)
        return x0, report

    t = prec(r0) if side == "left" else r0
    beta = _norm(t)
    if beta == 0.0:
        raise KrylovBreakdownError("gmres: preconditioned initial residual M r0 is zero")
    # bases grow one vector per iteration, so memory follows the
    # iterations run, not maxit
    V = [_cast(t / beta, dtype)]
    Z = [] if side == "right" else V

    x = x0
    converged = False
    for k in range(min(maxit, b.shape[0])):
        v = V[k]
        if side == "right":
            Z.append(_cast(prec(v), dtype))
            w = matvec(Z[k])
        elif side == "left":
            w = prec(matvec(v))
        else:
            w = matvec(v)
        w = _cast(w, dtype)
        h = np.empty(k + 2, dtype=dtype)
        for j, vj in enumerate(V):
            h[j] = np.vdot(vj, w)
            w -= h[j] * vj
        h[k + 1] = _norm(w)
        if not np.isfinite(h[k + 1]):
            raise KrylovBreakdownError("gmres: operator returned NaN or Inf")
        lucky = abs(h[k + 1]) <= 1e-14 * beta
        if not lucky:
            V.append(w / h[k + 1])

        # QR of the (k + 2) x (k + 1) Hessenberg matrix, one column at a
        # time: min ||beta e1 - H y|| is R y = beta Q^H e1.
        if k == 0:
            Q, R = scipy.linalg.qr(h[:, None])
        else:
            Q, R = scipy.linalg.qr_insert(Q, R, np.zeros(k, dtype=dtype), k + 1,
                                          which="row", check_finite=False)
            Q, R = scipy.linalg.qr_insert(Q, R, h, k, which="col",
                                          check_finite=False)
        try:
            y = scipy.linalg.solve_triangular(R[: k + 1, : k + 1],
                                              beta * Q[0, : k + 1].conj())
        except np.linalg.LinAlgError as exc:
            raise KrylovBreakdownError(
                f"gmres: reduced Hessenberg matrix is singular ({exc})") from exc
        xk = x0 + np.asarray(Z[: k + 1]).T @ y
        true_res = _norm(b - matvec(xk))
        history.append(true_res)
        if iterates is not None:
            iterates.append(xk)
        x = xk
        if true_res <= tol * bnorm:
            converged = True
            break
        if lucky:
            # The Krylov space is invariant; nothing further can improve.
            break

    report = SolveReport("gmres", history, tol, bnorm, converged,
                         iterates=iterates)
    return x, report

